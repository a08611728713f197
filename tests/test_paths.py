import pytest

from sytknap import paths
from sytknap.degrees import degree
from sytknap.partitions import fat_hook, pad, partitions
from sytknap.paths import (
    PathKind,
    catalan_number,
    count_paths,
    count_riordan_by_steps,
    enumerate_paths,
    iter_paths,
    syt_row_bounded_count,
)


class TestCounts:
    def test_known_values(self):
        assert count_paths(PathKind.DYCK, 3) == 5
        assert count_paths(PathKind.MOTZKIN, 4) == 9
        assert count_paths(PathKind.RIORDAN, 4) == 3
        assert count_paths(PathKind.RIORDAN, 1) == 0

    def test_sequences(self):
        assert [count_paths(PathKind.MOTZKIN, n) for n in range(9)] == [
            1, 1, 2, 4, 9, 21, 51, 127, 323,
        ]
        assert [count_paths(PathKind.RIORDAN, n) for n in range(11)] == [
            1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603,
        ]

    def test_dyck_is_catalan(self):
        for n in range(15):
            assert count_paths(PathKind.DYCK, n) == catalan_number(n)

    def test_length_budget(self, monkeypatch):
        monkeypatch.setattr(paths, "MAX_PATH_LENGTH", 10)
        assert count_paths(PathKind.MOTZKIN, 10) == 2188
        assert count_paths(PathKind.DYCK, 5) == 42
        with pytest.raises(ValueError, match="^motzkin n=11 has paths of 11 steps; the limit is 10$"):
            count_paths(PathKind.MOTZKIN, 11)
        with pytest.raises(ValueError, match="^dyck n=6 has paths of 12 steps; the limit is 10$"):
            count_paths(PathKind.DYCK, 6)

    def test_default_length_budget(self):
        limit = paths.MAX_PATH_LENGTH
        for kind, n in [(PathKind.MOTZKIN, limit + 1), (PathKind.RIORDAN, 10**9), (PathKind.DYCK, limit // 2 + 1)]:
            with pytest.raises(ValueError, match=f"the limit is {limit}$"):
                count_paths(kind, n)


class TestEnumeration:
    def test_empty_path(self):
        assert enumerate_paths(PathKind.RIORDAN, 0) == [""]

    def test_motzkin_2(self):
        assert enumerate_paths(PathKind.MOTZKIN, 2) == ["FF", "UD"]

    def test_riordan_2_and_4(self):
        assert enumerate_paths(PathKind.RIORDAN, 2) == ["UD"]
        assert set(enumerate_paths(PathKind.RIORDAN, 4)) == {"UUDD", "UDUD", "UFFD"}

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_paths(PathKind.MOTZKIN, 17)

    def test_listing_budget(self, monkeypatch):
        # the budget counts paths: dyck n = 13 fits, n = 14 does not, and a
        # patched budget one short of dyck n = 14 refuses it unbuilt
        assert count_paths(PathKind.DYCK, 13) <= paths.MAX_LISTED_PATHS < count_paths(PathKind.DYCK, 14)
        limit = count_paths(PathKind.DYCK, 14) - 1
        monkeypatch.setattr(paths, "MAX_LISTED_PATHS", limit)
        with pytest.raises(ValueError, match=f"^dyck n=14 has more than {limit} paths to list$"):
            enumerate_paths(PathKind.DYCK, 14)
        monkeypatch.setattr(paths, "MAX_LISTED_PATHS", count_paths(PathKind.DYCK, 5))
        assert len(enumerate_paths(PathKind.DYCK, 5)) == 42
        with pytest.raises(ValueError):
            enumerate_paths(PathKind.DYCK, 6)

    def test_long_listing_refused_without_counting(self, monkeypatch):
        def never(kind, n):
            raise AssertionError("count_paths ran past length 28")

        monkeypatch.setattr(paths, "count_paths", never)
        for kind, n in [(PathKind.DYCK, 15), (PathKind.MOTZKIN, 29), (PathKind.RIORDAN, 10**9)]:
            with pytest.raises(ValueError, match="paths to list"):
                enumerate_paths(kind, n)

    def test_riordan_subset_of_motzkin(self):
        for n in range(9):
            motzkin = set(enumerate_paths(PathKind.MOTZKIN, n))
            assert set(enumerate_paths(PathKind.RIORDAN, n)) <= motzkin

    def test_counts_match_enumeration(self):
        for n in range(15):
            for kind in (PathKind.MOTZKIN, PathKind.RIORDAN):
                assert count_paths(kind, n) == sum(1 for _ in iter_paths(kind, n))
        for n in range(13):
            assert count_paths(PathKind.DYCK, n) == sum(
                1 for _ in iter_paths(PathKind.DYCK, n)
            )

    def test_paths_are_valid(self):
        for kind in PathKind:
            for p in enumerate_paths(kind, 6):
                h = 0
                for i, step in enumerate(p):
                    if step == "F" and kind is PathKind.RIORDAN:
                        assert h > 0
                    if step == "F":
                        assert kind is not PathKind.DYCK
                    h += {"U": 1, "F": 0, "D": -1}[step]
                    assert h >= 0
                assert h == 0


class TestRiordanBySteps:
    def test_known(self):
        assert count_riordan_by_steps(4, 0, 2) == 2
        assert count_riordan_by_steps(4, 2, 1) == 1
        assert count_riordan_by_steps(6, 0, 3) == 5

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            count_riordan_by_steps(4, 1, 2)
        with pytest.raises(ValueError):
            count_riordan_by_steps(4, 4, 0)

    def test_matches_fat_hook_degree(self):
        for n in range(1, 15):
            for flats in range(n):
                if (n - flats) % 2:
                    continue
                ups = (n - flats) // 2
                assert count_riordan_by_steps(n, flats, ups) == degree(
                    fat_hook(ups, ups, flats)
                )

    def test_matches_exhaustive_enumeration(self):
        from collections import Counter

        for n in range(1, 13):
            seen = Counter()
            for p in iter_paths(PathKind.RIORDAN, n):
                seen[(p.count("F"), p.count("U"))] += 1
            for flats in range(n):
                if (n - flats) % 2:
                    continue
                ups = (n - flats) // 2
                assert count_riordan_by_steps(n, flats, ups) == seen.get(
                    (flats, ups), 0
                )


class TestRowBoundedCounts:
    def test_small(self):
        assert syt_row_bounded_count(4, 3) == 9
        assert syt_row_bounded_count(4, 4) == 10
        assert syt_row_bounded_count(0, 5) == 1

    def test_motzkin_three_rows(self):
        for n in range(31):
            assert count_paths(PathKind.MOTZKIN, n) == syt_row_bounded_count(n, 3)

    def test_riordan_fat_hook_ladder(self):
        for n in range(1, 31):
            ladder = sum(
                degree(fat_hook(k, k, n - 2 * k)) for k in range(1, n // 2 + 1)
            )
            assert count_paths(PathKind.RIORDAN, n) == ladder

    def test_riordan_equal_parity_family(self):
        for n in range(1, 31):
            fam = [
                p
                for p in partitions(n, 3)
                if pad(p, 3)[0] % 2 == pad(p, 3)[1] % 2 == pad(p, 3)[2] % 2
            ]
            assert count_paths(PathKind.RIORDAN, n) == sum(degree(p) for p in fam)

    def test_four_rows_catalan_product(self):
        for n in range(25):
            assert syt_row_bounded_count(n, 4) == catalan_number(
                (n + 1) // 2
            ) * catalan_number((n + 2) // 2)
