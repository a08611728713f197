import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sytknap.degrees import degree, three_row_value
from sytknap.partitions import (
    MAX_SHAPE_CELLS,
    add_rim_hooks,
    branching_children,
    conjugate,
    fat_hook,
    format_shape,
    hook_lengths,
    make_partition,
    pad,
    parse_shape,
    partitions,
    rim_hook_count,
    second_part_family,
    square_two_tail_partitions,
    straighten,
    third_parts,
    three_row,
)

small_partitions = st.integers(0, 12).flatmap(
    lambda n: st.sampled_from(list(partitions(n)) or [()])
)


class TestMakePartition:
    def test_trims_trailing_zeros(self):
        assert make_partition([3, 1, 0]) == (3, 1)
        assert make_partition([3, 0, 0]) == (3,)

    def test_empty(self):
        assert make_partition([]) == ()
        assert make_partition([0, 0]) == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            make_partition([2, 3])

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            make_partition([3, 0, 1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_partition([2, -1])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            make_partition([2.5, 1])

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([3, -1, "x"], "partition parts must be nonnegative, got -1"),
            (["x", -1], "partition parts must be integers, got 'x'"),
            ([1, 2, -1], "partition parts must be nonnegative, got -1"),
            ([1, 2, 2.0], "partition parts must be integers, got 2.0"),
            ([3, 0, 1, 0], "parts are not weakly decreasing: [3, 0, 1, 0]"),
        ],
    )
    def test_first_error_wins_for_lists_and_tuples(self, parts, message):
        for seq in (parts, tuple(parts)):
            with pytest.raises(ValueError) as exc:
                make_partition(seq)
            assert str(exc.value) == message

    def test_tuple_input_is_trimmed(self):
        assert make_partition((4, 2, 0, 0)) == (4, 2)
        assert make_partition((True, False)) == (True,)


class TestConjugate:
    def test_known(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((5,)) == (1, 1, 1, 1, 1)
        assert conjugate(()) == ()

    @settings(max_examples=60)
    @given(small_partitions)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    def test_involution_at_20(self):
        for p in partitions(20):
            assert conjugate(conjugate(p)) == p

    @staticmethod
    def column_lengths(p):
        return tuple(sum(1 for part in p if part > j) for j in range(p[0])) if p else ()

    def test_matches_column_count_definition(self):
        for n in range(21):
            for p in partitions(n):
                assert conjugate(p) == self.column_lengths(p)

    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 400), max_size=80))
    def test_matches_column_count_definition_on_large_parts(self, parts):
        p = tuple(sorted(parts, reverse=True))
        assert conjugate(p) == self.column_lengths(p)

    def test_trailing_zeros_are_ignored(self):
        assert conjugate((3, 1, 0, 0)) == conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((0,)) == ()


class TestHookLengths:
    def test_two_by_two(self):
        assert hook_lengths((2, 2)) == [[3, 2], [2, 1]]

    def test_single_cell(self):
        assert hook_lengths((1,)) == [[1]]

    def test_first_row_of_311(self):
        assert hook_lengths((3, 1, 1))[0] == [5, 2, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hook_lengths(())

    def test_three_row_first_row_product(self):
        # first-row hooks of (r, s, t) multiply to (r+2)!/((r-t+2)(r-s+1))
        from math import factorial

        r, s, t = 7, 4, 2
        row = hook_lengths((r, s, t))[0]
        prod = 1
        for h in row:
            prod *= h
        assert prod * (r - t + 2) * (r - s + 1) == factorial(r + 2)


class TestBranching:
    def test_single_corner(self):
        assert branching_children((2, 2)) == [(2, 1)]

    def test_two_corners(self):
        assert branching_children((3, 1)) == [(3,), (2, 1)]

    def test_long_fat_hook(self):
        got = branching_children((6, 5) + (1,) * 8)
        assert set(got) == {
            (5, 5) + (1,) * 8,
            (6, 4) + (1,) * 8,
            (6, 5) + (1,) * 7,
        }

    def test_child_count_is_distinct_part_count(self):
        for n in range(1, 13):
            for p in partitions(n):
                assert len(branching_children(p)) == len(set(p))

    def test_children_are_the_corners(self):
        # the corner rule on the diagram: row i loses its last cell where it
        # is longer than the row below
        for n in range(1, 13):
            for p in partitions(n):
                corners = [
                    make_partition(p[:i] + (p[i] - 1,) + p[i + 1:])
                    for i in range(len(p))
                    if i + 1 == len(p) or p[i] > p[i + 1]
                ]
                assert branching_children(p) == sorted(corners, reverse=True), p


class TestRimHooks:
    def test_known_alternating_example(self):
        got = add_rim_hooks((3, 1), 6)
        assert got == [
            (1, (9, 1)),
            (-1, (6, 4)),
            (1, (4, 4, 2)),
            (-1, (3, 3, 2, 1, 1)),
            (1, (3, 2, 2, 1, 1, 1)),
            (-1, (3, 1, 1, 1, 1, 1, 1, 1)),
        ]

    def test_single_cell(self):
        assert add_rim_hooks((), 1) == [(1, (1,))]

    def test_all_three_hooks(self):
        assert add_rim_hooks((), 3) == [(1, (3,)), (-1, (2, 1)), (1, (1, 1, 1))]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            add_rim_hooks((2,), 0)

    def test_budget(self, monkeypatch):
        # the package re-exports the partitions() function under the module's name
        module = importlib.import_module("sytknap.partitions")
        monkeypatch.setattr(module, "MAX_RIM_HOOK_CELLS", 6)
        assert len(add_rim_hooks((3, 1), 6)) == 6
        with pytest.raises(ValueError, match="rim hook has 7 cells; the limit is 6"):
            add_rim_hooks((3, 1), 7)

    def test_count_matches_the_additions(self, monkeypatch):
        for m in range(8):
            for mu in partitions(m):
                for k in range(1, 9):
                    assert rim_hook_count(mu, k) == len(add_rim_hooks(mu, k)), (mu, k)
        monkeypatch.setattr(importlib.import_module("sytknap.partitions"), "MAX_RIM_HOOK_CELLS", 6)
        for k in (0, 7):
            with pytest.raises(ValueError):
                rim_hook_count((3, 1), k)

    def test_results_are_rim_additions(self):
        # every output contains mu cellwise, has the right size, and the
        # added cells form one connected rim strip
        for m in range(9):
            for mu in partitions(m):
                for k in range(1, 9):
                    for _, lam in add_rim_hooks(mu, k):
                        assert sum(lam) == m + k
                        padded_mu = pad(mu, len(lam))
                        assert all(a >= b for a, b in zip(lam, padded_mu))
                        assert _is_rim_strip(lam, padded_mu)

    def test_every_rim_hook_with_its_sign_from_the_diagram(self):
        # each lam containing mu whose added cells form a rim hook, found on
        # the diagram, with the sign (-1)**(rows where lam exceeds mu - 1)
        signs = {1: 0, -1: 0}
        for m in range(10):
            for mu in partitions(m):
                for k in range(1, 10):
                    expected = []
                    for lam in partitions(m + k):
                        if len(lam) < len(mu):
                            continue
                        padded_mu = pad(mu, len(lam))
                        if all(a >= b for a, b in zip(lam, padded_mu)) and _is_rim_strip(lam, padded_mu):
                            rows = sum(a > b for a, b in zip(lam, padded_mu))
                            expected.append(((-1) ** (rows - 1), lam))
                            signs[(-1) ** (rows - 1)] += 1
                    assert add_rim_hooks(mu, k) == expected, (mu, k)
        assert min(signs.values()) > 1000, signs


class TestStraighten:
    def test_examples(self):
        assert straighten((4, 2, 0)) == (1, (2, 1))
        assert straighten((2, 4, 0)) == (-1, (2, 1))
        assert straighten((0, 4, 2)) == (1, (2, 1))  # a cyclic rotation is even
        assert straighten((6, 1)) == (1, (5, 1))
        assert straighten(()) == (1, ())
        assert straighten((3, 3, 0)) is None
        assert straighten((4, 2, -1)) is None

    def test_sign_is_the_parity_of_the_inversions(self):
        # random sequences, some with repeats or negatives, and one of 700
        rng = random.Random(23)
        sequences = [rng.sample(range(3 * r), r) for r in range(12) for _ in range(40)]
        sequences += [[rng.randrange(-2, 2 * r) for _ in range(r)] for r in range(12) for _ in range(40)]
        sequences.append(rng.sample(range(2_000), 700))
        signs = {1: 0, -1: 0, None: 0}
        for beta in sequences:
            rows, straight = len(beta), straighten(tuple(beta))
            if len(set(beta)) < rows or min(beta, default=0) < 0:
                expected = None
            else:
                inversions = sum(b < c for i, b in enumerate(beta) for c in beta[i + 1:])
                ordered = sorted(beta, reverse=True)
                expected = ((-1) ** inversions, make_partition([b - (rows - 1 - i) for i, b in enumerate(ordered)]))
            assert straight == expected, beta
            signs[straight and straight[0]] += 1
        assert min(signs.values()) > 100, signs

    def test_three_row_values_in_a_box(self):
        # the three-row closed form at any triple is 0 or +-f(lambda), as
        # straightening its beta numbers (x+2, y+1, z) says
        signs = {-1: 0, 0: 0, 1: 0}
        for x in range(-6, 12):
            for y in range(-6, 12):
                for z in range(-6, 12):
                    if x + y + z < 0:
                        continue
                    straight = straighten((x + 2, y + 1, z))
                    sign, shape = straight or (0, ())
                    assert three_row_value(x, y, z) == sign * degree(shape), (x, y, z, straight)
                    signs[sign] += 1
        # every outcome is reached, so no branch is checked vacuously
        assert min(signs.values()) > 500, signs


def _is_rim_strip(lam, mu):
    """Added cells are connected through shared edges and one cell thick."""
    cells = set()
    for i in range(len(lam)):
        for j in range(mu[i], lam[i]):
            cells.add((i, j))
    # one cell thick: no 2x2 block
    for (i, j) in cells:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells:
            return False
    # connected through shared edges
    start = next(iter(cells))
    seen = {start}
    frontier = [start]
    while frontier:
        i, j = frontier.pop()
        for nxt in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == cells


class TestSecondPartFamily:
    def test_n32_k11_members(self):
        assert second_part_family(32, 11, True) == [
            (20, 11, 1),
            (18, 11, 3),
            (16, 11, 5),
            (14, 11, 7),
            (12, 11, 9),
        ]

    def test_n32_k12_opposite_members(self):
        assert second_part_family(32, 12, False) == [
            (19, 12, 1),
            (17, 12, 3),
            (15, 12, 5),
            (13, 12, 7),
        ]

    def test_small(self):
        assert second_part_family(4, 1, True) == [(2, 1, 1)]

    def test_zero_third_parts_are_canonical(self):
        fam = second_part_family(20, 2, True)
        assert fam[0] == (18, 2)

    def test_members_are_canonical_partitions(self):
        # built without make_partition, each member must already be what it
        # returns, down to n = 0 and k = 0
        assert second_part_family(0, 0) == [()] and second_part_family(7, 0) == [(7,)]
        for n in range(31):
            for k in range(n + 1):
                for same in (True, False):
                    for p in second_part_family(n, k, same):
                        assert make_partition(p) == p and sum(p) == n, (n, k, same)

    def test_union_is_all_three_part_with_fixed_second(self):
        for n in range(1, 31):
            for k in range(n + 1):
                same = second_part_family(n, k, True)
                opp = second_part_family(n, k, False)
                assert not set(same) & set(opp)
                expected = {
                    p for p in partitions(n, 3) if pad(p, 3)[1] == k
                }
                assert set(same) | set(opp) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            second_part_family(4, 5, True)

    def test_third_parts_are_the_family(self):
        for n in range(80):
            for k in range(n + 1):
                for same in (True, False):
                    family = second_part_family(n, k, same)
                    assert [pad(p, 3)[2] for p in family] == list(third_parts(n, k, same)), (n, k, same)
        for k in (-1, 9):
            for call in (third_parts, second_part_family):
                with pytest.raises(ValueError, match=f"^need 0 <= k <= n, got n=5, k={k}$"):
                    call(5, k, True)


class TestFamilies:
    def test_max_rows(self):
        assert list(partitions(4, 3)) == [(4,), (3, 1), (2, 2), (2, 1, 1)]

    def test_max_rows_is_a_row_count_filter(self):
        for n in range(31):
            every = list(partitions(n))
            for rows in [0, 1, 2, 3, 4, 5, None]:
                kept = [p for p in every if rows is None or len(p) <= rows]
                assert list(partitions(n, rows)) == kept, (n, rows)

    def test_square_two_tail(self):
        assert square_two_tail_partitions(4) == [(2, 2)]
        assert set(square_two_tail_partitions(6)) == {(2, 2, 2), (3, 3)}

    def test_square_two_tail_odd_rejected(self):
        with pytest.raises(ValueError):
            square_two_tail_partitions(7)

    def test_partition_counts(self):
        assert sum(1 for _ in partitions(12)) == 77

    def test_fat_hook_shapes(self):
        assert fat_hook(5, 5, 3) == (5, 5, 1, 1, 1)
        assert fat_hook(3, 3, 0) == (3, 3)
        assert fat_hook(3, 3, -2) is None
        assert fat_hook(0, 0, 4) is None
        assert fat_hook(2, 3, 1) is None

    def test_three_row_shapes(self):
        assert three_row(4, 3, 1) == (4, 3, 1)
        assert three_row(4, 0, 0) == (4,)
        assert three_row(2, 3, 1) is None


class TestShapeText:
    def test_format(self):
        assert format_shape((5, 5, 1, 1, 1)) == "5,5,1^3"
        assert format_shape((2, 2, 2)) == "2^3"
        assert format_shape((10, 10)) == "10,10"
        assert format_shape((18, 2, 0)) == "18,2,0"
        assert format_shape(()) == "()"

    def test_parse(self):
        assert parse_shape("5,5,1^10") == (5, 5) + (1,) * 10
        assert parse_shape("3,1") == (3, 1)
        assert parse_shape("()") == ()

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_shape("1^-2")
        with pytest.raises(ValueError):
            parse_shape("1,3")

    def test_parse_budget_is_inclusive(self):
        assert parse_shape(f"1^{MAX_SHAPE_CELLS}") == (1,) * MAX_SHAPE_CELLS
        assert parse_shape(f"{MAX_SHAPE_CELLS - 1},1") == (MAX_SHAPE_CELLS - 1, 1)

    @pytest.mark.parametrize(
        "text",
        [
            f"{MAX_SHAPE_CELLS + 1}",
            f"1^{MAX_SHAPE_CELLS + 1}",
            f"2^{MAX_SHAPE_CELLS // 2},1",
            f"{MAX_SHAPE_CELLS},1",
            f"0^{MAX_SHAPE_CELLS + 1}",  # a zero part counts as one cell
            "5^1000000000",
            f"{10**9}",
        ],
    )
    def test_parse_refuses_shapes_over_budget(self, text):
        with pytest.raises(ValueError, match=f"the limit is {MAX_SHAPE_CELLS}"):
            parse_shape(text)

    def test_pad_rejects_short_length(self):
        with pytest.raises(ValueError):
            pad((3, 2, 1), 2)

    def test_roundtrip(self):
        for n in range(13):
            for p in partitions(n):
                assert parse_shape(format_shape(p)) == p
