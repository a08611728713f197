import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sytknap import degrees
from sytknap.degrees import (
    degree,
    degree_fat_hook,
    degree_three_row,
    degree_uncached,
    fat_hook_value,
    syt_enumerate,
    three_row_value,
)
from sytknap.partitions import conjugate, fat_hook, hook_lengths, partitions, second_part_family


def assert_hook_formula(p):
    """The block product in degree() against hook_lengths, cell by cell."""
    cells = math.prod(h for row in hook_lengths(p) for h in row)
    assert degree_uncached(p) * cells == math.factorial(sum(p)), p


@st.composite
def three_row_shapes(draw, cells=250):
    t = draw(st.integers(0, cells // 3))
    s = draw(st.integers(t, (cells - t) // 2))
    return (draw(st.integers(max(s, 1), cells - s - t)), s, t)


@st.composite
def fat_hook_shapes(draw, cells=250):
    b = draw(st.integers(1, cells // 2))
    a = draw(st.integers(b, cells - b))
    return fat_hook(a, b, draw(st.integers(0, cells - a - b)))


@st.composite
def random_shapes(draw, cells=60):
    remaining, largest, parts = draw(st.integers(1, cells)), cells, []
    while remaining:
        largest = draw(st.integers(1, min(largest, remaining)))
        parts.append(largest)
        remaining -= largest
    return tuple(parts)


class TestDegree:
    def test_catalan_shape(self):
        assert degree((3, 3)) == 5

    def test_single_column(self):
        assert degree((1,) * 7) == 1

    def test_hand_oracle(self):
        assert degree((3, 1, 1)) == 6

    def test_empty(self):
        assert degree(()) == 1

    def test_cache_is_invisible(self):
        for p in [(4, 2, 1), (6, 6, 1), (9,), (2, 2, 2, 2)]:
            assert degree(p) == degree_uncached(p)

    def test_exact_division_up_to_30(self):
        # the hook product divides n! exactly; degree() raises otherwise
        for n in range(31):
            for p in partitions(n):
                assert degree_uncached(p) >= 1

    def test_exact_division_spot_60(self):
        for p in [(60,), (30, 30), (20, 20, 20), (10,) * 6, (12, 11, 10, 9, 8, 6, 4)]:
            assert degree_uncached(p) >= 1

    def test_exact_division_random_sample_60(self):
        import random

        rng = random.Random(60)
        for _ in range(150):
            remaining, largest, parts = 60, 60, []
            while remaining:
                part = rng.randint(1, min(largest, remaining))
                parts.append(part)
                largest = part
                remaining -= part
            assert degree_uncached(tuple(parts)) >= 1


class TestHookProductOracle:
    def test_every_partition_to_20(self):
        for n in range(1, 21):
            for p in partitions(n):
                assert_hook_formula(p)

    @settings(max_examples=60)
    @given(three_row_shapes())
    def test_three_row_shapes(self, p):
        assert_hook_formula(p)

    @settings(max_examples=60)
    @given(fat_hook_shapes())
    def test_fat_hooks(self, p):
        assert_hook_formula(p)

    @settings(max_examples=100)
    @given(random_shapes())
    def test_random_shapes(self, p):
        assert_hook_formula(p)

    def test_staircase(self):
        # every rectangle is a single cell: the worst case for the product
        assert_hook_formula(tuple(range(140, 0, -1)))

    def test_columns(self):
        for m in range(1, 301):
            assert_hook_formula((1,) * m)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 10, 99, 500, 1999, 2000])
    def test_long_fat_hooks(self, m):
        for k in (1, 2, 3, 7, 40):
            assert_hook_formula(fat_hook(k, k, m))
            assert_hook_formula(fat_hook(k + 1, k, m))

    def test_rectangles_both_ways(self):
        for a, b in [(2, 1), (3, 2), (7, 3), (20, 5), (40, 39), (100, 2)]:
            assert_hook_formula((a,) * b)
            assert_hook_formula((b,) * a)

    @pytest.mark.parametrize("p", [
        (3,) * 9 + (1,) * 4,  # runs taller than their blocks are wide
        (20, 20, 20) + (2,) * 7,
        (30, 30, 5, 5, 5, 5, 5, 5, 5, 2, 2),  # both kinds in one shape
        (50, 50) + (40,) * 2 + (10,) * 3,  # runs shorter than their blocks
        (9,) * 4 + (8,) * 4 + (3,) * 6 + (1,) * 5,
    ])
    def test_repeated_rows(self, p):
        assert_hook_formula(p)


class TestBlockCalls:
    """The rectangle walk makes the falling-factorial calls of a walk over
    runs of equal rows and blocks of equal columns, built here from the
    conjugate and the run lengths, in the same order, so the mutants below
    stay the same."""

    @staticmethod
    def rectangle_calls(p):
        # the run of `rows` rows of length `row` from row `top` meets the
        # column block starting at j (length c = conj[j], ending at p[c - 1])
        # in a rectangle whose top left hook is row + c - top - j - 1; its
        # product takes one falling factorial per cell of its shorter side
        conj, calls, top = conjugate(p), [], 0
        while top < len(p):
            row = p[top]
            rows = p.count(row)
            j = 0
            while j < row:
                c = conj[j]
                end = p[c - 1]
                corner, width = row + c - top - j - 1, end - j
                if rows <= width:
                    calls += [(corner - i, width) for i in range(rows)]
                else:
                    calls += [(corner - i, rows) for i in range(width)]
                j = end
            top += rows
        return calls

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def recorder(n, k):
            calls.append((n, k))
            return math.perm(n, k)

        monkeypatch.setattr(degrees, "perm", recorder)
        return calls

    def test_every_partition_to_20(self, calls):
        for n in range(1, 21):
            for p in partitions(n):
                calls.clear()
                degree_uncached(p)
                assert calls == self.rectangle_calls(p), p

    @pytest.mark.parametrize("p, count", [
        ((9, 5, 2), 6),  # distinct rows: one call per row and block, as a row walk makes
        ((6, 6) + (1,) * 50, 4),
        ((7, 6) + (1,) * 50, 6),
        ((1,) * 200, 1),
        ((4,) * 9, 4),
    ])
    def test_call_counts(self, calls, p, count):
        degree_uncached(p)
        assert len(calls) == count


class TestHookProductCanFail:
    """A block width off by one must be caught by the independent routes."""

    @pytest.fixture(params=[-1, 1], ids=["narrow", "wide"])
    def slip(self, monkeypatch, request):
        slip = request.param
        monkeypatch.setattr(degrees, "perm", lambda n, k: math.perm(n, k + slip))
        return slip

    @staticmethod
    def disagrees(p, other):
        try:
            return degree_uncached(p) != other
        except ArithmeticError:  # the exact-division check, or a zero product
            return True

    def test_enumeration_catches_it(self, slip):
        # a single row or column is one falling factorial, perm(n, n), and
        # escapes a narrow slip: perm(n, n - 1) == perm(n, n); the wide slip
        # must catch every shape, rows and columns included
        for n in range(2, 12):
            for p in partitions(n):
                if slip > 0 or (len(p) > 1 and p[0] > 1):
                    assert self.disagrees(p, syt_enumerate(p)), p

    def test_closed_forms_catch_it(self, slip):
        for r, s, t in [(3, 2, 1), (40, 25, 10), (100, 100, 50)]:
            assert self.disagrees((r, s, t), degree_three_row(r, s, t))
        for a, b, t in [(2, 2, 1), (30, 12, 40), (60, 60, 120)]:
            assert self.disagrees(fat_hook(a, b, t), degree_fat_hook(a, b, t))


class TestFamilyDegrees:
    """The walk down a fixed-second-part family: one hook product, then an
    exact three-row ratio per member."""

    @staticmethod
    def assert_walk(n, k, same):
        walked = degrees.family_degrees(n, k, same)
        assert [s for s, _ in walked] == second_part_family(n, k, same)
        for shape, value in walked:
            assert value == degree_uncached(shape), (n, k, same, shape)

    def test_every_family_to_150(self):
        for n in range(151):
            for k in range(n // 2 + 1):
                for same in (True, False):
                    self.assert_walk(n, k, same)

    @pytest.mark.parametrize("n, k", [(5000, 796), (10000, 196)])
    def test_budget_edges(self, n, k):
        for same in (True, False):
            self.assert_walk(n, k, same)

    def test_one_hook_product_per_family(self, monkeypatch):
        seeds = []

        def spy(p):
            seeds.append(p)
            return degree(p)

        monkeypatch.setattr(degrees, "degree", spy)
        for n, k, same in [(20, 4, True), (20, 4, False), (32, 11, True), (7, 0, True), (0, 0, True), (4, 1, True)]:
            seeds.clear()
            walked = degrees.family_degrees(n, k, same)
            assert walked and seeds == [walked[0][0]], (n, k, same)
        for n, k, same in [(20, 10, False), (7, 0, False), (0, 0, False), (4, 2, False)]:
            seeds.clear()
            assert degrees.family_degrees(n, k, same) == [] and seeds == [], (n, k, same)

    def test_inexact_step_names_the_shape(self, monkeypatch):
        # (16, 4) seeded at 1 instead of 3 705: the step to (14, 4, 2) is
        # 1 * 462 * 18 * 17 / (1170 * 2 * 1), not an integer
        monkeypatch.setattr(degrees, "degree", lambda p: 1)
        with pytest.raises(ArithmeticError, match=r"^inexact three-row ratio at \(14, 4, 2\)$"):
            degrees.family_degrees(20, 4, True)


class TestClosedForms:
    def test_fat_hook_known(self):
        assert degree_fat_hook(2, 2, 0) == 2
        assert degree_fat_hook(1, 1, 2) == 1
        assert degree_fat_hook(6, 6, 1) == degree((6, 6, 1))

    def test_three_row_known(self):
        assert degree_three_row(2, 1, 1) == 3
        assert degree_three_row(9, 0, 0) == 1
        assert degree_three_row(4, 3, 1) == 70

    def test_fat_hook_grid(self):
        for total in range(2, 26):
            for a in range(1, total):
                for b in range(1, a + 1):
                    t = total - a - b
                    if t < 0:
                        continue
                    assert degree_fat_hook(a, b, t) == degree(fat_hook(a, b, t))

    def test_three_row_grid(self):
        for total in range(26):
            for r in range(total + 1):
                for s in range(min(r, total - r) + 1):
                    t = total - r - s
                    if 0 <= t <= s:
                        assert degree_three_row(r, s, t) == degree((r, s, t))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            degree_fat_hook(2, 3, 1)
        with pytest.raises(ValueError):
            degree_fat_hook(2, 0, 1)
        with pytest.raises(ValueError):
            degree_three_row(2, 3, 1)


class TestSytEnumerate:
    def test_known_small(self):
        assert syt_enumerate((2, 1)) == 2
        assert syt_enumerate((1,) * 5) == 1
        assert syt_enumerate((2, 2)) == 2
        assert syt_enumerate(()) == 1

    def test_matches_hook_formula_to_10(self):
        for n in range(11):
            for p in partitions(n):
                assert syt_enumerate(p) == degree(p), p

    def test_bound(self):
        with pytest.raises(ValueError):
            syt_enumerate((15,))
        assert syt_enumerate((15,), bound=15) == 1


class TestThreeRowValue:
    def test_reference_values(self):
        assert three_row_value(4, 8, 8) == 1385670
        assert three_row_value(6, 8, 6) == -1385670
        assert three_row_value(3, 5, 5) == 0

    def test_rotation_instance(self):
        assert three_row_value(0, 3, 3) == degree((2, 2, 2)) == three_row_value(2, 2, 2)

    def test_matches_degree_on_partitions(self):
        for total in range(21):
            for r in range(total + 1):
                for s in range(min(r, total - r) + 1):
                    t = total - r - s
                    if 0 <= t <= s:
                        assert three_row_value(r, s, t) == degree((r, s, t))

    def test_zero_convention(self):
        assert three_row_value(-3, 4, 4) == 0
        assert three_row_value(5, -2, 0) == 0
        assert three_row_value(5, 2, -1) == 0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            three_row_value(-3, 1, 1)

    def test_rotation_grid(self):
        for x in range(-5, 21):
            for y in range(-5, 21):
                for z in range(-5, 21):
                    if x + y + z >= 0:
                        assert three_row_value(x, y, z) == three_row_value(
                            z - 2, x + 1, y + 1
                        )

    @settings(max_examples=100)
    @given(st.integers(-8, 25), st.integers(-8, 25), st.integers(-8, 25))
    def test_integrality(self, x, y, z):
        # the function itself asserts denominator 1; just drive it
        if x + y + z >= 0:
            assert isinstance(three_row_value(x, y, z), int)


class TestFatHookValue:
    def test_known(self):
        assert fat_hook_value(2, 2, 0) == 2
        assert fat_hook_value(5, 5, 3) == degree((5, 5, 1, 1, 1))

    def test_vanishing_negative_argument(self):
        # second argument y = -1 makes (y-1)! blow up, so the value is 0
        assert fat_hook_value(7, -1, 10) == 0
        assert fat_hook_value(3, 3, -2) == 0

    def test_matches_degree_on_fat_hooks(self):
        for total in range(2, 22):
            for a in range(1, total):
                for b in range(1, a + 1):
                    t = total - a - b
                    if t >= 0:
                        assert fat_hook_value(a, b, t) == degree(fat_hook(a, b, t))

    def test_singularities_rejected(self):
        with pytest.raises(ValueError):
            fat_hook_value(-4, 5, 3)  # x + r + 1 = 0
        with pytest.raises(ValueError):
            fat_hook_value(5, -3, 3)  # y + r = 0
        with pytest.raises(ValueError):
            fat_hook_value(-2, -2, 1)  # negative total

    @settings(max_examples=100)
    @given(st.integers(-8, 25), st.integers(-8, 25), st.integers(-8, 25))
    def test_integrality(self, x, y, r):
        if x + y + r >= 0 and x + r + 1 != 0 and y + r != 0:
            assert isinstance(fat_hook_value(x, y, r), int)


class TestBranchingRule:
    def test_sum_over_children(self):
        from sytknap.partitions import branching_children

        for n in range(1, 21):
            for p in partitions(n):
                assert degree(p) == sum(degree(c) for c in branching_children(p))
