import random
from decimal import Decimal

import pytest

from conftest import assert_report_json
from sytknap import degrees, identities, paths
from sytknap.degrees import degree, three_row_value
from sytknap.identities import (
    Report,
    Term,
    report_to_json,
    to_decimal,
    swapped,
    verify_analytic_ladder,
    verify_boundary,
    verify_branch_rows,
    verify_catalan_pair,
    verify_expansion,
    verify_hook_wrap,
    verify_knapsack,
    verify_knapsack_sweep,
    verify_ladder,
    verify_riordan,
)
from sytknap.partitions import MAX_RIM_HOOK_CELLS, make_partition, pad, partitions, straighten, third_parts
from sytknap.paths import PathKind, count_paths


def shapes(report, side):
    return [t.shape for t in report.terms if t.side == side]


class TestRegime:
    def test_swap_predicate(self):
        assert not swapped(20, 2)
        assert not swapped(32, 11)
        assert not swapped(32, 12)
        assert swapped(32, 13)
        assert swapped(24, 9)
        # k = ceil(n/3) is not yet large
        assert not swapped(14, 5)
        assert not swapped(13, 5)

    def test_both_equations_hold_at_every_small_n(self):
        # the large-k criterion first applies at (4, 1); below n = 3 the
        # opposite-parity cases (1, 0) and (2, 1) trade sides all the same
        for n in range(1, 61):
            for k in range(n // 2 + 1):
                eq1, eq2 = verify_knapsack(n, k)
                assert eq1.passed and eq2.passed, (n, k)
                large = k % 2 != n % 2 and k > (n + 2) // 3
                assert swapped(n, k) == (large or (n, k) in {(1, 0), (2, 1)}), (n, k)


class TestKnapsack:
    def test_n20_k2_terms(self):
        eq1, eq2 = verify_knapsack(20, 2)
        assert eq1.passed and eq2.passed
        assert shapes(eq1, "L") == [(18, 2), (16, 2, 2)]
        assert shapes(eq1, "R") == [(2, 2) + (1,) * 16, (3, 3) + (1,) * 14]

    def test_n32_k13_swapped(self):
        eq1, eq2 = verify_knapsack(32, 13)
        assert eq1.regime == "swapped" and eq2.regime == "swapped"
        assert eq1.passed and eq2.passed
        assert shapes(eq2, "L") == [(18, 13, 1), (16, 13, 3), (14, 13, 5)]
        assert shapes(eq2, "R") == [(14, 13) + (1,) * 5]

    def test_small_case(self):
        eq1, _ = verify_knapsack(4, 1)
        assert shapes(eq1, "L") == [(2, 1, 1)]
        assert eq1.lhs == 3 and eq1.rhs == 3

    def test_single_term_case(self):
        eq1, eq2 = verify_knapsack(20, 10)
        assert shapes(eq1, "L") == [(10, 10)] == shapes(eq1, "R")
        assert eq2.lhs == 0 and eq2.rhs == 0 and eq2.passed

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            verify_knapsack(20, 11)

    def test_json_schema(self):
        for rep in verify_knapsack(32, 12):
            assert_report_json(report_to_json(rep))

    def test_sweep_is_every_k(self):
        reports = verify_knapsack_sweep(20)
        assert reports == [r for k in range(11) for r in verify_knapsack(20, k)]
        with pytest.raises(ValueError, match="need n >= 1"):
            verify_knapsack_sweep(-3)


def _never(*args):
    raise AssertionError("the knapsack sweep ran past its budget")


class TestSweepBudget:
    @pytest.mark.parametrize("sweep", [verify_knapsack_sweep, verify_riordan], ids=["knapsack", "riordan"])
    def test_at_and_past_the_budget(self, sweep, monkeypatch):
        monkeypatch.setattr(identities, "MAX_SWEEP_N", 12)
        assert all(r.passed for r in sweep(12))
        monkeypatch.setattr(identities, "degree", _never)
        monkeypatch.setattr(identities, "family_degrees", _never)
        monkeypatch.setattr(identities, "count_paths", _never)
        with pytest.raises(ValueError, match="^knapsack sweep n=13 is over budget; the limit is n=12$"):
            sweep(13)

    @pytest.mark.parametrize("sweep", [verify_knapsack_sweep, verify_riordan], ids=["knapsack", "riordan"])
    def test_default_budget(self, sweep, monkeypatch):
        n = identities.MAX_SWEEP_N + 1
        monkeypatch.setattr(identities, "degree", _never)
        monkeypatch.setattr(identities, "family_degrees", _never)
        monkeypatch.setattr(identities, "count_paths", _never)
        with pytest.raises(ValueError, match=f"^knapsack sweep n={n} is over budget;"):
            sweep(n)


def _never_enumerated(*args):
    raise AssertionError("catalan-pair enumerated past its budget")


class TestCatalanPairBudget:
    def test_at_and_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(identities, "MAX_CATALAN_PAIR_M", 9)
        assert verify_catalan_pair(9).passed
        monkeypatch.setattr(identities, "partitions", _never_enumerated)
        monkeypatch.setattr(identities, "square_two_tail_partitions", _never_enumerated)
        with pytest.raises(ValueError, match="^catalan-pair m=10 is over budget; the limit is m=9$"):
            verify_catalan_pair(10)

    def test_default_budget(self, monkeypatch):
        m = identities.MAX_CATALAN_PAIR_M + 1
        monkeypatch.setattr(identities, "partitions", _never_enumerated)
        monkeypatch.setattr(identities, "square_two_tail_partitions", _never_enumerated)
        with pytest.raises(ValueError, match=f"^catalan-pair m={m} is over budget;"):
            verify_catalan_pair(m)


class TestRiordan:
    def test_n20(self):
        reports = verify_riordan(20)
        assert all(r.passed for r in reports)
        # six per-k identities plus the total
        assert len(reports) == 7
        assert reports[-1].lhs == count_paths(PathKind.RIORDAN, 20)

    def test_n1_degenerate(self):
        reports = verify_riordan(1)
        total = reports[-1]
        assert total.passed and total.lhs == 0 == total.rhs
        assert total.extra["riordan"] == 0

    def test_n4(self):
        total = verify_riordan(4)[-1]
        assert total.passed and total.lhs == 3

    def test_sweep(self):
        for n in range(2, 41):
            for rep in verify_riordan(n):
                assert rep.passed, (n, rep.id, rep.params)

    def test_path_budget_before_the_sweep(self, monkeypatch):
        n = paths.MAX_PATH_LENGTH + 1

        def never(*args):
            raise AssertionError("the knapsack sweep ran past the path budget")

        monkeypatch.setattr(identities, "verify_knapsack", never)
        with pytest.raises(ValueError, match=f"^riordan n={n} has paths of {n} steps;"):
            verify_riordan(n)


class TestLadder:
    def test_n35_low_tail(self):
        rep = verify_ladder(1, 14, 7)
        assert rep.passed and rep.regime == "low-tail"
        assert shapes(rep, "R") == [(16, 14) + (1,) * 5, (14, 14, 7)]

    def test_n35_middle(self):
        rep = verify_ladder(1, 11, 13)
        assert rep.passed and rep.regime == "middle"
        assert shapes(rep, "R") == [(13, 11) + (1,) * 11]

    def test_n35_high_tail(self):
        rep = verify_ladder(1, 7, 21)
        assert rep.passed and rep.regime == "high-tail"
        assert shapes(rep, "R") == [(9, 7) + (1,) * 19, (19, 8, 8)]

    def test_trivial_d0(self):
        rep = verify_ladder(0, 5, 7)
        assert rep.passed and rep.regime == "trivial"
        assert rep.lhs == degree((5, 5) + (1,) * 7)

    def test_delta_case(self):
        rep = verify_ladder(2, 6, 10)
        assert rep.passed and rep.regime == "delta"
        assert shapes(rep, "R") == [(10, 6) + (1,) * 6, (8, 8, 6)]

    def test_d1_sweep(self):
        for k in range(2, 41):
            for m in range(4, 41):
                assert verify_ladder(1, k, m).passed, (k, m)

    def test_no_region_raises(self):
        with pytest.raises(ValueError):
            verify_ladder(3, 10, 15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_ladder(1, 1, 5)
        with pytest.raises(ValueError):
            verify_ladder(-1, 5, 5)

    def test_vanishing_tail_terms_are_recorded(self):
        rep = verify_ladder(2, 10, 4)  # tails 4,2,0,-2,-4
        analytic = [t for t in rep.terms if t.kind == "fat-hook"]
        assert len(analytic) == 2 and all(t.value == 0 for t in analytic)
        assert rep.passed

    def test_regions_are_disjoint(self):
        # the five regions restated: at most one holds at any point, and
        # where one holds the report's regime names it
        for d in range(-1, 5):
            for k in range(-1, 30):
                for m in range(-1, 45):
                    regions = {
                        "trivial": d == 0,
                        "low-tail": d >= 1 and m <= k and m >= max(2, 4 * (d - 1)),
                        "high-tail": d >= 1 and m >= k + 6 * d - 3,
                        "middle": d == 1 and 1 <= m - k <= 2,
                        "delta": d == 2 and 1 <= m - k <= 8 and k >= 6,
                    }
                    held = [name for name, holds in regions.items() if holds]
                    assert len(held) <= 1, (d, k, m, held)
                    if d < 0 or k < 2 or m < 2:
                        continue
                    if held:
                        assert verify_ladder(d, k, m).regime == held[0], (d, k, m)
                    else:
                        with pytest.raises(ValueError, match="no applicable closed form"):
                            verify_ladder(d, k, m)


def _never_built(*args):
    raise AssertionError("a term was built past the budget")


class TestWorkBudget:
    """verify_knapsack, verify_expansion and verify_branch_rows share the
    ladders' work budget on terms * n^2, and count their families before
    listing them."""

    @staticmethod
    def refuse_terms(monkeypatch):
        for name in ("degree", "partitions", "family_degrees", "fat_hook_value", "three_row_value"):
            monkeypatch.setattr(identities, name, _never_built)

    def test_knapsack(self, monkeypatch):
        # n = 20, k = 4: both families, (16, 4) ... (12, 4, 4), 5 members,
        # and 3 hooks of 20 cells
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 8 * 20**2)
        assert all(r.passed for r in verify_knapsack(20, 4))
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 8 * 20**2 - 1)
        self.refuse_terms(monkeypatch)
        with pytest.raises(ValueError, match="^knapsack n=20 k=4 has 8 terms of size n=20: work 3200; the limit is 3199$"):
            verify_knapsack(20, 4)

    def test_expansion(self, monkeypatch):
        # n = 20, k = 4: k//2 + 3 = 5 terms and the 3 same-parity members,
        # of 20 cells
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 8 * 20**2)
        assert verify_expansion(20, 4).passed
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 8 * 20**2 - 1)
        self.refuse_terms(monkeypatch)
        with pytest.raises(ValueError, match="^expansion n=20 k=4 has 8 terms of size n=20: work 3200; the limit is 3199$"):
            verify_expansion(20, 4)

    def test_branch(self, monkeypatch):
        # n = 20, k = 4, same parity: (16, 4), (14, 4, 2) and (12, 4, 4),
        # four terms each
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 12 * 20**2)
        assert verify_branch_rows(20, 4, True).passed
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 12 * 20**2 - 1)
        self.refuse_terms(monkeypatch)
        with pytest.raises(ValueError, match="^branch n=20 k=4 has 12 terms of size n=20: work 4800; the limit is 4799$"):
            verify_branch_rows(20, 4, True)

    def test_default_budget(self, monkeypatch):
        # knapsack at n = 5000, k = 796 (800 terms), expansion at n = 6000,
        # k = 550 (554 terms) and branch at n = 4000, k = 600 (301 members)
        # fit, and each takes under 2 s
        assert 800 * 5_000**2 <= identities.MAX_ANALYTIC_WORK < 801 * 5_000**2
        assert 554 * 6_000**2 <= identities.MAX_ANALYTIC_WORK
        assert 4 * 301 * 4_000**2 <= identities.MAX_ANALYTIC_WORK
        self.refuse_terms(monkeypatch)
        # (20 000, 6000) ran past 50 s before the budget
        for n, k in [(5_000, 797), (20_000, 6_000)]:
            with pytest.raises(ValueError, match=f"^knapsack n={n} k={k} has .* the limit is"):
                verify_knapsack(n, k)
        # 28.5 s and, swapped, 15.5 s before the budget
        for n, k in [(6_000, 1_100), (10_000, 3_000), (10_000, 4_999)]:
            with pytest.raises(ValueError, match=f"^expansion n={n} k={k} has .* the limit is"):
                verify_expansion(n, k)
        # 3.7 s and 32.6 s before the budget; n = 2e8 listed 3e7 members and
        # died of a MemoryError under a 1 GB address-space limit
        for n, k in [(5_000, 1_000), (10_000, 2_000), (200_000_000, 60_000_000)]:
            with pytest.raises(ValueError, match=f"^branch n={n} k={k} has .* the limit is"):
                verify_branch_rows(n, k, True)


class TestLadderBudget:
    """verify_ladder shares the analytic ladder's term and work budgets."""

    def test_term_budget(self, monkeypatch):
        # d = 2 counts 9 terms: 5 ladder terms, the lead and a 3-term triangle
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 9)
        assert verify_ladder(2, 6, 10).passed
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 8)
        monkeypatch.setattr(identities, "fat_hook_value", _never_built)
        monkeypatch.setattr(identities, "degree", _never_built)
        with pytest.raises(ValueError, match="^ladder d=2 has 9 terms; the limit is 8$"):
            verify_ladder(2, 6, 10)

    def test_work_budget(self, monkeypatch):
        # d = 2, k = 6, m = 10: 9 terms whose leading factorial is 22!
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 9 * 22**2)
        assert verify_ladder(2, 6, 10).passed
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 9 * 22**2 - 1)
        monkeypatch.setattr(identities, "fat_hook_value", _never_built)
        monkeypatch.setattr(identities, "degree", _never_built)
        with pytest.raises(ValueError, match=r"^ladder d=2 has 9 terms of size 2k\+m=22: work 4356; the limit is 4355$"):
            verify_ladder(2, 6, 10)

    def test_default_budget(self, monkeypatch):
        # (100, 650, 650) is the largest low-tail call at d = 100 and k = m;
        # (200, 800, 800) ran 9.7 s and (400, 2, 4000) 118 s before the budget
        assert 5_252 * 1_950**2 <= identities.MAX_ANALYTIC_WORK < 5_252 * 1_952**2
        monkeypatch.setattr(identities, "fat_hook_value", _never_built)
        monkeypatch.setattr(identities, "degree", _never_built)
        for d, k, m in [(200, 800, 800), (400, 2, 4000), (100, 651, 650)]:
            with pytest.raises(ValueError, match=f"^ladder d={d} has .* the limit is"):
                verify_ladder(d, k, m)

    def test_region_is_checked_first(self, monkeypatch):
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 0)
        with pytest.raises(ValueError, match="no applicable closed form"):
            verify_ladder(3, 10, 15)


class TestAnalyticLadder:
    def test_small_instance(self):
        rep = verify_analytic_ladder(1, 4, 11)
        assert rep.passed

    def test_d0(self):
        rep = verify_analytic_ladder(0, 3, 5)
        assert rep.passed and rep.lhs == rep.rhs == degree((3, 3) + (1,) * 5)

    def test_floor_k_half_specialization(self):
        rep = verify_analytic_ladder(4, 8, 4)
        assert rep.passed
        lead = [t for t in rep.terms if t.side == "R"][0]
        assert lead.shape == (16, 8, -4) and lead.value == 0

    def test_grid(self):
        for d in range(4):
            for k in range(2, 9):
                for m in range(2, 13):
                    if k + m <= 2 * d:
                        continue
                    assert verify_analytic_ladder(d, k, m).passed, (d, k, m)

    def test_negative_tail_arguments(self):
        # with m < 0 every defined summand hits the zero convention and both
        # sides collapse to 0; parameter combinations that reach a removable
        # singularity (k+m-j in {0, -1}) are reported as errors instead
        for d in range(3):
            for k in range(3, 9):
                for m in range(-4, 0):
                    rep = verify_analytic_ladder(d, k, m)
                    if rep.error:
                        assert "singular" in rep.error, (d, k, m, rep.error)
                        assert -1 <= k + m <= 2 * d, (d, k, m)
                    else:
                        assert rep.passed and rep.lhs == rep.rhs == 0, (d, k, m)

    def test_singularity_reported_not_raised(self):
        rep = verify_analytic_ladder(2, 2, 2)
        assert rep.error and not rep.passed

    def test_term_budget(self, monkeypatch):
        # d = 2: 5 ladder terms, the lead term and a 3-term triangle
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 9)
        assert len(verify_analytic_ladder(2, 3, 9).terms) == 9
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 8)

        def never(*args):
            raise AssertionError("a term was built past the budget")

        monkeypatch.setattr(identities, "fat_hook_value", never)
        with pytest.raises(ValueError, match="^analytic ladder d=2 has 9 terms; the limit is 8$"):
            verify_analytic_ladder(2, 3, 9)

    def test_default_term_budget(self, monkeypatch):
        def terms(d):
            return d * (d + 1) // 2 + 2 * d + 2

        def never(*args):
            raise AssertionError("a term was built past the budget")

        assert terms(197) <= identities.MAX_ANALYTIC_TERMS < terms(198)
        monkeypatch.setattr(identities, "fat_hook_value", never)
        for d in (198, 300, 10**9):
            with pytest.raises(ValueError, match=f"^analytic ladder d={d} has {terms(d)} terms;"):
                verify_analytic_ladder(d, 3, 4 * d)

    def test_work_budget(self, monkeypatch):
        # d = 2, k = 3, m = 9: 9 terms whose leading factorial is 15!
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 9 * 15**2)
        assert verify_analytic_ladder(2, 3, 9).passed
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 9 * 15**2 - 1)

        def never(*args):
            raise AssertionError("a term was built past the budget")

        monkeypatch.setattr(identities, "fat_hook_value", never)
        with pytest.raises(ValueError, match=r"^analytic ladder d=2 has 9 terms of size 2k\+m=15: work 2025; the limit is 2024$"):
            verify_analytic_ladder(2, 3, 9)

    def test_default_work_budget(self, monkeypatch):
        # d = 197 (19 899 terms) fits at 2k+m = 794 and not at 1 100, the
        # (197, 100, 900) call that took 2.7 s
        assert 19_899 * 794**2 <= identities.MAX_ANALYTIC_WORK < 19_899 * 1_100**2

        def never(*args):
            raise AssertionError("a term was built past the budget")

        monkeypatch.setattr(identities, "fat_hook_value", never)
        for d, k, m in [(197, 100, 900), (197, 500, 2000), (0, 3, 10**6)]:
            with pytest.raises(ValueError, match=f"^analytic ladder d={d} has .* the limit is"):
                verify_analytic_ladder(d, k, m)

    def test_negative_size_is_reported_not_refused(self):
        # 2k+m < 0: the leading factorial is undefined, which the report says
        rep = verify_analytic_ladder(1, -10**9, 0)
        assert rep.error.startswith("total -2000000000 < 0") and not rep.passed


def _unsigned(beta):
    straight = straighten(beta)
    return straight and (1, straight[1])


def _keeps_equal_betas(beta):
    # a triple with two equal betas is kept, as the shape its parts sort to
    straight = straighten(beta)
    if straight is None and min(beta) >= 0:
        parts = [b - (len(beta) - 1 - i) for i, b in enumerate(sorted(beta, reverse=True))]
        return 1, make_partition(sorted(parts, reverse=True))
    return straight


# one call per report built from the triangle, by region
TRIANGLE_CALLS = [
    (verify_ladder, (2, 10, 4), "low-tail"),
    (verify_ladder, (3, 12, 9), "low-tail"),
    (verify_ladder, (1, 7, 21), "high-tail"),
    (verify_ladder, (2, 5, 15), "high-tail"),
    (verify_ladder, (2, 6, 10), "delta"),
    (verify_ladder, (2, 9, 13), "delta"),
    (verify_analytic_ladder, (1, 4, 11), "analytic"),
    (verify_analytic_ladder, (3, 6, 10), "analytic"),
]


class TestLadderVerifiersCanFail:
    """The ladder reports catch a wrong argument list: each mutation below
    breaks the identity and must turn its report into a failure."""

    @pytest.mark.parametrize("verify, args, regime", TRIANGLE_CALLS)
    def test_unmutated_calls_pass_in_their_region(self, verify, args, regime):
        rep = verify(*args)
        assert rep.passed and rep.regime == regime

    @pytest.mark.parametrize("verify, args, regime", TRIANGLE_CALLS)
    def test_triangle_missing_its_last_triple(self, monkeypatch, verify, args, regime):
        triangle = identities._triangle
        monkeypatch.setattr(identities, "_triangle", lambda d, k, m: triangle(d, k, m)[:-1])
        assert not verify(*args).passed

    @pytest.mark.parametrize("verify, args, regime", TRIANGLE_CALLS)
    def test_triangle_argument_off_by_one(self, monkeypatch, verify, args, regime):
        triangle = identities._triangle

        def shifted(d, k, m):
            (x, y, z), *rest = triangle(d, k, m)
            return [(x, y, z + 1)] + rest

        monkeypatch.setattr(identities, "_triangle", shifted)
        assert not verify(*args).passed

    @pytest.mark.parametrize("args", [(2, 6, 10), (2, 10, 15)], ids=["delta4", "delta5"])
    def test_straightening_without_its_sign(self, monkeypatch, args):
        # over d <= 5, k < 30, m < 60 only d = 2 at m - k in {4, 5} has a
        # triple of sign -1; it cancels a +1 term of the same shape
        straight = [straighten((x + 2, y + 1, z)) for x, y, z in identities._triangle(*args)]
        assert any(s and s[0] < 0 for s in straight)
        monkeypatch.setattr(identities, "straighten", _unsigned)
        assert not verify_ladder(*args).passed

    @pytest.mark.parametrize(
        "args",
        [(1, 11, 12), (1, 11, 13), (2, 6, 7), (2, 8, 10), (2, 6, 9), (2, 7, 13), (2, 9, 16), (2, 12, 20)],
        ids=["middle1", "middle2", "delta1", "delta2", "delta3", "delta6", "delta7", "delta8"],
    )
    def test_straightening_keeps_equal_betas(self, monkeypatch, args):
        monkeypatch.setattr(identities, "straighten", _keeps_equal_betas)
        assert not verify_ladder(*args).passed

    @pytest.mark.parametrize(
        "verify, args",
        [
            (verify_ladder, (0, 5, 7)),
            (verify_ladder, (1, 14, 7)),
            (verify_ladder, (1, 11, 13)),
            (verify_ladder, (1, 7, 21)),
            (verify_ladder, (2, 6, 10)),
            (verify_analytic_ladder, (2, 8, 9)),
        ],
        ids=["trivial", "low-tail", "middle", "high-tail", "delta", "analytic"],
    )
    def test_ladder_one_term_short(self, monkeypatch, verify, args):
        ladder_args = identities._ladder_args
        monkeypatch.setattr(identities, "_ladder_args", lambda k, m, count: ladder_args(k, m, count - 1))
        assert not verify(*args).passed


def _other_parity_start(p):
    """The degree of the first member of the other-parity family: (a, k, t)
    moved to third part 1 - t, valued by the closed form, which is zero
    where that is not a shape."""
    a, k, t = pad(p, 3)
    return three_row_value(a + 2 * t - 1, k, 1 - t)


def _caught(call):
    """A mutated walk is caught by a failing report or by its own
    exact-division check."""
    try:
        return not all(r.passed for r in call())
    except ArithmeticError:
        return True


# mutations of degrees.family_degrees through the names it looks up: the
# name, its replacement built from the original, and the fewest members a
# family needs for the mutation to move it
WALK_MUTANTS = {
    "ratio-up": ("_three_row_spec", lambda spec: lambda x, y, z: spec(x + 1, y, z), 2),
    "ratio-down": ("_three_row_spec", lambda spec: lambda x, y, z: spec(x - 1, y, z), 2),
    "wrong-parity-start": ("degree", lambda degree: _other_parity_start, 1),
    "doubled-start": ("degree", lambda degree: lambda p: 2 * degree(p), 1),
}


def _mutate_walk(monkeypatch, mutant):
    name, replace, _ = WALK_MUTANTS[mutant]
    monkeypatch.setattr(degrees, name, replace(getattr(degrees, name)))


class TestFamilyWalkCanFail:
    """verify_knapsack, verify_expansion, verify_branch_rows and
    verify_riordan's per-k reports value their families by
    degrees.family_degrees; each mutation of the walk must be caught."""

    @pytest.mark.parametrize("mutant", WALK_MUTANTS)
    def test_every_knapsack_family(self, monkeypatch, mutant):
        # the wrong-parity start is caught from n = 6: at (4, 1) and (5, 2)
        # the two starts have equal degrees
        _mutate_walk(monkeypatch, mutant)
        members = WALK_MUTANTS[mutant][2]
        for n in range(6, 41):
            for k in range(n // 2 + 1):
                for eq in (1, 2):
                    same = (eq == 1) != swapped(n, k)
                    if len(third_parts(n, k, same)) >= members:
                        assert _caught(lambda: [identities._knapsack_eq(n, k, eq)]), (n, k, eq)

    def test_expansion_and_branch(self, monkeypatch):
        _mutate_walk(monkeypatch, "ratio-up")
        assert _caught(lambda: [verify_expansion(30, 6)])
        assert _caught(lambda: [verify_branch_rows(24, 9, True)])
        monkeypatch.undo()
        _mutate_walk(monkeypatch, "doubled-start")
        rep = verify_expansion(30, 6)
        assert rep.checks == {"non-partition values cancel": True, "matches same-parity family sum": False}
        assert not verify_branch_rows(24, 9, True).passed

    def test_riordan_per_k_refinement(self, monkeypatch):
        # the total values its family by hook products, so a doubled walk
        # fails every per-k report and the resum check, and nothing else
        assert all(r.passed for r in verify_riordan(20))
        _mutate_walk(monkeypatch, "doubled-start")
        *per_k, total = verify_riordan(20)
        assert per_k and not any(r.passed for r in per_k)
        assert total.checks == {"matches riordan count": True, "per-k refinement resums": False}
        assert total.lhs == total.rhs == total.extra["riordan"]


class TestExpansion:
    def test_n13_k5_vanishing_term(self):
        rep = verify_expansion(13, 5)
        assert rep.passed
        row = [(t.shape, t.value, t.kind) for t in rep.terms if t.side == "R"]
        assert row[0] == ((3, 5, 5), 0, "three-row")
        assert row[1][0] == (5, 5, 3) and row[2][0] == (7, 5, 1)

    def test_n20_k8_cancelling_terms(self):
        rep = verify_expansion(20, 8)
        assert rep.passed
        analytic = [t for t in rep.terms if t.kind == "three-row"]
        assert [t.value for t in analytic] == [1385670, -1385670]
        assert shapes(rep, "L") == [(8, 8) + (1,) * 4, (9, 9, 1, 1)]

    def test_plain_small_k_matches_knapsack(self):
        rep = verify_expansion(12, 2)
        pair = verify_knapsack(12, 2)[0]
        assert rep.passed and rep.lhs == pair.lhs == pair.rhs

    def test_outside_regime_reports_failure(self):
        # large k of opposite parity: the raw expansion still balances but
        # the analytic terms no longer cancel, so the report fails
        rep = verify_expansion(20, 9)
        assert rep.lhs == rep.rhs
        assert not rep.checks["non-partition values cancel"]
        assert not rep.passed

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_expansion(9, 4)  # m = 1

    def test_sweep(self):
        for n in range(6, 41):
            for k in range(1, (n - 2) // 2 + 1):
                if k <= (n + 2) // 3 or n % 2 == k % 2:
                    assert verify_expansion(n, k).passed, (n, k)


class TestBoundary:
    def test_examples(self):
        assert verify_boundary(3, 2).passed  # 56 + 14 = 70
        rep = verify_boundary(8, 7)
        assert rep.passed
        assert shapes(rep, "R") == [(9, 8) + (1,) * 6]

    def test_values(self):
        rep = verify_boundary(3, 2)
        assert [t.value for t in rep.terms] == [56, 14, 70]

    def test_sweep(self):
        for m in range(1, 41):
            for k in (m - 1, m + 1):
                if k >= 1:
                    assert verify_boundary(k, m).passed

    def test_rejects_non_boundary(self):
        with pytest.raises(ValueError):
            verify_boundary(5, 2)


class TestHookWrap:
    def test_known_alternating_example(self):
        rep = verify_hook_wrap((3, 1), 6)
        assert rep.passed and rep.lhs == 0
        assert [t.sign for t in rep.terms] == [1, -1, 1, -1, 1, -1]

    def test_three_hooks(self):
        rep = verify_hook_wrap((), 3)
        assert rep.passed
        assert [(t.sign, t.value) for t in rep.terms] == [(1, 1), (-1, 2), (1, 1)]

    def test_sweep(self):
        for n in range(9):
            for mu in partitions(n):
                for k in range(2, 9):
                    assert verify_hook_wrap(mu, k).passed, (mu, k)

    def test_rejects_k_over_budget(self):
        with pytest.raises(ValueError, match="rim hook has 1001 cells; the limit is 1000"):
            verify_hook_wrap((3, 1), MAX_RIM_HOOK_CELLS + 1)

    def test_work_budget(self, monkeypatch):
        # (3,1) at k = 6: 6 rim hooks of 10-cell shapes, 6 * 10 * isqrt(10) = 180
        monkeypatch.setattr(identities, "MAX_HOOK_WRAP_WORK", 180)
        assert verify_hook_wrap((3, 1), 6).passed
        monkeypatch.setattr(identities, "MAX_HOOK_WRAP_WORK", 179)

        def never(*args):
            raise AssertionError("add_rim_hooks ran past the budget")

        monkeypatch.setattr(identities, "add_rim_hooks", never)
        with pytest.raises(ValueError, match=r"^6 rim hooks of 10-cell shapes: work 180; the limit is 179$"):
            verify_hook_wrap((3, 1), 6)

    def test_work_counts_only_the_hooks_that_fit(self):
        # a column takes a one-cell hook in two places only: 2 * 1582 * 39
        assert len(verify_hook_wrap((1,) * 1581, 1).terms) == 2
        with pytest.raises(ValueError, match="^1001 rim hooks of 10000-cell shapes: work 1001000000;"):
            verify_hook_wrap((1,) * 9000, 1000)

    def test_k1_does_not_vanish(self):
        # a single box never has a leg, so all signs are +1 and the sum is
        # a positive count; there is no identity at k = 1
        assert verify_hook_wrap((), 1).lhs == 1
        assert verify_hook_wrap((1,), 1).lhs == 2
        assert not verify_hook_wrap((2,), 1).passed


class TestCatalanPair:
    def test_m2(self):
        rep = verify_catalan_pair(2)
        assert rep.passed and rep.lhs == 2

    def test_m3(self):
        rep = verify_catalan_pair(3)
        assert rep.passed and rep.lhs == 10
        assert shapes(rep, "L") == [(3, 3), (2, 2, 2)]

    def test_sweep(self):
        for m in range(2, 13):
            assert verify_catalan_pair(m).passed


class TestBranchRows:
    def test_n20_k5_opposite_row3_missing(self):
        rep = verify_branch_rows(20, 5, False)
        assert rep.passed
        rows = {r["row"]: r for r in rep.extra["rows"]}
        assert rows[3]["family"] == "same" and rows[3]["missing"] == [(9, 5, 5)]

    def test_n14_k5_opposite_no_missing(self):
        rep = verify_branch_rows(14, 5, False)
        rows = {r["row"]: r for r in rep.extra["rows"]}
        assert rep.passed and rows[3]["missing"] == []

    def test_n20_k5_same_row2(self):
        rep = verify_branch_rows(20, 5, True)
        rows = {r["row"]: r for r in rep.extra["rows"]}
        assert rep.passed
        assert rows[2]["second_part"] == 4 and rows[2]["missing"] == []

    def test_n24_k9_same_row2_missing(self):
        rep = verify_branch_rows(24, 9, True)
        rows = {r["row"]: r for r in rep.extra["rows"]}
        assert rep.passed and rows[2]["missing"] == [(8, 8, 7)]

    def test_n16_k5_row3_missing_555(self):
        rep = verify_branch_rows(16, 5, False)
        rows = {r["row"]: r for r in rep.extra["rows"]}
        assert rep.passed and rows[3]["missing"] == [(5, 5, 5)]

    def test_sweep(self):
        for n in range(4, 31):
            for k in range(1, n // 2 + 1):
                for same in (True, False):
                    from sytknap.partitions import second_part_family

                    if not second_part_family(n, k, same):
                        continue
                    assert verify_branch_rows(n, k, same).passed, (n, k, same)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            verify_branch_rows(20, 10, False)

    @pytest.mark.parametrize("n", [0, -1, -4])
    def test_size_below_one_rejected_before_any_family(self, n, monkeypatch):
        def never(*args):
            raise AssertionError("a family was built")

        monkeypatch.setattr(identities, "family_degrees", never)
        for k in (0, 1):
            with pytest.raises(ValueError, match=rf"^need n >= 1, got n={n}$"):
                verify_branch_rows(n, k, True)


class TestReportStructure:
    def test_term_breakdown_resums(self):
        for rep in (
            verify_knapsack(32, 13)[0],
            verify_ladder(1, 14, 7),
            verify_expansion(20, 8),
            verify_catalan_pair(4),
            verify_hook_wrap((3, 1), 6),
        ):
            assert rep.side_sum("L") == rep.lhs
            assert rep.side_sum("R") == rep.rhs
            recomputed_l = sum(t.sign * t.value for t in rep.terms if t.side == "L")
            assert recomputed_l == rep.lhs

    def test_json_round_trip(self):
        import json

        for rep in (
            verify_ladder(2, 10, 4),
            verify_analytic_ladder(1, 4, 11),
            verify_branch_rows(24, 9, True),
            verify_riordan(6)[-1],
        ):
            data = report_to_json(rep)
            assert_report_json(data)
            assert json.loads(json.dumps(data)) == data
            total = sum(
                int(t["value"]) * t["sign"]
                for t in data["terms"]
                if t["side"] == "L"
            )
            assert str(total) == data["lhs"]


class TestRecords:
    """Term, Report and CertificateReport are plain classes, not dataclasses:
    they keep field equality, their defaults, and fresh mutable defaults."""

    def test_term_is_an_immutable_value(self):
        term = Term("L", 1, (3, 1), 3)
        assert term.kind == "partition"
        assert term == Term("L", 1, (3, 1), 3, "partition") and hash(term) == hash(Term("L", 1, (3, 1), 3))
        assert term != Term("L", -1, (3, 1), 3)
        with pytest.raises(AttributeError):
            term.value = 4

    def test_report_defaults_and_equality(self):
        report = Report("x", {"n": 1}, [Term("L", 1, (1,), 1)])
        assert (report.regime, report.note, report.error, report.lhs_pad) == ("", "", "", 0)
        assert report.extra == {} and report.checks == {}
        twin = Report("x", {"n": 1}, [Term("L", 1, (1,), 1)])
        assert report == twin and not report != twin
        twin.checks["c"] = True
        assert report != twin and report.checks == {}
        assert Report("x", {}, [], extra=None).extra == {}
        assert report != ("x", {"n": 1}) and not isinstance(report, tuple)
        with pytest.raises(TypeError):
            hash(report)

    def test_report_fields_by_keyword_and_position(self):
        by_position = Report("x", {}, [], "r", "n", "e", {"a": 1}, {"c": False}, 3)
        by_keyword = Report(id="x", params={}, terms=[], regime="r", note="n", error="e",
                            extra={"a": 1}, checks={"c": False}, lhs_pad=3)
        assert by_position == by_keyword
        assert repr(by_keyword).startswith("Report(id='x', params={}, terms=[], regime='r'")

    def test_reports_from_verifiers_compare_equal(self):
        assert verify_knapsack(20, 4) == verify_knapsack(20, 4)
        assert verify_knapsack(20, 4)[0] != verify_knapsack(20, 4)[1]


class TestDecimalText:
    def test_matches_a_second_route(self):
        rng = random.Random(4300)
        for bits in [1, 1999, 2000, 2001, 14_284, 14_285, 50_000] + [rng.randint(1, 60_000) for _ in range(40)]:
            for value in (rng.getrandbits(bits), -rng.getrandbits(bits), 1 << bits, 10 ** (bits // 3) - 1):
                assert to_decimal(value) == str(Decimal(value))

    def test_report_past_the_str_digit_limit(self):
        from sytknap.render import render_report

        shape = (100,) * 100
        value = degree(shape)
        text = str(Decimal(value))
        report = Report("big", {"n": 10_000}, [Term("L", 1, shape, value), Term("R", 1, shape, value)])
        report.extra["value"] = value
        out = report_to_json(report)
        assert out["lhs"] == out["rhs"] == out["terms"][0]["value"] == out["extra"]["value"] == text
        assert f"  {text} = {text}" in render_report(report).splitlines()
