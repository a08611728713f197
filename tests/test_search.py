import functools
import gc
import inspect
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import chain, combinations
from math import comb

import pytest

from sytknap import search
from sytknap.degrees import degree
from sytknap.identities import ladder_sum_terms
from sytknap.search import (
    _known_knapsack_instances,
    _Sides,
    build_pool,
    find_equal_sum_pairs,
    scan_even_ladders,
)


class TestPool:
    def test_families(self):
        pool = build_pool(6, ("3part", "fathook"))
        shapes = {s for s, _ in pool.members}
        assert (4, 2) in shapes and (2, 2, 1, 1) in shapes and (2, 1, 1, 1, 1) in shapes
        assert (3, 1, 1, 1) not in shapes

    def test_rows4(self):
        pool = build_pool(5, ("rows4",))
        assert all(len(s) <= 4 for s, _ in pool.members)

    def test_degrees_attached(self):
        for shape, value in build_pool(8).members:
            assert value == degree(shape)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_pool(6, ("5part",))


class TestFindPairs:
    def test_rediscovers_n4_instance(self):
        res = find_equal_sum_pairs(build_pool(4), max_side=4)
        assert not res.truncated
        match = [
            p
            for p in res.pairs
            if set(p.left) | set(p.right) == {(2, 1, 1), (1, 1, 1, 1), (2, 2)}
        ]
        assert match and any("knapsack-eq1 n=4 k=1" in p.label for p in match)

    def test_conjugate_singleton(self):
        res = find_equal_sum_pairs(build_pool(6), max_side=2)
        pair = res.pairs[0]
        assert set(pair.left) | set(pair.right) == {(6,), (1,) * 6}
        assert pair.total == 1

    def test_all_pairs_verify_disjoint_nonempty(self):
        res = find_equal_sum_pairs(build_pool(12), max_side=3)
        assert res.pairs
        for p in res.pairs:
            assert p.left and p.right
            assert not set(p.left) & set(p.right)
            assert sum(degree(s) for s in p.left) == p.total
            assert sum(degree(s) for s in p.right) == p.total
            assert p.to_report().passed

    def test_ranked_shortest_first(self):
        res = find_equal_sum_pairs(build_pool(10), max_side=3)
        sizes = [len(p.left) + len(p.right) for p in res.pairs]
        assert sizes == sorted(sizes)

    def test_eval_cap_truncates(self):
        res = find_equal_sum_pairs(build_pool(12), max_side=4, max_evals=100)
        assert res.truncated and res.subsets_enumerated == 101

    def test_result_cap_truncates(self):
        full = find_equal_sum_pairs(build_pool(10), max_side=3)
        capped = find_equal_sum_pairs(build_pool(10), max_side=3, max_results=5)
        assert capped.truncated and len(capped.pairs) == 5
        assert capped.pairs == full.pairs[:5]

    def test_deterministic(self):
        a = find_equal_sum_pairs(build_pool(9), max_side=3)
        b = find_equal_sum_pairs(build_pool(9), max_side=3)
        assert a.pairs == b.pairs


def reference_search(pool, max_side, max_evals=10_000_000, max_results=50_000):
    """The sort-everything join: index every subset up to max_side members,
    pair every equal-sum bucket, sort all pairs, then cut.  Returns
    ((left, right, total) triples, subsets enumerated, stopped_by).

    Memoized for the last call: sides past the pool size give the same
    results, and TestLeaveOut asks for them held and streamed in turn."""
    return _reference(pool, min(max_side, len(pool.members)), max_evals, max_results)


@functools.lru_cache(maxsize=1)
def _reference(pool, top, max_evals, max_results):
    members, by_sum, enumerated, stopped_by = pool.members, {}, 0, None
    sizes = range(1, top + 1)
    for combo in chain.from_iterable(combinations(range(len(members)), s) for s in sizes):
        enumerated += 1
        if enumerated > max_evals:
            stopped_by = "max_evals"
            break
        by_sum.setdefault(sum(members[i][1] for i in combo), []).append(combo)
    raw = sorted(
        (len(a) + len(b), total, a, b)
        for total, bucket in by_sum.items()
        for a, b in combinations(bucket, 2)
        if not set(a) & set(b)
    )
    if max_results is not None and len(raw) > max_results:
        raw, stopped_by = raw[:max_results], "max_results"
    shapes = [shape for shape, _ in members]
    triples = [(tuple(shapes[i] for i in a), tuple(shapes[i] for i in b), total) for _, total, a, b in raw]
    return triples, enumerated, stopped_by


def assert_matches_reference(pool, max_side, **caps):
    res = find_equal_sum_pairs(pool, max_side, **caps)
    triples, enumerated, stopped_by = reference_search(pool, max_side, **caps)
    assert [(p.left, p.right, p.total) for p in res.pairs] == triples
    assert res.stopped_by == stopped_by
    assert res.truncated == (stopped_by is not None)
    if stopped_by != "max_results":
        assert res.subsets_enumerated == enumerated
    else:
        assert res.subsets_enumerated <= enumerated
    known = _known_knapsack_instances(pool.n)
    for p in res.pairs:
        label = known.get(frozenset((frozenset(p.left), frozenset(p.right))))
        assert p.label == (f"rediscovers {label}" if label else "")
    return res


class TestAgainstReference:
    @pytest.mark.parametrize("max_side", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_uncapped(self, n, max_side):
        assert_matches_reference(build_pool(n), max_side)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sides_as_large_as_the_pool(self, n):
        pool = build_pool(n)
        for max_side in (len(pool.members), len(pool.members) + 3):
            assert_matches_reference(pool, max_side, max_results=None)

    @pytest.mark.parametrize("n, max_side", [(6, 2), (9, 3), (10, 4)])
    def test_result_cap_edges(self, n, max_side):
        pool = build_pool(n)
        count = len(find_equal_sum_pairs(pool, max_side, max_results=None).pairs)
        for cap in (0, 1, count - 1, count, count + 1):
            res = assert_matches_reference(pool, max_side, max_results=cap)
            assert res.truncated == (cap < count)

    @pytest.mark.parametrize("n", [9, 11])
    def test_eval_cap_inside_a_size(self, n):
        pool = build_pool(n)
        m = len(pool.members)
        two = m + m * (m - 1) // 2  # subsets of sizes 1 and 2
        for max_evals in (0, 1, m - 1, m, m + 7, two, two + 1, two + 100):
            for max_results in (None, 1, 40, 500):
                assert_matches_reference(pool, 4, max_evals=max_evals, max_results=max_results)

    def test_eval_cap_at_the_last_subset(self):
        pool = build_pool(8)
        full = find_equal_sum_pairs(pool, 3)
        short = assert_matches_reference(pool, 3, max_evals=full.subsets_enumerated - 1)
        assert short.stopped_by == "max_evals"
        exact = assert_matches_reference(pool, 3, max_evals=full.subsets_enumerated)
        assert exact.stopped_by is None and exact.pairs == full.pairs


class TestAgainstReferenceStreamed(TestAgainstReference):
    """The same cases with every top size streamed, not held whole."""

    @pytest.fixture(autouse=True)
    def streamed(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_HELD_TOP_SUBSETS", 0)


class TestLeaveOut:
    """Sides as large as the pool: each level t >= m / 2 + 1 joins through
    the subsets its pairs leave out, m - t members, where that size is
    complete.  Each case runs at side m and m + 3, top size held and
    streamed."""

    @staticmethod
    def held_and_streamed(monkeypatch, pool, **caps):
        m, limit = len(pool.members), search.MAX_HELD_TOP_SUBSETS
        for max_side in (m, m + 3):
            for held in (limit, 0):
                monkeypatch.setattr(search, "MAX_HELD_TOP_SUBSETS", held)
                assert_matches_reference(pool, max_side, **caps)

    @staticmethod
    def size_boundaries(m):
        """max_evals just before, at and just after each size boundary of an
        m-member pool, up to 5 000 subsets: past that the reference join
        takes seconds a call."""
        cuts, total = [], 0
        for size in range(1, m + 1):
            total += comb(m, size)
            if total > 5_000:
                break
            cuts += [total - 1, total, total + 1]
        return cuts

    @pytest.mark.parametrize("n", range(3, 9))
    def test_eval_cap_at_every_size_boundary(self, monkeypatch, n):
        # a size cut by max_evals is incomplete: never a left-out size
        pool = build_pool(n)
        for max_evals in self.size_boundaries(len(pool.members)):
            self.held_and_streamed(monkeypatch, pool, max_evals=max_evals, max_results=None)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_result_cap_in_the_top_levels(self, monkeypatch, n):
        # levels m - 2 ... m leave out at most two members; at n = 3 ... 6
        # level m has pairs that use the whole pool
        pool = build_pool(n)
        m = len(pool.members)
        pairs = find_equal_sum_pairs(pool, m, max_results=None).pairs
        caps = {len(pairs) - 1}
        for t in range(m - 2, m + 1):
            before = sum(len(p.left) + len(p.right) < t for p in pairs)
            caps |= {before, before + 1}
        for cap in sorted(cap for cap in caps if 0 <= cap <= len(pairs)):
            self.held_and_streamed(monkeypatch, pool, max_results=cap)


class TestJoinCanFail:
    """The oracle comparison catches a join that keeps overlapping sides,
    puts the later subset of a same-size pair on the left or sorts a sum's
    pairs the wrong way round, a top-size self-join whose equal-sum groups
    are not in itertools.combinations order, a rebuilt top - 1 frontier
    that does not replay a max_evals cut, and a leave-out join that takes
    its left-out subsets from a size max_evals cut, keeps both orders of a
    self-join pair or takes every y it makes for a pair."""

    @staticmethod
    def mutate(monkeypatch, name, old, new):
        monkeypatch.setattr(search, "MAX_HELD_TOP_SUBSETS", 0)  # stream the top size too
        source = inspect.getsource(getattr(search, name))
        assert old in source
        namespace = dict(vars(search))
        exec(source.replace(old, new), namespace)  # a mutated copy
        monkeypatch.setattr(search, name, namespace[name])

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("_join", "                if not x & y\n", ""),
            ("_join", "combinations(left, 2)", "((y, x) for x, y in combinations(left, 2))"),
            ("_join", "chunk.sort(reverse=True)", "chunk.sort()"),
            ("_self_join_sums", "[(group, group)]", "[(masks := sorted(group), masks)]"),
        ],
        ids=["overlapping-sides", "self-join-order", "ascending-shapes", "top-group-by-mask"],
    )
    def test_mutation_fails_the_oracle(self, monkeypatch, name, old, new):
        self.mutate(monkeypatch, name, old, new)
        with pytest.raises(AssertionError):
            assert_matches_reference(build_pool(10), 3)

    @pytest.mark.parametrize(
        "name, old, new, n, max_evals",
        [
            # C(7, 1) + C(7, 2) = 28, C(10, 1..3) = 175 and C(12, 1..4) = 793
            # subsets: the next size is then built cut, empty or with one
            # subset, and a pair leaving out that many members is missed
            ("_level_sums", "slack < len(indexes) - 1", "slack < len(indexes)", 5, 28),
            ("_level_sums", "slack < len(indexes) - 1", "slack < len(indexes)", 6, 176),
            ("_level_sums", "slack < len(indexes) - 1", "slack < len(indexes)", 7, 793),
            ("_join", " and (left is not right or x & -x < y & -y)", "", 4, 10_000_000),
            ("_join", "(y := x ^ flip) in wanted", "(y := x ^ flip)", 5, 10_000_000),
        ],
        ids=["cut-size-left-out-5", "cut-size-left-out-6", "cut-size-left-out-7", "leave-out-order", "no-membership"],
    )
    def test_leave_out_mutation_fails_the_oracle(self, monkeypatch, name, old, new, n, max_evals):
        pool = build_pool(n)
        self.mutate(monkeypatch, name, old, new)
        with pytest.raises(AssertionError):
            assert_matches_reference(pool, len(pool.members), max_evals=max_evals, max_results=None)

    @pytest.mark.parametrize("n, max_side", [(9, 3), (10, 4)])
    def test_rebuilt_frontier_without_the_cut_fails_the_oracle(self, monkeypatch, n, max_side):
        pool = build_pool(n)
        m = len(pool.members)
        below = sum(comb(m, s) for s in range(1, max_side))
        full = below + comb(m, max_side)
        self.mutate(monkeypatch, "_search", "                _cut(frontier, budget)\n", "")
        for max_evals in (below + 1, (below + full) // 2, full - 1):
            with pytest.raises(AssertionError):
                assert_matches_reference(pool, max_side, max_evals=max_evals, max_results=None)


class TestTopSize:
    """A top side size, min(max_side, pool size), of more than
    MAX_HELD_TOP_SUBSETS subsets is indexed only at the sums a smaller size
    has, and its self-join level (2 top terms) streams from the frontier.
    Each test here streams every top size; each budget can stop the search
    inside that level."""

    @pytest.fixture(autouse=True)
    def streamed(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_HELD_TOP_SUBSETS", 0)

    @staticmethod
    def self_join_costs(pool, top):
        """(sum, C(c, 2)) in ascending sum order for each sum of c >= 2
        size-top subsets: what the level-2 top self-join compares."""
        counts = Counter(sum(value for _, value in combo) for combo in combinations(pool.members, top))
        return sorted((total, c * (c - 1) // 2) for total, c in counts.items() if c > 1)

    def test_held_up_to_the_limit(self, monkeypatch):
        # build_pool(11) has 24 members: C(24, 4) = 10626 size-4 subsets
        pool = build_pool(11)
        held = find_equal_sum_pairs(pool, 4)
        original, streams = search._self_join_sums, []

        def spy(frontier):
            streams.append(len(frontier))
            return original(frontier)

        monkeypatch.setattr(search, "_self_join_sums", spy)
        monkeypatch.setattr(search, "MAX_HELD_TOP_SUBSETS", 10626)
        assert find_equal_sum_pairs(pool, 4).pairs == held.pairs and streams == []
        monkeypatch.setattr(search, "MAX_HELD_TOP_SUBSETS", 10625)
        assert find_equal_sum_pairs(pool, 4).pairs == held.pairs and streams == [2024]  # C(24, 3)

    @pytest.mark.parametrize("n, max_side", [(8, 1), (8, 2), (9, 3), (10, 4)])
    def test_eval_cap_inside_the_top_size(self, n, max_side):
        pool = build_pool(n)
        m = len(pool.members)
        below = sum(comb(m, s) for s in range(1, max_side))
        full = below + comb(m, max_side)
        for max_evals in (below, below + 1, below + 9, (below + full) // 2, full - 1):
            res = assert_matches_reference(pool, max_side, max_evals=max_evals, max_results=None)
            assert res.stopped_by == "max_evals"

    @pytest.mark.parametrize("n, max_side", [(7, 1), (9, 2), (10, 3), (11, 4)])
    def test_result_cap_inside_the_self_join(self, n, max_side):
        pool = build_pool(n)
        pairs = find_equal_sum_pairs(pool, max_side, max_results=None).pairs
        before = sum(len(p.left) + len(p.right) < 2 * max_side for p in pairs)
        assert len(pairs) - before >= 3  # the self-join level has pairs to cut
        for cap in (before, before + 1, (before + len(pairs)) // 2, len(pairs) - 1):
            res = assert_matches_reference(pool, max_side, max_results=cap)
            assert res.stopped_by == "max_results" and len(res.pairs) == cap

    @pytest.mark.parametrize("n, max_side", [(9, 1), (9, 3), (10, 4)])
    def test_join_budget_inside_the_self_join(self, monkeypatch, n, max_side):
        pool = build_pool(n)
        uncapped = find_equal_sum_pairs(pool, max_side, max_results=None).pairs
        costs = self.self_join_costs(pool, max_side)
        before = TestJoinBudget.comparisons(pool, max_side) - sum(cost for _, cost in costs)
        for stop in (0, 1, len(costs) // 2, len(costs) - 1):
            # room for every sum of the self-join level below costs[stop]
            budget = before + sum(cost for _, cost in costs[:stop])
            monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", budget)
            res = find_equal_sum_pairs(pool, max_side, max_results=None)
            assert res.stopped_by == "max_candidates"
            first_out = costs[stop][0]
            assert res.pairs == [
                p for p in uncapped if len(p.left) + len(p.right) < 2 * max_side or p.total < first_out
            ]

    @staticmethod
    def fresh_peak_mb(n, max_side):
        """VmHWM of a fresh interpreter that runs one search: the peak of
        that process alone, where ru_maxrss of a process started from this
        one counts this one's size too."""
        code = (
            "from sytknap.search import build_pool, find_equal_sum_pairs\n"
            f"find_equal_sum_pairs(build_pool({n}), max_side={max_side})\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
        )
        src = os.path.dirname(os.path.dirname(search.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        return int(done.stdout) / 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_top_size_is_never_indexed_whole(self):
        # n = 20, side 4: holding the 521 855 size-4 subsets peaked near
        # 95 MB; the filtered index and the streamed self-join near 39 MB
        # (51 MB with a tails list per member and the top - 1 frontier held)
        assert self.fresh_peak_mb(20, 4) < 75

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_wide_pool_peak(self):
        # build_pool(100) has 981 members: shared tail slices and no held
        # top - 1 frontier take side 2 from 153 MB to 53 MB
        assert self.fresh_peak_mb(100, 2) < 100

    def test_traced_peak(self):
        # the n = 20 side-4 search allocates at most 24 MB at once in Python
        # objects: about 21 MB, where holding the top - 1 frontier, an index
        # tuple per side and a tuple per (tail, member) took about 33 MB
        pool = build_pool(20)
        tracemalloc.start()
        try:
            find_equal_sum_pairs(pool, max_side=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 24


class TestSides:
    @staticmethod
    def decode(shapes, mask):
        return tuple(shapes[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def test_every_small_mask(self):
        shapes = [(30 - i,) for i in range(30)]
        sides = _Sides(shapes)
        for size in range(5):
            for combo in combinations(range(30), size):
                mask = sum(1 << i for i in combo)
                assert sides[mask] == self.decode(shapes, mask)

    def test_random_masks(self):
        rng = random.Random(61)
        shapes = [(61 - i, 1) for i in range(61)]
        sides = _Sides(shapes)
        for _ in range(2_000):
            mask = rng.getrandbits(61)
            assert sides[mask] == self.decode(shapes, mask)


class TestGcState:
    def test_left_as_found(self):
        assert gc.isenabled()
        find_equal_sum_pairs(build_pool(8), 3)
        assert gc.isenabled()
        gc.disable()
        try:
            find_equal_sum_pairs(build_pool(8), 3)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restored_when_labelling_raises(self, monkeypatch):
        def fail(n, pairs):
            raise RuntimeError("labelling failed")

        monkeypatch.setattr(search, "_label_rediscoveries", fail)
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            find_equal_sum_pairs(build_pool(8), 3)
        assert gc.isenabled()


class TestJoinBudget:
    @staticmethod
    def comparisons(pool, max_side):
        """What an uncapped search compares: every unordered pair of
        distinct subsets of at most max_side members with equal sums."""
        counts = {}
        sizes = range(1, min(max_side, len(pool.members)) + 1)
        for combo in chain.from_iterable(combinations(pool.members, s) for s in sizes):
            total = sum(value for _, value in combo)
            counts[total] = counts.get(total, 0) + 1
        return sum(c * (c - 1) // 2 for c in counts.values())

    @pytest.mark.parametrize("n, max_side", [(9, 3), (10, 4)])
    def test_stops_past_the_budget(self, monkeypatch, n, max_side):
        pool = build_pool(n)
        uncapped = find_equal_sum_pairs(pool, max_side, max_results=None)
        count = self.comparisons(pool, max_side)
        monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", count)
        exact = find_equal_sum_pairs(pool, max_side, max_results=None)
        assert exact.stopped_by is None and exact.pairs == uncapped.pairs
        monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", count - 1)
        short = find_equal_sum_pairs(pool, max_side, max_results=None)
        assert short.stopped_by == "max_candidates" and short.truncated
        assert short.pairs == uncapped.pairs[: len(short.pairs)]
        assert short.subsets_enumerated == uncapped.subsets_enumerated

    def test_result_cap_takes_precedence(self, monkeypatch):
        pool = build_pool(9)
        monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", self.comparisons(pool, 3) - 1)
        res = find_equal_sum_pairs(pool, 3, max_results=5)
        assert res.stopped_by == "max_results"
        assert res.pairs == find_equal_sum_pairs(pool, 3, max_results=None).pairs[:5]

    def test_default_is_far_above_every_benchmark_search(self):
        assert search.MAX_JOIN_CANDIDATES >= 10 * self.comparisons(build_pool(8), 8)


class TestBudgets:
    @pytest.mark.parametrize(
        "caps", [{"max_side": 0}, {"max_side": -1}, {"max_evals": -1}, {"max_results": -1}]
    )
    def test_negative_or_empty_budget_rejected(self, caps):
        with pytest.raises(ValueError):
            find_equal_sum_pairs(build_pool(6), **{"max_side": 3, **caps})

    def test_readme_example_stops_at_the_result_cap(self):
        # 28 members; 1683217 = C(28,1) + ... + C(28,7): the cap fills at
        # level 8 (1 + 7 members), so no size-8 subset is built.
        pool = build_pool(12)
        assert len(pool.members) == 28
        res = find_equal_sum_pairs(pool, max_side=8)
        assert len(res.pairs) == 50_000 and res.truncated
        assert res.stopped_by == "max_results"
        assert res.subsets_enumerated == 1683217


class TestScan:
    def test_rows(self):
        rows = scan_even_ladders(4, 7, 6)
        assert [r.d for r in rows] == [0, 2, 4, 6]
        assert rows[0].value == 0 and rows[0].note == "empty sum"
        d2 = rows[1]
        assert d2.value == degree((4, 4) + (1,) * 7) + degree((5, 5) + (1,) * 5)
        assert d2.probe_shape == (6, 4) + (1,) * 5
        assert d2.residual == d2.value - d2.probe_value

    def test_same_parity_has_no_candidate(self):
        rows = scan_even_ladders(5, 5, 2)
        assert rows[1].note == "no candidate" or rows[1].candidates

    def test_preconditions(self):
        with pytest.raises(ValueError):
            scan_even_ladders(1, 5, 2)

    @staticmethod
    def restated_value(k, m, d):
        # the even ladder as hook-product degrees; every tail here is >= 0
        return sum(degree((k + j, k + j) + (1,) * (m - 2 * j)) for j in range(d))

    def test_single_three_row_candidates(self):
        rows = scan_even_ladders(2, 6, 4)
        assert [(r.d, r.candidates) for r in rows] == [(0, []), (2, ["-f(6,4)"]), (4, ["+f(4,4,2)"])]
        for r in rows[1:]:
            assert r.note == "residual is a single three-row degree"
            assert r.value == self.restated_value(2, 6, r.d)
            assert r.residual == r.value - degree(r.probe_shape)
        assert rows[1].residual == -degree((6, 4)) and rows[2].residual == degree((4, 4, 2))

    def test_probe_matches_exactly(self):
        rows = scan_even_ladders(12, 10, 2)
        d2 = rows[1]
        assert d2.note == "probe matches exactly" and d2.residual == 0 and d2.candidates == []
        assert d2.value == self.restated_value(12, 10, 2) == degree((14, 12) + (1,) * 8)

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (3, 2), (4, 7), (5, 6), (6, 11)])
    def test_rows_up_to_k_plus_m_keep_the_whole_ladder_sum(self, k, m):
        # below j = k + m the fat-hook form is defined at every ladder triple,
        # so the sum of every term, tails of any sign, is the reference
        rows = scan_even_ladders(k, m, k + m)
        assert [r.d for r in rows] == list(range(0, k + m + 1, 2))
        for r in rows:
            assert r.value == sum(t.value for t in ladder_sum_terms(k, m, r.d))

    def test_past_k_plus_m(self):
        # at j = k + m the fat-hook form is singular; the scan counts shapes only
        with pytest.raises(ValueError, match=r"singular denominator at \(6, 6, -6\)"):
            ladder_sum_terms(2, 2, 5)
        rows = scan_even_ladders(2, 2, 8)
        assert [(r.d, r.value) for r in rows] == [(0, 0), (2, 14), (4, 14), (6, 14), (8, 14)]
        assert rows[1].value == degree((2, 2, 1, 1)) + degree((3, 3))
