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
from unittest import mock

import pytest

from sytknap import identities, search
from sytknap.degrees import degree, fat_hook_value
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

    @pytest.mark.parametrize("family", sorted(search.POOL_FAMILIES))
    def test_family_counts_match_the_listing(self, family):
        count, shapes = search.POOL_FAMILIES[family]
        for n in range(1, 120):
            assert count(n) == len(set(shapes(n)))


class TestPoolBudget:
    """A pool is counted before it is listed: past MAX_POOL_MEMBERS, or past
    the sweep size its labels take, it is refused before any shape or
    degree is computed."""

    @pytest.fixture
    def unlisted(self, monkeypatch):
        def never(*args):
            raise AssertionError("the pool was listed")

        for name in ("partitions", "fat_hook", "degree"):
            monkeypatch.setattr(search, name, never)

    @staticmethod
    def largest_accepted(families):
        """The largest n whose families' counts sum to at most MAX_POOL_MEMBERS."""
        n = 1
        while sum(search.POOL_FAMILIES[f][0](n + 1) for f in families) <= search.MAX_POOL_MEMBERS:
            n += 1
        return n

    @pytest.mark.parametrize("families", [("rows4",), ("rows4", "fathook"), ("3part", "rows4")])
    def test_members_at_the_limit(self, unlisted, families):
        n = self.largest_accepted(families)
        with pytest.raises(AssertionError, match="listed"):
            build_pool(n, families)
        count = sum(search.POOL_FAMILIES[f][0](n + 1) for f in families)
        message = f"search pool n={n + 1} has up to {count} members; the limit is {search.MAX_POOL_MEMBERS}"
        with pytest.raises(ValueError) as refused:
            build_pool(n + 1, families)
        assert str(refused.value) == message

    def test_members_at_an_exact_limit(self, unlisted, monkeypatch):
        # rows4 at n = 40 counts 632 shapes
        monkeypatch.setattr(search, "MAX_POOL_MEMBERS", 632)
        with pytest.raises(AssertionError, match="listed"):
            build_pool(40, ("rows4",))
        monkeypatch.setattr(search, "MAX_POOL_MEMBERS", 631)
        with pytest.raises(ValueError, match="^search pool n=40 has up to 632 members; the limit is 631$"):
            build_pool(40, ("rows4",))

    def test_size_at_the_sweep_limit(self, unlisted):
        # a search labels its pairs from the knapsack sweep at the pool's n
        for families in [("fathook",), ("3part", "fathook")]:
            with pytest.raises(AssertionError, match="listed"):
                build_pool(identities.MAX_SWEEP_N, families)
            with pytest.raises(ValueError, match="^search pool n=501 is over budget; the limit is n=500$"):
                build_pool(identities.MAX_SWEEP_N + 1, families)

    def test_accepted_pools_stay_inside_the_hook_product_budget(self):
        # every accepted pool takes at most MAX_ANALYTIC_WORK hook-product
        # work, members x n^2, so build_pool needs no check of its own for it
        names = sorted(search.POOL_FAMILIES)
        for families in chain.from_iterable(combinations(names, r) for r in range(1, len(names) + 1)):
            for n in range(1, identities.MAX_SWEEP_N + 1):
                count = sum(search.POOL_FAMILIES[f][0](n) for f in families)
                assert count > search.MAX_POOL_MEMBERS or count * n * n <= identities.MAX_ANALYTIC_WORK


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
        # 28 members: the 378 pairs of members would take 28 subsets past 100
        res = capped_search(build_pool(12), max_side=4, max_evals=100)
        assert res.stopped_by == "max_evals" and res.subsets_enumerated == 28
        full = find_equal_sum_pairs(build_pool(12), max_side=4)
        assert res.pairs == [p for p in full.pairs if len(p.left) + len(p.right) == 2]

    def test_result_cap_truncates(self):
        full = find_equal_sum_pairs(build_pool(10), max_side=3)
        capped = capped_search(build_pool(10), max_side=3, max_results=5)
        assert capped.truncated and len(capped.pairs) == 5
        assert capped.pairs == full.pairs[:5]

    def test_deterministic(self):
        a = find_equal_sum_pairs(build_pool(9), max_side=3)
        b = find_equal_sum_pairs(build_pool(9), max_side=3)
        assert a.pairs == b.pairs


UNCAPPED = sys.maxsize  # a result cap that no search here fills


def capped_search(pool, max_side, max_evals=None, max_results=None):
    """find_equal_sum_pairs with search.MAX_EVALS and search.MAX_RESULTS set
    to max_evals and max_results for the call, where one is given."""
    evals = search.MAX_EVALS if max_evals is None else max_evals
    cap = search.MAX_RESULTS if max_results is None else max_results
    with mock.patch.object(search, "MAX_EVALS", evals), mock.patch.object(search, "MAX_RESULTS", cap):
        return find_equal_sum_pairs(pool, max_side)


def reference_search(pool, max_side, max_evals=10_000_000, max_results=50_000):
    """The sort-everything join: index every subset up to max_side members,
    pair every equal-sum bucket, sort all pairs, then cut.  The first size s
    that takes the subsets past max_evals is not built, and only pairs of at
    most s terms are kept.  Returns ((left, right, total) triples, subsets
    enumerated, stopped_by).

    Memoized for the last call: sides past the pool size give the same
    results, and TestLeaveOut asks for them held and streamed in turn."""
    return _reference(pool, min(max_side, len(pool.members)), max_evals, max_results)


@functools.lru_cache(maxsize=1)
def _reference(pool, top, max_evals, max_results):
    members, by_sum, enumerated, stopped_by = pool.members, {}, 0, None
    terms = 2 * top  # the most terms a kept pair has
    for size in range(1, top + 1):
        if enumerated + comb(len(members), size) > max_evals:
            stopped_by, terms = "max_evals", size
            break
        for combo in combinations(range(len(members)), size):
            enumerated += 1
            by_sum.setdefault(sum(members[i][1] for i in combo), []).append(combo)
    raw = sorted(
        (len(a) + len(b), total, a, b)
        for total, bucket in by_sum.items()
        for a, b in combinations(bucket, 2)
        if not set(a) & set(b) and len(a) + len(b) <= terms
    )
    if len(raw) > max_results:
        raw, stopped_by = raw[:max_results], "max_results"
    shapes = [shape for shape, _ in members]
    triples = [(tuple(shapes[i] for i in a), tuple(shapes[i] for i in b), total) for _, total, a, b in raw]
    return triples, enumerated, stopped_by


def assert_matches_reference(pool, max_side, max_evals=10_000_000, max_results=None):
    cap = search.MAX_RESULTS if max_results is None else max_results
    res = capped_search(pool, max_side, max_evals, cap)
    triples, enumerated, stopped_by = reference_search(pool, max_side, max_evals, cap)
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
            assert_matches_reference(pool, max_side, max_results=UNCAPPED)

    @pytest.mark.parametrize("n, max_side", [(6, 2), (9, 3), (10, 4)])
    def test_result_cap_edges(self, n, max_side):
        pool = build_pool(n)
        count = len(capped_search(pool, max_side, max_results=UNCAPPED).pairs)
        for cap in (0, 1, count - 1, count, count + 1):
            res = assert_matches_reference(pool, max_side, max_results=cap)
            assert res.truncated == (cap < count)

    @pytest.mark.parametrize("n", [9, 11])
    def test_eval_cap_inside_a_size(self, n):
        pool = build_pool(n)
        m = len(pool.members)
        two = m + m * (m - 1) // 2  # subsets of sizes 1 and 2
        for max_evals in (0, 1, m - 1, m, m + 7, two, two + 1, two + 100):
            for max_results in (UNCAPPED, 1, 40, 500):
                assert_matches_reference(pool, 4, max_evals=max_evals, max_results=max_results)

    def test_eval_cap_at_the_last_subset(self):
        pool = build_pool(8)
        full = find_equal_sum_pairs(pool, 3)
        short = assert_matches_reference(pool, 3, max_evals=full.subsets_enumerated - 1)
        assert short.stopped_by == "max_evals"
        exact = assert_matches_reference(pool, 3, max_evals=full.subsets_enumerated)
        assert exact.stopped_by is None and exact.pairs == full.pairs

    @pytest.mark.parametrize("n, max_side", [(7, 3), (9, 4)])
    def test_eval_cap_at_each_size_total(self, n, max_side):
        # a cap at a size's cumulative count builds that size; one less stops
        # before it, keeping the pairs of at most that many terms
        pool = build_pool(n)
        full = capped_search(pool, max_side, max_results=UNCAPPED)
        m, total = len(pool.members), 0
        for size in range(1, max_side + 1):
            total += comb(m, size)
            exact = capped_search(pool, max_side, max_evals=total, max_results=UNCAPPED)
            short = capped_search(pool, max_side, max_evals=total - 1, max_results=UNCAPPED)
            assert short.stopped_by == "max_evals"
            assert short.subsets_enumerated == total - comb(m, size)
            assert short.pairs == [p for p in full.pairs if len(p.left) + len(p.right) <= size]
            assert exact.subsets_enumerated == total
            kept = 2 * max_side if size == max_side else size + 1
            assert exact.pairs == [p for p in full.pairs if len(p.left) + len(p.right) <= kept]
            assert exact.stopped_by == (None if size == max_side else "max_evals")

    def test_eval_cap_stops_before_building(self, monkeypatch):
        # the size that would pass the cap is never built
        pool = build_pool(12)
        m, grown = len(pool.members), []
        original = search._grow

        def spy(indexes, *rest):
            grown.append(len(indexes))
            return original(indexes, *rest)

        monkeypatch.setattr(search, "_grow", spy)
        res = capped_search(pool, 8, max_evals=m + comb(m, 2) + comb(m, 3) - 1, max_results=UNCAPPED)
        assert res.stopped_by == "max_evals" and grown == [1, 2]


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
        # the search stops before the size that would pass the cap
        pool = build_pool(n)
        for max_evals in self.size_boundaries(len(pool.members)):
            self.held_and_streamed(monkeypatch, pool, max_evals=max_evals, max_results=UNCAPPED)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_result_cap_in_the_top_levels(self, monkeypatch, n):
        # levels m - 2 ... m leave out at most two members; at n = 3 ... 6
        # level m has pairs that use the whole pool
        pool = build_pool(n)
        m = len(pool.members)
        pairs = capped_search(pool, m, max_results=UNCAPPED).pairs
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
    are not in itertools.combinations order, and a leave-out join that takes
    its left-out subsets from a filtered top size, keeps both orders of a
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
        "name, old, new",
        [
            ("_join", " and (left is not right or x & -x < y & -y)", ""),
            ("_join", "(y := x ^ flip) in wanted", "(y := x ^ flip)"),
        ],
        ids=["leave-out-order", "no-membership"],
    )
    def test_leave_out_mutation_fails_the_oracle(self, monkeypatch, name, old, new):
        pool = build_pool(5)
        self.mutate(monkeypatch, name, old, new)
        with pytest.raises(AssertionError):
            assert_matches_reference(pool, len(pool.members), max_results=UNCAPPED)

    @pytest.mark.parametrize("n, max_side", [(4, 2), (5, 3), (6, 4)])
    def test_filtered_top_size_as_left_out_fails_the_oracle(self, monkeypatch, n, max_side):
        # 5, 7 and 10 members: at least 2 top + 1, so a level between top + 1
        # and 2 top - 1 leaves out top members, and the streamed top size is
        # indexed only at the sums a smaller size has
        pool = build_pool(n)
        assert 2 * max_side + 1 <= len(pool.members) <= 3 * max_side - 1
        self.mutate(monkeypatch, "_level_sums", "slack < len(indexes) - 1", "slack < len(indexes)")
        with pytest.raises(AssertionError):
            assert_matches_reference(pool, max_side, max_results=UNCAPPED)


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

        def spy(frontier, *rest):
            streams.append(len(frontier))
            return original(frontier, *rest)

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
            res = assert_matches_reference(pool, max_side, max_evals=max_evals, max_results=UNCAPPED)
            assert res.stopped_by == "max_evals"

    @pytest.mark.parametrize("n, max_side", [(7, 1), (9, 2), (10, 3), (11, 4)])
    def test_result_cap_inside_the_self_join(self, n, max_side):
        pool = build_pool(n)
        pairs = capped_search(pool, max_side, max_results=UNCAPPED).pairs
        before = sum(len(p.left) + len(p.right) < 2 * max_side for p in pairs)
        assert len(pairs) - before >= 3  # the self-join level has pairs to cut
        for cap in (before, before + 1, (before + len(pairs)) // 2, len(pairs) - 1):
            res = assert_matches_reference(pool, max_side, max_results=cap)
            assert res.stopped_by == "max_results" and len(res.pairs) == cap

    @pytest.mark.parametrize("n, max_side", [(9, 1), (9, 3), (10, 4)])
    def test_join_budget_inside_the_self_join(self, monkeypatch, n, max_side):
        pool = build_pool(n)
        uncapped = capped_search(pool, max_side, max_results=UNCAPPED).pairs
        costs = self.self_join_costs(pool, max_side)
        before = TestJoinBudget.comparisons(pool, max_side) - sum(cost for _, cost in costs)
        for stop in (0, 1, len(costs) // 2, len(costs) - 1):
            # room for every sum of the self-join level below costs[stop]
            budget = before + sum(cost for _, cost in costs[:stop])
            monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", budget)
            res = capped_search(pool, max_side, max_results=UNCAPPED)
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
        # (51 MB with a list of later members per member and the top - 1
        # frontier held)
        assert self.fresh_peak_mb(20, 4) < 75

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_wide_pool_peak(self):
        # build_pool(100) has 981 members: no held top - 1 frontier took side
        # 2 from 153 MB to 53 MB, and growing each subset by the members
        # after its highest bit, with no list of later members per member,
        # to 20 MB
        assert self.fresh_peak_mb(100, 2) < 40

    def test_wide_pool_traced_peak(self):
        # build_pool(300) has 7 948 members.  Side 1 allocates about 11 MB:
        # the members' bits, about m^2 / 16 bytes, and one sorted run of
        # them; a list of later members per member took about 265 MB
        pool = build_pool(300)
        tracemalloc.start()
        try:
            find_equal_sum_pairs(pool, max_side=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 30

    def test_traced_peak(self):
        # the n = 20 side-4 search allocates at most 24 MB at once in Python
        # objects: about 21 MB, where holding the top - 1 frontier, an index
        # tuple per side and a tuple for each member of each member's list of
        # later members took about 33 MB
        pool = build_pool(20)
        tracemalloc.start()
        try:
            find_equal_sum_pairs(pool, max_side=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 24


class _Unlisted(list):
    """Left-out subsets that may be counted but not read."""

    def __iter__(self):
        raise AssertionError("the join read the left-out subsets")


class TestJoinRoute:
    def test_compares_when_that_costs_less(self):
        # one subset against ten: 10 candidates, where joining through the 9
        # left-out subsets takes 10 + 1 * 9 steps
        shapes = [(20 - i,) for i in range(20)]
        right = [1 << i for i in range(1, 11)]
        leftout = _Unlisted(1 << i for i in range(11, 20))
        chunk = search._join([([1], right)], leftout, (1 << 20) - 1, _Sides(shapes))
        assert chunk == [(((20,),), ((20 - i,),)) for i in range(1, 11)]


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
        uncapped = capped_search(pool, max_side, max_results=UNCAPPED)
        count = self.comparisons(pool, max_side)
        monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", count)
        exact = capped_search(pool, max_side, max_results=UNCAPPED)
        assert exact.stopped_by is None and exact.pairs == uncapped.pairs
        monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", count - 1)
        short = capped_search(pool, max_side, max_results=UNCAPPED)
        assert short.stopped_by == "max_candidates" and short.truncated
        assert short.pairs == uncapped.pairs[: len(short.pairs)]
        assert short.subsets_enumerated == uncapped.subsets_enumerated

    def test_result_cap_takes_precedence(self, monkeypatch):
        pool = build_pool(9)
        monkeypatch.setattr(search, "MAX_JOIN_CANDIDATES", self.comparisons(pool, 3) - 1)
        res = capped_search(pool, 3, max_results=5)
        assert res.stopped_by == "max_results"
        assert res.pairs == capped_search(pool, 3, max_results=UNCAPPED).pairs[:5]

    def test_default_is_far_above_every_benchmark_search(self):
        assert search.MAX_JOIN_CANDIDATES >= 10 * self.comparisons(build_pool(8), 8)


class TestBudgets:
    @pytest.mark.parametrize("caps", [{"max_side": 0}, {"max_side": -1}])
    def test_negative_or_empty_budget_rejected(self, caps):
        with pytest.raises(ValueError):
            find_equal_sum_pairs(build_pool(6), **{"max_side": 3, **caps})

    def test_subset_budget_is_a_constant(self):
        assert search.MAX_EVALS == 10_000_000
        assert list(inspect.signature(find_equal_sum_pairs).parameters) == ["pool", "max_side"]

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
        def term(j):
            # hook products on the shapes; the form only for negative tails
            if m - 2 * j >= 0:
                return degree((k + j, k + j) + (1,) * (m - 2 * j))
            return fat_hook_value(k + j, k + j, m - 2 * j)

        rows = scan_even_ladders(k, m, k + m)
        assert [r.d for r in rows] == list(range(0, k + m + 1, 2))
        for r in rows:
            assert r.value == sum(term(j) for j in range(r.d))

    def test_past_k_plus_m(self):
        # at j = k + m the fat-hook form is singular; the scan counts shapes only
        with pytest.raises(ValueError, match=r"singular denominator at \(6, 6, -6\)"):
            fat_hook_value(6, 6, -6)
        rows = scan_even_ladders(2, 2, 8)
        assert [(r.d, r.value) for r in rows] == [(0, 0), (2, 14), (4, 14), (6, 14), (8, 14)]
        assert rows[1].value == degree((2, 2, 1, 1)) + degree((3, 3))

    @pytest.mark.parametrize("k, m", [(2, 2), (3, 9), (4, 8)])
    def test_ladder_values_are_taken_once(self, k, m, monkeypatch):
        # one value per ladder shape, j = 0..m//2, however many rows
        calls = Counter()

        def counted(*args):
            calls[args] += 1
            return fat_hook_value(*args)

        monkeypatch.setattr(search, "fat_hook_value", counted)
        for d_max in (0, 1, 2, m, 3 * (k + m), 1000):
            calls.clear()
            rows = scan_even_ladders(k, m, d_max)
            assert len(rows) == d_max // 2 + 1
            assert sorted(calls) == [(k + j, k + j, m - 2 * j) for j in range(m // 2 + 1)]
            assert set(calls.values()) == {1}

    @staticmethod
    def _never(*args):
        raise AssertionError("the scan computed a degree past its budget")

    def test_size_budget(self, monkeypatch):
        # the three-part table at 2k + m shares the knapsack sweeps' limit
        monkeypatch.setattr(identities, "MAX_SWEEP_N", 10)
        assert [r.d for r in scan_even_ladders(2, 6, 4)] == [0, 2, 4]
        for name in ("degree", "partitions", "fat_hook_value"):
            monkeypatch.setattr(search, name, self._never)
        with pytest.raises(ValueError, match="^scan's three-part table at n=11 is over budget; the limit is n=10$"):
            scan_even_ladders(2, 7, 4)

    def test_default_size_budget(self, monkeypatch):
        n = identities.MAX_SWEEP_N + 1
        for name in ("degree", "partitions", "fat_hook_value"):
            monkeypatch.setattr(search, name, self._never)
        for k in (2, 166):
            with pytest.raises(ValueError, match=f"^scan's three-part table at n={n} is over budget;"):
                scan_even_ladders(k, n - 2 * k, 0)
