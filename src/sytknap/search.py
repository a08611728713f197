"""Exploratory search for new equal-degree-sum pairs, plus the even-ladder
scan.  Output is ranked data for a human to read; nothing here asserts that
a found pair is interesting."""

import gc
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import combinations, product
from math import comb

from .degrees import degree
from .identities import Report, Term, ladder_sum_terms, verify_knapsack
from .partitions import Partition, fat_hook, format_shape, partitions


POOL_FAMILIES = ("3part", "fathook", "rows4")


@dataclass(frozen=True)
class Pool:
    """Deduplicated candidate partitions of one size, with degrees attached."""

    n: int
    members: tuple[tuple[Partition, int], ...]


def build_pool(n: int, families=("3part", "fathook")) -> Pool:
    """Assemble a candidate pool from named families.

    3part: all partitions with at most three parts.
    fathook: the hooks (k, k, 1^t) and (k+1, k, 1^t).
    rows4: all partitions with at most four parts.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    shapes: set[Partition] = set()
    for family in families:
        if family == "3part":
            shapes.update(partitions(n, 3))
        elif family == "fathook":
            # b = k >= 1 and the tail t >= 0, so every triple is a shape
            shapes.update(fat_hook(k, k, n - 2 * k) for k in range(1, n // 2 + 1))
            shapes.update(fat_hook(k + 1, k, n - 2 * k - 1) for k in range(1, (n - 1) // 2 + 1))
        elif family == "rows4":
            shapes.update(partitions(n, 4))
        else:
            raise ValueError(f"unknown pool family {family!r}")
    members = tuple(sorted(((s, degree(s)) for s in shapes), reverse=True))
    return Pool(n, members)


# The join's candidate comparisons per call: a search stops before the sum
# that would take it past this many.  They are counted whether a split is
# scanned or joined through what its pairs leave out, so the join work they
# stand for varies: about 2 s on a 2-core VM at n = 10, side 10, where half
# are scanned, and 0.35 s at n = 9, side 9, where nearly all are not.  The
# largest benchmark search counts 1 824 092, the README example 106 902.
MAX_JOIN_CANDIDATES = 20_000_000

# The largest side size is held whole when it has at most this many subsets
# (an index of about 1.6 MB).  A larger one is indexed only at the sums a
# smaller size has, and its self-join level is streamed from a heap.  That
# saves most of a capped search's memory, but on a 2-core VM a streamed
# subset costs about 1 us against 0.3 us held, and streaming every size
# made the search-full benchmark, whose top sizes all fit, 17% slower.
MAX_HELD_TOP_SUBSETS = 16_384


@dataclass(slots=True)
class FoundIdentity:
    """One equal-sum pair of disjoint partition subsets.

    Slotted and mutable, so unhashable: a search builds one per pair found
    and labels rediscoveries in place.
    """

    n: int
    left: tuple[Partition, ...]
    right: tuple[Partition, ...]
    total: int
    label: str = ""

    def to_report(self) -> Report:
        terms = [Term("L", 1, s, degree(s)) for s in self.left]
        terms += [Term("R", 1, s, degree(s)) for s in self.right]
        return Report(
            id="search",
            params={"n": self.n},
            terms=terms,
            note=self.label,
        )


@dataclass
class SearchResult:
    """Ranked pairs and how far the search got.

    stopped_by names the budget that cut the run short: "max_results" when
    more pairs existed than were kept, otherwise "max_candidates" when the
    join's comparisons would have passed MAX_JOIN_CANDIDATES, otherwise
    "max_evals" when subset enumeration was cut, otherwise None.
    """

    pairs: list[FoundIdentity]
    subsets_enumerated: int
    stopped_by: str | None = None

    @property
    def truncated(self) -> bool:
        return self.stopped_by is not None


def _known_knapsack_instances(n: int) -> dict[frozenset, str]:
    """Unordered side-pairs of every fixed-second-part identity at size n,
    keyed for rediscovery labeling.  Instances whose two sides share a
    partition cannot appear as disjoint pairs and are skipped."""
    known = {}
    for k in range(n // 2 + 1):
        for rep in verify_knapsack(n, k):
            left = frozenset(t.shape for t in rep.terms if t.side == "L")
            right = frozenset(t.shape for t in rep.terms if t.side == "R")
            if not left or not right or left & right:
                continue
            key = frozenset((left, right))
            known.setdefault(key, f"{rep.id} n={n} k={k}")
    return known


def find_equal_sum_pairs(
    pool: Pool,
    max_side: int = 8,
    max_evals: int = 10_000_000,
    max_results: int | None = 50_000,
) -> SearchResult:
    """All pairs of disjoint nonempty subsets of the pool (up to max_side
    members per side) with equal degree sums, deduplicated up to swapping
    sides.

    Pairs are ranked by total term count t = |left| + |right| (shortest
    identities first), then by sum, then by the members' index tuples, left
    before right; the left side is the smaller one, or the lexicographically
    first when both have the same size.

    The search runs level by level in t and builds the size-s subsets only
    when level s + 1 first needs them.  The largest size, top =
    min(max_side, pool size), is held whole only when it has at most
    MAX_HELD_TOP_SUBSETS subsets.  Otherwise levels top + 1 ... 2 top - 1,
    which join it only with smaller sizes, index just the top-size subsets
    whose sum a smaller size has, and level 2 top streams them in ascending
    sum order from a heap over the size top - 1 subsets, rebuilt from the
    size top - 2 ones only when that level is reached.

    A level-t pair leaves out m - t of the pool's m members, so no pair
    exists past t = m, and levels near it, where few subsets are left out
    at a sum, join through those (see _join), with the same output.

    Three budgets stop it early and return the partial, still-ranked
    results:

    - max_evals caps the subsets enumerated, in itertools.combinations
      order by size; pairs among the subsets enumerated before the cap are
      still emitted.
    - max_results caps the pairs kept (None: no cap).  The search stops as
      soon as one more pair exists, so larger subsets may never be built.
    - MAX_JOIN_CANDIDATES caps the join's candidate comparisons: for each
      sum, |A| * |B| for the size-a and size-b subsets A and B with that
      sum, or C(|A|, 2) when a = b, whichever way that split is joined.  The
      search stops before the sum that would exceed it, so the pairs kept
      are a prefix of the uncapped ones.

    subsets_enumerated counts the subsets built before the stop (one more
    than max_evals when that cap cut enumeration).  stopped_by names the
    budget that cut the output, with max_results taking precedence.

    The cyclic garbage collector is paused for the call (the search makes
    no reference cycles) and left as it was found.
    """
    if max_side < 1:
        raise ValueError(f"need max_side >= 1, got {max_side}")
    if max_evals < 0:
        raise ValueError(f"need max_evals >= 0, got {max_evals}")
    if max_results is not None and max_results < 0:
        raise ValueError(f"need max_results >= 0, got {max_results}")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        pairs, enumerated, stopped_by = _search(pool, max_side, max_evals, max_results)
        _label_rediscoveries(pool.n, pairs)
    finally:
        if gc_was_enabled:
            gc.enable()
    return SearchResult(pairs, enumerated, stopped_by)


def _search(pool, max_side, max_evals, max_results):
    """The level-by-level join of find_equal_sum_pairs, unlabelled:
    (pairs, subsets enumerated, stopped_by)."""
    members = pool.members
    m = len(members)
    full = (1 << m) - 1
    whole = sum(value for _, value in members)
    top = min(max_side, m)
    streamed = comb(m, top) > MAX_HELD_TOP_SUBSETS
    # tails[i]: (value, bit, index) of members i, i + 1, ...: what a subset
    # whose last member is i - 1 grows by, in itertools.combinations order;
    # every tail is a slice of one list, so each member's item is built once
    items = [(value, 1 << j, j) for j, (_, value) in enumerate(members)]
    tails = [items[i:] for i in range(m + 1)]
    indexes: list[dict[int, list[int]]] = [{0: [0]}]  # indexes[s]: sum -> size-s bitmasks
    # (sum, bitmask, tail) of each subset one smaller than the largest
    # indexed; two smaller once a streamed top size is indexed
    frontier = [(0, 0, tails[0])]
    enumerated = 0
    evals_hit = False
    comparisons = 0
    stopped_by = None
    sides = _Sides(shape for shape, _ in members)
    pairs: list[FoundIdentity] = []
    for t in range(2, 2 * top + 1):
        if len(indexes) <= min(t - 1, top) and not evals_hit:
            filtered = streamed and len(indexes) == top
            grown = _extend(frontier, tails) if len(indexes) > 1 else frontier
            if not filtered:
                frontier = grown
            budget = max_evals - enumerated
            built, evals_hit = _grow(indexes, grown, budget, filtered)
            enumerated += built
            del grown
        if streamed and t == 2 * top and len(indexes) == top + 1:
            indexes.clear()  # the streamed self-join reads only the frontier
            # rebuild the size top - 1 frontier and replay _grow's cut on it;
            # at top = 1 it is the size-0 frontier, which _grow cut in place
            if top > 1:
                frontier = _extend(frontier, tails)
                _cut(frontier, budget)
            sums = _self_join_sums(frontier)
        else:
            sums = _level_sums(indexes, t, m - t, whole)
        for total, cost, buckets, leftout in sums:
            comparisons += cost
            if comparisons > MAX_JOIN_CANDIDATES:
                stopped_by = "max_candidates"
                break
            chunk = _join(buckets, leftout, full, sides)
            if not chunk:
                continue
            if max_results is not None and len(pairs) + len(chunk) > max_results:
                del chunk[max_results - len(pairs):]
                stopped_by = "max_results"
            pairs += [FoundIdentity(pool.n, left, right, total) for left, right in chunk]
            if stopped_by:
                break
        if stopped_by:
            break
    if stopped_by is None and evals_hit:
        stopped_by = "max_evals"
    return pairs, enumerated, stopped_by


def _extend(frontier, tails):
    """The frontier one member larger, in itertools.combinations order."""
    return [(total + v, mask | b, tails[j + 1]) for total, mask, tail in frontier for v, b, j in tail]


def _cut(frontier, budget):
    """Trim the frontier in place to its first budget subsets: the entries
    whose tails fit, then the next one with its tail cut.  Returns whether
    it cut."""
    for i, (total, mask, tail) in enumerate(frontier):
        if len(tail) > budget:
            frontier[i:] = [(total, mask, tail[:budget])]
            return True
        budget -= len(tail)
    return False


def _grow(indexes, frontier, budget, filtered):
    """Append to indexes the sum index of the subsets one member larger than
    the frontier's, built in itertools.combinations order until budget of
    them are built: (subsets built, whether the budget cut enumeration).

    A filtered index keeps only the sums a smaller size has: all that
    levels top + 1 ... 2 top - 1 join a streamed top size with.  A cut
    counts the subset past it as built and trims the frontier in place to
    the entries walked (see _cut).
    """
    cut = _cut(frontier, budget)
    wanted = set().union(*indexes[1:]) if filtered else None
    index = defaultdict(list)
    indexes.append(index)
    built = 0
    for total, mask, tail in frontier:
        if wanted is None:
            for v, b, _ in tail:
                index[total + v].append(mask | b)
        else:
            for v, b, _ in tail:
                if total + v in wanted:
                    index[total + v].append(mask | b)
        built += len(tail)
    return built + cut, cut


def _self_join_sums(frontier):
    """The self-join of the subsets the frontier grows into, as _level_sums
    yields it, without indexing them: a heap merges each frontier entry's
    tail, sorted by value, so the subsets come in ascending sum order, and
    equal sums in itertools.combinations order (frontier position, then
    member index)."""
    ordered = {}  # id(tail) -> (value, bit) sorted: once per shared tail
    runs = []
    for total, mask, tail in frontier:
        run = ordered.get(id(tail))
        if run is None:
            run = ordered[id(tail)] = sorted((v, b) for v, b, _ in tail)
        runs.append((total, mask, run))
    heap = [(total + run[0][0], pos, 0) for pos, (total, _, run) in enumerate(runs) if run]
    heapify(heap)
    current, group = None, []
    while heap:
        total, pos, k = heap[0]
        base, mask, run = runs[pos]
        if k + 1 < len(run):
            heapreplace(heap, (base + run[k + 1][0], pos, k + 1))
        else:
            heappop(heap)
        if total != current:
            if len(group) > 1:
                yield current, len(group) * (len(group) - 1) // 2, [(group, group)], None
            current, group = total, []
        group.append(mask | run[k][1])
    if len(group) > 1:
        yield current, len(group) * (len(group) - 1) // 2, [(group, group)], None


def _level_sums(indexes, t, slack, whole):
    """The sums of level t in ascending order, each with its candidate
    comparisons, its (size-a bitmasks, size-(t - a) bitmasks) buckets and
    what its pairs leave out.  Level t joins the size-a and size-(t - a) sum
    indexes for every a <= t - a that has been built; a self-join
    (a = t - a) visits only the sums of at least two subsets.

    A level-t pair at sum S leaves out slack = m - t members with sum
    whole - 2 S.  Where the size-slack index is complete (built, and not
    the last size built, which max_evals may cut or a streamed top size
    filter), each sum comes with its subsets there: none at all when slack
    is negative.  Elsewhere it comes with None."""
    if slack < 0:
        complement = {}
    elif slack < len(indexes) - 1:
        complement = indexes[slack]
    else:
        complement = None
    smallest = max(1, t - len(indexes) + 1)  # the larger side must be built
    splits = [(indexes[a], indexes[t - a]) for a in range(smallest, t // 2 + 1)]
    common = set()
    for xs, ys in splits:
        if xs is ys:
            common.update(total for total, masks in xs.items() if len(masks) > 1)
        else:
            common |= xs.keys() & ys.keys()
    common = sorted(common)  # the set is dropped while the sums are joined
    for total in common:
        cost = 0
        buckets = []
        for xs, ys in splits:
            left, right = xs.get(total), ys.get(total)
            if left is None or right is None:
                continue
            cost += len(left) * (len(left) - 1) // 2 if left is right else len(left) * len(right)
            buckets.append((left, right))
        leftout = None if complement is None else complement.get(whole - 2 * total, ())
        yield total, cost, buckets, leftout


def _join(buckets, leftout, full, sides):
    """The disjoint pairs of one sum's buckets as (left shapes, right
    shapes), sorted by the sides' index tuples.

    leftout, when not None, holds every subset that a pair at this sum
    leaves out, as _level_sums yields it.  A bucket (A, B) with more
    subsets in B than in leftout is joined through it: x in A and z in
    leftout give y = full ^ x ^ z, and (x, y) is a pair exactly when y is
    in B, since an x that overlaps z gives a y with too many members.  A
    self-join keeps (x, y) only when x's lowest member comes first, as
    combinations does.  Every other bucket compares all its candidates.

    Members are sorted descending, so index order is the reverse of shape
    order; and no side is a prefix of another side with the same sum, as
    every degree is at least 1.  So descending shape order is index order,
    the order in which product and combinations pair two buckets in
    itertools.combinations order: one compared bucket, or one joined
    through a single left-out subset, needs no sort."""
    if leftout is not None and not leftout:
        return []  # no subset is left out at this sum, so no pair exists
    chunk = []
    ordered = len(buckets) == 1
    for left, right in buckets:
        if leftout is None or len(leftout) >= len(right):
            chunk += [
                (sides[x], sides[y])
                for x, y in (combinations(left, 2) if left is right else product(left, right))
                if not x & y
            ]
            continue
        ordered = ordered and len(leftout) == 1
        flips = [full ^ z for z in leftout]  # x ^ flip is the y that leaves out z
        wanted = set(right)
        chunk += [
            (sides[x], sides[y])
            for x in left
            for flip in flips
            if (y := x ^ flip) in wanted and (left is not right or x & -x < y & -y)
        ]
    if not ordered:
        chunk.sort(reverse=True)
    return chunk


class _Sides(dict):
    """Bitmask -> its members' shapes in index order, decoded once per
    search.  Members are sorted descending, so each tuple is lex-descending."""

    def __init__(self, shapes):
        super().__init__()
        self.shapes = tuple(shapes)
        self[0] = ()

    def __missing__(self, mask: int) -> tuple[Partition, ...]:
        # extend the decoded parent (mask without its top member) by one
        top = mask.bit_length() - 1
        self[mask] = side = self[mask ^ 1 << top] + (self.shapes[top],)
        return side


def _label_rediscoveries(n: int, pairs: list[FoundIdentity]) -> None:
    """Mark pairs that coincide with a fixed-second-part identity instance.
    Only pairs whose sum is the sum of some instance are looked up."""
    known = _known_knapsack_instances(n)
    totals = {sum(degree(s) for s in next(iter(key))) for key in known}
    for p in pairs:
        if p.total in totals:
            label = known.get(frozenset((frozenset(p.left), frozenset(p.right))))
            if label is not None:
                p.label = f"rediscovers {label}"


@dataclass
class ScanRow:
    """One even-ladder data point with its probe residual."""

    d: int
    value: int
    probe_shape: Partition | None
    probe_value: int | None
    residual: int | None
    candidates: list[str] = field(default_factory=list)

    @property
    def note(self) -> str:
        if self.d == 0:
            return "empty sum"
        if self.residual == 0:
            return "probe matches exactly"
        if self.candidates:
            return "residual is a single three-row degree"
        return "no candidate"


# The scan's rows, one per even d <= d_max: k = m = 2 takes 1.3-1.6 s at
# this many through the CLI (2-core VM), and a row's cost grows with m.
MAX_SCAN_ROWS = 100_000


def scan_even_ladders(k: int, m: int, d_max: int) -> list[ScanRow]:
    """Even-length ladder sums with exploratory closed-form probes.

    For each even d the probe is the width-d analogue of the odd-ladder lead
    term, f(k+d, k, 1^(m-d)); the residual against it is matched against
    single three-row degrees of the same size.  Purely informational.  A
    scan of more than MAX_SCAN_ROWS rows is refused before any is built.
    """
    if k < 2 or m < 2 or d_max < 0:
        raise ValueError("need k, m >= 2 and d_max >= 0")
    if d_max // 2 + 1 > MAX_SCAN_ROWS:
        raise ValueError(f"scan d_max={d_max} has {d_max // 2 + 1} rows; the limit is {MAX_SCAN_ROWS}")
    n = 2 * k + m
    three_part_degrees: dict[int, list[Partition]] = {}
    for p in partitions(n, 3):
        three_part_degrees.setdefault(degree(p), []).append(p)
    rows = []
    for d in range(0, d_max + 1, 2):
        # only the first m//2 + 1 triples are shapes; the later ones have
        # negative tails and vanish wherever the fat-hook form is defined,
        # and it is singular at j = k + m
        value = sum(t.value for t in ladder_sum_terms(k, m, min(d, m // 2 + 1)))
        probe_shape = fat_hook(k + d, k, m - d) if d else None
        probe_value = degree(probe_shape) if probe_shape is not None else None
        residual = value - probe_value if probe_value is not None else None
        candidates = []
        if residual:
            for p in three_part_degrees.get(abs(residual), []):
                sign = "+" if residual > 0 else "-"
                candidates.append(f"{sign}f({format_shape(p)})")
        rows.append(ScanRow(d, value, probe_shape, probe_value, residual, candidates))
    return rows
