"""Exploratory search for new equal-degree-sum pairs, plus the even-ladder
scan.  Output is ranked data for a human to read; nothing here asserts that
a found pair is interesting."""

from dataclasses import dataclass, field
from itertools import combinations

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
            for k in range(1, n // 2 + 1):
                shape = fat_hook(k, k, n - 2 * k)
                if shape is not None:
                    shapes.add(shape)
            for k in range(1, (n - 1) // 2 + 1):
                shape = fat_hook(k + 1, k, n - 2 * k - 1)
                if shape is not None:
                    shapes.add(shape)
        elif family == "rows4":
            shapes.update(partitions(n, 4))
        else:
            raise ValueError(f"unknown pool family {family!r}")
    members = tuple(sorted(((s, degree(s)) for s in shapes), reverse=True))
    return Pool(n, members)


@dataclass(frozen=True)
class FoundIdentity:
    """One equal-sum pair of disjoint partition subsets."""

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
    pairs: list[FoundIdentity]
    subsets_enumerated: int
    truncated: bool = False


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

    Pairs are produced in ascending total-term-count order (shortest
    identities first), then by sum and shapes.  Enumeration stops at
    max_evals subsets, and emission at max_results pairs; either cutoff sets
    the truncated flag and returns the partial, still-ranked results.
    """
    members = pool.members
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    enumerated = 0
    truncated = False
    for size in range(1, min(max_side, len(members)) + 1):
        if truncated:
            break
        for combo in combinations(range(len(members)), size):
            enumerated += 1
            if enumerated > max_evals:
                truncated = True
                break
            total = 0
            for i in combo:
                total += members[i][1]
            by_sum.setdefault(total, []).append(combo)

    raw: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
    for total in sorted(by_sum):
        for a, b in combinations(by_sum[total], 2):
            if not set(a) & set(b):
                raw.append((len(a) + len(b), total, a, b))
    # shortest identities first; index tuples give a deterministic tie-break
    raw.sort()
    if max_results is not None and len(raw) > max_results:
        raw = raw[:max_results]
        truncated = True
    # members are sorted descending, so index combos map to lex-descending
    # shape lists as-is
    pairs = [
        FoundIdentity(
            pool.n,
            tuple(members[i][0] for i in a),
            tuple(members[i][0] for i in b),
            total,
        )
        for _, total, a, b in raw
    ]
    _label_rediscoveries(pool.n, pairs)
    return SearchResult(pairs, enumerated, truncated)


def _label_rediscoveries(n: int, pairs: list[FoundIdentity]) -> None:
    """Mark pairs that coincide with a fixed-second-part identity instance."""
    index: dict[tuple, int] = {}
    for i, p in enumerate(pairs):
        index[(frozenset(p.left), frozenset(p.right))] = i
    for key, label in _known_knapsack_instances(n).items():
        left, right = tuple(key)
        for orient in ((left, right), (right, left)):
            i = index.get(orient)
            if i is not None:
                pairs[i] = FoundIdentity(
                    n, pairs[i].left, pairs[i].right, pairs[i].total,
                    f"rediscovers {label}",
                )


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


def scan_even_ladders(k: int, m: int, d_max: int) -> list[ScanRow]:
    """Even-length ladder sums with exploratory closed-form probes.

    For each even d the probe is the width-d analogue of the odd-ladder lead
    term, f(k+d, k, 1^(m-d)); the residual against it is matched against
    single three-row degrees of the same size.  Purely informational.
    """
    if k < 2 or m < 2 or d_max < 0:
        raise ValueError("need k, m >= 2 and d_max >= 0")
    n = 2 * k + m
    three_part_degrees: dict[int, list[Partition]] = {}
    for p in partitions(n, 3):
        three_part_degrees.setdefault(degree(p), []).append(p)
    rows = []
    for d in range(0, d_max + 1, 2):
        value = sum(t.value for t in ladder_sum_terms(k, m, d))
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
