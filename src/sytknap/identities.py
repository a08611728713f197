"""Exact numeric verification of the degree-sum identity families.

Every verifier returns a structured Report whose two sides are rebuilt from
an explicit signed term list, so a report can always be re-summed and
serialized.  All comparisons are exact big-integer equality; there are no
tolerances anywhere.
"""

from collections import namedtuple
from math import isqrt

from .degrees import degree, family_degrees, fat_hook_value, three_row_value
from .partitions import (
    Partition,
    add_rim_hooks,
    fat_hook,
    make_partition,
    pad,
    partitions,
    rim_hook_count,
    square_two_tail_partitions,
    straighten,
    third_parts,
    three_row,
    to_decimal,
)
from .paths import PathKind, catalan_number, checked_length, count_paths

Term = namedtuple("Term", "side sign shape value kind", defaults=("partition",))
Term.__doc__ = """One signed summand of an identity side.

`shape` is the partition for kind "partition"; for the analytic kinds it
is the raw argument triple, which need not be a partition.
"""


class Report:
    """Structured outcome of one identity check.  Two reports are equal when
    all their fields are; `extra` and `checks` default to fresh dicts."""

    __slots__ = ("id", "params", "terms", "regime", "note", "error", "extra", "checks", "lhs_pad")

    def __init__(self, id: str, params: dict, terms: list[Term], regime: str = "", note: str = "",
                 error: str = "", extra: dict | None = None, checks: dict | None = None,
                 lhs_pad: int = 0):
        self.id, self.params, self.terms = id, params, terms
        self.regime, self.note, self.error = regime, note, error
        self.extra = {} if extra is None else extra
        self.checks = {} if checks is None else checks
        self.lhs_pad = lhs_pad

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Report({fields})"

    def side_sum(self, side: str) -> int:
        return sum(t.sign * t.value for t in self.terms if t.side == side)

    @property
    def lhs(self) -> int:
        return self.side_sum("L")

    @property
    def rhs(self) -> int:
        return self.side_sum("R")

    @property
    def passed(self) -> bool:
        return not self.error and self.lhs == self.rhs and all(self.checks.values())


# verify_hook_wrap's budget on hooks * n * isqrt(n): the rim hooks that can
# be added, each giving a shape of n = cells + k cells whose hook product
# costs about n^1.5.  Through the CLI on a 2-core VM, the staircase
# (51, 50, ..., 1), accepted up to k = 679, takes 0.6 s at that k, and the
# column 1^10000 at k = 58 0.45 s
MAX_HOOK_WRAP_WORK = 60_000_000

# the ladder verifiers' budget on their terms, d(d+1)/2 + 2d + 2, so
# d <= 197: at k = 3, m = 4d verify_analytic_ladder takes 1.3 s on a 2-core
# VM, where d = 300 (45 752 terms) took 8.5 s.  verify_ladder, which also
# takes a hook product per right-side term, ran 9.7 s at (200, 800, 800)
MAX_ANALYTIC_TERMS = 20_000

# and their budget on terms * n^2, shared with verify_knapsack,
# verify_expansion and verify_branch_rows, where n is every term's size (for a
# ladder 2k + m, its leading factorial).  Time tracks that product: on a 2-core
# VM 1.2 s at (d, k, m) = (197, 3, 788) (1.25e10), 2.0 s at (197, 100, 900)
# (2.41e10) and 13 s at (197, 500, 2000) (1.79e11).  Through the CLI,
# verify_ladder takes 1.4-1.9 s at (100, 650, 650) (2.0e10) and 0.6 s at
# (0, 2, 99 990); at (n, k), knapsack 0.1 s at (5000, 796) and (10 000, 196),
# expansion 0.5 s at (6000, 550) and branch 0.1 s at (4000, 600): their
# families are walked from one hook product each (degrees.family_degrees)
MAX_ANALYTIC_WORK = 20_000_000_000

# the knapsack sweeps, verify_knapsack_sweep and verify_riordan, and the scan
# at n = 2k + m value every three-part partition of n, about n^2/12 shapes of
# n cells: the scan by hook products, the sweeps by walking each family from
# one (riordan's total, the quarter whose parts share n's parity, by hook
# products).  At n = 500 the sweeps take 0.5 s each through the CLI with
# --format json on a 2-core VM; at n = 800, 1.4 s (riordan), 1.3 s (knapsack)
MAX_SWEEP_N = 500

# verify_catalan_pair values the partitions of 2m - 2 into at most four
# parts, about (2m)^3 / 144 hook products of 2m - 2 cells, and its JSON
# prints every term.  At m = 120 (99 759 terms) the CLI takes 1.6 s in text
# and 2.5 s with --format json on a 2-core VM; m = 150 took 3.2 s and 5.9 s
MAX_CATALAN_PAIR_M = 120

def report_to_json(report: Report) -> dict:
    """Serialize a report; big integers become decimal strings."""
    out = {
        "id": report.id,
        "params": {key: _json_value(v) for key, v in report.params.items()},
        "lhs": to_decimal(report.lhs),
        "rhs": to_decimal(report.rhs),
        "pass": report.passed,
        "regime": report.regime,
        "terms": [_term_to_json(t) for t in report.terms],
    }
    if report.note:
        out["note"] = report.note
    if report.error:
        out["error"] = report.error
    if report.extra:
        out["extra"] = {key: _json_value(v) for key, v in report.extra.items()}
    if report.checks:
        out["checks"] = dict(report.checks)
    return out


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return to_decimal(v) if abs(v) > 2**53 else v
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {key: _json_value(x) for key, x in v.items()}
    return v


def _term_to_json(t: Term) -> dict:
    out = {"side": t.side, "sign": t.sign, "shape": list(t.shape), "value": to_decimal(t.value)}
    if t.kind != "partition":
        out["kind"] = t.kind
    return out


def _partition_terms(side: str, shapes, sign: int = 1) -> list[Term]:
    """Degree terms for shapes that are already partitions (canonical
    tuples); degree() validates each one."""
    return [Term(side, sign, s, degree(s)) for s in shapes]


def _fat_hook_terms(side: str, triples) -> list[Term]:
    """Degree terms for fat-hook triples (a, b, t); non-partition shapes are
    omitted, matching how the identities drop vanishing boundary terms."""
    shapes = [fat_hook(a, b, t) for a, b, t in triples]
    return _partition_terms(side, [s for s in shapes if s is not None])


def _closed_form_terms(side: str, kind: str, triples) -> list[Term]:
    """Terms valued by the closed form of `kind` ("fat-hook" or "three-row")
    at each triple.  A triple that is a shape prints as a partition term;
    any other keeps its raw arguments and `kind`.  The fat-hook form is
    singular at the one-row shape (x, 0, 0); every caller has k >= 2, so
    no fat-hook triple here is that shape."""
    fat = kind == "fat-hook"
    shape_of, value_of = (fat_hook, fat_hook_value) if fat else (three_row, three_row_value)
    terms = []
    for args in triples:
        shape, value = shape_of(*args), value_of(*args)
        if shape is not None:
            terms.append(Term(side, 1, shape, value))
        else:
            terms.append(Term(side, 1, args, value, kind=kind))
    return terms


def _ladder_args(k: int, m: int, count: int) -> list[tuple[int, int, int]]:
    """The fat-hook triples (k+j, k+j, m-2j) for j = 0..count-1: the ladder
    of `count` consecutive fat hooks.  At count = 2 it is the equal-width
    pair f(k,k,1^m) + f(k+1,k+1,1^(m-2)) of the main identity."""
    return [(k + j, k + j, m - 2 * j) for j in range(count)]


def _ladder_lead(d: int, k: int, m: int) -> tuple[int, int, int]:
    """The fat-hook triple leading the odd ladder's right side in every region."""
    return (k + 2 * d, k, m - 2 * d)


def _triangle(d: int, k: int, m: int) -> list[tuple[int, int, int]]:
    """The odd ladder's three-row tail, r-major over 0 <= j <= r < d."""
    return [(k + 2 * r, k + 2 * j, m - 2 * (r + j)) for r in range(d) for j in range(r + 1)]


def swapped(n: int, k: int) -> bool:
    """Single regime predicate: the two equations trade sides exactly when
    the second part is of opposite parity to n and large (k > ceil(n/3)),
    or n < 3: at (1, 0) and (2, 1) only the traded sides hold."""
    return k % 2 != n % 2 and (k > (n + 2) // 3 or n < 3)


def _knapsack_eq(n: int, k: int, eq: int) -> Report:
    """One fixed-second-part identity at (n, k).

    The same-parity and opposite-parity families split n's three-part
    partitions with second part k.  Equation 1 sums one family to a pair of
    equal-width fat hooks, equation 2 the other to the single intermediate
    hook; eq 1 takes the same-parity family except in the large-k
    opposite-parity regime, where the roles swap.
    """
    m = n - 2 * k
    swap = swapped(n, k)
    same = (eq == 1) != swap
    hooks = _ladder_args(k, m, 2) if eq == 1 else [(k + 1, k, m - 1)]
    return Report(
        id=f"knapsack-eq{eq}",
        params={"n": n, "k": k},
        terms=[Term("L", 1, p, value) for p, value in family_degrees(n, k, same)] + _fat_hook_terms("R", hooks),
        regime="swapped" if swap else "standard",
        note=f"left side: {'same' if same else 'opposite'}-parity family",
        lhs_pad=3,
    )


def verify_knapsack(n: int, k: int) -> tuple[Report, Report]:
    """Both fixed-second-part identities at (n, k), equation 1 first.  Past
    the work budget, at both families' min(k, n - 2k) + 1 members and three
    hooks, each of n cells, it raises before any degree is computed."""
    if n < 1 or not 0 <= k <= n // 2:
        raise ValueError(f"need 1 <= n and 0 <= k <= n//2, got n={n}, k={k}")
    _check_work(f"knapsack n={n} k={k}", min(k, n - 2 * k) + 4, n)
    return _knapsack_eq(n, k, 1), _knapsack_eq(n, k, 2)


def _check_sweep(n: int, name: str = "knapsack sweep") -> None:
    if n > MAX_SWEEP_N:
        raise ValueError(f"{name} n={n} is over budget; the limit is n={MAX_SWEEP_N}")


def verify_knapsack_sweep(n: int) -> list[Report]:
    """Both identities at every second part k = 0..n//2.  An n past
    MAX_SWEEP_N is refused before any degree is computed."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_sweep(n)
    return [r for k in range(n // 2 + 1) for r in verify_knapsack(n, k)]


def verify_riordan(n: int) -> list[Report]:
    """Per-second-part refinement reports plus the grand total.

    The total report checks that the equal-parity three-part sum and the
    fat-hook ladder sum both equal the Riordan path count.  An n past the
    path-length budget, then one past MAX_SWEEP_N, is refused before any
    path is counted.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    checked_length(PathKind.RIORDAN, n)
    _check_sweep(n)
    riordan = count_paths(PathKind.RIORDAN, n)
    reports = []
    per_k_total = 0
    for k in range(n % 2, n // 2 + 1, 2):
        rep = _knapsack_eq(n, k, 1)
        per_k_total += rep.lhs
        reports.append(rep)
    x_family = [p for p in partitions(n, 3) if _equal_parity(p)]
    y_family = [fat_hook(k, k, n - 2 * k) for k in range(1, n // 2 + 1)]
    total = Report(
        id="riordan-total",
        params={"n": n},
        terms=_partition_terms("L", x_family) + _partition_terms("R", y_family),
        regime="total",
        extra={"riordan": riordan, "per_k_lhs_total": per_k_total},
        lhs_pad=3,
    )
    total.checks["matches riordan count"] = total.lhs == riordan
    total.checks["per-k refinement resums"] = per_k_total == total.lhs
    reports.append(total)
    return reports


def _equal_parity(p: Partition) -> bool:
    padded = pad(p, 3)
    return padded[0] % 2 == padded[1] % 2 == padded[2] % 2


def _check_work(subject: str, terms: int, n: int, size: str = "n") -> None:
    """Refuse `terms` terms of n cells past MAX_ANALYTIC_WORK terms * n^2."""
    if terms * n * n > MAX_ANALYTIC_WORK:
        raise ValueError(
            f"{subject} has {terms} terms of size {size}={n}: "
            f"work {terms * n * n}; the limit is {MAX_ANALYTIC_WORK}"
        )


def _check_ladder_budget(name: str, d: int, k: int, m: int) -> None:
    """Refuse a ladder of more than MAX_ANALYTIC_TERMS terms, d(d+1)/2 +
    2d + 2, or past the work budget at 2k+m."""
    terms = d * (d + 1) // 2 + 2 * d + 2
    if terms > MAX_ANALYTIC_TERMS:
        raise ValueError(f"{name} d={d} has {terms} terms; the limit is {MAX_ANALYTIC_TERMS}")
    _check_work(f"{name} d={d}", terms, max(2 * k + m, 0), "2k+m")


def verify_ladder(d: int, k: int, m: int) -> Report:
    """The odd ladder sum (2d+1 consecutive fat hooks) against the lead fat
    hook plus the `_triangle`, each triple straightened at the beta numbers
    (x+2, y+1, z), equal shapes summed with their signs and zeros dropped.
    It is checked in five disjoint regions, which name the regime: low-tail
    (m <= k), high-tail (m >= k + 6d - 3), middle (d = 1, m - k in {1, 2})
    and delta (d = 2, 1 <= m - k <= 8).  Any other (d, k, m) is refused, and
    so is a call past the ladder budget, before any term is built."""
    if d < 0 or k < 2 or m < 2:
        raise ValueError(f"need d >= 0 and k, m >= 2, got {(d, k, m)}")
    regions = {
        "trivial": d == 0,
        "low-tail": max(2, 4 * (d - 1)) <= m <= k,
        "high-tail": m >= k + 6 * d - 3,
        "middle": d == 1 and m - k in (1, 2),
        "delta": d == 2 and 1 <= m - k <= 8 and k >= 6,
    }
    regime = next((name for name, holds in regions.items() if holds), None)
    if regime is None:
        raise ValueError(f"no applicable closed form for (d, k, m) = {(d, k, m)}")
    _check_ladder_budget("ladder", d, k, m)
    net = {fat_hook(*_ladder_lead(d, k, m)): 1}
    straight = [straighten((x + 2, y + 1, z)) for x, y, z in _triangle(d, k, m)]
    for sign, shape in filter(None, straight):
        net[shape] = net.get(shape, 0) + sign
    rhs = [Term("R", sign, shape, degree(shape)) for shape, sign in net.items() if sign]
    return Report(
        id="ladder",
        params={"d": d, "k": k, "m": m},
        terms=_closed_form_terms("L", "fat-hook", _ladder_args(k, m, 2 * d + 1)) + rhs,
        regime=regime,
    )


def verify_analytic_ladder(d: int, k: int, m: int) -> Report:
    """The ladder identity at the level of the analytic closed-form values,
    valid for arbitrary integers: sum of 2d+1 fat-hook values equals the
    leading fat-hook value plus a triangle of three-row values.

    Singular arguments are reported in the `error` field, not raised.  A
    call of more than MAX_ANALYTIC_TERMS terms, or of more than
    MAX_ANALYTIC_WORK terms * (2k+m)^2, is refused before any term is built.
    """
    if d < 0:
        raise ValueError("need d >= 0")
    _check_ladder_budget("analytic ladder", d, k, m)
    params = {"d": d, "k": k, "m": m}
    ladder, lead, tail = _ladder_args(k, m, 2 * d + 1), _ladder_lead(d, k, m), _triangle(d, k, m)
    try:
        terms = [Term("L", 1, t, fat_hook_value(*t), kind="fat-hook") for t in ladder]
        terms.append(Term("R", 1, lead, fat_hook_value(*lead), kind="fat-hook"))
        terms += [Term("R", 1, t, three_row_value(*t), kind="three-row") for t in tail]
    except ValueError as exc:
        return Report(id="analytic-ladder", params=params, terms=[], error=str(exc))
    return Report(id="analytic-ladder", params=params, terms=terms, regime="analytic")


def verify_expansion(n: int, k: int) -> Report:
    """The fat-hook pair expanded into three-row closed-form values:
    f(k,k,1^m) + f(k+1,k+1,1^(m-2)) = sum over j of the value at
    (m+2j, k, k-2j) for j = 0..floor(k/2), with m = n - 2k.

    The raw expansion holds for any (n, k) with m >= 2.  When k is small
    (k <= ceil(n/3)) or of the same parity as n (not swapped(n, k)), the
    summands whose argument triple is not a partition cancel or vanish, so
    the same-parity family sum is left; both facts are recorded as checks,
    and calls outside that regime yield a failing report, not an error.
    Past the work budget, at k//2 + 3 terms plus the same-parity family,
    each of n cells, it raises first.
    """
    m = n - 2 * k
    if k < 1 or m < 2:
        raise ValueError(f"need k >= 1 and n - 2k >= 2, got n={n}, k={k}")
    _check_work(f"expansion n={n} k={k}", k // 2 + 3 + len(third_parts(n, k, True)), n)
    triples = [(m + 2 * j, k, k - 2 * j) for j in range(k // 2 + 1)]
    terms = _fat_hook_terms("L", _ladder_args(k, m, 2))
    terms += _closed_form_terms("R", "three-row", triples)
    analytic_sum = sum(t.value for t in terms if t.kind != "partition")
    report = Report(
        id="expansion",
        params={"n": n, "k": k},
        terms=terms,
        regime="outside validity regime" if swapped(n, k) else "standard",
        extra={"analytic_term_sum": analytic_sum},
    )
    x1_sum = sum(value for _, value in family_degrees(n, k, True))
    report.checks["non-partition values cancel"] = analytic_sum == 0
    report.checks["matches same-parity family sum"] = x1_sum == report.lhs
    return report


def verify_boundary(k: int, m: int) -> Report:
    """At k = m +- 1 the equal-width fat-hook pair merges into the single
    intermediate hook: f(k,k,1^m) + f(k+1,k+1,1^(m-2)) = f(k+1,k,1^(m-1))."""
    if k < 1 or m < 1 or abs(k - m) != 1:
        raise ValueError(f"need k, m >= 1 with k = m +- 1, got {(k, m)}")
    terms = _fat_hook_terms("L", _ladder_args(k, m, 2)) + _fat_hook_terms("R", [(k + 1, k, m - 1)])
    return Report(id="boundary", params={"k": k, "m": m}, terms=terms)


def verify_hook_wrap(mu, k: int) -> Report:
    """Alternating sum of degrees over all single rim-hook additions.

    For k >= 2 the signed sum vanishes (the underlying virtual character
    dies on permutations without a k-cycle, in particular the identity).
    For k = 1 every permutation has a fixed point and no vanishing occurs;
    the report simply records the nonzero sum.  A call whose work bound
    exceeds MAX_HOOK_WRAP_WORK is refused before any rim hook is added.
    """
    mu = make_partition(mu)
    if k < 1:
        raise ValueError("need k >= 1")
    hooks, size = rim_hook_count(mu, k), sum(mu) + k
    work = hooks * size * isqrt(size)
    if work > MAX_HOOK_WRAP_WORK:
        raise ValueError(
            f"{hooks} rim hooks of {size}-cell shapes: work {work}; the limit is {MAX_HOOK_WRAP_WORK}"
        )
    terms = [
        Term("L", sign, shape, degree(shape))
        for sign, shape in add_rim_hooks(mu, k)
    ]
    return Report(id="hookwrap", params={"mu": mu, "k": k}, terms=terms)


def verify_catalan_pair(m: int) -> Report:
    """Three-way equality: the square-with-two-tail family of size 2m, the
    at-most-four-row partitions of size 2m-2, and the Catalan product
    C(m-1) * C(m) all agree.  An m past MAX_CATALAN_PAIR_M is refused
    before any partition is enumerated."""
    if m < 2:
        raise ValueError("need m >= 2")
    if m > MAX_CATALAN_PAIR_M:
        raise ValueError(f"catalan-pair m={m} is over budget; the limit is m={MAX_CATALAN_PAIR_M}")
    lhs_family = square_two_tail_partitions(2 * m)
    rhs_family = list(partitions(2 * m - 2, 4))
    report = Report(
        id="catalan-pair",
        params={"m": m},
        terms=_partition_terms("L", lhs_family) + _partition_terms("R", rhs_family),
    )
    product = catalan_number(m - 1) * catalan_number(m)
    report.extra["catalan_product"] = product
    report.checks["matches catalan product"] = report.lhs == product
    return report


def verify_branch_rows(n: int, k: int, same_parity: bool) -> Report:
    """Row-by-row branching decomposition of a fixed-second-part family.

    Removing one box from row r of every member yields another
    fixed-second-part family of n-1, possibly minus one explicit missing
    term; the identification (new second part, parity class, missing terms)
    is computed and verified per row.  More than one missing term, or any
    stray member, signals a regime mis-modeling and raises.  So does a call
    past the work budget, at four terms of n cells per member (itself, then
    one per row), counted before the family is listed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    size = len(third_parts(n, k, same_parity))
    if not size:
        raise ValueError(f"empty family for (n, k) = {(n, k)}")
    _check_work(f"branch n={n} k={k}", 4 * size, n)
    family = family_degrees(n, k, same_parity)
    terms = [Term("L", 1, p, value) for p, value in family]
    rows_detail = []
    for row in (1, 2, 3):
        obtained = []
        for p, _ in family:
            entry = list(pad(p, 3))
            entry[row - 1] -= 1
            if entry[row - 1] < 0 or not entry[0] >= entry[1] >= entry[2]:
                continue
            obtained.append(make_partition(entry))
        k2 = k - 1 if row == 2 else k
        same2 = same_parity if row == 1 else not same_parity
        walked = family_degrees(n - 1, k2, same2) if k2 >= 0 else []
        target = [p for p, _ in walked]
        obtained_set = set(obtained)
        target_set = set(target)
        stray = [p for p in obtained if p not in target_set]
        missing = [p for p in target if p not in obtained_set]
        if stray or len(missing) > 1:
            raise ValueError(
                f"row {row} of (n={n}, k={k}) does not match a single family "
                f"minus at most one term (stray={stray}, missing={missing})"
            )
        rows_detail.append(
            {
                "row": row,
                "second_part": k2,
                "family": "same" if same2 else "opposite",
                "missing": missing,
            }
        )
        terms += [Term("R", 1, p, value) for p, value in walked]
        terms += _partition_terms("R", missing, sign=-1)
    report = Report(
        id="branch",
        params={"n": n, "k": k, "family": "same" if same_parity else "opposite"},
        terms=terms,
        extra={"rows": rows_detail},
        lhs_pad=3,
    )
    return report
