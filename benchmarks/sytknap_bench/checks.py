"""Output checks, run off the clock after each op.

Nothing here calls `sytknap.degree`, so checking never touches the degree
cache whose hit ratio the benchmark reports.  Each check returns None when
the output is right and a one-line reason when it is not.
"""

import hashlib
from math import factorial

from sytknap.degrees import degree_fat_hook, degree_three_row, syt_enumerate

ENUMERATION_LIMIT = 14


class SecondRoute:
    """Degrees by a route other than the hook-length product, memoized here
    (not in the program): the three-row or fat-hook closed form where the
    shape fits, tableau enumeration up to size 14, and otherwise the
    Frobenius determinant formula."""

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, shape) -> int:
        shape = tuple(shape)
        value = self._memo.get(shape)
        if value is None:
            value = self._memo[shape] = _second_route(shape)
        return value


def _second_route(shape: tuple) -> int:
    if len(shape) <= 3:
        return degree_three_row(*(shape + (0,) * (3 - len(shape))))
    if shape[1] >= 1 and all(part == 1 for part in shape[2:]):
        return degree_fat_hook(shape[0], shape[1], len(shape) - 2)
    if sum(shape) <= ENUMERATION_LIMIT:
        return syt_enumerate(shape, ENUMERATION_LIMIT)
    return frobenius_degree(shape)


def frobenius_degree(shape) -> int:
    """f(lambda) = n! prod_{i<j} (l_i - l_j) / prod_i l_i!, l_i = lambda_i + k - i."""
    k = len(shape)
    betas = [part + k - 1 - i for i, part in enumerate(shape)]
    num = factorial(sum(shape))
    for i in range(k):
        for j in range(i + 1, k):
            num *= betas[i] - betas[j]
    den = 1
    for b in betas:
        den *= factorial(b)
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Frobenius formula does not divide for {shape}")
    return value


def check_reports(reports, route: SecondRoute):
    """Every report passes and every partition term's value agrees with the
    second route."""
    for report in reports:
        if not report.passed:
            return f"{report.id} {report.params} did not pass"
        for term in report.terms:
            if term.kind == "partition" and term.value != route(term.shape):
                return f"{report.id} {report.params}: f{term.shape} = {term.value} disagrees"
    return None


def check_pairs(n: int, pairs, route: SecondRoute):
    """Every pair has two nonempty disjoint sides of partitions of n whose
    degree sums, recomputed by the second route, equal the stated total;
    pairs come in ascending (term count, total) order."""
    last = (0, 0)
    side_sums: dict = {}  # sides recur across many pairs
    for p in pairs:
        if not p.left or not p.right or not set(p.left).isdisjoint(p.right):
            return f"n={n}: sides empty or overlapping in {p.left} / {p.right}"
        for side in (p.left, p.right):
            total = side_sums.get(side)
            if total is None:
                if any(sum(s) != n for s in side):
                    return f"n={n}: shape of the wrong size in {side}"
                total = side_sums[side] = sum(route(s) for s in side)
            if total != p.total:
                return f"n={n}: side {side} does not sum to {p.total}"
        rank = (len(p.left) + len(p.right), p.total)
        if rank < last:
            return f"n={n}: pairs out of ranking order at {rank}"
        last = rank
    return None


def check_rediscovery(pairs, known: dict, route: SecondRoute):
    """Every known instance in `known` (side pair -> label) is emitted and
    labelled as a rediscovery."""
    totals = {sum(route(s) for s in next(iter(key))) for key in known}
    emitted = {}
    for p in pairs:
        if p.total in totals:
            emitted[frozenset((frozenset(p.left), frozenset(p.right)))] = p.label
    for key, label in known.items():
        got = emitted.get(key)
        if got is None:
            return f"known instance {label} not rediscovered"
        if not got.startswith("rediscovers"):
            return f"known instance {label} emitted without its label"
    return None


def search_digest(result) -> str:
    """SHA-256 of the full search output, independent of any text format."""
    h = hashlib.sha256()
    h.update(f"subsets={result.subsets_enumerated} truncated={result.truncated}\n".encode())
    for p in result.pairs:
        h.update(f"{p.left}|{p.right}|{p.total}|{p.label}\n".encode())
    return h.hexdigest()
