"""Lattice-path counters and enumerators: Dyck, Motzkin and Riordan paths.

Conventions: a path uses steps U (up), F (flat) and D (down) and never goes
below the x-axis.  For Dyck paths the parameter n is the SEMILENGTH (2n
steps, no flats); for Motzkin and Riordan paths n is the number of steps.
Riordan paths are Motzkin paths with no flat step on the x-axis.
"""

from enum import Enum
from math import comb

from .degrees import degree
from .partitions import partitions

# the largest listings accepted, motzkin n = 16 (853 467 paths) and dyck
# n = 13 (742 900), take 2-3 s and 140-160 MB via the CLI on a 2-core VM
MAX_LISTED_PATHS = 1_000_000

# count_paths refuses longer paths before its O(length^2) big-integer DP:
# the longest accepted, motzkin and riordan n = 2000, take about 2 s on a
# 2-core VM (motzkin n = 3000 took 4.5-6 s)
MAX_PATH_LENGTH = 2_000


class PathKind(Enum):
    DYCK = "dyck"
    MOTZKIN = "motzkin"
    RIORDAN = "riordan"


def _length(kind: PathKind, n: int) -> int:
    return 2 * n if kind is PathKind.DYCK else n


def checked_length(kind: PathKind, n: int) -> int:
    """The number of steps of the paths at n; ValueError for a negative n or
    for more than MAX_PATH_LENGTH steps."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    length = _length(kind, n)
    if length > MAX_PATH_LENGTH:
        raise ValueError(f"{kind.value} n={n} has paths of {length} steps; the limit is {MAX_PATH_LENGTH}")
    return length


def count_paths(kind: PathKind, n: int) -> int:
    """Exact path count via dynamic programming over (position, height).
    Paths of more than MAX_PATH_LENGTH steps are refused with ValueError
    before the DP starts."""
    length = checked_length(kind, n)
    dp = [1] + [0] * length
    for _ in range(length):
        new = [0] * (length + 1)
        for h, ways in enumerate(dp):
            if not ways:
                continue
            if h + 1 <= length:
                new[h + 1] += ways
            if kind is not PathKind.DYCK and (kind is not PathKind.RIORDAN or h > 0):
                new[h] += ways
            if h > 0:
                new[h - 1] += ways
        dp = new
    return dp[0]


def iter_paths(kind: PathKind, n: int):
    """Yield all valid paths as step strings, in lexicographic order
    (D < F < U).  More than MAX_LISTED_PATHS paths are refused with
    ValueError before the first one is built."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    length = _length(kind, n)
    # every kind passes MAX_LISTED_PATHS by length 28: no count runs past it
    if length > 28 or count_paths(kind, n) > MAX_LISTED_PATHS:
        raise ValueError(f"{kind.value} n={n} has more than {MAX_LISTED_PATHS} paths to list")
    allow_flat = kind is not PathKind.DYCK
    no_flat_on_axis = kind is PathKind.RIORDAN
    buf: list[str] = []

    def rec(h: int, remaining: int):
        if remaining == 0:
            if h == 0:
                yield "".join(buf)
            return
        if h > remaining:
            return
        if h > 0:
            buf.append("D")
            yield from rec(h - 1, remaining - 1)
            buf.pop()
        if allow_flat and not (no_flat_on_axis and h == 0):
            buf.append("F")
            yield from rec(h, remaining - 1)
            buf.pop()
        if h + 1 <= remaining - 1:
            buf.append("U")
            yield from rec(h + 1, remaining - 1)
            buf.pop()

    yield from rec(0, length)


def enumerate_paths(kind: PathKind, n: int) -> list[str]:
    """All valid paths in lexicographic order; length equals count_paths."""
    return list(iter_paths(kind, n))


def count_riordan_by_steps(n: int, flats: int, ups: int) -> int:
    """Riordan paths of length n with exactly `flats` flat and `ups` up steps.

    Requires flats + 2*ups = n and 0 <= flats < n (so ups >= 1; the all-flat
    path is not a Riordan path and is excluded).
    """
    if flats + 2 * ups != n:
        raise ValueError(f"need flats + 2*ups = n, got {(n, flats, ups)}")
    if not 0 <= flats < n:
        raise ValueError(f"need 0 <= flats < n, got flats={flats}, n={n}")
    dp = {(0, 0): 1}
    for _ in range(n):
        new: dict[tuple[int, int], int] = {}
        for (h, f), ways in dp.items():
            new[(h + 1, f)] = new.get((h + 1, f), 0) + ways
            if h > 0:
                if f + 1 <= flats:
                    new[(h, f + 1)] = new.get((h, f + 1), 0) + ways
                new[(h - 1, f)] = new.get((h - 1, f), 0) + ways
        dp = new
    return dp.get((0, flats), 0)


def syt_row_bounded_count(n: int, max_rows: int) -> int:
    """Sum of degrees over all partitions of n with at most max_rows parts."""
    if n < 0 or max_rows < 1:
        raise ValueError("need n >= 0 and max_rows >= 1")
    return sum(degree(p) for p in partitions(n, max_rows))


def catalan_number(n: int) -> int:
    """Closed-form Catalan number, independent of the path DP."""
    if n < 0:
        raise ValueError("Catalan numbers start at n = 0")
    return comb(2 * n, n) // (n + 1)
