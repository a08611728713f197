"""Exact character degrees (standard-Young-tableau counts) by independent
routes, plus the integer-argument extensions of the two closed forms.

Everything returns exact Python ints; degrees overflow 64 bits well before
the sweep sizes used here, so big integers are mandatory throughout.
"""

from functools import lru_cache
from math import factorial, perm

from .partitions import Partition, make_partition, second_part_family

# n! for the hook product's numerator, where a sweep values thousands of
# shapes of each size, and for a closed form's leading factorial, the same
# (2k+m)! in every term of an analytic ladder
_factorial = lru_cache(maxsize=64)(factorial)


@lru_cache(maxsize=None)
def _degree(p: Partition) -> int:
    """n! over the product of all hook lengths (Frame, Robinson and Thrall).

    The product is taken by rectangles.  Each distinct part gives a run of
    equal rows, top..end-1, and a block of equal columns, left..part-1
    (left being the next smaller part, or 0), all of height end.  The run
    of length `row` meets each block of part <= row in a rectangle of
    `rows` rows and `width` columns whose hook lengths are corner - i - j,
    where corner = row + height - top - left - 1 (height and left the
    block's, top the run's) is the hook of its top left cell.  Its product
    is that of perm(corner - i, width) over i < rows, which equals that of
    perm(corner - j, rows) over j < width, so it takes min(rows, width)
    falling factorials: one for a single row or column.  The parts are
    found a run at a time from the bottom, by index().
    """
    if not p:
        return 1
    # per distinct part, smallest first: its block's part, width and reach
    # (height - left - 1), then its run's base (part - top) and rows; a
    # rectangle's corner is its run's base plus its block's reach
    blocks = []
    height, left = len(p), 0
    while height:
        part = p[height - 1]
        top = p.index(part)
        blocks.append((part, part - left, height - left - 1, part - top, height - top))
        height, left = top, part
    prod = 1
    for row, _, _, base, rows in reversed(blocks):
        for part, width, reach, _, _ in blocks:
            corner = base + reach
            if rows == 1:  # a single row: the next branch without its loop
                prod *= perm(corner, width)
            elif rows <= width:
                for i in range(rows):
                    prod *= perm(corner - i, width)
            else:
                for j in range(width):
                    prod *= perm(corner - j, rows)
            if part == row:
                break
    q, r = divmod(_factorial(sum(p)), prod)
    if r:
        raise ArithmeticError(f"hook product does not divide n! for {p}")
    return q


def degree(p) -> int:
    """Number of standard Young tableaux of the given shape, via the hook
    length formula.  Memoized; the cache never changes results."""
    return _degree(make_partition(p))


def degree_uncached(p) -> int:
    """Same computation as degree() but bypassing the memo cache."""
    return _degree.__wrapped__(make_partition(p))


def _three_row_spec(x, y, z):
    """The three-row closed form (x+y+z)! (x-y+1)(x-z+2)(y-z+1) / ((x+2)! (y+1)! z!)
    as signed factorial arguments (only the first in the numerator), numerator
    and denominator.  Only + - * are used, so the one spec serves ints in
    _evaluate and symbolic polynomials in certificates."""
    return (
        [(x + y + z, 1), (x + 2, -1), (y + 1, -1), (z, -1)],
        (x - y + 1) * (x - z + 2) * (y - z + 1),
        1,
    )


def _fat_hook_spec(x, y, r):
    """The fat-hook closed form (x+y+r)! (x-y+1) / (x! (y-1)! r! (x+r+1)(y+r)),
    in the same shape as _three_row_spec."""
    return (
        [(x + y + r, 1), (x, -1), (y - 1, -1), (r, -1)],
        x - y + 1,
        (x + r + 1) * (y + r),
    )


def _evaluate(spec, *args: int) -> int:
    """A closed-form spec at integer arguments.  The leading factorial must
    be defined and the denominator nonzero; a reciprocal factorial of a
    negative integer counts as zero; the division must be exact."""
    factorials, num, den = spec(*args)
    (total, _), *reciprocals = factorials
    if total < 0:
        raise ValueError(f"total {total} < 0: leading factorial undefined")
    if den == 0:
        raise ValueError(f"singular denominator at {args}")
    if any(arg < 0 for arg, _ in reciprocals):
        return 0
    num *= _factorial(total)
    for arg, _ in reciprocals:
        den *= factorial(arg)
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact division in {spec.__name__} at {args}")
    return q


def degree_fat_hook(a: int, b: int, t: int) -> int:
    """Closed form for shapes (a, b, 1^t), a >= b >= 1, t >= 0."""
    if not (a >= b >= 1 and t >= 0):
        raise ValueError(f"need a >= b >= 1 and t >= 0, got {(a, b, t)}")
    return _evaluate(_fat_hook_spec, a, b, t)


def degree_three_row(r: int, s: int, t: int) -> int:
    """Closed form for shapes (r, s, t), r >= s >= t >= 0."""
    if not (r >= s >= t >= 0):
        raise ValueError(f"need r >= s >= t >= 0, got {(r, s, t)}")
    return _evaluate(_three_row_spec, r, s, t)


def syt_enumerate(p, bound: int = 14) -> int:
    """Count standard fillings by backtracking, independent of any formula.

    Values 1..n are placed one at a time at the end of some row; a placement
    is legal when the row stays within the shape and strictly shorter than
    the row above.  Completions are counted.
    """
    shape = make_partition(p)
    n = sum(shape)
    if n > bound:
        raise ValueError(f"enumeration limited to size {bound}, got {n}")
    if not shape:
        return 1
    rows = len(shape)
    lengths = [0] * rows
    count = 0

    def place(value: int):
        nonlocal count
        if value > n:
            count += 1
            return
        for i in range(rows):
            if lengths[i] < shape[i] and (i == 0 or lengths[i - 1] > lengths[i]):
                lengths[i] += 1
                place(value + 1)
                lengths[i] -= 1

    place(1)
    return count


def three_row_value(x: int, y: int, z: int) -> int:
    """The three-row closed form evaluated at arbitrary integer arguments.

    Reciprocal factorials of negative integers count as zero, so the value
    vanishes whenever x <= -3, y <= -2 or z <= -1.  On partitions (x, y, z)
    this equals degree((x, y, z)).  Requires x + y + z >= 0.
    """
    return _evaluate(_three_row_spec, x, y, z)


def fat_hook_value(x: int, y: int, r: int) -> int:
    """The fat-hook closed form at arbitrary integer arguments, with the
    same zero convention for reciprocal factorials of negative integers.

    On shapes (x, y, 1^r) this equals degree((x, y, 1^r)).  The removable
    singularities x + r + 1 = 0 and y + r = 0 are excluded.
    """
    return _evaluate(_fat_hook_spec, x, y, r)


def family_degrees(n: int, k: int, same_parity: bool) -> list[tuple[Partition, int]]:
    """second_part_family(n, k, same_parity) with each member's degree.

    The first member takes a hook product; each next one, (a, k, t) after
    (a + 2, k, t - 2), is the one before times the three-row closed form's
    ratio N(a, k, t) (a + 4)(a + 3) / (N(a + 2, k, t - 2) t (t - 1)), N its
    numerator.  Every step's division must be exact."""
    walked = []
    for shape in second_part_family(n, k, same_parity):
        if walked:
            a, _, t = shape
            num = _three_row_spec(a, k, t)[1] * (a + 4) * (a + 3)
            value, rem = divmod(value * num, _three_row_spec(a + 2, k, t - 2)[1] * t * (t - 1))
            if rem:
                raise ArithmeticError(f"inexact three-row ratio at {shape}")
        else:
            value = degree(shape)
        walked.append((shape, value))
    return walked
