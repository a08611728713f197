"""Integer partitions, Young-diagram geometry, and the partition families
that degree-sum identities range over.

Partitions are plain tuples of ints, weakly decreasing, with no trailing
zeros.  All functions here are pure and return deterministic (lexicographic
descending) orderings so downstream reports are byte-stable.
"""

Partition = tuple[int, ...]

# parse_shape refuses shapes larger than this before building any list
MAX_SHAPE_CELLS = 10_000

# add_rim_hooks refuses larger hooks before building any beta numbers: its
# work grows faster than size**2 (about 0.3 s at 1 000 cells, 5.6 s at 4 000)
MAX_RIM_HOOK_CELLS = 1_000


def make_partition(parts) -> Partition:
    """Canonicalize a weakly decreasing integer sequence into a partition.

    Trailing zeros are trimmed; the empty tuple is the partition of 0.
    Raises ValueError on negative entries or out-of-order parts.
    """
    seq = parts if type(parts) is tuple else tuple(parts)
    last = seq[0] if seq else 0
    for p in seq:
        if not isinstance(p, int) or p > last:
            break
        last = p
    else:
        if last > 0 or not seq:
            return seq
        if last == 0:
            return seq[: seq.index(0)]
    # only an invalid sequence gets here: raise its first error, in order
    for p in seq:
        if not isinstance(p, int):
            raise ValueError(f"partition parts must be integers, got {p!r}")
        if p < 0:
            raise ValueError(f"partition parts must be nonnegative, got {p}")
    raise ValueError(f"parts are not weakly decreasing: {list(parts)!r}")


def pad(p: Partition, length: int) -> tuple[int, ...]:
    """Right-pad a partition with zeros (display helper)."""
    if length < len(p):
        raise ValueError(f"cannot pad {p} to {length} entries")
    return p + (0,) * (length - len(p))


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    conj: list[int] = []
    for i in range(len(p) - 1, -1, -1):
        conj += [i + 1] * (p[i] - len(conj))
    return tuple(conj)


def hook_lengths(p: Partition) -> list[list[int]]:
    """Hook length of every cell, row by row.

    The hook at (i, j) counts the cell itself plus the cells to its right
    and below: parts[i] + conj[j] - i - j - 1 with 0-based indices.
    """
    if not p:
        raise ValueError("hook lengths are defined for nonempty partitions")
    conj = conjugate(p)
    return [[p[i] + conj[j] - i - j - 1 for j in range(p[i])] for i in range(len(p))]


def branching_children(p: Partition) -> list[Partition]:
    """All partitions obtained by removing one removable corner cell, one
    per distinct part value: the beta numbers of p that can move down by one,
    straightened.  Sorted lex descending."""
    if not p:
        raise ValueError("the empty partition has no boxes to remove")
    return [child for _, child in _moves(_beta_numbers(p, 1), -1)]


def _beta_numbers(p: Partition, size: int) -> list[int]:
    """The first-column hook lengths of p padded to len(p) + size rows, the
    beta numbers a rim hook of `size` cells moves; a size of more than
    MAX_RIM_HOOK_CELLS is refused before any is built."""
    if size < 1:
        raise ValueError("rim hook size must be positive")
    if size > MAX_RIM_HOOK_CELLS:
        raise ValueError(f"rim hook has {size} cells; the limit is {MAX_RIM_HOOK_CELLS}")
    rows = len(p) + size
    return [(p[i] if i < len(p) else 0) + (rows - 1 - i) for i in range(rows)]


def straighten(beta) -> tuple[int, Partition] | None:
    """The signed partition that beta numbers stand for in Frobenius's
    formula, which is alternating in them: None (zero) when two are equal or
    one is negative, else ((-1)**(r - cycles) for the permutation sorting
    them descending, and the partition sorted(beta) - (r-1, ..., 1, 0))."""
    rows = len(beta)
    if len(set(beta)) < rows or min(beta, default=0) < 0:
        return None
    order = sorted(range(rows), key=beta.__getitem__, reverse=True)
    unseen, cycles = [True] * rows, 0
    for start in range(rows):
        cycles += unseen[start]
        while unseen[start]:
            unseen[start], start = False, order[start]
    return (-1) ** (rows - cycles), make_partition([beta[j] - (rows - 1 - i) for i, j in enumerate(order)])


def _moves(beta: list[int], step: int) -> list[tuple[int, Partition]]:
    """Each beta number b whose b + step is free (tested before straightening)
    moved there and straightened, zeros dropped, sorted lex descending."""
    taken = set(beta)
    moved = (beta[:i] + [b + step] + beta[i + 1:] for i, b in enumerate(beta) if b + step not in taken)
    return sorted(filter(None, map(straighten, moved)), key=lambda signed: signed[1], reverse=True)


def rim_hook_count(p: Partition, size: int) -> int:
    """The number of rim hooks of `size` cells that can be added to p, the
    length of add_rim_hooks(p, size): the beta numbers b with b + size not
    a beta number.  Refuses what add_rim_hooks refuses."""
    beta = _beta_numbers(p, size)
    beta_set = set(beta)
    return sum(1 for b in beta if b + size not in beta_set)


def add_rim_hooks(p: Partition, size: int) -> list[tuple[int, Partition]]:
    """All ways to add one connected rim hook of `size` cells, with sign:
    each moves one beta number up by `size`, and straightening gives the sign
    (-1)**(rows spanned - 1).  Sorted lex descending by resulting partition;
    a hook of more than MAX_RIM_HOOK_CELLS cells is refused with ValueError."""
    return _moves(_beta_numbers(p, size), size)


def partitions(n: int, max_rows: int | None = None):
    """Yield the partitions of n (optionally with at most `max_rows` parts),
    in lexicographic descending order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    rows = n if max_rows is None else max_rows

    def rec(remaining, largest, rows_left):
        if remaining == 0:
            yield ()
            return
        if rows_left <= 1:  # the last row takes all that is left
            if rows_left == 1 and remaining <= largest:
                yield (remaining,)
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, rows_left - 1):
                yield (first,) + rest

    yield from rec(n, n, rows)


def third_parts(n: int, k: int, same_parity: bool) -> range:
    """The third parts of second_part_family(n, k, same_parity): 0 <= t <=
    min(k, n - 2k) of k's parity, or of the other.  Needs 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return range(k % 2 if same_parity else 1 - k % 2, min(k, n - 2 * k) + 1, 2)


def second_part_family(n: int, k: int, same_parity: bool = True) -> list[Partition]:
    """Three-part partitions of n whose second part is exactly k, filtered by
    whether the third part has the same parity as k.

    Zero third parts are allowed, stored canonically without the zero; the
    bounds of third_parts make each triple a partition, so none is
    validated.  Sorted by decreasing first part; empty when none exists.
    """
    return [
        (n - k - t, k, t) if t else (n - k, k) if k else (n,) if n else ()
        for t in third_parts(n, k, same_parity)
    ]


def fat_hook(a: int, b: int, t: int) -> Partition | None:
    """The shape (a, b, 1^t) as a partition, or None when it is not one."""
    if t < 0 or a < b or b < 0:
        return None
    if t == 0:
        return make_partition((a, b))
    if b < 1:
        return None
    return (a, b) + (1,) * t


def three_row(r: int, s: int, t: int) -> Partition | None:
    """The shape (r, s, t) as a partition, or None when it is not one."""
    if r >= s >= t >= 0:
        return make_partition((r, s, t))
    return None


def square_two_tail_partitions(n: int) -> list[Partition]:
    """The partitions (k, k, 2^(m-k)) of n = 2m with k in 2..m, lex descending.

    These are exactly the partitions of n fitting the 2x2 hook whose diagram
    is a k x 2 rectangle glued under a two-row top."""
    if n % 2:
        raise ValueError("the two-column square-tail family needs an even size")
    m = n // 2
    return [(k, k) + (2,) * (m - k) for k in range(m, 1, -1)]


def format_shape(p) -> str:
    """Render a shape compactly: runs of 1 as 1^t, longer runs as v^c.

    Zeros (from display padding) are printed verbatim; the empty partition
    renders as ().
    """
    parts = tuple(p)
    if not parts:
        return "()"
    pieces = []
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        run = j - i
        v = parts[i]
        if v == 1 and run >= 2 or v >= 2 and run >= 3:
            pieces.append(f"{v}^{run}")
        else:
            pieces.extend([str(v)] * run)
        i = j
    return ",".join(pieces)


# str() takes integers of up to this many bits: under 640 digits, the lowest
# sys.int_max_str_digits Python accepts
_STR_BITS = 2_000


def to_decimal(value: int) -> str:
    """Decimal text of an integer of any size.

    str() refuses integers longer than sys.int_max_str_digits (4300 digits
    by default).  A longer value is split at a power of ten and its halves
    converted in turn, so the limit never applies and no process-wide
    setting changes.
    """
    if value < 0:
        return "-" + to_decimal(-value)
    if value.bit_length() <= _STR_BITS:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half the digits: log10(2) ~ 0.3
    high, low = divmod(value, 10**half)
    return to_decimal(high) + to_decimal(low).zfill(half)


def parse_shape(text: str) -> Partition:
    """Parse comma-separated parts with optional ^ repetition, e.g. 5,5,1^10.

    Shapes of more than MAX_SHAPE_CELLS cells are refused before any list is
    built; a zero or negative part counts as one cell there, so the parts
    list is bounded too."""
    stripped = text.strip()
    if stripped in ("", "()"):
        return ()
    runs = []
    for token in stripped.split(","):
        base, caret, rep = token.strip().partition("^")
        count = int(rep) if caret else 1
        if count < 0:
            raise ValueError(f"negative repetition in shape: {text!r}")
        runs.append((int(base), count))
    cells = sum(max(part, 1) * count for part, count in runs)
    if cells > MAX_SHAPE_CELLS:
        raise ValueError(f"shape has {cells} cells; the limit is {MAX_SHAPE_CELLS}")
    return make_partition([part for part, count in runs for _ in range(count)])
