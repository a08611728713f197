"""Text rendering for reports, certificates and the reproducible reference
tables."""

from .identities import Report, Term, verify_knapsack, verify_ladder
from .partitions import format_shape, pad, to_decimal


def format_term(term: Term, pad_to: int = 0) -> str:
    if term.kind == "three-row":
        return "e3(" + ",".join(str(v) for v in term.shape) + ")"
    if term.kind == "fat-hook":
        args = term.shape
        return f"e2({args[0]},{args[1]};{args[2]})"
    shape = term.shape
    if pad_to and len(shape) < pad_to:
        shape = pad(shape, pad_to)
    return f"f({format_shape(shape)})"


def format_side(report: Report, side: str) -> str:
    pad_to = report.lhs_pad if side == "L" else 0
    pieces = []
    for t in report.terms:
        if t.side != side:
            continue
        body = format_term(t, pad_to)
        if not pieces:
            pieces.append(body if t.sign > 0 else f"-{body}")
        else:
            pieces.append(("+ " if t.sign > 0 else "- ") + body)
    return " ".join(pieces) if pieces else "0"


def render_report(report: Report) -> str:
    params = " ".join(f"{k}={_param_str(v)}" for k, v in report.params.items())
    status = "PASS" if report.passed else "FAIL"
    head = f"{report.id} {params}".rstrip()
    if report.regime:
        head += f" [{report.regime}]"
    lines = [f"{head} -> {status}"]
    if report.error:
        lines.append(f"  error: {report.error}")
        return "\n".join(lines)
    lines.append(f"  {format_side(report, 'L')} = {format_side(report, 'R')}")
    lines.append(f"  {to_decimal(report.lhs)} = {to_decimal(report.rhs)}")
    if report.note:
        lines.append(f"  note: {report.note}")
    for label, ok in report.checks.items():
        lines.append(f"  check {label}: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines)


def render_certificate(report) -> str:
    """Text of a certificates.CertificateReport (that module is not imported
    here, so rendering a report never loads the polynomial carrier)."""
    lines = [f"certify {report.name} -> {'PASS' if report.passed else 'FAIL'}"]
    lines += [f"  {label}: difference = {diff}" for label, diff in report.checks]
    return "\n".join(lines)


def _param_str(v) -> str:
    if isinstance(v, tuple):
        return format_shape(v)
    return str(v)


# id -> (title, a function building the table's (label, report) rows)
TABLES = {
    "knapsack-n20": (
        "fixed-second-part identities, n=20, same-parity families",
        lambda: [(f"k={k:<2d}", verify_knapsack(20, k)[0]) for k in range(0, 11, 2)],
    ),
    "knapsack-n32": (
        "fixed-second-part identities, n=32, k=11..13 (k=13 is swapped)",
        lambda: [(f"k={k} eq{eq}", r) for k in (11, 12, 13) for eq, r in enumerate(verify_knapsack(32, k), 1)],
    ),
    "ladder-n35": (
        "three-term ladder collapse, n=35, one instance per case",
        lambda: [(f"k={k:<2d} m={m:<2d}", verify_ladder(1, k, m)) for k, m in ((14, 7), (11, 13), (7, 21))],
    ),
}


def render_table(table_id: str) -> str:
    if table_id not in TABLES:
        raise ValueError(f"unknown table {table_id!r}; available: {', '.join(sorted(TABLES))}")
    title, rows = TABLES[table_id]
    lines = [title]
    for label, report in rows():
        lines.append(
            f"{label}: {format_side(report, 'L')} = {format_side(report, 'R')}"
            f" ; {to_decimal(report.lhs)} = {to_decimal(report.rhs)} ; {'pass' if report.passed else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"
