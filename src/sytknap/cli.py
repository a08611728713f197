"""Command-line surface: single evaluations, identity verification, table
reproduction, symbolic certificates, search and scans.

Subcommands return (text pieces, exit status); `main` alone writes the
`--out` file, then stdout.  Exit status: 0 all checks passed, 1 at least one
verification failed (reports are still emitted), 2 usage, bounds or
`--out` error.  Runs are seedless and deterministic: the same invocation
always produces byte-identical output.
"""

import argparse
import os
import sys

# loaded with the package (see __init__), so importing it here costs nothing;
# every other module is imported by the subcommands that run it
from .partitions import format_shape, parse_shape, to_decimal

OUT_DIR_ENV = "SYTKNAP_OUT_DIR"

# the choices of `paths --kind` and `table --id`, written out so that
# building the parser loads neither paths nor render: they are
# paths.PathKind's values and sorted(render.TABLES)
PATH_KINDS = ("dyck", "motzkin", "riordan")
TABLE_IDS = ("knapsack-n20", "knapsack-n32", "ladder-n35")


def _json_list(items, depth: int = 0) -> list[str]:
    """The text of json.dumps(list(items), indent=2) nested `depth` levels
    deep, in pieces.  Each item is encoded as soon as it is made and then
    dropped, so no whole payload of dicts is ever held.  Replacing newlines
    re-indents an item safely: the encoder escapes every newline inside a
    string."""
    from json import dumps

    inner = "\n" + "  " * (depth + 1)
    pieces = [
        ("," if i else "[") + inner + dumps(item, indent=2).replace("\n", inner)
        for i, item in enumerate(items)
    ]
    pieces.append("\n" + "  " * depth + "]" if pieces else "[]")
    return pieces


def _cmd_degree(args) -> tuple[list[str], int]:
    from .degrees import degree, syt_enumerate

    shape = parse_shape(args.shape)
    value = syt_enumerate(shape) if args.route == "enumerate" else degree(shape)
    return [f"{to_decimal(value)}\n"], 0


def _cmd_paths(args) -> tuple[list[str], int]:
    from .paths import PathKind, count_paths, enumerate_paths

    kind = PathKind(args.kind)
    if args.list:
        return ["".join(f"{p or '(empty)'}\n" for p in enumerate_paths(kind, args.n))], 0
    return [f"{to_decimal(count_paths(kind, args.n))}\n"], 0


# family -> (required options, report builder on the identities module and
# the parsed options); the order is the --help order
VERIFIERS = {
    "knapsack": (
        ("n",),
        lambda ids, a: ids.verify_knapsack_sweep(a.n) if a.k is None else list(ids.verify_knapsack(a.n, a.k)),
    ),
    "riordan": (("n",), lambda ids, a: ids.verify_riordan(a.n)),
    "ladder": (("d", "k", "m"), lambda ids, a: [ids.verify_ladder(a.d, a.k, a.m)]),
    "analytic": (("d", "k", "m"), lambda ids, a: [ids.verify_analytic_ladder(a.d, a.k, a.m)]),
    "expansion": (("n", "k"), lambda ids, a: [ids.verify_expansion(a.n, a.k)]),
    "boundary": (("k", "m"), lambda ids, a: [ids.verify_boundary(a.k, a.m)]),
    "hookwrap": (("mu", "k"), lambda ids, a: [ids.verify_hook_wrap(parse_shape(a.mu), a.k)]),
    "catalan-pair": (("m",), lambda ids, a: [ids.verify_catalan_pair(a.m)]),
    "branch": (("n", "k", "parity"), lambda ids, a: [ids.verify_branch_rows(a.n, a.k, a.parity == "same")]),
}


def _reports_output(reports, fmt: str, to_json, render) -> tuple[list[str], int]:
    """JSON or text for a list of reports; exit 1 when any report failed."""
    if fmt == "json":
        pieces = _json_list(to_json(r) for r in reports)
    else:
        pieces = ["\n".join(render(r) for r in reports)]
    return pieces + ["\n"], 0 if all(r.passed for r in reports) else 1


def _cmd_verify(args) -> tuple[list[str], int]:
    from . import identities
    from .render import render_report

    required, build = VERIFIERS[args.id]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise ValueError(f"verify --id {args.id} needs {' '.join(missing)}")
    return _reports_output(build(identities, args), args.format, identities.report_to_json, render_report)


def _cmd_table(args) -> tuple[list[str], int]:
    from .render import render_table

    return [render_table(args.id)], 0


def _cmd_certify(args) -> tuple[list[str], int]:
    from .certificates import CERTIFICATES, certify_all
    from .render import render_certificate

    if args.name and args.name not in CERTIFICATES:
        raise ValueError(
            f"unknown certificate {args.name!r}; available: {', '.join(sorted(CERTIFICATES))}"
        )
    reports = [CERTIFICATES[args.name]()] if args.name else certify_all()
    return _reports_output(reports, args.format, lambda r: r.to_json(), render_certificate)


def _cmd_search(args) -> tuple[list[str], int]:
    from .search import build_pool, find_equal_sum_pairs

    families = tuple(args.pool.split("+"))
    pool = build_pool(args.n, families)
    result = find_equal_sum_pairs(pool, args.max_side)
    if args.format == "json":
        from json import dumps

        from .identities import report_to_json

        head = {
            "n": args.n,
            "pool": sorted(format_shape(s) for s, _ in pool.members),
            "truncated": result.truncated,
            "pairs": [],
        }
        # the pairs list is spliced in, one report at a time, where the
        # empty list ends the encoded head
        text = dumps(head, indent=2).removesuffix("[]\n}")
        pairs = _json_list((report_to_json(p.to_report()) for p in result.pairs), depth=1)
        return [text, *pairs, "\n}\n"], 0
    lines = [
        f"pool n={args.n} families={args.pool} size={len(pool.members)}"
        f" subsets={result.subsets_enumerated}"
        + (" TRUNCATED" if result.truncated else "")
    ]
    for p in result.pairs:
        left = " + ".join(f"f({format_shape(s)})" for s in p.left)
        right = " + ".join(f"f({format_shape(s)})" for s in p.right)
        tail = f" ; {p.label}" if p.label else ""
        lines.append(f"{left} = {right} ; sum {p.total}{tail}")
    return ["\n".join(lines) + "\n"], 0


def _cmd_scan(args) -> tuple[list[str], int]:
    from .search import scan_even_ladders

    rows = scan_even_ladders(args.k, args.m, args.dmax)
    if args.format == "csv":
        lines = ["d,value,probe_shape,probe_value,residual,candidates,note"]
        for r in rows:
            shape = format_shape(r.probe_shape) if r.probe_shape is not None else ""
            fields = [
                str(r.d),
                to_decimal(r.value),
                shape,
                "" if r.probe_value is None else to_decimal(r.probe_value),
                "" if r.residual is None else to_decimal(r.residual),
                " ".join(r.candidates),
                r.note,
            ]
            lines.append(",".join(f'"{f}"' if "," in f else f for f in fields))
    else:
        lines = [f"even ladder scan k={args.k} m={args.m}"]
        for r in rows:
            probe = f"f({format_shape(r.probe_shape)})" if r.probe_shape is not None else "-"
            lines.append(
                f"d={r.d:<2d} value={to_decimal(r.value)} probe={probe}"
                f" residual={'-' if r.residual is None else to_decimal(r.residual)} ; {r.note}"
            )
    return ["\n".join(lines) + "\n"], 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sytknap",
        description="Exact character degrees of symmetric groups and "
        "verification of equal-degree-sum identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", help="number of standard Young tableaux of a shape")
    p.add_argument("--shape", required=True, help="comma parts with ^ repetition, e.g. 5,5,1^10")
    p.add_argument("--route", choices=("hook", "enumerate"), default="hook")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("paths", help="lattice path counts (dyck n = semilength)")
    p.add_argument("--kind", choices=PATH_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", help="enumerate instead of count")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("verify", help="verify one identity instance or sweep")
    p.add_argument("--id", required=True, choices=VERIFIERS)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--mu", help="base shape for hookwrap")
    p.add_argument("--parity", choices=("same", "opposite"))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="reproduce a reference table (byte-stable)")
    p.add_argument("--id", required=True, choices=TABLE_IDS)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("certify", help="run symbolic certificates")
    p.add_argument("--name", help="one certificate; default runs all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="search for equal-degree-sum subset pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pool", default="3part+fathook")
    p.add_argument("--max-side", type=int, default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scan", help="informational even-ladder scan")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="csv")
    p.set_defaults(func=_cmd_scan)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pieces, status = args.func(args)
        if args.out:
            # join drops the base directory for an absolute path
            with open(os.path.join(os.environ.get(OUT_DIR_ENV, ""), args.out), "w") as fh:
                fh.writelines(pieces)
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout early: point it at devnull, so that the
        # interpreter's final flush of what is left cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


def run() -> None:
    raise SystemExit(main())
