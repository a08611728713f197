"""The four workloads: seeded op lists, the call each op makes, and the
check each op's output must pass.

The seed is the only input.  `make_ops(seed)` is deterministic, and every op
it can produce is valid, so no op fails at a correct commit.  Library
functions are looked up on their modules at call time, so that the tracer's
rebinding applies to the benchmark's calls too.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from sytknap import certificates, degrees, identities, paths, render, search

# The package re-exports the function `partitions`, which hides the module.
partitions = importlib.import_module("sytknap.partitions")

from . import BENCH_DIR, ROOT, checkout_env
from .checks import (
    SecondRoute,
    check_pairs,
    check_rediscovery,
    check_reports,
    search_digest,
)

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_full_digests.json")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")
CAPPED_RESULTS = 50_000  # find_equal_sum_pairs' default max_results


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple

    def label(self) -> str:
        return f"{self.kind}{self.args}"


def rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _antithetic(rng, strata):
    """One value per stratum and its mirror image in the same stratum.

    Cost grows smoothly (about cubically) with n, so a value and its mirror
    keep a round's total work nearly independent of the seed."""
    for lo, hi in strata:
        r = rng.randrange(hi - lo)
        yield lo + r
        yield hi - 1 - r


class Workload:
    name = ""
    loads = ""
    idle = ""
    in_process = True

    def make_ops(self, seed: int) -> list:
        raise NotImplementedError

    def notes(self) -> dict:
        """What the run record says about this workload's layers."""
        return {"loads": self.loads, "leaves_idle": self.idle}

    def prepare(self, ops):
        """Expected data for the checks, computed before timing starts."""
        return None

    def execute(self, op, ctx):
        raise NotImplementedError

    def check(self, op, result, ctx):
        raise NotImplementedError


# -- verify-sweep -------------------------------------------------------------


class VerifySweep(Workload):
    name = "verify-sweep"
    loads = "degrees, partitions, identities; paths through verify_riordan"
    idle = "search, polynomials, certificates, render, cli"

    def make_ops(self, seed):
        rng = rng_for(self.name, seed)
        ops = []
        for n in _antithetic(rng, ((100, 150), (150, 200), (200, 251))):
            ops += [Op("knapsack", (n, k)) for k in range(n // 2 + 1)]
        ops += [Op("riordan", (n,)) for n in _antithetic(rng, ((60, 150),))]
        ops += [Op("catalan-pair", (m,)) for m in _antithetic(rng, ((12, 24),))]
        for _ in range(24):
            ops.append(Op("ladder", _ladder_params(rng)))
            n = rng.randint(100, 250)
            k = rng.randint(1, (n - 2) // 2)
            while not (k <= (n + 2) // 3 or n % 2 == k % 2):  # expansion's valid regime
                k = rng.randint(1, (n - 2) // 2)
            ops.append(Op("expansion", (n, k)))
            n = rng.randint(100, 250)
            ops.append(Op("branch", (n, rng.randint(1, (n - 1) // 2), rng.random() < 0.5)))
            ops.append(Op("hookwrap", (_random_partition(rng, rng.randint(10, 40)), rng.randint(2, 12))))
        rng.shuffle(ops)
        return ops

    def prepare(self, ops):
        return SecondRoute()

    def execute(self, op, ctx):
        verifier = {
            "knapsack": identities.verify_knapsack,
            "riordan": identities.verify_riordan,
            "catalan-pair": identities.verify_catalan_pair,
            "ladder": identities.verify_ladder,
            "expansion": identities.verify_expansion,
            "branch": identities.verify_branch_rows,
            "hookwrap": identities.verify_hook_wrap,
        }[op.kind]
        return verifier(*op.args)

    def check(self, op, result, route):
        reports = result if isinstance(result, (list, tuple)) else [result]
        return check_reports(reports, route)


def _ladder_params(rng) -> tuple:
    """(d, k, m) inside one of the regions where verify_ladder has a closed form."""
    d = rng.choice((1, 2))
    k = rng.randint(10, 60)
    region = rng.choice(("low", "high", "near"))
    if region == "low":
        m = rng.randint(max(2, 4 * (d - 1)), k)
    elif region == "high":
        m = k + 6 * d - 3 + rng.randint(0, 40)
    else:  # d = 1 middle cases, d = 2 intermediate cases
        m = k + rng.randint(1, 2 if d == 1 else 8)
    return (d, k, m)


def _random_partition(rng, size: int) -> tuple:
    parts = []
    while size:
        part = rng.randint(1, min(size, 12))
        parts.append(part)
        size -= part
    return tuple(sorted(parts, reverse=True))


# -- search workloads -----------------------------------------------------------

PAIR_POOL = ("3part", "fathook")


class _Search(Workload):
    def execute(self, op, ctx):
        n, families, max_side = op.args
        return search.find_equal_sum_pairs(search.build_pool(n, families), max_side=max_side)

    def prepare(self, ops):
        """Known knapsack instances that fit each op's pool and side limit."""
        known = {}
        for op in set(ops):
            n, families, max_side = op.args
            pool = {shape for shape, _ in search.build_pool(n, families).members}
            known[op] = {
                key: label
                for key, label in search._known_knapsack_instances(n).items()
                if all(len(side) <= max_side and side <= pool for side in key)
            }
        return {"route": SecondRoute(), "known": known}

    def check(self, op, result, ctx):
        n = op.args[0]
        route = ctx["route"]
        return check_pairs(n, result.pairs, route) or check_rediscovery(
            result.pairs, ctx["known"][op], route
        )


class SearchCapped(_Search):
    name = "search-capped"
    loads = "search (pair phase), with its memory peak"
    idle = "degrees and partitions nearly idle (pool building only); polynomials, certificates, paths, render, cli"

    def make_ops(self, seed):
        # Search cost is irregular in n (n=13 costs 2.6x n=12), so a sample of
        # the range would make wall_s follow the seed; the seed orders all of it.
        ops = [Op("search", (n, PAIR_POOL, 4)) for n in range(12, 21)]
        rng_for(self.name, seed).shuffle(ops)
        return ops

    def check(self, op, result, ctx):
        if not result.truncated or len(result.pairs) != CAPPED_RESULTS:
            return f"{op.label()} did not fill the {CAPPED_RESULTS}-pair cap"
        return super().check(op, result, ctx)


FULL_SEARCHES = (
    [(n, PAIR_POOL, 4) for n in range(4, 12)]
    + [(n, PAIR_POOL, 8) for n in range(4, 9)]
    + [(n, PAIR_POOL + ("rows4",), 3) for n in range(4, 13)]
)


def digest_key(args) -> str:
    n, families, max_side = args
    return f"{n}:{'+'.join(families)}:{max_side}"


class SearchFull(_Search):
    name = "search-full"
    loads = "search without the cap; identities through rediscovery labelling"
    idle = "polynomials, certificates, paths, render, cli"

    def make_ops(self, seed):
        ops = [Op("search", args) for args in FULL_SEARCHES]
        rng_for(self.name, seed).shuffle(ops)
        return ops

    def prepare(self, ops):
        ctx = super().prepare(ops)
        with open(DIGESTS_FILE) as fh:
            ctx["digests"] = json.load(fh)
        ctx["validated"] = set()
        return ctx

    def check(self, op, result, ctx):
        if result.truncated:
            return f"{op.label()} was truncated"
        digest = search_digest(result)
        if digest != ctx["digests"].get(digest_key(op.args)):
            return f"{op.label()} output differs from the recorded digest"
        # Output equal to one already checked pair by pair in this run
        # passes the same checks; do them once per output.
        if digest not in ctx["validated"]:
            problem = super().check(op, result, ctx)
            if problem:
                return problem
            ctx["validated"].add(digest)
        return None


# -- cli ------------------------------------------------------------------------

# The README search example (`search --n 12 --pool 3part+fathook`, max_side 8)
# ran for about 9 minutes without finishing.  The same pool at --max-side 3
# finishes in under a second and still prints 4 MB of JSON.
EXCLUDED_README_EXAMPLE = (
    "search --n 12 --pool 3part+fathook: does not finish (killed after about 9 minutes); "
    "replaced by the same search at --max-side 3"
)
BOUNDED_SEARCH = ("search", "--n", "12", "--pool", "3part+fathook", "--max-side", "3")


def _cli_cases():
    """(argv, maker of its output check) for every command the cli workload runs."""

    def text(build):
        return lambda: _equals(build().encode())

    def as_json(build):
        return lambda: _equals_json(build())

    cases = [
        (("degree", "--shape", "5,5,1^10"),
         text(lambda: f"{degrees.degree(partitions.parse_shape('5,5,1^10'))}\n")),
        (("degree", "--shape", "3,2,1", "--route", "enumerate"),
         text(lambda: f"{degrees.syt_enumerate((3, 2, 1))}\n")),
        (("paths", "--kind", "riordan", "--n", "20"),
         text(lambda: f"{paths.count_paths(paths.PathKind.RIORDAN, 20)}\n")),
    ]
    verifies = [
        (("--id", "knapsack", "--n", "32", "--k", "13"), lambda: list(identities.verify_knapsack(32, 13))),
        (("--id", "knapsack", "--n", "20"),
         lambda: [r for k in range(11) for r in identities.verify_knapsack(20, k)]),
        (("--id", "hookwrap", "--mu", "3,1", "--k", "6"), lambda: [identities.verify_hook_wrap((3, 1), 6)]),
        (("--id", "ladder", "--d", "1", "--k", "14", "--m", "7"), lambda: [identities.verify_ladder(1, 14, 7)]),
        # not a README line: the ROADMAP baseline's large verify output
        (("--id", "riordan", "--n", "60"), lambda: identities.verify_riordan(60)),
    ]
    for args, reports in verifies:
        cases.append((("verify",) + args,
                      text(lambda reports=reports: "\n".join(render.render_report(r) for r in reports()) + "\n")))
        cases.append((("verify",) + args + ("--format", "json"),
                      as_json(lambda reports=reports: [identities.report_to_json(r) for r in reports()])))
    for table in ("knapsack-n20", "knapsack-n32", "ladder-n35"):
        cases.append((("table", "--id", table), lambda table=table: _equals(_golden(table))))
    cases += [
        (("certify",), text(_certify_text)),
        (("certify", "--format", "json"), as_json(lambda: [r.to_json() for r in certificates.certify_all()])),
        (BOUNDED_SEARCH, lambda: _search_expect(False)),
        (BOUNDED_SEARCH + ("--format", "json"), lambda: _search_expect(True)),
        (("scan", "--k", "4", "--m", "7", "--dmax", "6"), lambda: _scan_expect(True)),
        (("scan", "--k", "4", "--m", "7", "--dmax", "6", "--format", "text"), lambda: _scan_expect(False)),
    ]
    return cases


def _equals(expected: bytes):
    return lambda out: None if out == expected else "stdout differs from the library's output"


def _equals_json(expected):
    def check(out):
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return None if got == expected else "JSON differs from the library's output"

    return check


def _golden(table: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, f"{table}.txt"), "rb") as fh:
        return fh.read()


def _certify_text() -> str:
    lines = []
    for r in certificates.certify_all():
        lines.append(f"certify {r.name} -> {'PASS' if r.passed else 'FAIL'}")
        lines += [f"  {label}: difference = {diff}" for label, diff in r.checks]
    return "\n".join(lines) + "\n"


def _search_expect(as_json: bool):
    pool = search.build_pool(12, PAIR_POOL)
    result = search.find_equal_sum_pairs(pool, 3)
    if as_json:
        return _equals_json({
            "n": 12,
            "pool": sorted(partitions.format_shape(s) for s, _ in pool.members),
            "truncated": result.truncated,
            "pairs": [identities.report_to_json(p.to_report()) for p in result.pairs],
        })
    fmt = partitions.format_shape
    lines = [f"pool n=12 families=3part+fathook size={len(pool.members)}"
             f" subsets={result.subsets_enumerated}" + (" TRUNCATED" if result.truncated else "")]
    for p in result.pairs:
        left = " + ".join(f"f({fmt(s)})" for s in p.left)
        right = " + ".join(f"f({fmt(s)})" for s in p.right)
        lines.append(f"{left} = {right} ; sum {p.total}" + (f" ; {p.label}" if p.label else ""))
    return _equals(("\n".join(lines) + "\n").encode())


def _scan_expect(csv: bool):
    """Each row's d and exact ladder value, in order (the notes are free text)."""
    rows = search.scan_even_ladders(4, 7, 6)

    def check(out):
        lines = out.decode().splitlines()
        if len(lines) != len(rows) + 1:
            return "scan printed the wrong number of rows"
        for line, r in zip(lines[1:], rows):
            ok = (line.split(",")[:2] == [str(r.d), str(r.value)] if csv
                  else line.startswith(f"d={r.d:<2d} value={r.value} "))
            if not ok:
                return f"scan row d={r.d} differs"
        return None

    return check


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    trace: dict | None


class Cli(Workload):
    name = "cli"
    loads = "cli start-up, render, JSON output, polynomials and certificates (certify)"
    idle = "search nearly idle (the bounded search, twice per round); degrees and partitions light"
    in_process = False

    def __init__(self):
        self._cases = dict(_cli_cases())

    def notes(self):
        return dict(super().notes(), excluded_readme_example=EXCLUDED_README_EXAMPLE)

    def make_ops(self, seed):
        ops = [Op("cli", argv) for argv in self._cases]
        rng_for(self.name, seed).shuffle(ops)
        return ops

    def prepare(self, ops):
        return {op: self._cases[op.args]() for op in set(ops)}

    def execute(self, op, ctx, cap: float = 60.0, trace_file: str | None = None):
        """Run one command as a fresh interpreter; a command that outlives
        `cap` is killed (and waited for) by subprocess.run."""
        if trace_file:
            argv = [sys.executable, TRACED_CLI, trace_file, *op.args]
        else:
            argv = [sys.executable, "-m", "sytknap", *op.args]
        done = subprocess.run(argv, capture_output=True, env=checkout_env(), cwd=ROOT, timeout=cap)
        trace = None
        if trace_file:
            with open(trace_file) as fh:
                trace = json.load(fh)
            os.remove(trace_file)
        return CliResult(done.returncode, done.stdout, trace)

    def check(self, op, result, ctx):
        if result.returncode != 0:
            return f"{' '.join(op.args)} exited {result.returncode}"
        return ctx[op](result.stdout)


WORKLOADS = {w.name: w for w in (VerifySweep(), SearchCapped(), SearchFull(), Cli())}
