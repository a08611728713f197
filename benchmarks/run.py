"""sytknap benchmark: one seeded workload, end-to-end or traced.

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it measures the checkout's own
src/.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1, as listed in BENCHMARK.json).  The lines
before it print each metric with its unit.  A full record of the run goes
to .bench_out/.  See benchmarks/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sytknap_bench import BENCH_DIR, OUT_DIR, ROOT, SRC, checkout_env, have_checkout_source  # noqa: E402

SETUP_PROBES = 9  # fresh interpreters timed for set-up, besides the client itself
STARTUP_PROBES = 5  # fresh interpreters timed for cli.startup_s
CLIENT_TIMEOUT_S = 170.0


def _client_env() -> dict:
    env = checkout_env()
    env["PYTHONPATH"] = BENCH_DIR + os.pathsep + env["PYTHONPATH"]
    return env


def _client(args: list, timeout: float) -> dict:
    """Run the workload client in a fresh interpreter and parse its JSON line."""
    done = subprocess.run(
        [sys.executable, "-m", "sytknap_bench.client", *args],
        capture_output=True, text=True, env=_client_env(), cwd=ROOT, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"client exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _startup_s() -> float:
    """Interpreter start plus `import sytknap.cli`, median of fresh runs."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sytknap.cli"], check=True,
                       env=checkout_env(), cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 over src/sytknap/*.py, which names the measured code even
    where the checkout has no git metadata."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "sytknap")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="sytknap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not have_checkout_source():
        print(f"error: no sytknap sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        setups = [_client(common + ["--setup-only"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
        extra = ["--spans-file", stem + ".spans.tsv.gz"] if args.trace else []
        result = _client(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra,
                         CLIENT_TIMEOUT_S)
        setups.append(result["setup_s"])
        measured = dict(result["metrics"], setup_s=statistics.median(setups))
        if args.trace:
            measured["cli.startup_s"] = _startup_s()
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "why": workloads[args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops_per_round": result["ops_per_round"],
        "rounds": result["rounds"],
        "latency": result["latency"],
        "round_wall_s": result["round_wall_s"],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": result["failures"],
        "degree_cache_hit_ratio": result["degree_cache_hit_ratio"],
        "setup_samples_s": setups,
        "metrics": metrics,
    }
    record.update(result["notes"])
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)

    latency = result["latency"]
    print(f"workload {args.workload} seed {args.seed}: {result['ops_per_round']} ops per round, "
          f"rounds {result['rounds']}, {latency['op_samples']} op samples")
    print(f"fail_share {failed}/{attempted} = {failed / attempted:.4f}")
    if latency["op_p50_ms"] is None:
        print("op_p50_ms, op_p90_ms: not reported, fewer than 100 op samples")
    else:
        print(f"op_p50_ms {latency['op_p50_ms']} ms, op_p90_ms {latency['op_p90_ms']} ms "
              f"({latency['op_samples']} samples)")
    for failure in result["failures"]:
        print(f"  failed: {failure[0]}: {failure[1]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
