"""The workload process: one client in a fresh interpreter that sends one op
at a time, waits for it, and checks its output off the clock.

    PYTHONPATH=benchmarks:src python3 -m sytknap_bench.client \
        --workload W --seed S --seconds T --trace 0|1 [--spans-file F]
    PYTHONPATH=benchmarks:src python3 -m sytknap_bench.client \
        --workload W --seed S --setup-only

It prints one JSON line.  Set-up time is the import of sytknap plus the
generation of the op list.  Timing starts with an empty degree cache, and
every round clears it again, as every CLI call starts with an empty one.
"""

import argparse
import gzip
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from . import LAYERS, OUT_DIR, use_checkout_source
from .tracer import COUNTERS, Tracer, self_times

OP_CAP_S = 60.0  # a single op that runs longer counts as failed
HARD_LIMIT_S = 150.0  # no op starts after this; a run must end within 180 s


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Round:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op label, reason)
    cache: tuple = (0, 0)  # degree-cache hits, misses
    layer_self: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    spans_top_s: float = 0.0
    stdout_bytes: int = 0
    exit_nonzero: int = 0


def run_round(workload, ops, ctx, deadline: float, tracer=None, spans_out=None) -> Round:
    """Run every op once, in order; check each output right after its op."""
    from sytknap import degrees

    rnd = Round()
    previous_handler = signal.signal(signal.SIGALRM, _alarm)
    degrees._degree.cache_clear()
    try:
        for index, op in enumerate(ops):
            cap = min(OP_CAP_S, deadline - time.perf_counter())
            if cap <= 0:
                rnd.failures.append((op.label(), "not started: the run's time limit was reached"))
                continue
            result, error, elapsed = _timed_op(workload, op, ctx, cap, index, tracer)
            rnd.latencies.append(elapsed)
            rnd.wall_s += elapsed
            if error is None:
                try:
                    error = workload.check(op, result, ctx)
                except Exception as exc:  # a malformed output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                rnd.failures.append((op.label(), error))
            if not workload.in_process and result is not None:
                rnd.stdout_bytes += len(result.stdout)
                rnd.exit_nonzero += result.returncode != 0
                if result.trace:
                    _merge_child_trace(rnd, result.trace, index, spans_out)
            del result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
    if workload.in_process:
        info = degrees._degree.cache_info()
        rnd.cache = (info.hits, info.misses)
        if tracer is not None:
            spans, rnd.counters = tracer.take()
            rnd.layer_self, rnd.spans_top_s = self_times(spans)
            if spans_out is not None:
                spans_out.append(spans)
    return rnd


def _timed_op(workload, op, ctx, cap: float, index: int, tracer):
    """(result, error, seconds) of one op; an op that raises or outlives
    `cap` is a failed op, not a crashed run."""
    result, error = None, None
    in_process = workload.in_process
    trace_file = None
    if tracer is not None and not in_process:
        trace_file = os.path.join(OUT_DIR, f"cli-trace-{os.getpid()}.json")
    if tracer is not None and in_process:
        tracer.start_op(index)
    start = time.perf_counter()
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                result = workload.execute(op, ctx)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        else:
            result = workload.execute(op, ctx, cap, trace_file)
    except OpTimeout:
        error = f"hit the {cap:.3g} s cap"
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None and in_process:
        tracer.stop_op()
    return result, error, elapsed


def _merge_child_trace(rnd: Round, trace: dict, op_index: int, spans_out) -> None:
    for layer, value in trace["self"].items():
        rnd.layer_self[layer] = rnd.layer_self.get(layer, 0.0) + value
    for name, value in trace["counters"].items():
        rnd.counters[name] = rnd.counters.get(name, 0) + value
    rnd.spans_top_s += trace["top_s"]
    hits, misses = rnd.cache
    rnd.cache = (hits + trace["cache"][0], misses + trace["cache"][1])
    if spans_out is not None:
        spans_out.append([tuple(s[:5]) + (op_index,) for s in trace["spans"]])


def run_phase(workload, ops, ctx, budget_s: float, deadline: float, tracer=None, spans_out=None):
    """Repeat rounds for about `budget_s` seconds: at least one, and no new
    round once it would likely end more than half a round past the budget."""
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or (time.perf_counter() - start) + last / 2 < budget_s:
        if time.perf_counter() >= deadline:
            break
        round_start = time.perf_counter()
        rounds.append(run_round(workload, ops, ctx, deadline, tracer, spans_out))
        last = time.perf_counter() - round_start
    return rounds


MIN_LATENCY_SAMPLES = 100  # p90 then has at least ten samples beyond it


def latency_ms(rounds) -> dict:
    """Per-op latency percentiles over every op of the run, with the sample
    count; None where the run has fewer than 100 op samples."""
    latencies = [x for r in rounds for x in r.latencies]
    out = {"op_samples": len(latencies), "op_p50_ms": None, "op_p90_ms": None}
    if len(latencies) >= MIN_LATENCY_SAMPLES:
        out["op_p50_ms"] = statistics.median(latencies) * 1000
        out["op_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1000
    return out


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(workload, rounds) -> dict:
    # The fastest round: on a shared host, interference only ever adds time,
    # and it slows whole rounds for minutes at a time, which moves a median
    # but rarely the minimum.  Every round's time goes to the run record.
    return {
        "wall_s": min(r.wall_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(workload.in_process),
    }


def per_layer(untraced, traced) -> dict:
    """Per-round means over the traced rounds.  Means, not medians, so that
    the layers' self times plus trace.unattributed_s equal trace.wall_s."""
    count = len(traced)

    def mean(values):
        return sum(values) / count

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = mean(r.layer_self.get(layer, 0.0) for r in traced)
    for name in COUNTERS:
        out[name] = mean(r.counters.get(name, 0) for r in traced)
    hits = mean(r.cache[0] for r in traced)
    misses = mean(r.cache[1] for r in traced)
    out["degrees.cache_hits"] = hits
    out["degrees.cache_misses"] = misses
    out["degrees.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cli.stdout_bytes"] = mean(r.stdout_bytes for r in traced)
    out["cli.exit_nonzero"] = mean(r.exit_nonzero for r in traced)
    wall = mean(r.wall_s for r in traced)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - mean(r.spans_top_s for r in traced)
    out["trace.overhead_s"] = wall - sum(r.wall_s for r in untraced) / len(untraced)
    return out


def write_spans(path: str, span_groups) -> None:
    """One line per span: group, name, layer, start, end, parent, op."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("group\tname\tlayer\tstart\tend\tparent\top\n")
        for group, spans in enumerate(span_groups):
            for name, layer, start, end, parent, op in spans:
                fh.write(f"{group}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-file", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + HARD_LIMIT_S
    use_checkout_source()
    t0 = time.perf_counter()
    import sytknap  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    ops = workload.make_ops(args.seed)
    setup_s = import_s + time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ctx = workload.prepare(ops)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = {"setup_s": setup_s, "ops_per_round": len(ops), "notes": workload.notes()}
    if args.trace:
        untraced = run_phase(workload, ops, ctx, args.seconds / 2, deadline)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        span_groups = []
        traced = run_phase(workload, ops, ctx, args.seconds / 2, deadline, tracer, span_groups)
        if workload.in_process:
            tracer.uninstall()
        rounds = untraced + traced
        timed = untraced
        out["metrics"] = per_layer(untraced, traced)
        out["rounds"] = {"untraced": len(untraced), "traced": len(traced)}
        if args.spans_file:
            write_spans(args.spans_file, span_groups)
    else:
        rounds = timed = run_phase(workload, ops, ctx, args.seconds, deadline)
        out["metrics"] = end_to_end(workload, rounds)
        out["rounds"] = {"untraced": len(rounds)}
    failures = [f for r in rounds for f in r.failures]
    hits = sum(r.cache[0] for r in rounds)
    misses = sum(r.cache[1] for r in rounds)
    out.update(
        attempted=sum(len(ops) for _ in rounds),
        failed=len(failures),
        failures=failures[:10],
        latency=latency_ms(timed),
        round_wall_s=[r.wall_s for r in timed],
        degree_cache_hit_ratio=hits / (hits + misses) if hits + misses else None,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
