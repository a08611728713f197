"""Tests of the benchmark harness itself (not of sytknap).

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sytknap_bench import BENCH_DIR, LAYERS, ROOT, use_checkout_source  # noqa: E402

use_checkout_source()

from sytknap import identities  # noqa: E402
from sytknap_bench import client  # noqa: E402
from sytknap_bench.checks import SecondRoute, check_reports, frobenius_degree  # noqa: E402
from sytknap_bench.tracer import COUNTERS, NO_PARENT, Tracer, self_times  # noqa: E402
from sytknap_bench.workloads import WORKLOADS, Op, Workload  # noqa: E402

# Every metric the benchmark promises, with the unit it is reported in.
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTERS},
    "degrees.cache_hits": "count",
    "degrees.cache_misses": "count",
    "degrees.hit_ratio": "ratio",
    "render.bytes": "bytes",
    "cli.startup_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.exit_nonzero": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_schema_names_every_metric_with_its_unit():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_client_produces_every_metric_run_py_does_not_add():
    rnd = client.Round(wall_s=1.0, latencies=[0.1 * i for i in range(1, 11)])
    e2e = client.end_to_end(WORKLOADS["verify-sweep"], [rnd])
    assert set(e2e) == set(END_TO_END) - {"setup_s"}
    layers = client.per_layer([rnd], [rnd])
    assert set(layers) == set(PER_LAYER) - {"cli.startup_s"}


def test_latency_percentiles_need_100_samples():
    few = client.Round(latencies=[0.001 * i for i in range(1, 100)])
    assert client.latency_ms([few]) == {"op_samples": 99, "op_p50_ms": None, "op_p90_ms": None}
    enough = client.latency_ms([few, client.Round(latencies=[0.1])])
    assert enough["op_samples"] == 100
    assert enough["op_p50_ms"] == pytest.approx(50.5)
    assert 89 < enough["op_p90_ms"] < 92


def test_seed_fixes_the_op_list():
    for workload in WORKLOADS.values():
        assert workload.make_ops(7) == workload.make_ops(7)
    sweep = WORKLOADS["verify-sweep"]
    assert sweep.make_ops(7) != sweep.make_ops(8)
    assert len(sweep.make_ops(7)) >= 100  # enough ops for a p90


def test_second_route_agrees_with_hook_lengths():
    from sytknap import degree

    route = SecondRoute()
    for shape in [(5,), (4, 3, 1), (3, 3, 1, 1, 1), (4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 5, 5, 2, 2, 1)]:
        assert route(shape) == degree(shape) == frobenius_degree(shape)


def test_wrong_value_is_a_failed_check():
    good = identities.verify_knapsack(20, 4)[0]
    term = good.terms[0]
    bad = identities.Report(good.id, good.params, [term.__class__(term.side, term.sign, term.shape, term.value + 1)]
                            + good.terms[1:])
    route = SecondRoute()
    assert check_reports([good], route) is None
    assert check_reports([bad], route) is not None


def _run(workload, ops, ctx, **kwargs):
    return client.run_round(workload, ops, ctx, time.perf_counter() + 60, **kwargs)


def test_wrong_digest_counts_as_failed():
    workload = WORKLOADS["search-full"]
    ops = [Op("search", (6, ("3part", "fathook"), 4)), Op("search", (7, ("3part", "fathook"), 4))]
    ctx = workload.prepare(ops)
    assert _run(workload, ops, ctx).failures == []
    ctx["digests"] = {key: "0" * 64 for key in ctx["digests"]}
    assert len(_run(workload, ops, ctx).failures) == 2


def test_wrong_cli_output_counts_as_failed():
    workload = WORKLOADS["cli"]
    ops = [Op("cli", ("degree", "--shape", "5,5,1^10"))]
    ctx = workload.prepare(ops)
    assert _run(workload, ops, ctx).failures == []
    ctx[ops[0]] = lambda out: None if out == b"5005\n" else "not 5005"
    rnd = _run(workload, ops, ctx)
    assert len(rnd.failures) == 1 and rnd.exit_nonzero == 0


class _Sleeper(Workload):
    name = "sleeper"

    def execute(self, op, ctx):
        time.sleep(op.args[0])

    def check(self, op, result, ctx):
        return None


def test_an_op_past_its_cap_fails_and_the_round_ends():
    ops = [Op("sleep", (5.0,)), Op("sleep", (0.0,))]
    start = time.perf_counter()
    rnd = client.run_round(_Sleeper(), ops, None, time.perf_counter() + 0.3)
    assert time.perf_counter() - start < 2
    assert len(rnd.failures) == 2  # one hit the cap, one never started
    assert "cap" in rnd.failures[0][1]


def test_self_times_of_nested_spans():
    spans = [
        ("a", "identities", 0.0, 10.0, NO_PARENT, 0),
        ("b", "degrees", 1.0, 4.0, 0, 0),
        ("c", "partitions", 2.0, 3.0, 1, 0),
        ("d", "partitions", 5.0, 6.0, 0, 0),
        ("e", "search", 20.0, 22.0, NO_PARENT, 1),
    ]
    per_layer, top = self_times(spans)
    assert top == 12.0
    assert per_layer["identities"] == 6.0
    assert per_layer["degrees"] == 2.0
    assert per_layer["partitions"] == 2.0
    assert per_layer["search"] == 2.0
    assert sum(per_layer.values()) == top


def test_traced_self_times_add_up_to_wall():
    workload = WORKLOADS["verify-sweep"]
    ops = [Op("knapsack", (40, k)) for k in range(21)] + [Op("riordan", (30,)), Op("catalan-pair", (6,))]
    ctx = workload.prepare(ops)
    from sytknap import degrees

    original = degrees.degree
    tracer = Tracer()
    tracer.install()
    try:
        assert degrees.degree is not original
        traced = _run(workload, ops, ctx, tracer=tracer)
    finally:
        tracer.uninstall()
    assert degrees.degree is original
    assert traced.failures == []
    assert min(traced.layer_self.values()) >= 0
    assert traced.layer_self["degrees"] > 0 and traced.layer_self["partitions"] > 0
    # knapsack: two reports per k; riordan(30): k = 0, 2, ..., 14 plus the total
    assert traced.counters["identities.reports"] == 2 * 21 + (8 + 1) + 1
    untraced = _run(workload, ops, ctx)
    layers = client.per_layer([untraced], [traced])
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["trace.unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert 0 <= layers["trace.unattributed_s"] < layers["trace.wall_s"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
