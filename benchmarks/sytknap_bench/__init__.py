"""Benchmark harness for sytknap: seeded workloads, output checks and an
outside-in per-module tracer.  See benchmarks/README.md for usage."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The package's modules, bottom layer first.  Each is one traced layer.
LAYERS = (
    "partitions",
    "degrees",
    "paths",
    "polynomials",
    "certificates",
    "identities",
    "search",
    "render",
    "cli",
)


def have_checkout_source() -> bool:
    return os.path.isfile(os.path.join(SRC, "sytknap", "__init__.py"))


def use_checkout_source() -> None:
    """Import sytknap from this checkout's src/, never from an installed copy."""
    if not have_checkout_source():
        raise SystemExit(f"error: no sytknap sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def checkout_env() -> dict:
    """Environment for child interpreters that must import this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
