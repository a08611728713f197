"""Run one sytknap command with the tracer installed, for the traced run of
the cli workload.

    python3 benchmarks/traced_cli.py TRACE.json <sytknap arguments>

Stdout and the exit status are the command's own.  The command's spans,
per-layer self times, layer counters and degree-cache counters go to
TRACE.json.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sytknap_bench import use_checkout_source  # noqa: E402
from sytknap_bench.tracer import Tracer, self_times  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    use_checkout_source()
    import sytknap.cli
    from sytknap import degrees

    tracer = Tracer()
    tracer.install()
    tracer.start_op(0)
    try:
        code = sytknap.cli.main(argv)
    finally:
        tracer.stop_op()
        sys.stdout.flush()
    spans, counters = tracer.take()
    layer_self, top = self_times(spans)
    info = degrees._degree.cache_info()
    with open(trace_path, "w") as fh:
        json.dump({"self": layer_self, "top_s": top, "counters": counters,
                   "cache": [info.hits, info.misses], "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
