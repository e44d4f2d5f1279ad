"""One timed pass over an in-process workload list, in a fresh interpreter.

Usage: python3 perfbench/worker.py <growth|orbits|census> <seed> <trace 0|1>

Prints one JSON line: the pass's times, per-operation latencies, work done,
the worker's own peak memory, the observations the oracle checks and, when
traced, the tracer's summary.  The parent process (``run.py``) does all
checking and statistics.
"""

import json
import sys

import workloads
from cli_child import own_peak_rss_mb


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        report = workloads.run_in_process(workload, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report["peak_rss_mb"] = own_peak_rss_mb()
    report["trace"] = tracer.summary() if tracer is not None else None
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
