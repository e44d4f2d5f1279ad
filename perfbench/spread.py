"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads growth orbits --seeds 1-10 \
        [--seconds 20] [--out spread.json]

Runs ``run.py`` once per workload and seed, one run at a time, and reports
for every metric the median and the quartile spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  It does the same for the raw wall-time medians behind
``wall_s`` and ``setup_s`` (``raw.wall_s``, ``raw.setup_s``), which show how
much the reference-seconds scaling removes.  ``--out`` writes the raw values, the summary and the
environment as JSON (``baseline.json`` is such a file).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import git_commit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(metric values, raw wall-time medians) of one untraced run."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=600, check=True)
    lines = proc.stdout.decode("ascii").splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} operations failed")
    raw = json.loads(next(line for line in lines if line.startswith("raw "))[4:])
    return {name: m["value"] for name, m in result["metrics"].items()}, raw


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs, raws = zip(*(one_run(workload, seed, seconds) for seed in args.seeds))
        report[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            stats = summarize(values)
            report[workload][name] = {**stats, "values": values}
            flag = "" if stats["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:7s} {name:12s} median {stats['median']:14.6f}  "
                  f"spread {stats['spread']:.4f}  bound {bound}{flag}", flush=True)
        for name in raws[0]:
            values = [r[name] for r in raws]
            stats = summarize(values)
            report[workload][f"raw.{name}"] = {**stats, "values": values}
            print(f"{workload:7s} raw.{name:8s} median {stats['median']:14.6f}  "
                  f"spread {stats['spread']:.4f}  (raw wall time, no bound)", flush=True)
    if args.out:
        env = {"seeds": args.seeds, "seconds": seconds, "nproc": os.cpu_count(),
               "python": platform.python_version(), "platform": platform.platform(),
               "commit": git_commit()}
        args.out.write_text(json.dumps({"env": env, "workloads": report}, indent=1) + "\n",
                            "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
