"""taglab benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <growth|orbits|census|cli> \
        --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it prints the per-layer metrics of one traced pass, plus the
tracing overhead against untraced passes of the same run.  Metric names and
units come from ``BENCHMARK.json``.  The program under test is the source
tree in ``src/``; nothing needs to be installed.  The last line of standard
output is the JSON result; the lines before it describe the environment
(``env``), give the raw wall-time medians behind ``wall_s`` and ``setup_s``
(``raw``, untraced runs only) and list every metric in readable form.  Load shape: a closed loop with one
client, one process doing work at a time, no threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import merge

SETUP_IMPORTS = 20  # fresh `import taglab` interpreters timed for setup_s
START_PROBES = 5  # repeats of each process start-up probe in a traced run
IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies, and the maximum is
    reported as percentile 100.
    """
    xs = sorted(samples)
    if len(xs) >= 11:
        k = len(xs) - 11
        return xs[k], 100.0 * (k + 1) / len(xs)
    return xs[-1], 100.0


def time_process(argv: list[str], repeats: int,
                 clock: speed.StartUpClock) -> tuple[list[float], list[float], list[str]]:
    """Reference and raw seconds of ``repeats`` fresh processes, and their stderr."""
    times, raws, errs = [], [], []
    for _ in range(repeats):
        ref_s, raw_s, proc = clock.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                       timeout=workloads.CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}")
        times.append(ref_s)
        raws.append(raw_s)
        errs.append(proc.stderr.decode("utf-8", "replace"))
    return times, raws, errs


def setup_seconds() -> tuple[list[float], list[float]]:
    """Reference and raw seconds of fresh interpreters importing taglab; one
    untimed run first writes the bytecode caches."""
    argv = [sys.executable, "-c", "import taglab"]
    clock = workloads.start_up_clock()
    time_process(argv, 1, clock)
    return time_process(argv, SETUP_IMPORTS, clock)[:2]


def start_up_layer() -> dict:
    """Interpreter, import and per-module import times (``-X importtime``), in ms.

    The bare interpreter time is raw (it is the start-up clock's own probe).
    Module import times are the cumulative column, measured inside the child
    and scaled by that child's reference factor.
    """
    clock = workloads.start_up_clock()
    full, _, _ = time_process([sys.executable, "-c", "import taglab"], START_PROBES, clock)
    refs, raws, errs = time_process([sys.executable, "-X", "importtime", "-c",
                                     "import taglab.cli"], START_PROBES, clock)
    per_module: dict[str, list[float]] = {}
    for ref_s, raw_s, text in zip(refs, raws, errs):
        for _self_us, cumulative_us, module in IMPORTTIME.findall(text):
            if module == "taglab" or module.startswith("taglab."):
                per_module.setdefault(module, []).append(int(cumulative_us) / 1000
                                                         * ref_s / raw_s)
    out = {"cli.interpreter_ms": median(clock.bares) * 1000,
           "cli.import_ms": median(full) * 1000}
    for module, values in per_module.items():
        out[f"import.{module}_ms"] = median(values)
    return out


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "taglab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "commit": git_commit(), "source_sha256": digest.hexdigest(),
        "load": "closed loop, one client, one process working at a time, no threads",
    }


class Run:
    """Repeats a workload's list, checks every pass against the oracle."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.workdir = workload, workdir
        self.list_seeds = workloads.list_seeds(workload, seed)
        self.expected = {s: workloads.expected(workload, s) for s in self.list_seeds}
        self.attempted = 0
        self.failed = 0
        if workload == "cli":
            workloads.write_cli_inputs(workdir)

    def one_pass(self, list_seed: int, trace: bool) -> dict | None:
        expected = self.expected[list_seed]
        self.attempted += len(expected)
        try:
            if self.workload == "cli":
                report = workloads.run_cli_pass(list_seed, self.workdir, trace)
            else:
                report = workloads.run_worker(self.workload, list_seed, trace)
        except Exception:  # a crashed pass fails all of its operations; keep measuring
            traceback.print_exc()
            self.failed += len(expected)
            return None
        wrong = workloads.problems(report["observations"], expected)
        for line in wrong[:5]:
            print(f"oracle: {line}", file=sys.stderr)
        self.failed += len(wrong)
        report["list_seed"] = list_seed
        return report

    def repeat(self, seconds: float) -> list[dict]:
        """Untraced passes until ``seconds`` have passed, and at least one
        over each list; the passes take the lists in turn."""
        deadline = perf_counter() + seconds
        reports = []
        passes = 0
        while passes < len(self.list_seeds) or perf_counter() < deadline:
            list_seed = self.list_seeds[passes % len(self.list_seeds)]
            passes += 1
            report = self.one_pass(list_seed, trace=False)
            if report is None and not reports:
                break
            if report is not None:
                reports.append(report)
        return reports


def end_to_end(workload: str, setup: tuple[list[float], list[float]],
               reports: list[dict]) -> tuple[dict, dict, dict]:
    """(values, notes, raw): metric values, their table notes, and the raw
    wall-time medians of ``wall_s`` and ``setup_s`` (not reference seconds)."""
    op_s = [t for r in reports for t in r["op_s"]]
    setup_ref, setup_raw = setup
    by_list: dict[int, list[dict]] = {}
    for r in reports:
        by_list.setdefault(r["list_seed"], []).append(r)
    # Per list: (median pass time, raw median pass time, ops, work).  A run
    # over several lists sums them, so the mix of passes does not matter.
    lists = [(median([r["list_s"] for r in rs]), median([r["list_raw_s"] for r in rs]),
              len(rs[0]["op_s"]), rs[0]["work"]) for rs in by_list.values()]
    list_s = sum(x[0] for x in lists)
    raw = {"wall_s": sum(x[1] for x in lists) / len(lists), "setup_s": median(setup_raw)}
    if not op_s:  # every pass crashed; the result line reports the failures
        return dict.fromkeys(("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                              "work_per_s", "peak_rss_mb"), 0.0), {}, raw
    if min(len(r["op_s"]) for r in reports) >= 11:
        # Passes repeat the same inputs, so a pooled tail would be set by the
        # single slowest input, or by whichever operations a host hiccup hit.
        # The tail is taken over each list's distinct inputs instead, each
        # input's latency being its median over the passes that ran it; with
        # several lists, the mean over lists.
        tails = [tail([median(ts) for ts in zip(*(r["op_s"] for r in rs))])
                 for rs in by_list.values()]
        tail_s, tail_pct = sum(t for t, _ in tails) / len(tails), tails[0][1]
        tail_note = f"p{tail_pct:.2f} over the {len(reports[0]['op_s'])} distinct inputs " \
                    f"of a list, each the median of its passes ({len(reports)} passes " \
                    f"over {len(tails)} list(s))"
    else:
        tail_s, tail_pct = tail(op_s)
        tail_note = f"p{tail_pct:.1f} of {len(op_s)} samples pooled over the run"
    values = {
        "setup_s": median(setup_ref),
        "wall_s": list_s / len(lists),
        "ops_per_s": sum(x[2] for x in lists) / list_s,
        "op_p50_ms": median(op_s) * 1000,
        "op_tail_ms": tail_s * 1000,
        "work_per_s": sum(x[3] for x in lists) / list_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }
    notes = {
        "setup_s": f"median of {len(setup_ref)} fresh `import taglab` processes; "
                   f"raw {raw['setup_s']:.4f} s",
        "wall_s": f"{len(reports)} passes over {len(lists)} list(s): mean over lists of "
                  f"the median pass; raw {raw['wall_s']:.4f} s",
        "op_p50_ms": f"{len(op_s)} operation samples",
        "op_tail_ms": tail_note,
        "work_per_s": ("blocks examined per second" if workload == "census"
                       else "tag steps per second"),
        "peak_rss_mb": "median over passes of the largest own peak of a process in the pass",
    }
    return values, notes, raw


def per_layer(names: list[str], summary: dict, extras: dict, scale: float) -> dict:
    """Resolve ``<layer>.<function>.<stat>`` names against the trace summary.

    Span times are raw; ``scale`` (the traced pass's reference seconds per
    raw second) puts them in reference seconds like the end-to-end times.
    """
    values = {}
    for name in names:
        if name in extras:
            values[name] = extras[name]
            continue
        fn, _, stat = name.rpartition(".")
        entry = summary["functions"].get(fn, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                               "durations": []})
        distinct = summary["distinct"].get(fn, 0)
        if stat == "calls":
            values[name] = entry[stat]
        elif stat == "self_s":
            values[name] = entry[stat] * scale
        elif stat == "p50_us":
            values[name] = median(entry["durations"]) * 1e6 * scale
        elif stat == "distinct":
            values[name] = distinct
        elif stat == "distinct_ratio":
            values[name] = distinct / entry["calls"] if entry["calls"] else 0.0
        elif stat == "steps_per_s":
            steps = summary["counters"].get(f"{fn}.steps", 0)
            values[name] = steps / (entry["incl_s"] * scale) if entry["incl_s"] else 0.0
        else:
            values[name] = summary["counters"].get(name, 0)
    return values


def traced(run: Run, seconds: float, names: list[str]) -> dict:
    """Per-layer metrics: one traced pass over the first list, against
    untraced passes of this run (over the same list for the overhead)."""
    extras = start_up_layer()
    untraced = run.repeat(seconds / 2)
    report = run.one_pass(run.list_seeds[0], trace=True)
    if report is None:
        return {}
    summary = merge(report["summaries"] if run.workload == "cli" else [report["trace"]])
    extras["trace.spans"] = summary["spans"]
    same_list = [r["list_s"] for r in untraced if r["list_seed"] == run.list_seeds[0]]
    if same_list:
        extras["trace.overhead_ratio"] = report["list_s"] / median(same_list)
    if run.workload == "cli" and untraced:
        for label in untraced[0]["labels"]:
            extras[f"cli.{label}.p50_ms"] = 1000 * median(
                [t for r in untraced for t, lab in zip(r["op_s"], r["labels"]) if lab == label])
    return per_layer(names, summary, extras, report["list_s"] / report["list_raw_s"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = workloads.ROOT / "BENCHMARK.json"
    if not (workloads.SRC / "taglab" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a taglab checkout (src/taglab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    speed.pin_to_one_cpu()
    spec = json.loads(spec_path.read_text("utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    print("env " + json.dumps(environment(args), sort_keys=True))
    with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".perfbench-") as tmp:
        setup = ([], []) if args.trace else setup_seconds()
        run = Run(args.workload, args.seed, Path(tmp))
        if args.trace:
            values, notes = traced(run, args.seconds, list(units)), {}
        else:
            values, notes, raw = end_to_end(args.workload, setup, run.repeat(args.seconds))
            print("raw " + json.dumps(raw, sort_keys=True))
    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: no value for declared metrics {sorted(missing)}", file=sys.stderr)
        return 2
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {values[name]:>16.6f} {units[name]}{note}")
    failed_ratio = run.failed / run.attempted if run.attempted else 1.0
    if not args.trace:
        alias = "blocks_per_s" if args.workload == "census" else "steps_per_s"
        print(f"  {alias:40s} {values['work_per_s']:>16.6f} 1/s  (work_per_s)")
    print(f"  {'failed_ratio':40s} {failed_ratio:>16.6f}  ({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
