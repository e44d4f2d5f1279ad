"""The four workloads: inputs made from a seed, and one pass over each list.

A *list* is the workload's fixed sequence of operations for one seed; one
pass over it is one repetition.  growth, orbits and census run their list in
a fresh worker process per repetition (``worker.py``), so a cache inside
taglab can help within one pass, as it would for a user's run, but never
carries over from an earlier repetition of identical inputs.  cli starts a
fresh ``taglab`` process for every operation.  Only one process does work at
any time and none uses threads.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("growth", "orbits", "census", "cli")
ORBIT_WORDS = 3000
# Workloads whose passes take several seeded lists in turn.  The orbits
# inputs are random, so one list's total work differs from seed to seed by
# up to 13 %; a run over four lists averages that out.
LIST_COUNTS = {"orbits": 4}
ORBIT_LENGTHS = (8, 64)
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """Children import taglab from ``src/`` and keep bytecode caches, as an
    installed package would, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ------------------------------------------------------------------ inputs

def list_seeds(workload: str, seed: int) -> list[int]:
    """Seeds of the lists a run takes in turn: the run's seed itself, or
    ``count`` distinct seeds made from it."""
    count = LIST_COUNTS.get(workload, 1)
    return [seed] if count == 1 else [seed * count + k for k in range(count)]


def growth_cells(seed: int) -> list[tuple[int, int]]:
    """The whole (n, m) grid; the seed only sets the order the cells run in."""
    cells = [(n, m) for n in range(oracles.GROWTH_GRID) for m in range(oracles.GROWTH_GRID)]
    random.Random(seed).shuffle(cells)
    return cells


def orbit_words(seed: int) -> list[str]:
    """Random bits; every length in ORBIT_LENGTHS equally often.

    Fixed lengths keep the mix of halting, cycling and exhausted runs from
    drifting with the seed: run lengths come in discrete clusters (Brent
    detection steps), so a drifting mix moves the median latency between
    clusters.
    """
    rng = random.Random(seed)
    low, high = ORBIT_LENGTHS
    lengths = [low + i % (high - low + 1) for i in range(ORBIT_WORDS)]
    return ["".join(rng.choice("01") for _ in range(length)) for length in lengths]


def cli_choices(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "flip": rng.randrange(oracles.LEN_A),
        "seed_x": rng.choice((1, 2)),
        "row": "".join(rng.choice("01uvw") for _ in range(rng.randint(5, 7))),
        "tokens": "".join(rng.choice("ZO") for _ in range(rng.randint(6, 12))),
    }


def expected(workload: str, seed: int) -> list:
    """The oracle's observations for one pass, in list order."""
    if workload == "growth":
        return oracles.expected_growth(growth_cells(seed))
    if workload == "orbits":
        return oracles.expected_orbits(orbit_words(seed))
    if workload == "census":
        return oracles.expected_census()
    choices = cli_choices(seed)
    table = oracles.expected_cli(choices["row"], choices["tokens"])
    return [table[label] for label, _, _ in cli_commands(seed, Path("."))]


def problems(observed: list, wanted: list) -> list[str]:
    """One line per operation whose observation differs from the oracle's."""
    if len(observed) != len(wanted):
        return [f"{len(observed)} observations, expected {len(wanted)}"]
    return [f"op {i}: got {got!r:.120}, expected {want!r:.120}"
            for i, (got, want) in enumerate(zip(observed, wanted)) if got != want]


# ------------------------------------------------- in-process lists (worker)

def run_in_process(workload: str, seed: int) -> dict:
    """One timed pass, with the speed sampler running alongside.

    Times are reported in reference seconds (see ``speed``); ``list_raw_s``
    is the plain wall time of the pass.  Op latencies exclude building the
    observations.
    """
    from taglab import blocks, certify, core

    spans: list[tuple[float, float]] = []
    sampler = speed.Sampler()
    if workload == "growth":
        cells = growth_cells(seed)
        outcomes = []
        with sampler.alarm():
            start = perf_counter()
            chain = certify.verify_chain(certify.seed_quadruplet())
            for n, m in cells:
                t0 = perf_counter()
                outcome = certify.direct_growth_check(n, m)
                spans.append((t0, perf_counter()))
                outcomes.append(outcome)
            end = perf_counter()
        predicted = [certify.total_pass_iterations(chain, n, m) for n, m in cells]
        observations = [["chain", chain.valid,
                         oracles.sha256(certify.render_certificate(chain))]]
        observations += [[o.kind.value, o.steps_taken, len(o.final), p]
                         for o, p in zip(outcomes, predicted)]
        work = sum(o.steps_taken for o in outcomes)
    elif workload == "orbits":
        words = orbit_words(seed)
        outcomes = []
        with sampler.alarm():
            start = perf_counter()
            for word in words:
                t0 = perf_counter()
                outcome = core.run(word, budget=oracles.ORBIT_BUDGET)
                spans.append((t0, perf_counter()))
                outcomes.append(outcome)
            end = perf_counter()
        observations = [[o.kind.value, o.steps_taken, o.final, o.cycle_length] for o in outcomes]
        work = sum(o.steps_taken for o in outcomes)
    elif workload == "census":
        max_rows, budget, threads, max_suffix = oracles.CENSUS_ARGS
        with sampler.alarm():
            start = perf_counter()
            result = blocks.search(max_rows, budget, threads, max_suffix)
            document = blocks.render_search_results(result, max_rows, budget, max_suffix)
            end = perf_counter()
        spans.append((start, end))
        observations = [[oracles.sha256(document), result.examined,
                         result.skipped_duplicates, len(result.hits)]]
        work = result.examined
    else:
        raise ValueError(f"no in-process list for workload {workload!r}")
    return {"list_s": sampler.reference(start, end), "list_raw_s": end - start,
            "op_s": [sampler.reference(t0, t1) for t0, t1 in spans],
            "work": work, "observations": observations}


def start_up_clock() -> speed.StartUpClock:
    """A clock for child processes that run as the benchmark's children do."""
    return speed.StartUpClock(child_env(), ROOT)


def run_worker(workload: str, seed: int, trace: bool) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode("ascii").splitlines()[-1])


# --------------------------------------------------------------- cli list

def cli_commands(seed: int, workdir: Path) -> list[tuple[str, list[str], Path | None]]:
    """(label, argv after ``taglab``, file whose digest is checked) per op."""
    c = cli_choices(seed)
    cert, bad = workdir / "cert.txt", workdir / "bad.txt"
    return [
        ("simulate", ["simulate", "--word", f"@{workdir / 'b.txt'}",
                      "--target", f"@{workdir / 'abc.txt'}", "--budget", "20000"], None),
        ("verify_omega_emit", ["verify-omega", "--emit", str(cert)], cert),
        ("verify_omega_check", ["verify-omega", "--check", str(cert)], None),
        ("verify_omega_flip_a", ["verify-omega", "--flip-a", str(c["flip"]),
                                 "--emit", str(bad)], None),
        ("verify_omega_seed_x", ["verify-omega", "--seed-x", str(c["seed_x"]),
                                 "--emit", str(bad)], None),
        ("blockset", ["blockset", c["row"]], None),
        ("decode", ["decode", c["tokens"]], None),
        ("verify_theorem", ["verify-theorem", *map(str, oracles.SMALL_THEOREM), "200000"], None),
        ("block_search", ["block-search", *oracles.SMALL_SEARCH_ARGS], None),
    ]


def write_cli_inputs(workdir: Path) -> None:
    """The simulate op reads B and its target A B C from files (the @path form)."""
    from taglab import words
    (workdir / "b.txt").write_text(words.B + "\n", "ascii")
    (workdir / "abc.txt").write_text(words.A + words.B + words.C + "\n", "ascii")


def run_cli_pass(seed: int, workdir: Path, trace: bool) -> dict:
    """Start one taglab process per command, one at a time (closed loop, one client).

    Each command runs through ``cli_child.py``, which calls
    ``taglab.cli.main`` as the console script does and reports the process's
    own peak memory (and, when traced, the tracer's summary).  Times are
    scaled by the bare start-ups around each process (``speed.StartUpClock``).
    """
    op_s, observations, labels, summaries, peaks = [], [], [], [], []
    clock = start_up_clock()
    list_s = list_raw_s = 0.0
    report = workdir / "child-report"
    for label, args, digest_file in cli_commands(seed, workdir):
        argv = [sys.executable, str(BENCH / "cli_child.py"), str(report), str(int(trace)), *args]
        if digest_file is not None:
            digest_file.unlink(missing_ok=True)
        ref_s, raw_s, proc = clock.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                       timeout=CHILD_TIMEOUT_S)
        op_s.append(ref_s)
        list_s += ref_s
        list_raw_s += raw_s
        labels.append(label)
        file_digest = None
        if digest_file is not None and digest_file.is_file():
            file_digest = oracles.sha256(digest_file.read_text("ascii"))
        observations.append([proc.returncode, oracles.sha256(proc.stdout.decode("ascii")),
                             file_digest])
        peak, *summary = report.read_text("ascii").splitlines()
        peaks.append(float(peak))
        if trace:
            summaries.append(json.loads(summary[0]))
    return {"list_s": list_s, "list_raw_s": list_raw_s, "op_s": op_s,
            "work": oracles.cli_steps(), "peak_rss_mb": max(peaks),
            "observations": observations, "labels": labels, "summaries": summaries}
