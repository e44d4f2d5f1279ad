"""Checks of the benchmark itself: every oracle agrees with taglab at this
commit and fires when its expectation is corrupted.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def corrupt(expected, op, field, value):
    out = [list(entry) for entry in expected]
    out[op][field] = value
    return out


def test_growth_oracle_fires_on_a_wrong_step_count():
    report = workloads.run_in_process("growth", seed=3)
    wanted = workloads.expected("growth", 3)
    assert workloads.problems(report["observations"], wanted) == []
    assert report["work"] == oracles.GROWTH_TOTAL_STEPS
    wrong = corrupt(wanted, 7, 1, wanted[7][1] + 1)
    assert len(workloads.problems(report["observations"], wrong)) == 1
    wrong_chain = corrupt(wanted, 0, 2, "0" * 64)
    assert len(workloads.problems(report["observations"], wrong_chain)) == 1


def test_orbit_oracle_fires_on_wrong_steps_and_cycle_length(monkeypatch):
    monkeypatch.setattr(workloads, "ORBIT_WORDS", 300)
    report = workloads.run_in_process("orbits", seed=5)
    wanted = workloads.expected("orbits", 5)
    assert workloads.problems(report["observations"], wanted) == []
    cycled = next(i for i, entry in enumerate(wanted) if entry[0] == "Cycled")
    assert workloads.problems(report["observations"], corrupt(wanted, cycled, 1, 0))
    assert workloads.problems(report["observations"], corrupt(wanted, cycled, 3, 1))


def test_orbit_runs_take_distinct_lists_per_seed():
    seeds = [s for seed in (1, 2, 3) for s in workloads.list_seeds("orbits", seed)]
    assert len(set(seeds)) == len(seeds) == 3 * workloads.LIST_COUNTS["orbits"]
    assert workloads.list_seeds("census", 7) == [7]


def test_start_up_clock_brackets_each_child_with_bare_start_ups():
    import speed
    clock = workloads.start_up_clock()
    ref_s, raw_s, proc = clock.run([sys.executable, "-c", "raise SystemExit(3)"])
    assert proc.returncode == 3 and len(clock.bares) == 2
    assert ref_s == pytest.approx(raw_s * speed.BARE_REF_S / (sum(clock.bares) / 2))
    clock.run([sys.executable, "-c", "pass"])
    assert len(clock.bares) == 3


def test_reference_orbit_reproduces_the_documented_cycle():
    kind, steps, final, period = oracles.reference_orbit("100100100", budget=1_000_000)
    assert (kind, steps, len(final), period) == ("Cycled", 21, 16, 6)
    assert oracles.reference_orbit("10", budget=5)[:2] == ("Halted", 0)


def test_census_oracle_fires_on_a_wrong_digest():
    report = workloads.run_in_process("census", seed=0)
    wanted = workloads.expected("census", 0)
    assert workloads.problems(report["observations"], wanted) == []
    assert workloads.problems(report["observations"], corrupt(wanted, 0, 0, "0" * 64))
    assert workloads.problems(report["observations"], corrupt(wanted, 0, 2, 1148))


def test_cli_oracle_fires_on_wrong_exit_code_and_output(tmp_path):
    workloads.write_cli_inputs(tmp_path)
    report = workloads.run_cli_pass(11, tmp_path, trace=False)
    wanted = workloads.expected("cli", 11)
    assert workloads.problems(report["observations"], wanted) == []
    flip = report["labels"].index("verify_omega_flip_a")
    assert workloads.problems(report["observations"], corrupt(wanted, flip, 0, 0))
    emit = report["labels"].index("verify_omega_emit")
    assert workloads.problems(report["observations"], corrupt(wanted, emit, 2, "0" * 64))


@pytest.mark.parametrize("word", ["0", "1w", "0000", "01ww0", "w0v1u", "1uu0ww", "vv0uu1w"])
def test_brute_force_converting_set_agrees_with_taglab(word):
    from taglab import blocks
    assert oracles.brute_converting_set(word) == blocks.converting_set(word)


def test_tail_keeps_ten_samples_beyond_the_percentile():
    value, pct = run.tail([float(i) for i in range(110)])
    assert value == 99.0 and sum(1 for i in range(110) if i > value) == 10
    assert pct == pytest.approx(100 * 100 / 110)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_rebinds_reimported_names_and_restores_them():
    from taglab import algebra, certify, core
    original_run, original_pass = core.run, algebra.pass_output
    tracer = Tracer().install()
    try:
        assert certify.run is core.run is not original_run
        assert certify.pass_output is algebra.pass_output is not original_pass
        certify.direct_growth_check(0, 0)
    finally:
        tracer.uninstall()
    assert certify.run is core.run is original_run
    assert certify.pass_output is original_pass
    summary = tracer.summary()
    growth, inner = summary["functions"]["certify.direct_growth_check"], \
        summary["functions"]["core.run"]
    assert summary["counters"]["core.run.steps"] == oracles.growth_steps(0, 0)
    assert growth["self_s"] == pytest.approx(growth["incl_s"] - inner["incl_s"])
