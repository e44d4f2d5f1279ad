"""Simulation engine: steps, runs, cycle detection, token round trips."""

import copy
import functools
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, stateful, strategies as st

from taglab import core, words
from taglab.core import (
    _PREFIX,
    DEFAULT_PRODUCTION,
    _expand,
    _first_match,
    NotTokenizable,
    OutcomeKind,
    RunOutcome,
    WordTooShort,
    check_word,
    decode_tokens,
    encode_tokens,
    run,
)

from reference import reference_encode, reference_first_match, step

binary_words = st.text(alphabet="01")


def reference_run(word, *, budget, target=None):
    """Oracle for ``run``: the same Brent schedule, one ``step`` at a time."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    check_word(word)
    if target is not None:
        check_word(target)
    saved = word
    saved_step = 0
    window = 1
    steps = 0
    while True:
        if target is not None and word == target:
            return RunOutcome(OutcomeKind.TARGET_REACHED, steps, word)
        if len(word) < 3:
            return RunOutcome(OutcomeKind.HALTED, steps, word)
        if steps == budget:
            return RunOutcome(OutcomeKind.BUDGET_EXHAUSTED, steps, word)
        word = step(word)
        steps += 1
        if word == saved:
            return RunOutcome(OutcomeKind.CYCLED, steps, word, cycle_length=steps - saved_step)
        if steps - saved_step == window:
            saved = word
            saved_step = steps
            window *= 2


def orbit_word(word, depth):
    """The configuration ``depth`` steps after ``word``, or the halted word before it."""
    for _ in range(depth):
        if len(word) < 3:
            break
        word = step(word)
    return word


def hash_trace(word, limit=10**6):
    """Independent cycle oracle: remember every configuration until one
    repeats, and return ``(mu, period)``, the first step on the cycle and its
    length, or ``None`` if the word halts or ``limit`` steps pass first."""
    seen = {}
    steps = 0
    while word not in seen and len(word) >= 3 and steps < limit:
        seen[word] = steps
        word = step(word)
        steps += 1
    if word in seen:
        return seen[word], steps - seen[word]
    return None


def hash_trace_cycle(word, limit=10**6):
    """The period that ``hash_trace`` finds, or ``None``."""
    shape = hash_trace(word, limit)
    return None if shape is None else shape[1]


def brent_detection(mu, period):
    """The step at which ``run``'s snapshots see a cycle close: the snapshot
    after step ``window - 1`` is the first on the cycle with a window that
    holds a whole period."""
    window = 1
    while window - 1 < mu or window < period:
        window *= 2
    return window - 1 + period


def forget_table():
    """Empty ``run``'s table of words with a known future."""
    core._TABLE.clear()
    core._held = 0


@pytest.fixture(autouse=True)
def cold_table():
    """Every test starts from an empty table, whatever ran before it."""
    forget_table()


def table_entries():
    """Every ``(word, (ring, at, dist))`` in the table."""
    return [item for table in core._TABLE.values() for item in table.items()]


def known_rings():
    """The distinct cycles in the table, from the entries of their words."""
    rings = {}
    for _, (ring, _, dist) in table_entries():
        if ring is not None and not dist:
            rings[id(ring)] = ring
    return list(rings.values())


def words_up_to(length):
    """Every binary word of at most ``length`` symbols, shortest first."""
    return ["".join(symbols) for n in range(length + 1)
            for symbols in itertools.product("01", repeat=n)]


def orbit_like_words(seed, count):
    """Random words of 8-64 symbols, as the orbits benchmark draws them."""
    rng = random.Random(seed)
    return ["".join(rng.choices("01", k=rng.randint(8, 64))) for _ in range(count)]


def test_step_on_zero_word():
    assert step("0000") == "000"


def test_step_on_production_of_one():
    assert step("1101") == "11101"


def test_step_requires_three_symbols():
    with pytest.raises(WordTooShort):
        step("01")


def test_step_rejects_non_binary():
    with pytest.raises(ValueError):
        step("0a0")


@pytest.mark.parametrize("word", ["012", "01 ", "01\u00e90", "2", "0\n1"])
def test_check_word_rejects_other_symbols(word):
    with pytest.raises(ValueError, match="not a binary word, unexpected symbols"):
        check_word(word)


def test_check_word_names_the_unexpected_symbols():
    with pytest.raises(ValueError) as info:
        check_word("0a1b0a")
    assert str(info.value) == "not a binary word, unexpected symbols ['a', 'b']"


@pytest.mark.parametrize("word", ["", "0", "1", "0110100"])
def test_check_word_returns_binary_words(word):
    assert check_word(word) is word


def test_ten_thousand_steps_from_b_give_abc():
    outcome = run(words.B, budget=10444)
    assert outcome.kind is OutcomeKind.BUDGET_EXHAUSTED
    assert outcome.final == words.A + words.B + words.C


@given(binary_words.filter(lambda w: len(w) >= 3))
def test_step_length_law(word):
    grown = 2 if word[0] == "0" else 4
    assert len(step(word)) == len(word) - 3 + grown


@given(binary_words.filter(lambda w: len(w) >= 3), st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_run_final_agrees_with_pure_step(word, budget):
    outcome = run(word, budget=budget)
    replay = word
    for _ in range(outcome.steps_taken):
        replay = step(replay)
    assert outcome.final == replay


def test_run_long_budget_keeps_content():
    # 20000 steps from B cross many chunks of several hundred steps each
    replay = words.B
    for _ in range(20000):
        replay = step(replay)
    outcome = run(words.B, budget=20000)
    assert outcome.kind is OutcomeKind.BUDGET_EXHAUSTED
    assert outcome.final == replay


@st.composite
def run_cases(draw):
    """A word, a budget and a target: on the word's orbit, perturbed, or arbitrary."""
    word = draw(st.text(alphabet="01", max_size=80))
    budget = draw(st.integers(1, 5000))
    kind = draw(st.sampled_from(
        ["orbit", "refresh", "flipped", "tail-flipped", "off-grid", "periodic", "arbitrary",
         "none"]))
    if kind == "periodic":
        # a repeated block puts the target's prefix at many aligned positions
        block = draw(st.text(alphabet="01", min_size=1, max_size=7))
        word = (block * 400)[:draw(st.integers(60, 400))]
        kind = draw(st.sampled_from(["orbit", "flipped", "tail-flipped", "off-grid"]))
    if kind == "none":
        return word, budget, None
    if kind == "arbitrary":
        return word, budget, draw(st.text(alphabet="01", max_size=80))
    if kind == "refresh":
        # snapshot refreshes happen after 2**e - 1 steps
        depth = 2 ** draw(st.integers(0, 12)) - 1 + draw(st.integers(-1, 1))
    else:
        depth = draw(st.integers(0, budget))
    target = orbit_word(word, max(depth, 0))
    if kind == "flipped" and target:
        target = flip(target, draw(st.integers(0, len(target) - 1)))
    if kind == "tail-flipped":
        # a symbol outside the every-third-symbol prefix that the chunk's
        # view is searched for, so only the full compare can reject it
        outside = [i for i in range(len(target)) if i % 3 or i >= 3 * _PREFIX]
        if outside:
            target = flip(target, draw(st.sampled_from(outside)))
    if kind == "off-grid" and len(target) >= 3:
        target = off_grid(target, draw(st.integers(1, 2)))
    return word, budget, target


def flip(word, i):
    """``word`` with its symbol at index ``i`` inverted."""
    return word[:i] + "10"[int(word[i])] + word[i + 1:]


def off_grid(word, shift):
    """The word read ``shift`` symbols to the right of ``word`` in the chunk
    that steps it, so it occurs there at a position that is not a step."""
    return (word + DEFAULT_PRODUCTION[word[0]])[shift:shift + len(word)]


@given(run_cases())
@settings(max_examples=300, deadline=None)
def test_run_agrees_with_reference_run(case):
    word, budget, target = case
    assert run(word, budget=budget, target=target) == reference_run(
        word, budget=budget, target=target
    )


# Cases that random words rarely reach.  In the periodic words the target's
# prefix occurs at step after step, to be rejected by length or by the full
# compare.  An off-grid target occurs in the chunk between two steps; a
# run of zeros puts a prefix hit just before a real match; the cycle of
# 001101 closes at the last step of a chunk of k steps that starts exactly
# k symbols away from the snapshot's length, and that of (0001001)^21 closes
# at the last step of a chunk, where a snapshot longer than 3 * _PREFIX needs
# the chunk's view to reach _PREFIX steps past it; (001101)^18 takes its
# snapshot at step 1 inside its first chunk and finds the cycle there, and
# 00011000110011 finds it in the chunk after the one that took the snapshot
# at step 31, whose length (13) is within reach where the previous
# snapshot's (9) is not.
PINNED_RUNS = [
    ("0" * 3000, "0" * 1000, 5000),
    ("0" * 3000, "0" * 999 + "1", 5000),
    ("100000" * 60, flip("100000" * 60, -1), 3000),
    ("100000" * 60, flip(orbit_word("100000" * 60, 90), -1), 3000),
    ("100000" * 60, orbit_word("100000" * 60, 90), 3000),
    ("110" * 100, flip(orbit_word("110" * 100, 40), 40), 3000),
    ("01" * 45, off_grid(orbit_word("01" * 45, 29), 2), 1000),
    ("1001110100000101001110101100101001100100010010111111011", "0" * 9, 1000),
    ("001101", None, 100),
    ("001101" * 18, None, 100),
    ("0001001" * 21, None, 200),
    ("00011000110011", None, 1000),
]


@pytest.mark.parametrize("word, target, budget", PINNED_RUNS)
def test_run_agrees_with_reference_run_on_pinned_cases(word, target, budget):
    assert run(word, budget=budget, target=target) == reference_run(
        word, budget=budget, target=target
    )


def test_run_agrees_with_reference_run_on_every_short_word(monkeypatch):
    # the orbits regime, exhaustively: quick halts and short cycles whose
    # snapshot is replaced after steps 1, 3, 7, ... before they close; first
    # from an empty table of known cycles, then again with every cycle known,
    # when no run may detect a cycle step by step, so each cycling word jumps
    short = words_up_to(12)

    def detected_again(word, period):
        raise AssertionError(f"cycle of {word} detected step by step")

    for budget in (1, 5, 37, 2000):
        forget_table()
        expected = [reference_run(word, budget=budget) for word in short]
        assert [run(word, budget=budget) for word in short] == expected
        assert known_rings() or budget < 7
        with monkeypatch.context() as patch:
            patch.setattr(core, "_remember", detected_again)
            assert [run(word, budget=budget) for word in short] == expected


def test_expand_matches_productions_on_every_short_word():
    # each symbol's byte code is pinned to its production, not only to the table
    assert (_expand(""), _expand("0"), _expand("1")) == ("", "00", "1101")
    for length in range(13):
        for symbols in itertools.product("01", repeat=length):
            sample = "".join(symbols)
            assert _expand(sample) == "".join(DEFAULT_PRODUCTION[c] for c in sample)


@given(st.integers(0, 4000).flatmap(lambda n: st.text(alphabet="01", min_size=n, max_size=n)))
@settings(max_examples=100, deadline=None)
def test_expand_matches_productions_on_long_samples(sample):
    # long samples are where the byte code does its work; the length is drawn
    # first, since text(max_size=4000) alone rarely passes 30 symbols
    assert _expand(sample) == "".join(DEFAULT_PRODUCTION[c] for c in sample)


def chunk(word, k):
    """``word`` followed by the productions of the symbols its first ``k`` steps read."""
    return word + "".join(DEFAULT_PRODUCTION[c] for c in word[0:3 * k:3])


def first_match(word, k, other, hi, extra=0):
    """``_first_match`` on the chunk of ``k`` steps, with the shortest view it
    accepts plus ``extra`` steps, from the needle's first step as ``run`` finds it."""
    full = chunk(word, k)
    view = full[0:3 * (hi + _PREFIX + extra):3]
    needle = other[0:3 * _PREFIX:3]
    j = view.find(needle, 1, hi + len(needle))
    return None if j < 0 else _first_match(full, view, len(word), other, needle, hi, j)


def expect_first_match(word, k, other, hi, extra=0):
    expected = reference_first_match(chunk(word, k), len(word), other, hi)
    assert first_match(word, k, other, hi, extra) == expected
    return expected


@st.composite
def match_cases(draw):
    """A word, a chunk size, a bound and another word: a step of the chunk,
    one perturbed, or arbitrary."""
    if draw(st.booleans()):
        block = draw(st.text(alphabet="01", min_size=1, max_size=6))
        word = (block * 300)[:draw(st.integers(3, 400))]
    else:
        word = draw(st.text(alphabet="01", min_size=3, max_size=300))
    k = draw(st.integers(1, len(word) // 3))
    hi = draw(st.integers(0, k))
    j = draw(st.integers(0, k))
    other = orbit_word(word, j)
    kind = draw(st.sampled_from(["step", "flipped", "shorter", "longer", "off-grid", "arbitrary"]))
    if kind == "flipped" and other:
        other = flip(other, draw(st.integers(0, len(other) - 1)))
    elif kind == "shorter":
        other = other[:-1]
    elif kind == "longer":
        other = chunk(word, k)[3 * j:3 * j + len(other) + 1]
    elif kind == "off-grid" and len(other) >= 3:
        other = off_grid(other, draw(st.integers(1, 2)))
    elif kind == "arbitrary":
        other = draw(st.text(alphabet="01", max_size=120))
    return word, k, other, hi, draw(st.integers(0, 3))


@given(match_cases())
@settings(max_examples=400, deadline=None)
def test_first_match_agrees_with_reference(case):
    expect_first_match(*case)


@pytest.mark.parametrize("block", ["0", "1", "01", "0111", "1000", "10010", "00111"])
def test_first_match_on_periodic_words(block):
    # periods 1, 2, 4 and 5 put the needle at most steps and, in the chunk
    # itself, between steps too; each hit must be rejected by length or by
    # the full compare, or accepted at the right step
    word = (block * 300)[:299]
    k = len(word) // 3
    found = 0
    for j in range(0, k + 1, 7):
        step_word = orbit_word(word, j)
        for other in (step_word, step_word[:-1], step_word + "0", flip(step_word, -1),
                      flip(step_word, len(step_word) // 2)):
            for hi in (1, j - 1, j, k):
                if hi >= 0:
                    found += expect_first_match(word, k, other, hi) is not None
    assert found


@pytest.mark.parametrize("other", ["", "0", "1", "00", "01", "10", "11"])
def test_first_match_on_the_shortest_words(other):
    # "000" becomes "00" after one step; no step of these chunks is shorter
    for word in ("000", "100", "000000", "0000000"):
        expect_first_match(word, len(word) // 3, other, len(word) // 3)


@pytest.mark.parametrize("length", [3 * _PREFIX - 1, 3 * _PREFIX, 3 * _PREFIX + 1])
def test_first_match_at_the_needle_length(length):
    # every sampled symbol is 0, so the word after j steps is 140 - j long
    word = ("001" * 47)[:140]
    j = 140 - length
    step_word = orbit_word(word, j)
    assert first_match(word, 46, step_word, 46) == j
    for i in (3 * _PREFIX - 3, length - 2, length - 1):
        assert expect_first_match(word, 46, flip(step_word, i), 46) is None
    assert first_match(word, 46, step_word, j - 1) is None


def test_first_match_with_one_step():
    for word in ("000", "1101", "0" * 99, "1" * 99):
        step_word = orbit_word(word, 1)
        assert first_match(word, 1, step_word, 1) == 1
        assert first_match(word, len(word) // 3, step_word, 1) == 1
    for word in ("0" * 99, "1" * 99, "110" * 33):
        assert first_match(word, 33, orbit_word(word, 2), 1) is None
    # the chunk's own word is step 0, never a match
    assert first_match("0" * 99, 33, "0" * 99, 1) is None


def test_run_rejects_zero_budget():
    with pytest.raises(ValueError):
        run("0000", budget=0)


def test_run_halts_immediately_below_deletion_number():
    outcome = run("0", budget=10)
    assert outcome.kind is OutcomeKind.HALTED
    assert outcome.steps_taken == 0
    assert outcome.final == "0"


def test_run_on_empty_word_halts_at_zero():
    outcome = run("", budget=5)
    assert outcome.kind is OutcomeKind.HALTED
    assert outcome.steps_taken == 0


def test_run_reaches_target_from_b():
    outcome = run(words.B, budget=20000, target=words.A + words.B + words.C)
    assert outcome.kind is OutcomeKind.TARGET_REACHED
    assert outcome.steps_taken == 10444


def test_run_budget_exhaustion_reports_budget():
    outcome = run(words.B, budget=7)
    assert outcome.kind is OutcomeKind.BUDGET_EXHAUSTED
    assert outcome.steps_taken == 7


def test_run_cycle_matches_hash_trace_oracle():
    outcome = run("100100100", budget=10**6)
    assert outcome.kind is OutcomeKind.CYCLED
    assert outcome.cycle_length == hash_trace_cycle("100100100")


def test_run_cycle_replay_soundness():
    outcome = run("100100100", budget=10**6)
    replay = outcome.final
    for _ in range(outcome.cycle_length):
        replay = step(replay)
    assert replay == outcome.final


def test_run_is_deterministic():
    # the first run is cold and adds its cycle to the table; the second jumps
    first = run("10110100101", budget=5000)
    assert first.kind is OutcomeKind.CYCLED and known_rings()
    second = run("10110100101", budget=5000)
    assert first == second
    forget_table()
    assert run("10110100101", budget=5000) == first


@given(binary_words.filter(lambda w: 3 <= len(w) <= 12))
@settings(max_examples=60, deadline=None)
def test_run_classification_matches_oracle(word):
    budget = 50000
    outcome = run(word, budget=budget)
    oracle_period = hash_trace_cycle(word, limit=budget * 2 + 10)
    if outcome.kind is OutcomeKind.CYCLED:
        assert outcome.cycle_length == oracle_period
        replay = outcome.final
        for _ in range(outcome.cycle_length):
            replay = step(replay)
        assert replay == outcome.final
    elif outcome.kind is OutcomeKind.HALTED:
        assert oracle_period is None
    assert outcome.steps_taken <= budget


def orbit_words(word, count):
    """The first ``count`` words of the orbit of ``word``."""
    orbit = [word]
    while len(orbit) < count:
        orbit.append(step(orbit[-1]))
    return orbit[:count]


def orbit_words_on_cycle(word):
    """Every word on the cycle that ``word`` falls into, or none."""
    shape = hash_trace(word, 20000)
    return [] if shape is None else orbit_words(orbit_word(word, shape[0]), shape[1])


def turn_starts(word, budget):
    """The steps at which ``run``'s turns start: each chunk takes len/3 steps."""
    starts, steps = [0], 0
    while len(word) >= 3 and steps < budget:
        k = min(len(word) // 3, budget - steps)
        word = orbit_word(word, k)
        steps += k
        starts.append(steps)
    return starts


def cycle_shapes(words, limit=3000):
    """``{word: (mu, period) or None}``: ``hash_trace`` of every word met on
    the orbits of ``words``, each orbit followed until it reaches a word
    already placed, so that orbits which merge are stepped once."""
    shapes = {}
    for word in words:
        path, seen = [], {}
        while word not in shapes and word not in seen and len(word) >= 3 and len(path) < limit:
            seen[word] = len(path)
            path.append(word)
            word = step(word)
        shape = shapes.get(word)
        if word in seen:
            shape = (0, len(path) - seen[word])
            for member in path[seen[word]:]:
                shapes[member] = shape
            del path[seen[word]:]
        for member in reversed(path):
            shape = shape and (shape[0] + 1, shape[1])
            shapes[member] = shape
    return shapes


def cycles_entered_inside_a_snapshot_chunk():
    """``(word, mu, period, s, r)`` for one word of up to 15 symbols per shape
    whose cycle's first step ``mu`` lies strictly inside a chunk that ends at
    the turn start ``s`` and takes the snapshot at step ``r`` strictly inside
    it, the last snapshot step before ``s``."""
    short = ["".join(symbols) for length in range(16)
             for symbols in itertools.product("01", repeat=length)]
    shapes = cycle_shapes(short)
    cases = {}
    for word in short:
        if shapes.get(word) is not None:
            mu, period = shapes[word]
            starts = turn_starts(word, brent_detection(mu, period))
            i = next(i for i, s in enumerate(starts) if s >= mu)
            s = starts[i]
            r = (1 << ((s + 1).bit_length() - 1)) - 1
            if i and starts[i - 1] < min(mu, r) and max(mu, r) < s:
                cases.setdefault((mu, period, s), (word, mu, period, s, r))
    return list(cases.values())


def record_ring_jumps(patch):
    """Wrap ``run``'s helpers so that the returned list receives the turn step of
    each jump from a known ring: a call of ``_enter`` that does not follow a
    cycle detection, which calls ``_remember`` first."""
    jumps, detected, remember, enter = [], [], core._remember, core._enter

    def remembered(word, period):
        detected.append(word)
        return remember(word, period)

    def entered(word, step, ring, at, steps):
        if not detected:
            jumps.append(steps)
        detected.clear()
        return enter(word, step, ring, at, steps)

    patch.setattr(core, "_remember", remembered)
    patch.setattr(core, "_enter", entered)
    return jumps


def test_jump_after_a_chunk_that_took_a_snapshot(monkeypatch):
    # the premise of a jump from a word on the cycle: a cycle entered inside a
    # chunk is known at the chunk's end s, the chunk's first word is off the
    # ring, and the words inside the chunk are on the ring exactly from mu on,
    # so mu and the detection step D are exact whether mu comes before or
    # after the snapshot step r; with only the ring known, a run with no
    # target jumps at s, and runs end as step-by-step runs do at every budget
    # from s - 1 to one past D, with no target or each one on the ring, which
    # never jump
    cases = cycles_entered_inside_a_snapshot_chunk()
    assert {mu <= r for _, mu, _, _, r in cases} == {True, False}
    for word, mu, period, s, r in cases:
        assert hash_trace(word) == (mu, period)
        detected = brent_detection(mu, period)
        ring = [orbit_word(word, mu + i) for i in range(period)]
        for budget in range(s - 1, detected + 2):
            for target in [None, *ring]:
                # a run with no target learns the path to the ring: forget it
                forget_table()
                run(ring[0], budget=20000)
                assert len(table_entries()) == period
                with monkeypatch.context() as patch:
                    jumps = record_ring_jumps(patch)
                    outcome = run(word, budget=budget, target=target)
                assert outcome == reference_run(word, budget=budget, target=target)
                assert jumps == ([s] if target is None and outcome.steps_taken > s else [])


@pytest.mark.parametrize("lazy", [0, 1, 3, 7])
def test_run_agrees_with_reference_run_around_the_first_window(monkeypatch, lazy):
    # a run takes its first snapshot at step r0, the least of _LAZY and the
    # largest 2^e - 1 whose window ends within the budget, and compares none
    # before it; every word of up to 12 symbols, first from an empty table,
    # at the budgets 2 r0, 2 r0 + 1 and 2 r0 + 2 around that window's end,
    # and at r0, where the window of a snapshot at r0 would end past the
    # budget, then with each list's cycles and paths known; each word runs
    # with a target from its orbit, up to one step past the budget, with a
    # random one of its length, and with none, the only runs that record turns
    monkeypatch.setattr(core, "_LAZY", lazy)
    rng = random.Random(lazy)
    short = words_up_to(12)
    for budget in sorted({max(1, lazy), max(1, 2 * lazy), 2 * lazy + 1, 2 * lazy + 2}):
        cases = ([(word, orbit_word(word, rng.randint(0, budget + 1))) for word in short]
                 + [(word, "".join(rng.choices("01", k=len(word)))) for word in short]
                 + [(word, None) for word in short])
        expected = [reference_run(word, budget=budget, target=target) for word, target in cases]
        forget_table()
        assert [run(word, budget=budget, target=target) for word, target in cases] == expected
        assert [run(word, budget=budget, target=target) for word, target in cases] == expected


def test_first_window_hit_ends_at_the_detection_step(monkeypatch):
    # a hit in the first searched window comes at lazy + period, later than
    # the step D where snapshots from step 0 on see the cycle close when mu
    # is early; the run finds mu with _enter from its first word, whether mu
    # is a turn start or inside a chunk; one word
    # per shape and place of mu on the orbits of words of up to 15 symbols,
    # each from an empty table
    shapes = cycle_shapes(words_up_to(15))
    places = set()
    for lazy in (1, 3, 7):
        monkeypatch.setattr(core, "_LAZY", lazy)
        budget = 4 * lazy + 4
        cases = {}
        for word, shape in shapes.items():
            if shape is not None and shape[0] <= lazy and shape[1] <= lazy + 1:
                cases.setdefault((*shape, shape[0] in turn_starts(word, budget)), word)
        for (mu, period, at_turn), word in cases.items():
            forget_table()
            outcome = run(word, budget=budget)
            assert outcome == reference_run(word, budget=budget)
            assert outcome.steps_taken == brent_detection(mu, period)
            places.add((at_turn, outcome.steps_taken < lazy + period))
    assert places == {(True, True), (True, False), (False, True), (False, False)}


def test_ring_jump_after_the_detection_step(monkeypatch):
    # with no snapshot compared before step _LAZY, a run can first turn on a
    # word of a known ring at a step s past the step D where the snapshots
    # see its cycle close; it jumps at s and ends at D, as step-by-step runs
    # do: one word per shape on the orbits of words of up to 15 symbols with
    # _LAZY at 1, 3 and 7, and two longer words at its own value
    shapes = cycle_shapes(words_up_to(15))
    cases = {}
    for lazy in (1, 3, 7):
        for word, shape in shapes.items():
            if shape is not None and shape[0] <= lazy:
                s = next(s for s in turn_starts(word, 4 * lazy + 4) if s >= shape[0])
                if brent_detection(*shape) < s < lazy + shape[1]:
                    cases.setdefault((lazy, *shape, s), (word, lazy, 4 * lazy + 4))
    cases = [*cases.values(), ("0101011100101101011111001", core._LAZY, 20000),
             ("10100111100010100010100110001", core._LAZY, 20000)]
    for word, lazy, budget in cases:
        mu = hash_trace(word)[0]
        monkeypatch.setattr(core, "_LAZY", lazy)
        forget_table()
        run(orbit_word(word, mu), budget=20000)
        with monkeypatch.context() as patch:
            jumps = record_ring_jumps(patch)
            outcome = run(word, budget=budget)
        assert outcome == reference_run(word, budget=budget)
        late = [s for s in jumps if outcome.steps_taken < s]
        assert late == [next(s for s in turn_starts(word, budget) if s >= mu)]
    assert len(cases) > 2


def test_remember_returns_a_known_cycle_as_it_is():
    # detecting a cycle that the table already holds adds nothing to it
    ring = orbit_words_on_cycle("100100100")
    first = core._remember(ring[0], len(ring))
    held = core._held
    assert core._remember(ring[0], len(ring)) == first
    assert core._remember(ring[0], len(ring))[0] is first[0]
    assert core._remember(ring[2], len(ring)) == (first[0], 2, True)
    assert core._held == held == sum(map(len, ring))


def test_enter_finds_the_first_step_on_every_short_cycle():
    # _enter from each turn start at or before mu, with the run at the ring's
    # word on mu, on mu + 1 and on the next two turn starts, gives hash_trace's
    # mu and its index in a ring that starts elsewhere; every word of up to 12
    # symbols that cycles, so that mu is the start, the second or the last step
    # of the chunk that _enter bisects, or inside it
    shapes = cycle_shapes(words_up_to(12))
    places = set()
    for word in words_up_to(12):
        if shapes.get(word) is None:
            continue
        mu, period = shapes[word]
        offset = len(word) % period
        orbit = orbit_words(word, mu + period)
        ring = orbit[mu + period - offset:] + orbit[mu:mu + period - offset]
        starts = turn_starts(word, mu + 40)
        for step in (s for s in starts if s <= mu):
            for steps in {mu, mu + 1, *[s for s in starts if s > mu][:2]}:
                at = (offset + steps - mu) % period
                assert core._enter(orbit[step], step, ring, at, steps) == (offset, mu)
            places.add("start" if step == mu else "second" if step + 1 == mu
                       else "last" if mu in starts else "inside")
    assert places == {"start", "second", "last", "inside"}


@given(word=st.text(alphabet="01", min_size=100, max_size=600), chunks=st.integers(0, 3),
       last=st.booleans(), step=st.integers(0, 5000), past=st.integers(0, 2),
       spare=st.integers(1, 3), offset=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_enter_on_long_words(word, chunks, last, step, past, spare, offset):
    # an orbit with no repeat stands in for a cycle entered at any step mu:
    # its words from mu on, in a ring longer than the steps from mu that
    # _enter reads, hold no word from before mu; mu is the start (at step) or
    # the second step of the chunk that _enter bisects after 0-3 chunks, or
    # its last step
    ends = turn_starts(word, 1000)
    assume(len(orbit_word(word, ends[-1])) >= 3)
    mu = ends[chunks + 1] if last else ends[chunks] + (chunks > 0)
    period = offset + past + spare
    orbit = orbit_words(word, mu + period)
    assume(len(set(orbit)) == len(orbit))
    ring = orbit[mu + period - offset:] + orbit[mu:mu + period - offset]
    assert core._enter(word, step, ring, offset + past, step + mu + past) == (offset, step + mu)


def test_a_word_learned_off_the_cycle_is_not_reached_from_it():
    # 100100100 is learned as a word some steps before its cycle, so it is in
    # the table with that ring; a run from the ring with it as target cycles
    run("100100100", budget=1000)
    ring, _, dist = core._TABLE[9]["100100100"]
    assert ring is not None and dist
    for member in ring:
        outcome = run(member, budget=1000, target="100100100")
        assert outcome.kind is OutcomeKind.CYCLED
        assert outcome == reference_run(member, budget=1000, target="100100100")


def test_a_run_with_a_target_does_not_read_the_table():
    # a false entry makes 100100100 a cycle of one word: a run with no target
    # ends on it, and a run with a target steps as the reference run does
    core._TABLE[9] = {"100100100": (["100100100"], 0, 0)}
    assert run("100100100", budget=1000) == RunOutcome(OutcomeKind.CYCLED, 1, "100100100", 1)
    outcome = run("100100100", budget=1000, target="10011101")
    assert outcome == reference_run("100100100", budget=1000, target="10011101")
    assert (outcome.kind, outcome.steps_taken, len(outcome.final), outcome.cycle_length) == (
        OutcomeKind.CYCLED, 21, 16, 6)


@functools.cache
def fate_marks(word, limit=20000):
    """Steps where ``run``'s outcome from ``word`` changes: its halt, or the
    first step on its cycle and the step where that cycle is detected, with
    the cycle's period, or ``limit`` when neither comes first."""
    shape = hash_trace(word, limit)
    if shape is not None:
        return (shape[0], brent_detection(*shape)), shape[1]
    return (reference_run(word, budget=limit).steps_taken,), 1


class TableMachine(stateful.RuleBasedStateMachine):
    """Runs that share one table of known futures, under bounds drawn at the start;
    each entry is checked by the step oracle when it appears, and never changes after."""

    budget = 2047  # of warm runs and fates: the least whose first snapshot compared is at 1023
    oracle = staticmethod(functools.cache(reference_run))  # the machine's runs recur often

    @stateful.initialize(symbols=st.sampled_from([600, core._TABLE_SYMBOLS]),
                         learn=st.sampled_from([core._LEARN, 32]),
                         lazy=st.sampled_from([core._LAZY, 0, 63]))
    def start(self, symbols, learn, lazy):
        self.bounds, self.warm = (core._TABLE_SYMBOLS, core._LEARN, core._LAZY), []
        core._TABLE_SYMBOLS, core._LEARN, core._LAZY = symbols, learn, lazy
        self.empty()

    def teardown(self):
        core._TABLE_SYMBOLS, core._LEARN, core._LAZY = self.bounds
        forget_table()

    @stateful.precondition(lambda self: core._held)
    @stateful.rule()
    def empty(self):
        forget_table()
        self.checked, self.cycled = {}, set()  # entries, and ids of rings that runs ended on

    def ran(self, word, budget, target=None):
        """``run``'s outcome; the cycle it ends on joins the table if it fits."""
        room = core._TABLE_SYMBOLS - core._held
        outcome = run(word, budget=budget, target=target)
        if outcome.kind is OutcomeKind.CYCLED:
            entry = core._TABLE.get(len(outcome.final), {}).get(outcome.final)
            if entry is None:
                assert sum(map(len, orbit_words(outcome.final, outcome.cycle_length))) > room
            else:
                assert len(entry[0]) == outcome.cycle_length and not entry[2]
                self.cycled.add(id(entry[0]))
        return outcome

    @stateful.rule(seed=st.integers(0, 1 << 16), count=st.integers(1, 4))
    def warm_table(self, seed, count):
        self.warm += orbit_like_words(seed, count)
        for word in self.warm[-count:]:
            assert self.ran(word, self.budget) == self.oracle(word, budget=self.budget)

    @stateful.precondition(lambda self: core._held)
    @stateful.rule(data=st.data())
    def run_from_table_word(self, data):
        self.compare(data, data.draw(st.sampled_from([word for word, _ in table_entries()])))

    @stateful.precondition(lambda self: self.warm)
    @stateful.rule(data=st.data(), depth=st.integers(0, 80) | st.none())
    def run_from_warm_or_fresh_word(self, data, depth):
        self.compare(data, data.draw(st.text(alphabet="01", max_size=64)) if depth is None
                     else orbit_word(data.draw(st.sampled_from(self.warm)), depth))

    def compare(self, data, start):
        """A run from ``start`` at a budget near a step where its outcome changes,
        with no target (only such runs read the table) or one of four kinds."""
        marks, period = fate_marks(start, self.budget)
        budget = max(1, data.draw(st.sampled_from(marks)) + data.draw(
            st.integers(-period - 3, period + 3)))
        kind = data.draw(st.sampled_from(["table", "orbit", "flipped", "random"]) | st.none())
        target = data.draw(st.text(alphabet="01", max_size=64)) if kind == "random" else None
        if kind in ("orbit", "flipped"):
            target = orbit_word(start, data.draw(st.integers(0, budget + 1)))
        if kind == "flipped" and target:
            target = flip(target, data.draw(st.integers(0, len(target) - 1)))
        if kind == "table" and (entries := table_entries()):
            target = data.draw(st.sampled_from([word for word, _ in entries]))
        assert self.ran(start, budget, target) == self.oracle(start, budget=budget, target=target)

    @stateful.invariant()
    def table_is_true(self):
        entries = table_entries()
        assert core._held == sum(len(word) for word, _ in entries) <= core._TABLE_SYMBOLS
        assert all(self.checked.get(word, entry) is entry for word, entry in entries)
        # nearest futures first, so that stepping a path can stop at a checked word
        new = sorted((e[2], word, e) for word, e in entries if word not in self.checked)
        # a ring joins the table whole: one entry for each of its words
        rings = [ring for _, _, (ring, _, dist) in new if ring is not None and not dist]
        assert all(sum(other is ring for other in rings) == len(ring) for ring in rings)
        for dist, word, entry in new:
            ring, at, _ = entry
            assert ring is None or id(ring) in self.cycled
            if ring is not None and not dist:
                assert ring[at] == word and step(word) == ring[(at + 1) % len(ring)]
            else:
                # a learned turn word, off the ring until ``ring[at]`` or a halt at ``at``
                assert dist and len(word) <= core._LEARN and (ring or len(at) < 3)
                last, now, rest = word, step(word), dist - 1
                while rest and now not in self.checked:
                    last, now, rest = now, step(now), rest - 1
                if rest:  # a checked word on the way has the same future
                    assert self.checked[now] == (ring, at, rest) and self.checked[now][0] is ring
                else:
                    assert now == (ring[at] if ring else at) and last not in (ring or ())
            self.checked[word] = entry
        assert len(self.checked) == len(entries)


def test_runs_sharing_a_table_agree_with_the_step_oracle():
    stateful.run_state_machine_as_test(TableMachine, settings=settings(
        max_examples=20, stateful_step_count=60, deadline=None))


def test_recording_keeps_to_the_table_room(monkeypatch):
    # a run with no target records its turn words only while the table has
    # room for them, so a long run on a growing word holds a bounded record
    # whatever its budget; B's words are longer than _LEARN, so every length
    # is learned here, and only the room bounds the record (without it the
    # peak is about 40 times the room)
    room = 1 << 14
    monkeypatch.setattr(core, "_TABLE_SYMBOLS", room)
    monkeypatch.setattr(core, "_LEARN", 1 << 30)
    tracemalloc.start()
    try:
        outcome = run(words.B, budget=200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.kind is OutcomeKind.BUDGET_EXHAUSTED and not table_entries()
    assert peak < 4 * room


def test_outcome_requires_cycle_length_consistency():
    with pytest.raises(ValueError):
        RunOutcome(OutcomeKind.HALTED, 0, "0", cycle_length=3)
    with pytest.raises(ValueError):
        RunOutcome(OutcomeKind.CYCLED, 5, "000")
    with pytest.raises(ValueError):
        RunOutcome(kind=OutcomeKind.HALTED, steps_taken=0, final="0", cycle_length=3)
    with pytest.raises(ValueError):
        RunOutcome(kind=OutcomeKind.CYCLED, steps_taken=5, final="000")


def test_outcome_default_and_copies():
    halted = RunOutcome(kind=OutcomeKind.HALTED, steps_taken=4, final="00")
    assert halted == (OutcomeKind.HALTED, 4, "00", None) and halted.cycle_length is None
    cycled = RunOutcome(OutcomeKind.CYCLED, 21, "100100100", cycle_length=6)
    for outcome in (halted, cycled):
        copies = [copy.copy(outcome), copy.deepcopy(outcome)]
        copies += [pickle.loads(pickle.dumps(outcome, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in copies:
            assert copied == outcome and type(copied) is RunOutcome


def test_decode_tokens_of_first_family_word():
    assert decode_tokens("ZZOOOZ") == words.A


def test_encode_empty_word():
    assert encode_tokens("") == ""


def test_encode_rejects_unparseable_word():
    with pytest.raises(NotTokenizable):
        encode_tokens("010")


def test_not_tokenizable_is_an_input_error():
    assert issubclass(NotTokenizable, ValueError)


def encoded(encode, word):
    """``encode(word)``, or the message of the NotTokenizable it raised."""
    try:
        return encode(word)
    except NotTokenizable as exc:
        return f"NotTokenizable: {exc}"


def test_encode_matches_the_greedy_parse_on_every_short_word():
    # all 131 071 binary words of 0-16 symbols, failing positions included
    for n in range(17):
        for symbols in itertools.product("01", repeat=n):
            word = "".join(symbols)
            assert encoded(encode_tokens, word) == encoded(reference_encode, word), word


def test_decode_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        decode_tokens("ZOX")


def test_family_words_tokenize():
    for word in (words.A, words.B, words.C):
        assert decode_tokens(encode_tokens(word)) == word


@given(st.text(alphabet="ZO"))
def test_token_round_trip_from_tokens(tokens):
    assert encode_tokens(decode_tokens(tokens)) == tokens


@given(st.text(alphabet="ZO"))
def test_token_round_trip_from_words(tokens):
    word = decode_tokens(tokens)
    assert decode_tokens(encode_tokens(word)) == word
