"""Simulation engine for the tag system {N=3, 0 -> 00, 1 -> 1101}.

Each step appends 00 for a leading 0 and 1101 for a leading 1, then deletes
three symbols.  Words are plain strings over {0,1}; all public operations are
pure.  ``run`` iterates in closed form: while ``k <= len(w) // 3`` steps read
only symbols of ``w`` itself, they turn ``w`` into ``w[3*k:]`` followed by the
productions of the sampled symbols ``w[0:3*k:3]``: one slice, one concatenation
and one expansion of the sample, which maps each symbol through a fixed-width
byte code in C loops over bytes (``_expand``).  The chunk is then one string,
``w`` followed by that expansion, in which the word after ``j`` steps starts
at ``3*j``; its every-third-symbol view holds step ``j`` at index ``j``.
Target and cycle detection search that view for the other word's
every-third-symbol prefix with ``str.find``, so every hit is a step, and
accept a hit whose running length (each sampled symbol changes it by
``len(production) - 3``: -1 for a 0, +1 for a 1) equals the other word's and
where the chunk holds the whole word, which keeps detection exact.  Each
chunk takes len/3 steps, or the budget's rest, across cycle snapshot steps.

Cycle snapshots are taken at the steps 2^e - 1, and a cycle entered at step mu
is first seen to close at D = 2^max(bitlen mu, bitlen(period - 1)) - 1 +
period.  ``run`` compares no snapshot before step ``_LAZY``, whose window
decides all earlier ones; a target on the orbit comes before D.  A quiet turn,
with no snapshot step and the snapshot's length out of reach, searches none.  A
run's fate ``(ring, at, mu)`` is the word ``ring[at]`` at its first step mu on
the cycle ``ring`` (its words in step order), or its halt at ``at`` on mu if
``ring`` is None: ``_enter`` finds mu, ``_jump`` publishes the run's turns and
ends it.  Only runs with no target read the table of known futures, which holds
up to ``_TABLE_SYMBOLS`` symbols and never evicts: detected cycles and those
runs' turn words after the first, from a quarter full only every third back from
mu (``_STRIDE``).  No result depends on what ran before.
"""

from __future__ import annotations

import enum
from binascii import hexlify
from collections import namedtuple
from types import MappingProxyType


class WordTooShort(Exception):
    """The configuration has fewer symbols than one deletion needs."""


class NotTokenizable(ValueError):
    """The word is not a concatenation of 00 and 1101 segments."""


def check_word(word: str) -> str:
    """Validate that ``word`` is a string over {0,1} and return it."""
    # Two counts run at C speed; a set walk visits the word symbol by symbol.
    if word.count("0") + word.count("1") != len(word):
        bad = sorted(set(word) - {"0", "1"})
        raise ValueError(f"not a binary word, unexpected symbols {bad}")
    return word


DEFAULT_PRODUCTION = MappingProxyType({"0": "00", "1": "1101"})

_ZERO, _ONE = DEFAULT_PRODUCTION["0"], DEFAULT_PRODUCTION["1"]
# Length change per sampled symbol, and its largest size.
_DELTAS = {symbol: len(production) - 3 for symbol, production in DEFAULT_PRODUCTION.items()}
_SPREAD = max(map(abs, _DELTAS.values()))
# What each sampled 0 changes, and each sampled 1 adds beyond a sampled 0.
_ZERO_DELTA = _DELTAS["0"]
_ONE_EXTRA = _DELTAS["1"] - _ZERO_DELTA
# _expand's byte code, which encodes DEFAULT_PRODUCTION and must change with it.
_BYTE = bytes.maketrans(b"01", b"\x00\xa1")
_HEX = bytes.maketrans(b"63", b"10")


def _expand(sample: str) -> str:
    """The productions of the symbols of the binary word ``sample``, in order.

    The one expansion of sampled symbols, for ``run`` and ``algebra.pass_output``.
    """
    # A fixed-width byte code, each pass a C loop per byte: 0 and 1 become the
    # bytes 0x00 and 0xa1, hexlified twice, 3030 and 6131; mapping 3 to 0 and 6
    # to 1 and deleting every 0 leaves 00 and 1101.  Two str.replace passes
    # cost per occurrence: twice as much at 1000 symbols, more beyond.
    return hexlify(hexlify(sample.encode().translate(_BYTE))).translate(_HEX, b"0").decode()


class OutcomeKind(enum.Enum):
    HALTED = "Halted"
    CYCLED = "Cycled"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    TARGET_REACHED = "TargetReached"


class RunOutcome(namedtuple("RunOutcome", "kind steps_taken final cycle_length")):
    """How a run ended: its kind, step count, final word and, for a cycle, its period."""

    __slots__ = ()

    def __new__(cls, kind, steps_taken, final, cycle_length=None):
        if (cycle_length is not None) != (kind is OutcomeKind.CYCLED):
            raise ValueError("cycle_length is present exactly when the run cycled")
        return tuple.__new__(cls, (kind, steps_taken, final, cycle_length))


# Length of the every-third-symbol prefix of the other word that a chunk's
# view is searched for: long enough that few wrong-length hits occur, short
# enough that each search stays cheap.
_PREFIX = 32


def _first_match(full, view, size, other, needle, hi, j):
    """The first step in j..hi at which the chunk ``full`` passes through ``other``.

    ``full`` is the chunk's word of ``size`` symbols followed by the expansion
    of its sampled symbols, so the word after ``j`` steps is
    ``full[3*j:3*j + L]`` with ``L = size + j*Δ0 + ones*(Δ1 - Δ0)``, where
    ``Δ`` is ``_DELTAS`` and ``ones`` counts the 1s among the first ``j``
    sampled symbols.  ``view`` is ``full[0:3*(hi + _PREFIX):3]`` or longer:
    its first symbols are the sampled ones, and step ``j`` sits at its index
    ``j``.  Candidates are the steps where ``view`` holds ``needle``, the
    prefix ``other[0:3*_PREFIX:3]``, from ``j``, the first that the caller's
    ``find`` sees; one matches when ``L == len(other)`` and ``other`` starts
    there in ``full``.  A length that is off by ``d`` rules out the next
    ``d // _SPREAD - 1`` steps too.  Returns the step, or ``None``.
    """
    goal = len(other)
    end = hi + len(needle)
    ones = counted = 0
    while j >= 0:
        ones += view.count("1", counted, j)
        counted = j
        gap = abs(size + j * _ZERO_DELTA + ones * _ONE_EXTRA - goal)
        if not gap and full.startswith(other, 3 * j):
            return j
        j = view.find(needle, j + max(1, gap // _SPREAD), end)
    return None


# length -> {word: (ring, at, dist)}, keyed by length so that other lengths are
# never hashed: the word first reaches ``ring[at]``, on a cycle whose words are
# ``ring`` in step order, after ``dist`` steps, or halts at ``at`` if ``ring`` is None.
_TABLE_SYMBOLS = 1 << 18
_TABLE: dict[int, dict[str, tuple]] = {}
_held = 0
# Longest turn word learned: orbits merge among short words, and recording and
# hashing longer ones cost budget-exhausted runs more than later runs save.
_LEARN = 128
# Step of the first cycle snapshot that a run compares (less on a short
# budget): its window decides all earlier ones.  On the orbit lists the median
# run took 0.0152 ms at 0 and 0.0086 ms at 1023; 255 to 4095 measured alike.
_LAZY = (1 << 10) - 1
# Runs on one path share turns from where they meet, so from 1/_SPARSE full a run
# publishes only every _STRIDE-th turn word back from mu: _STRIDE times the paths fit,
# each met within _STRIDE - 1 turns.  Orbit lists 4-7 took 169.6k turns publishing all,
# 146.7k/138.9k/138.3k/140.4k/149.0k at strides 2/3/4/6/12 from empty and 140.9k at 3
# from 1/4 full; all-word surveys of 18-22 symbols stay under 1/4, their tables whole.
_STRIDE, _SPARSE = 3, 4


def _remember(word: str, period: int) -> tuple:
    """Publish the cycle through ``word`` unless known or too big: ``(ring, index, stored)``."""
    global _held
    if (entry := _TABLE.get(len(word), {}).get(word)) is not None:
        return entry[0], entry[1], True
    ring = [word]
    while len(ring) < period:
        ring.append(word := word[3:] + DEFAULT_PRODUCTION[word[0]])
    if stored := (size := sum(map(len, ring))) <= _TABLE_SYMBOLS - _held:
        _held += size
        for index, member in enumerate(ring):
            _TABLE.setdefault(len(member), {})[member] = (ring, index, 0)
    return ring, 0, stored


def _enter(word: str, step: int, ring: list, at: int, steps: int) -> tuple:
    """``(index, mu)``: the first step mu on the cycle ``ring``, at ``ring[index]``, of a
    run at ``word`` on ``step`` <= mu and at ``ring[at]`` on ``steps``.  Chunks of len/3
    steps walk to the one that enters the cycle, and mu is bisected in it: every word
    after mu is on the cycle too."""
    period = len(ring)
    while True:
        k = min(len(word) // 3, steps - step)
        sampled = word[0:3 * k:3]
        full = word + _expand(sampled)
        if full[3 * k:] == ring[(at + step + k - steps) % period]:
            break
        word, step = full[3 * k:], step + k
    lo, hi = 0, k
    while lo < hi:
        j = (lo + hi) // 2
        member = ring[(at + step + j - steps) % period]
        if (len(word) + j * _ZERO_DELTA + sampled.count("1", 0, j) * _ONE_EXTRA == len(member)
                and full.startswith(member, 3 * j)):
            hi = j
        else:
            lo = j + 1
    return (at + step + lo - steps) % period, step + lo


def _jump(trail: list, ring: list | None, at, mu: int, budget: int) -> RunOutcome | None:
    """``run``'s outcome from its fate ``(ring, at, mu)``, or None if mu is past the budget;
    an outcome first publishes ``trail``'s turns ``(step, word)`` before mu if they fit:
    all, or from 1/``_SPARSE`` full every ``_STRIDE``-th back from mu, the last included."""
    global _held
    if mu > budget:
        return None
    if trail:
        while trail and trail[-1][0] >= mu:
            trail.pop()
        if _held * _SPARSE >= _TABLE_SYMBOLS:
            trail = trail[::-_STRIDE]
        size = sum(len(word) for _, word in trail)
        if _held + size <= _TABLE_SYMBOLS:
            _held += size
            for step, word in trail:
                _TABLE.setdefault(len(word), {})[word] = (ring, at, mu - step)
    # Built past RunOutcome's checking __new__: these fields are consistent.
    if ring is None:
        return tuple.__new__(RunOutcome, (OutcomeKind.HALTED, mu, at, None))
    period = len(ring)
    detected = (1 << max(mu.bit_length(), (period - 1).bit_length())) - 1 + period
    end = min(detected, budget)
    final = ring[(at + end - mu) % period]
    if end < detected:
        return tuple.__new__(RunOutcome, (OutcomeKind.BUDGET_EXHAUSTED, end, final, None))
    return tuple.__new__(RunOutcome, (OutcomeKind.CYCLED, end, final, period))


def run(word: str, *, budget: int, target: str | None = None) -> RunOutcome:
    """Iterate the tag step until halt, repeat, target, or budget exhaustion.

    Repeats are found with constant extra memory: the live configuration is
    raced against a snapshot that is replaced after steps 2^e - 1 (1, 3, 7,
    15, ...), so the first match after a replacement yields the exact period.
    The first snapshot compared is the one at step ``lazy``.  Steps are taken
    in closed-form chunks of len/3 steps across replacements, and each chunk's
    every-third-symbol view is searched for the target and the snapshot
    (``_first_match``), so the outcome is the one a step-by-step loop gives.
    Each compared word's needle is sliced once per snapshot.  A halt, a window
    hit or, with no target, a turn on a known word gives the fate, and within
    the budget ``_jump`` ends the run from it.  Detected cycles and a
    targetless run's turn words after the first join the table.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    check_word(word)
    if target is not None:
        check_word(target)
        target_needle = target[0:3 * _PREFIX:3]
    target_size = -1 if target is None else len(target)
    trail = []
    table, room = ({}, -1) if target is not None else (_TABLE, _TABLE_SYMBOLS - _held)
    # The first snapshot is at step lazy, the largest 2^e - 1 up to _LAZY whose window ends
    # within the budget; an impossible length keeps earlier ones from being compared.
    lazy = min(_LAZY, (1 << (budget + 1).bit_length() - 2) - 1)
    origin = last = word
    saved_size = -budget * _SPREAD
    refresh, steps, k = lazy, 0, 0
    while True:
        size = len(word)
        if size == target_size and word == target:
            return RunOutcome(OutcomeKind.TARGET_REACHED, steps, word)
        if size < 3:
            return _jump(trail, None, word, steps, budget)
        if steps == budget:
            return RunOutcome(OutcomeKind.BUDGET_EXHAUSTED, steps, word)
        if (known := table.get(size)) and (entry := known.get(word)) is not None:
            ring, at, dist = entry
            at, mu = (at, steps + dist) if dist else _enter(last, steps - k, ring, at, steps)
            if (outcome := _jump(trail, ring, at, mu, budget)) is not None:
                return outcome
        elif steps and size <= room and size <= _LEARN:
            trail.append((steps, word))
            room -= size
        k = size // 3
        if k > budget - steps:
            k = budget - steps
        sampled = word[0:3 * k:3]
        full = word + _expand(sampled)
        reach = k * _SPREAD
        # The sampled symbols are the view's first k; the needles reach at
        # most _PREFIX symbols past the last step.  Built at the first search.
        view = None
        # The target check after the chunk's last step opens the next turn.
        # A target found here always precedes a repeat: every word after
        # the snapshot repeats one that was already compared with it.
        if target is not None and -reach <= size - target_size <= reach:
            view = sampled + full[3 * k:3 * (k + _PREFIX):3]
            j = view.find(target_needle, 1, k - 1 + len(target_needle))
            if j >= 0 and (j := _first_match(full, view, size, target, target_needle,
                                             k - 1, j)) is not None:
                return RunOutcome(OutcomeKind.TARGET_REACHED, steps + j, target)
        # Steps lo + 1..hi race the snapshot, which the word at a snapshot step hi replaces,
        # its length counted from the 1s before it.  A quiet turn holds no snapshot step
        # and is not near the snapshot's length, so it searches no window.
        near = -reach <= size - saved_size <= reach
        hi = 0 if near or refresh <= steps + k else k
        while hi < k:
            lo, hi = hi, refresh - steps if refresh < steps + k else k
            if near:
                view = view or sampled + full[3 * k:3 * (k + _PREFIX):3]
                j = view.find(saved_needle, lo + 1, hi + len(saved_needle))
                if j >= 0 and (j := _first_match(full, view, size, saved, saved_needle,
                                                 hi, j)) is not None:
                    ring, at, stored = _remember(saved, steps + j - refresh // 2)
                    at, mu = _enter(origin, 0, ring, at, refresh // 2)
                    return _jump(trail if stored else [], ring, at, mu, budget)
            if steps + hi == refresh:
                saved_size = size + hi * _ZERO_DELTA + sampled.count("1", 0, hi) * _ONE_EXTRA
                saved = full[3 * hi:3 * hi + saved_size]
                saved_needle = saved[0:3 * _PREFIX:3]
                refresh = 2 * refresh + 1
                near = -reach <= size - saved_size <= reach
        last, word = word, full[3 * k:]
        steps += k


def encode_tokens(word: str) -> str:
    """Parse a binary word into Z (00) and O (1101) tokens.

    00 and 1101 form a prefix code, so a tokenizable word has one parse and
    no 1101 in it straddles two tokens: two replaces find that parse.
    """
    tokens = check_word(word).replace(_ONE, "O").replace(_ZERO, "Z")
    rest = tokens.lstrip("OZ")
    if rest:
        i = len(decode_tokens(tokens[:len(tokens) - len(rest)]))
        raise NotTokenizable(f"no token starts at position {i}: {word[i:i + 4]!r}…")
    return tokens


def decode_tokens(tokens: str) -> str:
    """Expand a token word back into its binary form."""
    if not set(tokens) <= {"Z", "O"}:
        bad = sorted(set(tokens) - {"Z", "O"})
        raise ValueError(f"not a token word, unexpected symbols {bad}")
    return tokens.replace("O", _ONE).replace("Z", _ZERO)
