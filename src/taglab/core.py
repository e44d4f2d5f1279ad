"""Simulation engine for the tag system {N=3, 0 -> 00, 1 -> 1101}.

Each step appends 00 for a leading 0 and 1101 for a leading 1, then deletes
three symbols.  Words are plain strings over {0,1}; all public operations are
pure.  ``step`` applies one transformation; ``run`` iterates in closed form:
while ``k <= len(w) // 3`` steps read only symbols of ``w`` itself, they turn
``w`` into ``w[3*k:]`` followed by the productions of the sampled symbols
``w[0:3*k:3]``, which is one slice, one expansion of the sample and one
concatenation.  Each sampled symbol changes the word length by the fixed
amount ``len(production) - 3`` (-1 for a 0, +1 for a 1), so a chunk can only
pass through a given word at the steps where its running length equals that
word's length; those steps alone are compared, which keeps target and cycle
detection exact.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional


class WordTooShort(Exception):
    """The configuration has fewer symbols than one deletion needs."""


class NotTokenizable(Exception):
    """The word is not a concatenation of 00 and 1101 segments."""


_BINARY = frozenset("01")


def check_word(word: str) -> str:
    """Validate that ``word`` is a string over {0,1} and return it."""
    if not _BINARY.issuperset(word):
        bad = sorted(set(word) - _BINARY)
        raise ValueError(f"not a binary word, unexpected symbols {bad}")
    return word


DEFAULT_PRODUCTION: Mapping[str, str] = MappingProxyType({"0": "00", "1": "1101"})

_ZERO, _ONE = DEFAULT_PRODUCTION["0"], DEFAULT_PRODUCTION["1"]
# Length change per sampled symbol, and its largest size.
_DELTAS = {symbol: len(production) - 3 for symbol, production in DEFAULT_PRODUCTION.items()}
_SPREAD = max(map(abs, _DELTAS.values()))


def _expand(sample: str) -> str:
    """The productions of the symbols of the binary word ``sample``, in order.

    The one expansion of sampled symbols, for ``run`` and ``algebra.pass_output``.
    """
    # Three replaces are plain copies, several times faster than a translate
    # whose table maps one symbol to many; 2 parks the zeros.
    return sample.replace("0", "2").replace("1", _ONE).replace("2", _ZERO)


class OutcomeKind(enum.Enum):
    HALTED = "Halted"
    CYCLED = "Cycled"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    TARGET_REACHED = "TargetReached"


# A NamedTuple may not define __new__ in its own body, so the validating
# constructor lives in a subclass of the bare fields.
class _RunOutcomeFields(NamedTuple):
    kind: OutcomeKind
    steps_taken: int
    final: str
    cycle_length: Optional[int] = None


class RunOutcome(_RunOutcomeFields):
    """How a run ended: its kind, step count, final word and, for a cycle, its period."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.cycle_length is not None) != (self.kind is OutcomeKind.CYCLED):
            raise ValueError("cycle_length is present exactly when the run cycled")
        return self


def step(word: str) -> str:
    """One tag transformation: append the first symbol's production, delete the front."""
    check_word(word)
    if len(word) < 3:
        raise WordTooShort(f"length {len(word)} < deletion number 3")
    return word[3:] + DEFAULT_PRODUCTION[word[0]]


# Symbols compared before a candidate configuration is built in full.
_PREFIX = 32


def _first_match(word, expanded, lengths, other, hi):
    """The first ``j`` in 1..hi at which the chunk of ``word`` equals ``other``.

    ``lengths[j]`` is the word length after ``j`` steps of the chunk, so only
    the steps where it equals ``len(other)`` can match; the symbols appended
    by then are the first ``lengths[j] - len(word) + 3 * j`` of ``expanded``.
    Returns ``(j, word after j steps)``, or ``None``.
    """
    size = len(other)
    j = 0
    while True:
        try:
            j = lengths.index(size, j + 1, hi + 1)
        except ValueError:
            return None
        start = 3 * j
        if other.startswith(word[start:start + _PREFIX]):
            moved = word[start:] + expanded[:size - len(word) + start]
            if moved == other:
                return j, moved


def run(word: str, *, budget: int, target: Optional[str] = None) -> RunOutcome:
    """Iterate the tag step until halt, repeat, target, or budget exhaustion.

    Repeats are found with constant extra memory: the live configuration is
    raced against a snapshot that is refreshed at exponentially growing
    intervals, so the first match after a refresh yields the exact period.
    Steps are taken in closed-form chunks that end at every snapshot
    refresh, so the outcome is the one a step-by-step loop gives.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    check_word(word)
    if target is not None:
        check_word(target)
    target_size = -1 if target is None else len(target)
    saved = word
    saved_step = 0
    window = 1
    steps = 0
    while True:
        size = len(word)
        if size == target_size and word == target:
            return RunOutcome(OutcomeKind.TARGET_REACHED, steps, word)
        if size < 3:
            return RunOutcome(OutcomeKind.HALTED, steps, word)
        if steps == budget:
            return RunOutcome(OutcomeKind.BUDGET_EXHAUSTED, steps, word)
        k = min(size // 3, budget - steps, saved_step + window - steps)
        sampled = word[0:3 * k:3]
        expanded = _expand(sampled)
        reach = k * _SPREAD
        near_saved = abs(size - len(saved)) <= reach
        near_target = target is not None and abs(size - target_size) <= reach
        if near_saved or near_target:
            lengths = list(accumulate(map(_DELTAS.__getitem__, sampled), initial=size))
            # The target check after the chunk's last step opens the next turn.
            # A target found here always precedes a repeat: every word after
            # the snapshot repeats one that was already compared with it.
            reached = near_target and _first_match(word, expanded, lengths, target, k - 1)
            if reached:
                return RunOutcome(OutcomeKind.TARGET_REACHED, steps + reached[0], reached[1])
            cycled = near_saved and _first_match(word, expanded, lengths, saved, k)
            if cycled:
                j, moved = cycled
                return RunOutcome(OutcomeKind.CYCLED, steps + j, moved,
                                  cycle_length=steps + j - saved_step)
        word = word[3 * k:] + expanded
        steps += k
        if steps - saved_step == window:
            saved = word
            saved_step = steps
            window *= 2


_TOKEN_EXPANSION = {"Z": _ZERO, "O": _ONE}


def encode_tokens(word: str) -> str:
    """Greedily parse a binary word into Z (00) and O (1101) tokens."""
    check_word(word)
    out = []
    i = 0
    n = len(word)
    while i < n:
        for token in "OZ":
            segment = _TOKEN_EXPANSION[token]
            if word.startswith(segment, i):
                out.append(token)
                i += len(segment)
                break
        else:
            raise NotTokenizable(f"no token starts at position {i}: {word[i:i + 4]!r}…")
    return "".join(out)


def decode_tokens(tokens: str) -> str:
    """Expand a token word back into its binary form."""
    if not set(tokens) <= {"Z", "O"}:
        bad = sorted(set(tokens) - {"Z", "O"})
        raise ValueError(f"not a token word, unexpected symbols {bad}")
    return "".join(_TOKEN_EXPANSION[t] for t in tokens)
