"""Slow reference implementations and pinned data that the suite checks the fast paths against."""

import argparse
import itertools
import sys

from taglab.blocks import _lowerings
from taglab import cli
from taglab.core import (DEFAULT_PRODUCTION, NotTokenizable, OutcomeKind, RunOutcome,
                         WordTooShort, check_word)

# (left word, right word, cut offset) of the 14 stages of the paper's chain,
# in token form (Z for 00, O for 1101): the expected data that the derived
# chain is compared with
CHAIN_STAGES = (
    ("ZZOOOZ", "ZZZOOOZZZOOOZZZOOO", 0),
    ("ZZZOOO", "ZZOOOZZZOOOZZZOOOZ", 1),
    ("ZZOOOZ", "ZZZOOOZZZOOOZZZOOO", 0),
    ("ZZZOOO", "ZZZOOOZZZOOOZZZOOO", 2),
    ("ZZZOOO", "ZZOOOZZZOOOZZZOOOZ", 1),
    ("ZZOOOZ", "ZZZOOOZZZOOOZZZOOO", 0),
    ("ZZZOOO", "ZZOOOZZZOOOZZZOOOZ", 1),
    ("ZZOOOZ", "ZZZOOOZZZOOOZZZOOO", 0),
    ("ZZZOOO", "ZZOOOZZZOOOZZZOOOZ", 1),
    ("ZZOOOZ", "ZOOOZZZOOOZZZOOOZZ", 2),
    ("ZOOOZZ", "ZOOOZZZOOOZZZOOOZZ", 0),
    ("ZOOOZZ", "ZOOOZZZOOOZZZOOOZZ", 0),
    ("ZOOOZZ", "ZZOOOZZZOOOZZZOOOZ", 1),
    ("ZZOOOZ", "ZZZOOOZZZOOOZZZOOO", 0),
)

# RAISES[s] holds every symbol that a lowering turns into s
RAISES = {"v": "01v", "u": "01wu", "w": "01w", "0": "0", "1": "1"}


def step(word: str) -> str:
    """One tag transformation: append the first symbol's production, delete the front.

    The suite's one-step oracle, which ``core.run`` is checked against.
    """
    check_word(word)
    if len(word) < 3:
        raise WordTooShort(f"length {len(word)} < deletion number 3")
    return word[3:] + DEFAULT_PRODUCTION[word[0]]


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


def reference_encode(word: str) -> str:
    """Greedily parse a binary word into Z (00) and O (1101) tokens, token by token.

    The oracle that ``core.encode_tokens``, which finds the same parse with
    two replaces, is checked against.
    """
    check_word(word)
    out = []
    i = 0
    while i < len(word):
        for token, symbol in (("O", "1"), ("Z", "0")):
            segment = DEFAULT_PRODUCTION[symbol]
            if word.startswith(segment, i):
                out.append(token)
                i += len(segment)
                break
        else:
            raise NotTokenizable(f"no token starts at position {i}: {word[i:i + 4]!r}…")
    return "".join(out)


def full_pass_simulated(word: str) -> str:
    """Run the tag step until every symbol of the input has been deleted.

    One step at a time, on purpose: this is the reference for the closed form
    that the certificate's derivation relies on,
    ``full_pass_simulated(w) == cut(pass_output(w), (-len(w)) % 3)``.  Words
    of fewer than four symbols are rejected, which keeps the concatenation
    identities free of corner cases.
    """
    if len(word) < 4:
        raise WordTooShort(f"a full pass needs at least 4 symbols, got {len(word)}")
    for _ in range(-(-len(word) // 3)):
        word = step(word)
    return word


def reference_first_match(full: str, size: int, other: str, hi: int):
    """The first ``j`` in 1..hi whose word in the chunk ``full`` is ``other``.

    ``full`` is a word of ``size`` symbols followed by the productions of its
    symbols at the first steps; the word after ``j`` steps starts at
    ``3*j`` and its length changes by ``len(production) - 3`` for each symbol
    read.  This is the reference that ``core._first_match`` is checked
    against.  Returns ``j``, or ``None``.
    """
    length = size
    for j in range(1, hi + 1):
        length += len(DEFAULT_PRODUCTION[full[3 * (j - 1)]]) - 3
        if length == len(other) and full[3 * j:].startswith(other):
            return j
    return None


def reference_candidates(row: str, max_suffix: int) -> list[str]:
    """Try every suffix up to the longest that can qualify, and lower each.

    This is the reference that ``blocks._candidates``, which builds the
    candidates as products of per-position symbol sets, is checked against.
    """
    a = len(row) - len(row.lstrip("v"))
    b = len(row) - len(row.rstrip("w"))
    base = row.count("0") + row.count("1")
    found = []
    for length in range(1, min(max_suffix, 7 - a - b) + 1):
        for suffix in map("".join, itertools.product("01uvw", repeat=length)):
            members = _lowerings(row + suffix)
            if len(members) == 1 and members[0].count("0") + members[0].count("1") == base + 1:
                found.append(suffix)
    found.sort()
    return found


def rows_of_length(n: int) -> list[str]:
    """Every row of ``n`` symbols, built from its shape ``v^p L (uu L)* w^q``."""
    return sorted(
        "v" * p + "uu".join(literals) + "w" * q
        for p, q in itertools.product(range(3), repeat=2)
        if n - p - q >= 1 and (n - p - q) % 3 == 1
        for literals in itertools.product("01", repeat=(n - p - q + 2) // 3)
    )


def raised_converting_sets(n: int) -> dict[str, list[str]]:
    """Each word of ``n`` symbols that lowers to some row, with those rows.

    Built from the row side: every row is raised symbol by symbol in each
    way ``RAISES`` allows, so no word is lowered.  This is the table that
    ``blocks.converting_set`` and ``blocks.is_row`` are checked against.
    """
    table = {}
    for row in rows_of_length(n):
        for word in map("".join, itertools.product(*(RAISES[s] for s in row))):
            table.setdefault(word, []).append(row)
    for rows in table.values():
        rows.sort()
    return table


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the budget
    # exit code; route every usage problem to the input-error code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(cli.EXIT_INPUT)


def reference_parser() -> _Parser:
    """The argparse parser that ``taglab.cli.parse_args`` replaces, kept as its oracle."""
    parser = _Parser(prog="taglab", description=cli.ABOUT)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the tag system from a word")
    p.add_argument("--word", required=True, help="binary word or @file")
    p.add_argument("--target", help="stop when this word is reached")
    p.add_argument("--budget", type=cli._positive, required=True, help="maximum steps")
    p.set_defaults(func=cli._cmd_simulate)

    p = sub.add_parser("verify-theorem", help="grid of direct growth checks")
    p.add_argument("n_max", type=cli._non_negative)
    p.add_argument("m_max", type=cli._non_negative)
    p.add_argument("budget", type=cli._positive)
    p.set_defaults(func=cli._cmd_verify_theorem)

    p = sub.add_parser("verify-omega", help="derive and check the growth certificate")
    p.add_argument("--emit", metavar="PATH", help="write the certificate document here")
    p.add_argument("--check", metavar="PATH", help="re-validate an existing document")
    p.add_argument("--seed-x", type=int, choices=(0, 1, 2), help="override the seed cut offset")
    p.add_argument("--flip-a", type=int, metavar="INDEX",
                   help="flip one symbol of the seed's left word")
    p.set_defaults(func=cli._cmd_verify_omega)

    p = sub.add_parser("blockset", help="list the converting set of a row word")
    p.add_argument("word")
    p.set_defaults(func=cli._cmd_blockset)

    p = sub.add_parser("block-search", help="search for qualifying building blocks")
    p.add_argument("max_rows", type=cli._positive)
    p.add_argument("budget", type=cli._positive)
    p.add_argument("threads", type=cli._positive,
                   help="worker count, at least 1; accepted, but the search is single-threaded")
    p.add_argument("--max-suffix", type=cli._positive, default=4)
    p.add_argument("--out", metavar="PATH", help="write the result document here")
    p.set_defaults(func=cli._cmd_block_search)

    p = sub.add_parser("decode", help="convert between token and binary forms")
    p.add_argument("input", help="token word, or binary word to encode")
    p.set_defaults(func=cli._cmd_decode)

    return parser
