"""Slow reference implementations and pinned data that the suite checks the fast paths against."""

import itertools

from taglab.algebra import _require_pass_length
from taglab.blocks import _lowerings, row_key
from taglab.core import DEFAULT_PRODUCTION, check_word

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


def full_pass_simulated(word: str) -> str:
    """Run the tag step until every symbol of the input has been deleted.

    One symbol at a time, on purpose: this is the reference that the closed
    form ``algebra.full_pass_algebraic`` is checked against.
    """
    _require_pass_length(word)
    check_word(word)
    for _ in range(-(-len(word) // 3)):
        word = word[3:] + DEFAULT_PRODUCTION[word[0]]
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
    found.sort(key=row_key)
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
