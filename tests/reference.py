"""Slow reference implementations that the suite checks the fast paths against."""

import itertools

from taglab.algebra import _require_pass_length
from taglab.blocks import _lowerings, row_key
from taglab.core import DEFAULT_PRODUCTION, check_word


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
