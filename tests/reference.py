"""Slow reference implementations that the suite checks the fast paths against."""

from taglab.algebra import _require_pass_length
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
