"""Length-residue algebra over binary words for the 3-deletion tag system.

Because every step deletes exactly three symbols, word lengths matter only
modulo 3 and whole sweeps of the system can be written in closed form: one
full pass over a word equals the production-sampled word cut by the length
residue, ``cut(pass_output(w), (-len(w)) % 3)``.  That identity is checked
against a step-by-step pass in ``tests/``.
"""

from taglab.core import WordTooShort, _expand, check_word


def length_residue(word: str) -> int:
    """Word length mod 3."""
    return len(word) % 3


def cut(word: str, offset: int) -> str:
    """Remove the first ``offset`` symbols; ``offset`` must be a reduced residue."""
    if type(offset) is not int or offset not in (0, 1, 2):
        raise ValueError(f"cut offset must be 0, 1 or 2, got {offset!r}")
    if len(word) < offset:
        raise WordTooShort(f"cannot cut {offset} symbols from length {len(word)}")
    return word[offset:]


def pass_output(word: str) -> str:
    """The symbols one full pass appends: every third symbol, production-expanded.

    Sampling starts at position 0; a sampled 1 contributes 1101 and a
    sampled 0 contributes 00.
    """
    check_word(word)
    return _expand(word[::3])

