"""Residue algebra: cutting, pass output, and the closed form of a full pass."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from taglab import words
from taglab.algebra import cut, length_residue, pass_output
from taglab.core import WordTooShort

from reference import full_pass_simulated

binary_words = st.text(alphabet="01")
passable_words = st.text(alphabet="01", min_size=4, max_size=300)


def test_length_residue_of_empty_word():
    assert length_residue("") == 0


def test_length_residue_of_family_words():
    assert length_residue(words.A) == 0
    assert length_residue(words.B) == 2
    assert length_residue(words.C) == 0


def test_cut_removes_prefix():
    assert cut("1010001", 2) == "10001"


def test_cut_with_zero_offset():
    assert cut("101", 0) == "101"


def test_cut_with_reduced_negative_offset():
    # an offset of -1 reduces to 2 modulo 3
    assert cut("101100", 2) == "1100"


def test_cut_rejects_unreduced_offsets():
    with pytest.raises(ValueError):
        cut("0000", 3)
    with pytest.raises(ValueError):
        cut("0000", -1)


def test_cut_rejects_short_words():
    with pytest.raises(WordTooShort):
        cut("1", 2)


def test_pass_output_of_single_one():
    assert pass_output("1") == "1101"


def test_pass_output_samples_every_third():
    assert pass_output("000100") == "001101"


def test_pass_output_of_empty_word():
    assert pass_output("") == ""


def test_full_pass_on_four_zeros():
    assert full_pass_simulated("0000") == "00"
    assert cut(pass_output("0000"), (-4) % 3) == "00"


def test_full_pass_needs_four_symbols():
    with pytest.raises(WordTooShort):
        full_pass_simulated("000")


def test_full_pass_algebraic_skips_cut_for_residue_zero():
    doubled = words.A + words.A
    assert length_residue(doubled) == 0
    closed = cut(pass_output(doubled), (-len(doubled)) % 3)
    assert full_pass_simulated(doubled) == closed == pass_output(doubled)


@given(binary_words, st.data())
def test_residue_drops_with_deletions(word, data):
    n = data.draw(st.integers(0, len(word)))
    assert length_residue(word[n:]) == (length_residue(word) - n) % 3


@given(binary_words, binary_words)
def test_residue_is_a_homomorphism(s, t):
    assert length_residue(s + t) == (length_residue(s) + length_residue(t)) % 3


@given(
    st.text(alphabet="01", min_size=4),
    st.text(alphabet="01", min_size=4),
    st.integers(0, 2),
)
def test_pass_output_splits_over_concatenation(s, t, x):
    shifted = (x - length_residue(s)) % 3
    assert pass_output(cut(s + t, x)) == pass_output(cut(s, x)) + pass_output(cut(t, shifted))


@given(passable_words)
@settings(deadline=None)
def test_full_pass_closed_form(word):
    assert full_pass_simulated(word) == cut(pass_output(word), (-len(word)) % 3)


def test_full_pass_closed_form_on_every_short_word():
    # all 8176 binary words of 4-12 symbols
    for length in range(4, 13):
        for word in map("".join, itertools.product("01", repeat=length)):
            assert full_pass_simulated(word) == cut(pass_output(word), (-len(word)) % 3)


@given(binary_words)
def test_pass_output_length_law(word):
    sampled = word[::3]
    expected = sum(4 if symbol == "1" else 2 for symbol in sampled)
    assert len(pass_output(word)) == expected
