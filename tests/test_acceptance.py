"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see every line.
"""

import contextlib
import itertools
import random
import time

import pytest

from taglab import words
from taglab.algebra import cut, length_residue, pass_output
from taglab.blocks import converting_set, create_initial_blocks, is_row
from taglab.certify import (
    certificate_problems,
    direct_growth_check,
    seed_quadruplet,
    total_pass_iterations,
    verify_chain,
)
from taglab.cli import main
from taglab.core import OutcomeKind, decode_tokens

from reference import CHAIN_STAGES, full_pass_simulated, raised_converting_sets, rows_of_length


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_exact_step_count():
    with criterion(1, "b reaches abc in exactly 10444 steps"):
        started = time.perf_counter()
        outcome = direct_growth_check(0, 0, 20000)
        elapsed = time.perf_counter() - started
        assert outcome.kind is OutcomeKind.TARGET_REACHED
        assert outcome.steps_taken == 10444
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_growth_grid_to_five():
    with criterion(2, "growth reached for all powers up to five"):
        for n in range(6):
            for m in range(6):
                outcome = direct_growth_check(n, m, 200_000)
                assert outcome.kind is OutcomeKind.TARGET_REACHED, (n, m)
                assert outcome.steps_taken <= 200_000


def test_criterion_3_chain_certification():
    with criterion(3, "13-step chain certifies with closure and reference match"):
        chain = verify_chain(seed_quadruplet())
        assert len(chain.step_certificates) == 13
        assert certificate_problems(chain) == []
        assert chain.closure_ok
        seed = chain.quadruplets[0]
        last = chain.quadruplets[-1]
        assert last == type(last)(
            seed.left, seed.left + seed.mid + seed.right, seed.right, seed.offset
        )
        assert [(q.left, q.right, q.offset) for q in chain.quadruplets] == [
            (decode_tokens(left), decode_tokens(right), offset)
            for left, right, offset in CHAIN_STAGES
        ]
        assert total_pass_iterations(chain) <= 20000


def test_criterion_4_full_pass_closed_form_equivalence():
    with criterion(4, "simulated full pass is the cut pass output on 1000 words"):
        rng = random.Random(0x5EED1)
        for _ in range(1000):
            length = rng.randint(4, 300)
            word = "".join(rng.choice("01") for _ in range(length))
            assert full_pass_simulated(word) == cut(pass_output(word), (-len(word)) % 3)


def test_criterion_5_residue_identities():
    with criterion(5, "residue-drop and split identities hold on 1000 instances each"):
        rng = random.Random(0x5EED2)
        for _ in range(1000):
            length = rng.randint(0, 300)
            word = "".join(rng.choice("01") for _ in range(length))
            n = rng.randint(0, length)
            assert length_residue(word[n:]) == (length_residue(word) - n) % 3
        for _ in range(1000):
            s = "".join(rng.choice("01") for _ in range(rng.randint(4, 200)))
            t = "".join(rng.choice("01") for _ in range(rng.randint(4, 200)))
            x = rng.randint(0, 2)
            shifted = (x - length_residue(s)) % 3
            assert pass_output(cut(s + t, x)) == pass_output(cut(s, x)) + pass_output(
                cut(t, shifted)
            )


def test_criterion_6_converting_sets_exhaustive():
    with criterion(6, "converting sets and rows match raised rows for all words up to length 8"):
        assert converting_set("1uu11100") == ["1uu1uu0w"]
        assert converting_set("v1w0") == ["v1ww"]
        assert converting_set("0000") == ["0uu0", "v0ww", "vv0w"]
        assert converting_set("111") == ["1ww", "v1w", "vv1"]
        assert converting_set("10101") == ["1uu0w", "v0uu1", "vv1ww"]
        assert converting_set("w1v") == []

        for length in range(9):
            rows = frozenset(rows_of_length(length))
            table = raised_converting_sets(length)
            for word in map("".join, itertools.product("vuw01", repeat=length)):
                assert converting_set(word) == table.get(word, []), word
                assert is_row(word) == (word in rows), word


def test_criterion_7_initial_block_reproduction():
    with criterion(7, "illustrated initial block appears at depth five"):
        blocks = create_initial_blocks("v1w", 5)
        assert ("v1w", "1uu1", "vv0uu1ww", "v0uu0w", "v0ww", "0w") in blocks


def test_criterion_8_negative_controls(capsys):
    with criterion(8, "perturbed seeds never certify"):
        for offset in ("1", "2"):
            assert main(["verify-omega", "--seed-x", offset]) == 3, f"offset {offset}"
        for index in range(len(words.A)):
            code = main(["verify-omega", "--flip-a", str(index)])
            assert code == 3, f"flip at index {index}"
        capsys.readouterr()


def test_criterion_9_search_documents_thread_independent(tmp_path, capsys):
    with criterion(9, "search documents identical across 1 and 8 workers"):
        one = tmp_path / "workers1.txt"
        eight = tmp_path / "workers8.txt"
        assert main(["block-search", "2", "100", "1", "--out", str(one)]) == 0
        assert main(["block-search", "2", "100", "8", "--out", str(eight)]) == 0
        assert one.read_bytes() == eight.read_bytes()
        capsys.readouterr()
