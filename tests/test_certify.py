"""Growth-chain certification: derivations, closure, pinned stages, documents."""

import hashlib

import pytest

from taglab import words
from taglab.algebra import cut, pass_output
from taglab.certify import (
    CHAIN_STEPS,
    CHECK_NAMES,
    ChainCertificate,
    InvariantViolated,
    Quadruplet,
    StepChecks,
    certificate_problems,
    derive_next,
    direct_growth_check,
    instantiate,
    parse_certificate,
    recompute_checks,
    render_certificate,
    seed_quadruplet,
    total_pass_iterations,
    verify_chain,
)
from taglab.core import OutcomeKind, decode_tokens

from pins import CERTIFICATE
from reference import CHAIN_STAGES, full_pass_simulated


@pytest.fixture(scope="module")
def chain():
    return verify_chain(seed_quadruplet())


def test_quadruplet_validation():
    with pytest.raises(ValueError):
        Quadruplet("000", "0000", "0000", 0)
    with pytest.raises(ValueError):
        Quadruplet("0000", "0000", "0000", 3)
    with pytest.raises(ValueError):
        Quadruplet("000a", "0000", "0000", 0)


@pytest.mark.parametrize("offset", [False, True, 1.0, "1"])
def test_offsets_are_the_ints_0_1_and_2(offset):
    # a bool offset would render as "seed.x: False", which no document parses
    with pytest.raises(ValueError, match=f"^cut offset must be 0, 1 or 2, got {offset!r}$"):
        cut("0000", offset)
    with pytest.raises(ValueError, match=f"^cut offset must be 0, 1 or 2, got {offset!r}$"):
        Quadruplet(words.A, words.B, words.C, offset)


def test_first_derivation_offset(chain):
    first = derive_next(seed_quadruplet())
    assert first.derived.offset == 1
    assert first.y == 1


def test_first_derivation_left_word():
    first = derive_next(seed_quadruplet())
    assert first.derived.left == "000000110111011101"


def test_chain_certifies(chain):
    assert len(chain.step_certificates) == 13
    assert certificate_problems(chain) == []
    assert chain.closure_ok
    assert chain.valid


@pytest.mark.parametrize("failing", range(6))
def test_one_failed_check_fails_the_step(chain, failing):
    flags = [True] * 6
    flags[failing] = False
    steps = list(chain.step_certificates)
    steps[0] = steps[0]._replace(checks=StepChecks(*flags))
    forged = chain._replace(step_certificates=tuple(steps))
    assert certificate_problems(forged) == [
        f"step.1.checks.{CHECK_NAMES[failing]}: stored flag disagrees with recomputation"]
    assert not forged.valid


def test_unlinked_chains_are_not_valid(chain):
    # each step is recomputed from the stage before it: a step that is honest
    # on its own but does not follow from the previous stage fails its checks
    first = chain.step_certificates[0]
    repeated = chain._replace(step_certificates=(first,) * CHAIN_STEPS)
    assert all(all(step.checks) for step in repeated.step_certificates)
    assert "step.2.checks.d_ok: stored flag disagrees with recomputation" in (
        certificate_problems(repeated))
    assert not repeated.valid
    other = verify_chain(Quadruplet(words.A, words.A + words.B + words.C, words.C, 0))
    steps = list(chain.step_certificates)
    steps[6] = other.step_certificates[6]
    assert steps[6] != chain.step_certificates[6] and all(steps[6].checks)
    swapped = chain._replace(step_certificates=tuple(steps))
    problems = certificate_problems(swapped)
    assert "step.7.checks.e_ok: stored flag disagrees with recomputation" in problems
    assert "step.8.checks.e_ok: stored flag disagrees with recomputation" in problems
    assert not swapped.valid


def test_forged_derived_word_with_passing_flags_is_not_valid(chain):
    # a document whose flags all read pass is judged by recomputation, not by
    # its flags: flip one symbol of a derived word and leave the flags alone
    word = chain.quadruplets[3].left
    line = f"step.3.derived.a: {word}\n"
    text = render_certificate(chain)
    assert text.count(line) == 1
    flipped = "10"[int(word[0])] + word[1:]
    forged = parse_certificate(text.replace(line, f"step.3.derived.a: {flipped}\n"))
    assert all(all(cert.checks) for cert in forged.step_certificates) and forged.closure_ok
    assert not forged.valid
    assert "step.3.checks.d_ok: stored flag disagrees with recomputation" in (
        certificate_problems(forged))


def test_chain_closure_is_exact_word_equality(chain):
    seed = chain.quadruplets[0]
    last = chain.quadruplets[-1]
    assert last.left == seed.left
    assert last.mid == seed.left + seed.mid + seed.right
    assert last.right == seed.right
    assert last.offset == seed.offset


def test_chain_matches_reference_table(chain):
    stages = [(decode_tokens(left), decode_tokens(right), offset)
              for left, right, offset in CHAIN_STAGES]
    assert [(q.left, q.right, q.offset) for q in chain.quadruplets] == stages
    assert stages[0] == stages[-1] == (words.A, words.C, 0)


def test_foreign_symbol_in_a_constant_is_rejected_before_its_checksum(monkeypatch):
    name, word, length, digest = words._EXPECTED[0]
    corrupted = ((name, word.replace("0", "2"), length, digest),) + words._EXPECTED[1:]
    monkeypatch.setattr(words, "_EXPECTED", corrupted)
    with pytest.raises(RuntimeError, match="embedded constant A is corrupted"):
        words._verify_constants()


def test_flipped_symbol_in_a_constant_fails_its_checksum(monkeypatch):
    # same length, same alphabet: only the digest can tell
    name, word, length, digest = words._EXPECTED[0]
    flipped = word.replace("0", "1", 1)
    monkeypatch.setattr(words, "_EXPECTED", ((name, flipped, length, digest),) + words._EXPECTED[1:])
    with pytest.raises(RuntimeError, match="embedded constant A fails its checksum"):
        words._verify_constants()


def test_step_soundness_against_simulation(chain):
    # every certificate commutes with direct simulation for small powers
    for source, cert in zip(chain.quadruplets, chain.step_certificates):
        for n in range(4):
            for m in range(4):
                start = instantiate(source, n, m)
                expected = instantiate(cert.derived, n, m)
                assert full_pass_simulated(start) == expected


def test_full_pass_of_b_is_second_stage_instance(chain):
    second = chain.quadruplets[1]
    image = full_pass_simulated(words.B)
    assert image == instantiate(second, 0, 0)
    assert image == cut(second.mid, second.offset)
    assert image == cut(pass_output(words.B), (-len(words.B)) % 3)
    # the derived mid word obeys the pass-output length law
    assert len(second.mid) == sum(4 if s == "1" else 2 for s in words.B[::3])


def test_wrong_seed_offset_does_not_certify():
    bad_seed = Quadruplet(words.A, words.B, words.C, 1)
    try:
        bad_chain = verify_chain(bad_seed)
    except InvariantViolated:
        return
    assert certificate_problems(bad_chain) != []


@pytest.mark.parametrize("flip, offset",
                         [(i, 0) for i in range(len(words.A))] + [(None, 1), (None, 2)])
def test_perturbed_seeds_fail_their_own_steps(flip, offset):
    # the seed check rejects all of these at once; each must fail without it
    left = words.A
    if flip is not None:
        left = left[:flip] + ("1" if left[flip] == "0" else "0") + left[flip + 1:]
    try:
        chain = verify_chain(Quadruplet(left, words.B, words.C, offset))
    except InvariantViolated:
        return
    assert chain.closure_ok is False


def test_certificate_problems_pin_the_seed_and_the_step_count(chain):
    seed_problem = f"seed: not the {CHAIN_STEPS}-step chain from (A, B, C, 0)"
    # (A, ABC, C, 0) grows like the paper's seed and its chain closes
    other = verify_chain(Quadruplet(words.A, words.A + words.B + words.C, words.C, 0))
    assert not other.valid
    assert certificate_problems(other) == [seed_problem]
    # the genuine chain run on for 13 more steps no longer closes
    certificates = list(chain.step_certificates)
    for _ in range(CHAIN_STEPS):
        certificates.append(derive_next(certificates[-1].derived))
    longer = ChainCertificate(chain.seed, tuple(certificates), False)
    assert certificate_problems(longer) == ["closure_ok: fail", seed_problem]


def test_zero_step_chain_fails_closure():
    # a document may claim no steps at all: the seed alone is not its grown form
    chain = ChainCertificate(seed_quadruplet(), (), False)
    assert parse_certificate(render_certificate(chain)) == chain
    assert certificate_problems(chain) == [
        "closure_ok: fail", f"seed: not the {CHAIN_STEPS}-step chain from (A, B, C, 0)"]


def test_instantiate_with_zero_powers_is_mid_word():
    assert instantiate(seed_quadruplet(), 0, 0) == words.B


def test_instantiate_single_powers():
    word = instantiate(seed_quadruplet(), 1, 1)
    assert word == words.A + words.B + words.C
    assert len(word) == 2474


def test_instantiate_applies_cut():
    offset_seed = Quadruplet(words.A, words.B, words.C, 2)
    assert instantiate(offset_seed, 0, 0) == words.B[2:]


def test_instantiate_rejects_negative_powers():
    with pytest.raises(ValueError):
        instantiate(seed_quadruplet(), -1, 0)


def test_direct_growth_at_origin():
    outcome = direct_growth_check(0, 0, 20000)
    assert outcome.kind is OutcomeKind.TARGET_REACHED
    assert outcome.steps_taken == 10444


def test_direct_growth_needs_budget():
    outcome = direct_growth_check(1, 0, 1)
    assert outcome.kind is OutcomeKind.BUDGET_EXHAUSTED


@pytest.mark.parametrize("n, m", [(-3, -2), (-1, 0), (0, -1)])
def test_direct_growth_rejects_negative_powers(n, m):
    # "A" * -1 is empty, so without the check B would "grow" into B at step 0
    with pytest.raises(ValueError, match="powers must be non-negative"):
        direct_growth_check(n, m, 500)


def test_chain_iteration_total(chain):
    total = total_pass_iterations(chain)
    assert total == 10444
    assert total <= 20000


def test_chain_iterations_match_direct_replay(chain):
    # the chain's predicted step count is exact, not just a bound; (200, 200)
    # runs 72 844 steps on words of about 16 800 symbols, so its chunks take
    # thousands of steps and expand long samples
    cells = [(n, m) for n in range(6) for m in range(6)]
    for n, m in cells + [(9, 9), (0, 37), (41, 0), (200, 200)]:
        predicted = total_pass_iterations(chain, n, m)
        assert predicted == 10444 + 78 * n + 234 * m, (n, m)
        outcome = direct_growth_check(n, m, budget=predicted)
        assert outcome.kind is OutcomeKind.TARGET_REACHED, (n, m)
        assert outcome.steps_taken == predicted


def test_recompute_checks_flags_tampering(chain):
    cert = chain.step_certificates[0]
    tampered = Quadruplet(
        cert.derived.left,
        cert.derived.mid[:-1] + ("0" if cert.derived.mid[-1] == "1" else "1"),
        cert.derived.right,
        cert.derived.offset,
    )
    checks = recompute_checks(chain.seed, tampered)
    assert not checks.e_ok
    assert checks.d_ok and checks.f_ok


def test_certificate_document_round_trip(chain):
    text = render_certificate(chain)
    parsed = parse_certificate(text)
    assert parsed == chain
    assert render_certificate(parsed) == text
    assert certificate_problems(parsed) == []


def test_certificate_document_is_pinned(chain):
    digest = hashlib.sha256(render_certificate(chain).encode()).hexdigest()
    assert digest == CERTIFICATE


def test_certificate_parse_rejects_malformed_documents(chain):
    text = render_certificate(chain)
    with pytest.raises(ValueError):
        parse_certificate(text.replace("version: 1", "version: 9", 1))
    with pytest.raises(ValueError):
        parse_certificate("not a document\n")
    truncated = "".join(text.splitlines(keepends=True)[:-2])
    with pytest.raises(ValueError):
        parse_certificate(truncated + "closure_ok: true\n")
    with pytest.raises(ValueError):
        parse_certificate(text.replace("step.1.checks.l_a: pass", "step.1.checks.l_a: yes", 1))
    with pytest.raises(ValueError, match="^steps must not be negative, got -1$"):
        parse_certificate(text.replace("\nsteps: 13\n", "\nsteps: -1\n", 1))


def test_certificate_problems_catch_word_tampering(chain):
    text = render_certificate(chain)
    lines = text.splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if line.startswith("step.3.derived.a: "))
    word = lines[target].split(": ")[1].strip()
    flipped = ("1" if word[0] == "0" else "0") + word[1:]
    lines[target] = f"step.3.derived.a: {flipped}\n"
    tampered = parse_certificate("".join(lines))
    problems = certificate_problems(tampered)
    assert any("step.3" in p for p in problems)
    assert "step.3.checks.d_ok: stored flag disagrees with recomputation" in problems


def test_certificate_problems_report_failed_checks(chain):
    # a tampered word whose flag admits the failure is still reported
    step = chain.step_certificates[-1]
    derived = step.derived._replace(left=step.derived.left[::-1])
    step = step._replace(derived=derived, checks=step.checks._replace(d_ok=False))
    tampered = chain._replace(step_certificates=chain.step_certificates[:-1] + (step,))
    assert "step.13.checks.d_ok: fail" in certificate_problems(tampered)


def test_certificate_problems_catch_flag_tampering(chain):
    text = render_certificate(chain)
    tampered = parse_certificate(
        text.replace("step.5.checks.y_eq: pass", "step.5.checks.y_eq: fail", 1)
    )
    problems = certificate_problems(tampered)
    assert "step.5.checks.y_eq: stored flag disagrees with recomputation" in problems
