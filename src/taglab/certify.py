"""Machine-checked certification that the family A^n B C^m grows forever.

The family is tracked through quadruplets (left, mid, right, offset) standing
for the truncated words (left^n mid right^m) with the first ``offset`` symbols
removed, uniformly in n and m.  One derivation step maps a quadruplet to its
image under a full pass; a chain of 13 steps that closes back onto
(left, left mid right, right, offset) certifies that every family member
eventually reproduces itself with one extra left and right factor, hence
grows without bound.

A chain holds each stage once, as its document does: the seed, then each
step's derived quadruplet, cut offset y and six recomputable side conditions.
``certificate_problems`` re-checks a chain, built in Python or parsed from
its line-oriented key/value document.
"""

from __future__ import annotations

from collections import namedtuple

from taglab import words
from taglab.algebra import cut, length_residue, pass_output
from taglab.core import RunOutcome, check_word, run

DOCUMENT_VERSION = "1"

# the paper's chain: 13 full passes take the seed to its grown form
CHAIN_STEPS = 13

CHECK_NAMES = ("l_a", "l_c", "y_eq", "d_ok", "e_ok", "f_ok")


class InvariantViolated(Exception):
    """The quadruplet cannot participate in a derivation step."""


class Quadruplet(namedtuple("Quadruplet", "left mid right offset")):
    """Three words plus a cut offset describing (left^n mid right^m) truncated."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for word in (self.left, self.mid, self.right):
            check_word(word)
            if len(word) < 4:
                raise ValueError("quadruplet words need at least four symbols")
        cut(self.left, self.offset)  # rejects any offset but the ints 0, 1 and 2
        return self


class StepChecks(namedtuple("StepChecks", CHECK_NAMES)):
    """Pass/fail record of the side conditions of one derivation step."""

    __slots__ = ()


class StepCertificate(namedtuple("StepCertificate", "derived y checks")):
    __slots__ = ()


class ChainCertificate(namedtuple("ChainCertificate", "seed step_certificates closure_ok")):
    __slots__ = ()

    @property
    def quadruplets(self) -> tuple[Quadruplet, ...]:
        """Every stage: the seed, then each step's derived quadruplet."""
        return (self.seed, *(step.derived for step in self.step_certificates))

    @property
    def valid(self) -> bool:
        """The checker's verdict: ``certificate_problems`` finds nothing, the seed included."""
        return not certificate_problems(self)


def seed_quadruplet() -> Quadruplet:
    return Quadruplet(words.A, words.B, words.C, 0)


def recompute_checks(source: Quadruplet, derived: Quadruplet) -> StepChecks:
    """Re-derive every side condition from the two quadruplets alone."""
    y = derived.offset
    return StepChecks(
        l_a=length_residue(source.left) == 0,
        l_c=length_residue(source.right) == 0,
        y_eq=(source.offset - length_residue(source.mid)) % 3 == y,
        d_ok=derived.left == pass_output(cut(source.left, source.offset)),
        e_ok=derived.mid == pass_output(cut(source.mid, source.offset)),
        f_ok=derived.right == pass_output(cut(source.right, y)),
    )


def derive_next(source: Quadruplet) -> StepCertificate:
    """Map a quadruplet through one full pass, recording the side conditions.

    The outer words must have length residue 0; otherwise the powers of the
    derived quadruplet would not track the powers of the source one.
    """
    if length_residue(source.left) != 0 or length_residue(source.right) != 0:
        raise InvariantViolated(
            "outer words must have length divisible by 3 "
            f"(residues {length_residue(source.left)}, {length_residue(source.right)})"
        )
    y = (source.offset - length_residue(source.mid)) % 3
    derived = Quadruplet(
        pass_output(cut(source.left, source.offset)),
        pass_output(cut(source.mid, source.offset)),
        pass_output(cut(source.right, y)),
        y,
    )
    return StepCertificate(derived, y, recompute_checks(source, derived))


def closure_target(seed: Quadruplet) -> Quadruplet:
    return Quadruplet(seed.left, seed.left + seed.mid + seed.right, seed.right, seed.offset)


def verify_chain(seed: Quadruplet) -> ChainCertificate:
    """Derive CHAIN_STEPS times from ``seed`` and test closure onto the grown seed."""
    steps, stage = [], seed
    for _ in range(CHAIN_STEPS):
        steps.append(derive_next(stage))
        stage = steps[-1].derived
    return ChainCertificate(seed, tuple(steps), stage == closure_target(seed))


def instantiate(q: Quadruplet, n: int, m: int) -> str:
    """The concrete family member (left^n mid right^m) cut by the offset."""
    if n < 0 or m < 0:
        raise ValueError("powers must be non-negative")
    return cut(q.left * n + q.mid + q.right * m, q.offset)


def total_pass_iterations(chain: ChainCertificate, n: int = 0, m: int = 0) -> int:
    """Tag iterations one simulation spends tracing the whole chain at (n, m)."""
    return sum(-(-len(instantiate(q, n, m)) // 3) for q in chain.quadruplets[:-1])


def direct_growth_check(n: int, m: int, budget: int = 200_000) -> RunOutcome:
    """Simulate A^n B C^m until it literally becomes A^(n+1) B C^(m+1)."""
    if n < 0 or m < 0:
        raise ValueError("powers must be non-negative")
    start = words.A * n + words.B + words.C * m
    target = words.A * (n + 1) + words.B + words.C * (m + 1)
    return run(start, budget=budget, target=target)


def certificate_problems(chain: ChainCertificate) -> list[str]:
    """Every failed or inconsistent condition in the certificate, empty if sound.

    Step i's conditions are recomputed from stage i - 1, and the chain must
    start at the paper's seed and take CHAIN_STEPS steps: closure alone would
    also accept a chain for another family.  So a chain with no problems,
    built in Python or parsed, is the genuine one stage for stage.
    """
    problems = []
    stages = chain.quadruplets
    for i, cert in enumerate(chain.step_certificates, start=1):
        expected = recompute_checks(stages[i - 1], cert.derived)
        for name, stored, actual in zip(CHECK_NAMES, cert.checks, expected):
            if stored != actual:
                problems.append(
                    f"step.{i}.checks.{name}: stored flag disagrees with recomputation"
                )
            elif not actual:
                problems.append(f"step.{i}.checks.{name}: fail")
        if cert.y != cert.derived.offset:
            problems.append(f"step.{i}.y: does not match the derived cut offset")
    closure_actual = stages[-1] == closure_target(chain.seed)
    if chain.closure_ok != closure_actual:
        problems.append("closure_ok: stored flag disagrees with recomputation")
    elif not closure_actual:
        problems.append("closure_ok: fail")
    if chain.seed != seed_quadruplet() or len(chain.step_certificates) != CHAIN_STEPS:
        problems.append(f"seed: not the {CHAIN_STEPS}-step chain from (A, B, C, 0)")
    return problems


def render_certificate(chain: ChainCertificate) -> str:
    """Serialize a chain certificate to the line-oriented document format."""
    lines = [
        f"version: {DOCUMENT_VERSION}",
        *_quadruplet_lines("seed", chain.seed),
        f"steps: {len(chain.step_certificates)}",
    ]
    for i, cert in enumerate(chain.step_certificates, start=1):
        lines.append(f"step.{i}.y: {cert.y}")
        for name, value in zip(CHECK_NAMES, cert.checks):
            lines.append(f"step.{i}.checks.{name}: {'pass' if value else 'fail'}")
        lines.extend(_quadruplet_lines(f"step.{i}.derived", cert.derived))
    lines.append(f"closure_ok: {'true' if chain.closure_ok else 'false'}")
    return "\n".join(lines) + "\n"


def _quadruplet_lines(prefix: str, q: Quadruplet) -> list[str]:
    return [f"{prefix}.{key}: {value}" for key, value in zip("abcx", q)]


def _entry(data: dict, key: str) -> str:
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"certificate document is missing {key!r}") from None


def _flag(data: dict, key: str, words: tuple[str, str] = ("pass", "fail")) -> bool:
    value = _entry(data, key)
    if value not in words:
        raise ValueError(f"{key!r} must be {words[0]} or {words[1]}, got {value!r}")
    return value == words[0]


def _quadruplet(data: dict, prefix: str) -> Quadruplet:
    left, mid, right, offset = [_entry(data, f"{prefix}.{key}") for key in "abcx"]
    return Quadruplet(left, mid, right, int(offset))


def parse_certificate(text: str) -> ChainCertificate:
    """Rebuild a chain certificate from its document form.

    Structural defects raise ValueError; whether the certificate is sound is
    a separate question answered by ``certificate_problems``.
    """
    data = {}
    for number, line in enumerate(text.splitlines(), start=1):
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"line {number}: expected 'key: value'")
        if key in data:
            raise ValueError(f"line {number}: duplicate key {key!r}")
        data[key] = value
    if _entry(data, "version") != DOCUMENT_VERSION:
        raise ValueError(f"unsupported certificate version {data['version']!r}")
    seed = _quadruplet(data, "seed")
    steps = int(_entry(data, "steps"))
    if steps < 0:
        raise ValueError(f"steps must not be negative, got {steps}")
    certificates = []
    for i in range(1, steps + 1):
        y = int(_entry(data, f"step.{i}.y"))
        checks = StepChecks(
            **{name: _flag(data, f"step.{i}.checks.{name}") for name in CHECK_NAMES}
        )
        certificates.append(StepCertificate(_quadruplet(data, f"step.{i}.derived"), y, checks))
    closure_ok = _flag(data, "closure_ok", ("true", "false"))
    expected_keys = 7 + 11 * steps
    if len(data) != expected_keys:
        raise ValueError(f"certificate has {len(data)} entries, expected {expected_keys}")
    return ChainCertificate(seed, tuple(certificates), closure_ok)
