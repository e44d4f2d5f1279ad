"""Result records: immutable, equal and hashed by value, validated on construction."""

import pytest

from taglab.blocks import Provenance, SearchHit, check_conditions, search
from taglab.certify import Quadruplet, derive_next, seed_quadruplet, verify_chain
from taglab.core import OutcomeKind, RunOutcome, run

HIT_ROWS = ("1uu1uu0w", "v1uu1uu1ww", "1uu1uu0uu1ww", "1uu1uu0w")


def hit():
    provenance = Provenance("1w", 2)
    return SearchHit(HIT_ROWS, provenance, check_conditions(HIT_ROWS, provenance))


# Each entry builds a fresh record from equal fields and names one of its
# fields, then all of them in order: records equal plain tuples, so the order
# is part of their interface.
RECORDS = {
    "RunOutcome": (
        lambda: run("100100100", budget=1000), "cycle_length",
        ("kind", "steps_taken", "final", "cycle_length"),
    ),
    "Quadruplet": (seed_quadruplet, "offset", ("left", "mid", "right", "offset")),
    "StepChecks": (
        lambda: derive_next(seed_quadruplet()).checks, "l_a",
        ("l_a", "l_c", "y_eq", "d_ok", "e_ok", "f_ok"),
    ),
    "StepCertificate": (
        lambda: derive_next(seed_quadruplet()), "y", ("derived", "y", "checks"),
    ),
    "ChainCertificate": (
        lambda: verify_chain(seed_quadruplet()), "closure_ok",
        ("seed", "step_certificates", "closure_ok"),
    ),
    "Provenance": (lambda: Provenance("0"), "extensions", ("seed", "extensions")),
    "ConditionReport": (
        lambda: check_conditions(HIT_ROWS), "cond_i", ("cond_i", "cond_ii", "cond_iii", "cond_iv"),
    ),
    "SearchHit": (hit, "rows", ("rows", "provenance", "report")),
    "SearchResult": (
        lambda: search(2, 10), "examined",
        ("hits", "examined", "skipped_duplicates", "exhausted"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    build, field, _ = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_and_hash_by_value(name):
    build, _, _ = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_their_field_order(name):
    build, _, fields = RECORDS[name]
    assert build()._fields == fields


def test_defaults_and_keyword_construction():
    assert Provenance("0") == Provenance(seed="0", extensions=0)
    assert RunOutcome(OutcomeKind.HALTED, 0, "0").cycle_length is None
    with pytest.raises(ValueError):
        RunOutcome(kind=OutcomeKind.CYCLED, steps_taken=5, final="000")
    with pytest.raises(ValueError):
        Quadruplet(left="0000", mid="0000", right="0000", offset=3)
    with pytest.raises(ValueError):
        Quadruplet("0000", "0000", right="00", offset=0)
    assert Quadruplet(left="0000", mid="0000", right="0000", offset=2).offset == 2
    with pytest.raises(ValueError, match="cycle_length is present exactly when the run cycled"):
        RunOutcome(OutcomeKind.HALTED, 0, "0", 3)
    with pytest.raises(ValueError, match="cut offset must be 0, 1 or 2, got 3"):
        Quadruplet("0000", "0000", "0000", 3)
    with pytest.raises(ValueError, match="quadruplet words need at least four symbols"):
        Quadruplet("0000", "000", "0000", 0)
