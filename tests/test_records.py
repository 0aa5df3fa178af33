"""The report, coefficient and operator classes are immutable records: keyword
or positional construction, equality and hash by fields, no assignment, and
the checks their constructors make."""

import copy
import pickle

import pytest

from branchflow import FlowCoeffs, LinearOp, Mismatch, VerificationReport
from branchflow.branches import BranchCoeffs
from branchflow.exact import ONE, Rational
from branchflow.report import FAIL, PASS, failed, start_clock
from branchflow.series import SeriesError


def _identity(key):
    return ((key, 1),)


# (class, keyword fields, one field changed)
RECORDS = [
    (Mismatch, {"exponent": 3, "lhs": "1/36", "rhs": "-1/7"}, {"rhs": "0"}),
    (
        VerificationReport,
        {"identity": "v-ode", "order": 12, "status": PASS, "first_mismatch": None,
         "elapsed_ms": 4},
        {"order": 13},
    ),
    (BranchCoeffs, {"family": "b", "values": (ONE, Rational(1, 3))}, {"family": "c"}),
    (FlowCoeffs, {"values": (ONE, ONE), "law": "even", "sign": -1}, {"sign": 1}),
    (LinearOp, {"name": "id", "image": _identity, "den": 2}, {"den": 1}),
]


@pytest.mark.parametrize("cls, fields, changed", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_their_contract(cls, fields, changed):
    record = cls(**fields)
    assert record.__slots__ == tuple(fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == cls(*fields.values())
    assert hash(record) == hash(cls(*fields.values()))
    assert record != cls(**{**fields, **changed})
    assert not hasattr(record, "__dict__")
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(fields)))
    assert {name: getattr(record, name) for name in fields} == fields
    assert copy.copy(record) == record == copy.deepcopy(record)
    if cls is not LinearOp:  # an operator's image may be a closure
        assert pickle.loads(pickle.dumps(record)) == record


def test_record_defaults_and_checks():
    assert (FlowCoeffs((ONE,)).law, FlowCoeffs((ONE,)).sign) == ("standard", 1)
    assert LinearOp("id", _identity).den == 1
    with pytest.raises(SeriesError):
        FlowCoeffs((ONE,), sign=2)
    with pytest.raises(ValueError):
        VerificationReport("v-ode", 12, FAIL, None, 4)
    with pytest.raises(ValueError):
        VerificationReport("v-ode", 12, PASS, Mismatch(3, "1", "2"), 4)
    flipped = FlowCoeffs((ONE,), "even").with_sign(-1)
    assert flipped == FlowCoeffs((ONE,), "even", -1)


def test_report_json_lines_are_unchanged():
    # the lines the frozen-dataclass reports printed, byte for byte
    mismatch = Mismatch(exponent=3, lhs="1/36", rhs="-1/7")
    assert VerificationReport("v-ode", 12, FAIL, mismatch, 4).to_json_line() == (
        '{"elapsed_ms": 4, "first_mismatch": {"exponent": 3, "lhs": "1/36", "rhs": "-1/7"}, '
        '"identity": "v-ode", "order": 12, "status": "FAIL"}'
    )
    assert VerificationReport("grading(m=2)", 9, PASS, None, 0).to_json_line() == (
        '{"elapsed_ms": 0, "first_mismatch": null, "identity": "grading(m=2)", "order": 9, '
        '"status": "PASS"}'
    )


def test_a_failure_is_timed_to_its_verdict_or_to_now():
    # a scan's forked child reads the clock at its verdict; the report keeps that reading
    mismatch = Mismatch(3, "1/36", "-1/7")
    report = failed("grading(m=2)", 9, 100.0, 3, Rational(1, 36), "-1/7", at=101.5)
    assert report == VerificationReport("grading(m=2)", 9, FAIL, mismatch, 1500)
    assert failed("grading(m=2)", 9, start_clock() - 2, 3, "1/36", "-1/7").elapsed_ms >= 2000
