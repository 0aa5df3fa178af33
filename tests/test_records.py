"""The report, coefficient and operator classes are immutable records: keyword
or positional construction, equality and hash by fields, no assignment, and
the checks their constructors make."""

import copy
import pickle

import pytest

from branchflow import FlowCoeffs, LinearOp, Mismatch, VerificationReport
from branchflow.branches import BranchCoeffs
from branchflow.exact import ONE, Rational
from branchflow.report import FAIL, PASS, compare_series, failed, start_clock
from branchflow.series import ASCENDING, DESCENDING, GradedSeries, SeriesError, TruncationError


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


def test_record_repr_names_the_fields_in_order():
    assert repr(Mismatch(3, "1/36", "-1/7")) == "Mismatch(exponent=3, lhs='1/36', rhs='-1/7')"
    assert repr(FlowCoeffs((ONE,), law="even", sign=-1)) == (
        "FlowCoeffs(values=(Fraction(1, 1),), law='even', sign=-1)"
    )


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


def _series(coeffs, prec=None, direction=ASCENDING):
    return GradedSeries(direction, {e: Rational(c) for e, c in coeffs.items()}, prec)


def test_compare_series_passes_rows_whose_denominators_differ_off_the_window():
    lhs = _series({0: "1/2", 1: "-1/3"}, prec=4)
    rhs = _series({0: "1/2", 1: "-1/3", 2: "0", 3: "5/7"}, prec=6)  # 5/7 raises rhs's lcm
    assert (lhs._row._den, rhs._row._den) == (6, 42)
    report = compare_series("id", 3, lhs, rhs, range(0, 3), start_clock())
    assert (report.status, report.first_mismatch) == (PASS, None)
    desc = _series({1: 1, -2: "3/11"}, prec=-3, direction=DESCENDING)
    assert compare_series("id", 3, desc, desc + _series({-4: 1}, direction=DESCENDING),
                          range(1, -3, -1), start_clock()).status == PASS


def test_compare_series_reports_the_first_mismatch_as_before():
    lhs = _series({0: 1, 1: "-2/3", 2: "4/9", 3: 5}, prec=5)
    rhs = _series({0: 1, 1: "-2/3", 2: "4/10", 4: "1/8"}, prec=5)
    report = compare_series("id", 4, lhs, rhs, range(0, 5), start_clock())
    assert report.first_mismatch == Mismatch(2, "4/9", "2/5")
    assert report.status == FAIL
    # a term absent on one side reads as 0; integral values print without a denominator
    later = compare_series("id", 4, lhs, rhs, range(3, 5), start_clock())
    assert later.first_mismatch == Mismatch(3, "5", "0")
    assert compare_series("id", 4, rhs, lhs, [4], start_clock()).first_mismatch == Mismatch(
        4, "1/8", "0"
    )


def test_compare_series_reads_lhs_window_before_rhs():
    lhs, rhs = _series({0: 1}, prec=2), _series({0: 1}, prec=1)
    with pytest.raises(TruncationError, match=r"z\^2 .*prec=2"):
        compare_series("id", 2, lhs, rhs, [0, 2], start_clock())
    with pytest.raises(TruncationError, match=r"z\^1 .*prec=1"):
        compare_series("id", 2, lhs, rhs, [0, 1], start_clock())
    # a mismatch ahead of the edge is reported before the edge is reached
    other = _series({0: 2}, prec=1)
    assert compare_series("id", 2, lhs, other, [0, 2], start_clock()).status == FAIL
