"""Pass/fail reports emitted by every verifier, and the immutable record class
that the report, coefficient and operator classes share."""

from __future__ import annotations

import json
import time
from functools import wraps

from .exact import rational_str

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


class Record:
    """An immutable record whose ``__slots__`` name its fields, in order.

    A subclass's ``__init__`` sets every field once through ``_init``; after
    that, assignment raises ``AttributeError``.  Equality and hash go by type
    and field values.  These plain slotted classes stand in for frozen
    dataclasses: importing ``dataclasses`` loads ``inspect``, ``ast`` and
    ``dis``, which every cold run of the CLI would pay for at start-up."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Mismatch(Record):
    __slots__ = ("exponent", "lhs", "rhs")

    def __init__(self, exponent: int, lhs: str, rhs: str):
        self._init(exponent, lhs, rhs)


class VerificationReport(Record):
    __slots__ = ("identity", "order", "status", "first_mismatch", "elapsed_ms")

    def __init__(self, identity: str, order: int, status: str, first_mismatch, elapsed_ms: int):
        if (status == FAIL) != (first_mismatch is not None):
            raise ValueError("first_mismatch must be present exactly when status is FAIL")
        self._init(identity, order, status, first_mismatch, elapsed_ms)

    def to_dict(self) -> dict:
        out = dict(zip(self.__slots__, self._fields()))
        if self.first_mismatch is not None:
            out["first_mismatch"] = dict(zip(Mismatch.__slots__, self.first_mismatch._fields()))
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def start_clock() -> float:
    return time.perf_counter()


def _elapsed_ms(t0: float, at: float | None = None) -> int:
    return int(((time.perf_counter() if at is None else at) - t0) * 1000)


def passed(identity: str, order: int, t0: float) -> VerificationReport:
    return VerificationReport(identity, order, PASS, None, _elapsed_ms(t0))


def skipped(identity: str, order: int, t0: float) -> VerificationReport:
    return VerificationReport(identity, order, SKIPPED, None, _elapsed_ms(t0))


def failed(
    identity: str, order: int, t0: float, exponent: int, lhs, rhs, at=None
) -> VerificationReport:
    """A FAIL at ``exponent``, timed to ``at``, the ``perf_counter`` reading when
    the verdict was reached, or to now."""
    mm = Mismatch(exponent=exponent, lhs=str(lhs), rhs=str(rhs))
    return VerificationReport(identity, order, FAIL, mm, _elapsed_ms(t0, at))


def compare_series(identity, order, lhs, rhs, exponents, t0) -> VerificationReport:
    """PASS iff lhs and rhs agree at every listed exponent.

    The scan order of ``exponents`` fixes which mismatch is reported first,
    so callers list them from the leading term inward.  Reading an exponent
    outside either known window raises, lhs's before rhs's, which keeps a
    too-shallow computation from masquerading as a pass.  Both rows are
    canonical with positive denominators, so each exponent is decided in ints,
    ``n_l D_r == n_r D_l``; Rationals are built only for a FAIL's strings.
    """
    ld, rd = lhs._row._den, rhs._row._den
    for e in exponents:
        if lhs._numerator(e) * rd != rhs._numerator(e) * ld:
            lv, rv = lhs.coefficient(e), rhs.coefficient(e)
            return failed(identity, order, t0, e, rational_str(lv), rational_str(rv))
    return passed(identity, order, t0)


def verifier(identity: str):
    """A verifier from a generator of ``(lhs, rhs, exponents)`` checks whose first
    parameter is ``order``: the clock starts at the call, and the first FAIL of
    :func:`compare_series` is the report, so later checks are never built."""

    def decorate(checks):
        @wraps(checks)
        def run(order, *args, **kwargs) -> VerificationReport:
            t0 = start_clock()
            for lhs, rhs, exponents in checks(order, *args, **kwargs):
                rep = compare_series(identity, order, lhs, rhs, exponents, t0)
                if rep.status != PASS:
                    return rep
            return passed(identity, order, t0)

        return run

    return decorate
