"""Pass/fail reports emitted by every verifier."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import wraps
from typing import Optional

from .exact import rational_str

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class Mismatch:
    exponent: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    order: int
    status: str
    first_mismatch: Optional[Mismatch]
    elapsed_ms: int

    def __post_init__(self):
        if (self.status == FAIL) != (self.first_mismatch is not None):
            raise ValueError("first_mismatch must be present exactly when status is FAIL")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def start_clock() -> float:
    return time.perf_counter()


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def passed(identity: str, order: int, t0: float) -> VerificationReport:
    return VerificationReport(identity, order, PASS, None, _elapsed_ms(t0))


def skipped(identity: str, order: int, t0: float) -> VerificationReport:
    return VerificationReport(identity, order, SKIPPED, None, _elapsed_ms(t0))


def failed(identity: str, order: int, t0: float, exponent: int, lhs, rhs) -> VerificationReport:
    mm = Mismatch(exponent=exponent, lhs=str(lhs), rhs=str(rhs))
    return VerificationReport(identity, order, FAIL, mm, _elapsed_ms(t0))


def compare_series(identity, order, lhs, rhs, exponents, t0) -> VerificationReport:
    """PASS iff lhs and rhs agree at every listed exponent.

    The scan order of ``exponents`` fixes which mismatch is reported first,
    so callers list them from the leading term inward.  Reading an exponent
    outside either known window raises, which keeps a too-shallow
    computation from masquerading as a pass.
    """
    for e in exponents:
        lv = lhs.coefficient(e)
        rv = rhs.coefficient(e)
        if lv != rv:
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
