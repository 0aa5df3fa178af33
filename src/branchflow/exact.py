"""Exact rational arithmetic plus shared integer tables.

Everything downstream assumes coefficients form an exact field: no floats
anywhere in the computational path.  ``Rational`` is the stdlib Fraction.
The hot loops do not build one per term: :class:`Row` keeps a row of them as
Python-int numerators over one denominator (FLINT's ``fmpq_poly`` layout), so
a sum of products runs in ints and builds one Rational for its result.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction
BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)


def rational(value, denominator=None):
    """Coerce ints, strings like ``-7/3``, Fractions, or Rationals."""
    if denominator is not None:
        return Rational(value) / Rational(denominator)
    return Rational(value)


def rational_str(value) -> str:
    """Canonical ``num/den`` rendering (plain ``num`` when integral)."""
    return str(Rational(value))


class Row:
    """Rationals ``{key: value}`` as int numerators ``nums`` over one ``den`` > 0.

    ``put`` raises ``den`` to the lcm with a new value's denominator only when
    the value needs it, and then rescales the numerators in place."""

    __slots__ = ("nums", "den")

    def __init__(self, values: dict):
        self.den = den = math.lcm(*(v.denominator for v in values.values()))
        self.nums = {k: v.numerator * (den // v.denominator) for k, v in values.items()}

    def put(self, key, value) -> None:
        q, den = value.denominator, self.den
        if den % q:
            self.den = math.lcm(den, q)
            scale, den, nums = self.den // den, self.den, self.nums
            for k in nums:
                nums[k] *= scale
        self.nums[key] = value.numerator * (den // q)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! == 0!! == 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


_bernoulli_table: list = []


def bernoulli(n: int):
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    Computed as the reciprocal of (e^t - 1)/t in the series engine and cached;
    the table is extended in blocks, to twice the index asked for.
    """
    if n < 0:
        raise ValueError(f"Bernoulli number undefined for index {n}")
    if n >= len(_bernoulli_table):
        _fill_bernoulli(max(2 * n, 32))
    return _bernoulli_table[n]


def _fill_bernoulli(upto: int) -> None:
    # (e^t - 1)/t = sum t^k / (k+1)!; its reciprocal generates B_m / m!.
    from .series import ASCENDING, GradedSeries

    expm1_over_t = GradedSeries(
        ASCENDING,
        {k: Rational(1, factorial(k + 1)) for k in range(upto + 1)},
        prec=upto + 1,
    )
    gen = expm1_over_t.reciprocal()
    table = [gen.coefficient(m) * factorial(m) for m in range(upto + 1)]
    _bernoulli_table[:] = table
