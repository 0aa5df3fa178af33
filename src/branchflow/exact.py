"""Exact rational arithmetic, the one coefficient layout, and shared integer tables.

Everything downstream assumes coefficients form an exact field: no floats
anywhere in the computational path.  ``Rational`` is the stdlib Fraction.
Every row of coefficients -- a series keyed by exponent, a q-polynomial keyed
by monomial -- is a :class:`Row`: Python-int numerators over one positive
denominator (FLINT's ``fmpq_poly`` layout), canonical: no zero numerator and
``gcd(den, *nums) = 1``.  So equal values have equal rows, the denominator is
the lcm of the reduced ones, sums of products run in ints, and a Rational is
built only where a row is read.  Every truncated product of rows keyed by int
exponents -- series, flow terms, reversion's powers -- is one :meth:`Row._mul`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction

Rational = Fraction
BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)


def rational(value, denominator=None):
    """Coerce ints, strings like ``-7/3``, Fractions, or Rationals.  A float is
    refused: its binary value is not the decimal it was written as."""
    if isinstance(value, float) or isinstance(denominator, float):
        raise TypeError("float coefficients are not exact; pass int, str, or Rational")
    if denominator is not None:
        return Rational(value) / Rational(denominator)
    return value if type(value) is Rational else Rational(value)


def check_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {value!r}")


def rational_str(value) -> str:
    """Canonical ``num/den`` rendering (plain ``num`` when integral)."""
    return str(Rational(value))


class Row:
    """Rationals ``{key: value}`` as int numerators ``_num`` over one ``_den`` > 0.

    ``_canon`` and ``_combine`` return canonical rows of the class they are
    called on; a scratch row grown by ``_put`` may hold zeros until then."""

    __slots__ = ("_num", "_den")

    def __init__(self, values: dict):
        self._den = den = math.lcm(*(v.denominator for v in values.values()))
        self._num = {k: v.numerator * (den // v.denominator) for k, v in values.items() if v}

    @classmethod
    def _of(cls, num: dict, den: int):
        """Wraps numerators over a denominator that are already canonical."""
        row = object.__new__(cls)
        row._num, row._den = num, den
        return row

    @classmethod
    def _canon(cls, num: dict, den: int):
        """The canonical row of the int numerators ``num`` over ``den`` > 0."""
        g = math.gcd(den, *num.values())  # a zero numerator leaves the gcd as it is
        return cls._of({k: v // g for k, v in num.items() if v}, den // g)

    @classmethod
    def _combine(cls, pairs):
        """sum c r over (rational c, row r) pairs, over the lcm of the c r denominators."""
        den = math.lcm(*(c.denominator * r._den for c, r in pairs))
        out: dict = {}
        get = out.get
        for c, r in pairs:
            f = c.numerator * (den // (c.denominator * r._den))
            for key, num in r._num.items():
                out[key] = get(key, 0) + f * num
        return cls._canon(out, den)

    def _mul(self, sign, edge):
        """The cut product by this row, keyed by int exponents: the function
        ``row ->`` the canonical row of ``row * self``, for any ``row``, without
        its terms at ``w = sign * key >= edge`` (an ``edge`` of None keeps all).
        This row is sorted into ``w`` order once, so repeated products by it sort
        nothing, and each term of ``row`` walks it only up to the edge.  The
        numerators accumulate in a list by ``w`` offset from the product's lead,
        or in a dict when that span, cut at the edge, is wider than the pairs."""
        num, den = self._num, self._den
        second = sorted(zip(map(sign.__mul__, num), num.values()))  # (w, numerator)

        def mul(row):
            a = row._num
            if not (a and second):
                return row._of({}, 1)
            lo, hi = (min(a), max(a)) if sign > 0 else (-max(a), -min(a))
            lo, hi = lo + second[0][0], hi + second[-1][0] + 1  # the product's w: [lo, hi)
            hi = hi if edge is None else min(hi, edge)
            sparse = hi - lo > len(a) * len(second)
            out = defaultdict(int) if sparse else [0] * max(hi - lo, 0)
            for ea, ca in a.items():
                wa = sign * ea
                stop, shift = hi - wa, wa - lo
                for wb, cb in second:
                    if wb >= stop:
                        break
                    out[wb + shift] += ca * cb
            if sparse:
                out = {sign * (lo + i): c for i, c in out.items()}
            else:
                out = dict(zip(range(sign * lo, sign * hi, sign), out))
            return row._canon(out, row._den * den)

        return mul

    def _put(self, key, num: int, den: int) -> None:
        """Sets ``key`` to ``num / den`` for ints with ``den != 0``, reduced by one
        gcd; ``_den`` rises to the lcm with the reduced denominator, rescaling the
        numerators, only when the value needs it.  A Rational goes in as its two
        parts.  A negative ``den`` needs no flip: the lcm is positive and
        ``_den // den`` carries the sign into the numerator."""
        g = math.gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
        d = self._den
        if d % den:
            self._den = math.lcm(d, den)
            scale, d, nums = self._den // d, self._den, self._num
            for k in nums:
                nums[k] *= scale
        self._num[key] = num * (d // den)

    @property
    def terms(self) -> Mapping:
        """The read-only ``{key: Rational}`` view."""
        return _Terms(self._num, self._den)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self._den == other._den and self._num == other._num

    __hash__ = None


class _Terms(Mapping):
    """Read-only {key: Rational} view of a row; len and keys read the numerators."""

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, key):
        return Rational(self._num[key], self._den)

    def __len__(self):
        return len(self._num)

    def __iter__(self):
        return iter(self._num)


def factorial(n: int) -> int:
    check_int(n, "n")
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! == 0!! == 1."""
    check_int(n, "n")
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

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers T_k,
    and every odd B_n but B_1 is 0.  Cached; the table is extended in blocks,
    to twice the index asked for.
    """
    check_int(n, "n")
    if n < 0:
        raise ValueError(f"Bernoulli number undefined for index {n}")
    if n >= len(_bernoulli_table):
        _fill_bernoulli(max(2 * n, 32))
    return _bernoulli_table[n]


def bernoulli_upto(n: int) -> list:
    """[B_0, ..., B_n]; a table shorter than that is filled once, to n."""
    check_int(n, "n")
    if n < 0:
        raise ValueError(f"Bernoulli number undefined for index {n}")
    if n >= len(_bernoulli_table):
        _fill_bernoulli(n)
    return _bernoulli_table[: n + 1]


def _fill_bernoulli(upto: int) -> None:
    # Tangent numbers T_1 .. T_K in place, ints only, in O(K^2) steps
    # (Brent & Harvey 2011, "Fast computation of Bernoulli, tangent and
    # secant numbers", Algorithm TangentNumbers).
    K = upto // 2
    t = [0, 1, *[0] * (K - 1)]
    for k in range(2, K + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [ONE, Rational(-1, 2)]
    for m in range(2, upto + 1):
        k = m // 2
        table.append(ZERO if m % 2 else Rational((-1) ** (k - 1) * m * t[k], 4**k * (4**k - 1)))
    _bernoulli_table[:] = table
