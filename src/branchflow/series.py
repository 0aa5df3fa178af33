"""Truncated formal Laurent series over exact rationals.

A :class:`GradedSeries` carries a truncation *direction*: ascending series
are expansions toward ``z -> 0`` (every exponent below ``prec`` is exact),
descending series are expansions toward ``z -> infinity`` (every exponent
above ``prec`` is exact).  ``prec`` is the first unknown exponent in the
truncation direction; ``prec=None`` means the series is exact to all orders
(a Laurent polynomial).

Every operation computes the depth that is actually provable for its result
from the depths of its inputs, so a coefficient read through
:meth:`GradedSeries.coefficient` is either exact or an error -- never a
silently wrong tail value.

The coefficients are one :class:`~branchflow.exact.Row` keyed by exponent,
the layout that module describes; ``coeffs`` is its read-only view, so a
series, like every series the caches hand out, cannot be changed in place.
Window bookkeeping uses ``w = exponent`` for ascending and ``w = -exponent``
for descending series, which makes the two directions share one code path:
terms get *smaller* as ``w`` grows, and the unknown region is always
``w >= wprec``.
"""

from __future__ import annotations

import math

from .exact import ONE, ZERO, Rational, Row, check_int, rational, rational_str

ASCENDING = "ascending"
DESCENDING = "descending"


class SeriesError(ValueError):
    """Base class for series precondition violations."""


class DirectionMismatchError(SeriesError):
    """Arithmetic between series of different truncation directions."""


class LeadingTermError(SeriesError):
    """Operation requires a leading-term shape the argument does not have."""


class SubstitutionError(SeriesError):
    """Composition would not converge order by order."""


class TruncationError(SeriesError):
    """Operation needs a finite truncation window it was not given."""


class GradedSeries:
    __slots__ = ("direction", "_row", "prec")

    def __init__(self, direction, coeffs=None, prec=None):
        if direction not in (ASCENDING, DESCENDING):
            raise SeriesError(f"unknown direction {direction!r}")
        if prec is not None:
            check_int(prec, "prec")
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                check_int(e, "an exponent")
                c = rational(c)
                if c == 0:
                    continue
                if prec is not None:
                    inside = e < prec if direction == ASCENDING else e > prec
                    if not inside:
                        raise SeriesError(
                            f"coefficient at z^{e} lies outside the known window (prec={prec})"
                        )
                clean[e] = c
        self.direction = direction
        self._row = Row(clean)
        self.prec = prec

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, direction, prec=None):
        return cls(direction, {}, prec)

    @classmethod
    def constant(cls, value, direction, prec=None):
        return cls(direction, {0: value}, prec)

    @classmethod
    def monomial(cls, exponent, coeff=1, direction=ASCENDING, prec=None):
        return cls(direction, {exponent: coeff}, prec)

    @classmethod
    def identity(cls, direction, prec=None):
        return cls(direction, {1: 1}, prec)

    @classmethod
    def _cut(cls, direction, row, wprec):
        """Wraps the canonical ``row``, keyed by exponent, with its terms at
        ``w >= wprec`` dropped."""
        sign, num = (1 if direction == ASCENDING else -1), row._num
        if wprec is not None and num and (max(num) if sign == 1 else -min(num)) >= wprec:
            row = Row._canon({e: n for e, n in num.items() if sign * e < wprec}, row._den)
        g = object.__new__(cls)
        g.direction, g._row, g.prec = direction, row, None if wprec is None else sign * wprec
        return g

    @property
    def coeffs(self):
        """The read-only ``{exponent: Rational}`` view of the known terms."""
        return self._row.terms

    # --- window bookkeeping (w-space) ---------------------------------

    def _w(self, e):
        return e if self.direction == ASCENDING else -e

    @property
    def wprec(self):
        if self.prec is None:
            return None
        return self.prec if self.direction == ASCENDING else -self.prec

    @property
    def wlead(self):
        num = self._row._num
        if not num:
            return None
        return min(num) if self.direction == ASCENDING else -max(num)

    @property
    def lead(self):
        w = self.wlead
        if w is None:
            return None
        return w if self.direction == ASCENDING else -w

    @property
    def lead_coeff(self):
        e = self.lead
        return None if e is None else self.coeffs[e]

    @property
    def depth(self):
        """Tracked orders beyond the leading term (None if exact)."""
        if self.prec is None:
            return None
        base = self.wlead if self._row._num else 0
        return self.wprec - base - 1

    def is_zero(self) -> bool:
        return not self._row._num

    def known(self, exponent) -> bool:
        check_int(exponent, "an exponent")
        wp = self.wprec
        return wp is None or self._w(exponent) < wp

    def coefficient(self, exponent):
        num = self._numerator(exponent)
        return Rational(num, self._row._den) if num else ZERO

    def _numerator(self, exponent) -> int:
        """The int numerator at ``exponent`` over the row's denominator; an
        exponent outside the known window raises ``TruncationError``."""
        if not self.known(exponent):
            raise TruncationError(
                f"coefficient at z^{exponent} is beyond the known window (prec={self.prec})"
            )
        return self._row._num.get(exponent, 0)

    def support(self):
        return sorted(self._row._num, key=self._w)

    def truncate(self, prec):
        check_int(prec, "prec")
        return self._truncate_w(self._w(prec))

    def _truncate_w(self, wp):
        if wp is None:
            return self
        cur = self.wprec
        if cur is not None and wp > cur:
            raise TruncationError(
                f"cannot widen window: requested w<{wp} but only w<{cur} is known"
            )
        if cur is not None and wp == cur:
            return self
        return GradedSeries._cut(self.direction, self._row, wp)

    # --- comparison / display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (
            self.direction == other.direction
            and self.prec == other.prec
            and self._row == other._row
        )

    __hash__ = None

    def __repr__(self):
        terms = []
        for e in self.support()[:10]:
            c = self.coeffs[e]
            if e == 0:
                terms.append(rational_str(c))
            else:
                terms.append(f"{rational_str(c)}*z^{e}")
        if len(self._row._num) > 10:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        tail = "" if self.prec is None else f" + O(z^{self.prec})"
        return f"<{self.direction} {body}{tail}>"

    # --- ring operations ------------------------------------------------

    def _check_direction(self, other):
        if self.direction != other.direction:
            raise DirectionMismatchError(
                f"cannot combine {self.direction} and {other.direction} series"
            )

    def _add_scalar(self, value):
        value = rational(value)
        if value == 0:
            return self
        wp = self.wprec
        if wp is not None and wp <= 0:
            raise TruncationError("constant term lies beyond the known window")
        return _sum(self.direction, ((1, self), (value, GradedSeries.constant(1, self.direction))))

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return self._add_scalar(other)
        self._check_direction(other)
        return _sum(self.direction, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return _sum(self.direction, ((-1, self),))

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedSeries) else -rational(other))

    def __rsub__(self, other):
        return (-self)._add_scalar(other)

    def _scale(self, value):
        value = rational(value)
        if value == 0:
            # an exact zero factor annihilates the unknown tail as well
            return GradedSeries.zero(self.direction)
        return _sum(self.direction, ((value, self),))

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self._scale(other)
        self._check_direction(other)
        ra, rb = self._row, other._row
        if (self.prec is None and not ra._num) or (other.prec is None and not rb._num):
            return GradedSeries.zero(self.direction)
        wpa, wpb = self.wprec, other.wprec
        # a lead stand-in of wprec for a window of zeros keeps the rule sound
        wla = self.wlead if ra._num else wpa
        wlb = other.wlead if rb._num else wpb
        wp = min((e + lead for e, lead in ((wpa, wlb), (wpb, wla)) if e is not None), default=None)
        sign = 1 if self.direction == ASCENDING else -1
        return GradedSeries._cut(self.direction, rb._mul(sign, wp)(ra), wp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GradedSeries):
            return self * other.reciprocal()
        other = rational(other)
        if other == 0:
            raise ZeroDivisionError("series divided by zero scalar")
        return self._scale(ONE / other)

    def shift(self, delta):
        """Multiply by z**delta (exact)."""
        check_int(delta, "delta")
        if delta == 0:
            return self
        row = Row._of({e + delta: n for e, n in self._row._num.items()}, self._row._den)
        wp = self.wprec
        return GradedSeries._cut(self.direction, row, None if wp is None else wp + self._w(delta))

    def invert_variable(self):
        """Substitute z -> 1/z, flipping the truncation direction; w is unchanged."""
        direction = DESCENDING if self.direction == ASCENDING else ASCENDING
        row = Row._of({-e: n for e, n in self._row._num.items()}, self._row._den)
        return GradedSeries._cut(direction, row, self.wprec)

    # --- multiplicative structure ---------------------------------------

    def reciprocal(self):
        return self._power(-1)

    def _rest(self):
        """The numerators after the lead, keyed by w relative to it, ascending."""
        L, lead = self.wlead, self.lead
        return dict(sorted((self._w(e) - L, n) for e, n in self._row._num.items() if e != lead))

    def _placed(self, g, wlead, wprec):
        """The series of the row ``g``, keyed by w relative to ``wlead``."""
        row = Row._canon({self._w(k + wlead): n for k, n in g._num.items()}, g._den)
        return GradedSeries._cut(self.direction, row, wprec)

    def __pow__(self, n):
        if not isinstance(n, int):
            return self.pow(n)
        if n == 0:
            return GradedSeries.constant(1, self.direction)
        return self._power(n)

    def pow(self, exponent):
        """Raise to a rational power; a non-integer one needs unit leading coefficient.

        An integer exponent is ``x ** n``.  A non-integer power ``r`` of
        ``z^e0 (1 + s)`` is ``z^(r*e0) (1 + s)^r``, where ``r*e0`` must be an
        integer; :meth:`_power` computes it.
        """
        r = rational(exponent)
        if r.denominator == 1:
            return self ** int(r)
        if self.is_zero():
            raise LeadingTermError("rational power of a series with no known leading term")
        if self.wprec is None:
            raise TruncationError("rational power needs a finite window; truncate() first")
        e0 = self.lead
        if self.coeffs[e0] != 1:
            raise LeadingTermError(
                f"rational power requires unit leading coefficient, got {rational_str(self.coeffs[e0])}"
            )
        if (r * e0).denominator != 1:
            raise LeadingTermError(
                f"exponent {r} * leading exponent {e0} is not an integer"
            )
        return self._power(r.numerator, r.denominator)

    def _power(self, p, q=1):
        """``x^(p/q)`` for ``x = c z^e0 (1 + s)``: ``c^(p/q) z^(p e0/q) (1 + s)^(p/q)``.

        The second factor comes from J.C.P. Miller's recurrence (see
        :func:`_first_order`); ``q > 1`` needs ``c = 1`` and an integer
        ``p e0/q``, which :meth:`pow` checks.  A truncated result is known to
        the input's relative depth, ``wprec - wlead`` orders past its lead,
        as repeated products would give.  An exact input to a power ``n > 0``
        gives the exact polynomial, ``n`` times the input's span; a truncated
        zero gives zero on ``n`` times its window, as ``*`` does.  Where that
        span is wider than the input's term pairs, the power is taken by
        repeated squaring, each product accumulated by terms.
        """
        wp = self.wprec
        num = self._row._num
        if wp is None and q == 1 and p > 0 and num and max(num) - min(num) > len(num) ** 2:
            out, base = None, self
            while True:
                if p & 1:
                    out = base if out is None else out * base
                p >>= 1
                if not p:
                    return out
                base = base * base
        if p < 0:
            if self.is_zero():
                raise LeadingTermError("reciprocal of a series with no known leading term")
            if wp is None:
                raise TruncationError("reciprocal does not terminate on exact input; truncate() first")
        elif self.is_zero():
            return GradedSeries._cut(self.direction, self._row, None if wp is None else p * wp)
        # over the row's denominator D, (n_L + S)^(p/q) solves (q n_L + q S) g' = p S' g
        L, den, nl, rest = self.wlead, self._row._den, self._row._num[self.lead], self._rest()
        head = Rational(nl, den) ** p if q == 1 else ONE
        depth = p * max(rest, default=0) + 1 if wp is None else wp - L
        out = _first_order(rest, depth, p, q, q * nl, head)
        lead = p * L // q
        return self._placed(out, lead, None if wp is None else wp - L + lead)

    def sqrt(self):
        return self.pow(Rational(1, 2))

    # --- transcendental maps ---------------------------------------------

    def exp(self):
        """``e^s`` for ``s`` without a constant term, known on the window of ``s``.

        ``E = e^s`` solves ``E' = s'E``, so in w-space ``e_0 = 1`` and
        ``e_k = (1/k) sum_{j=1..k} j s_j e_(k-j)`` (:func:`_first_order`).
        ``e_k`` reads only ``s_1 .. s_k``, so every ``w < wprec`` is exact.
        """
        if self.is_zero():
            return GradedSeries.constant(1, self.direction)._truncate_w(self.wprec)
        if self.wlead < 1:
            raise LeadingTermError(
                "exp requires every term to lower the order strictly (no constant term)"
            )
        wp = self.wprec
        if wp is None:
            raise TruncationError("exp does not terminate on exact input; truncate() first")
        s = dict(sorted((self._w(e), n) for e, n in self._row._num.items()))
        return self._placed(_first_order(s, wp, 1, 0, self._row._den), 0, wp)

    def log(self):
        """``log(1 + s)`` for ``s`` without a constant term, known on its window.

        ``L = log(1 + s)`` solves ``(1 + s)L' = s'``, so in w-space ``L_0 = 0`` and
        ``k L_k = k s_k - sum_{j=1..k-1} (k-j) L_(k-j) s_j`` (:func:`_first_order`).
        ``L_k`` reads only ``s_1 .. s_k``, so every ``w < wprec`` is exact.
        """
        if self.wlead != 0 or self.lead_coeff != 1:
            raise LeadingTermError("log requires leading term exactly 1")
        wp = self.wprec
        if len(self._row._num) == 1:
            return GradedSeries.zero(self.direction, self.prec)
        if wp is None:
            raise TruncationError("log does not terminate on exact input; truncate() first")
        out = _first_order(self._rest(), wp, 0, 1, self._row._den, head=ZERO, source=True)
        return self._placed(out, 0, wp)

    # --- calculus ---------------------------------------------------------

    def derivative(self):
        row = Row._canon({e - 1: n * e for e, n in self._row._num.items()}, self._row._den)
        wp = self.wprec
        return GradedSeries._cut(self.direction, row, None if wp is None else wp - self._w(1))

    # --- substitution ------------------------------------------------------

    def compose(self, inner):
        """Substitute ``inner`` for the variable of this series.

        Convergent shapes:
          * ascending outer, ascending inner with lead exponent >= 1;
          * ascending outer, descending inner with lead exponent <= -1;
          * descending outer, descending inner of shape z*(1 + lower orders).
        Negative outer exponents are evaluated through ``inner.reciprocal()``.
        The outer series is evaluated as a polynomial in ``inner`` by
        baby steps and giant steps (:func:`_eval_polynomial`).
        """
        outer = self
        if not isinstance(inner, GradedSeries):
            raise TypeError("compose expects a GradedSeries inner argument")
        m = inner.lead
        if m is None:
            raise SubstitutionError("inner series has no known leading term")
        if outer.direction == ASCENDING:
            if inner.direction == ASCENDING:
                if m < 1:
                    raise SubstitutionError(
                        f"ascending substitution needs inner lead exponent >= 1, got z^{m}"
                        + (" (constant term present)" if m == 0 else "")
                    )
            else:
                if m > -1:
                    raise SubstitutionError(
                        f"descending inner must vanish at infinity (lead exponent <= -1), got z^{m}"
                    )
            rdir = inner.direction
        else:
            if inner.direction != DESCENDING or m != 1 or inner.lead_coeff != 1:
                raise SubstitutionError(
                    "descending outer requires a descending inner of shape z*(1 + lower orders)"
                )
            rdir = DESCENDING

        if outer.prec is None:
            wcap = None
        elif outer.direction == ASCENDING:
            wcap = inner.wlead * outer.prec
        else:
            wcap = outer.wprec

        num = outer._row._num
        if not num:
            return GradedSeries._cut(rdir, Row._of({}, 1), wcap)

        # the numerators of the outer series, scaled by its denominator at the end
        kmin = min(num)
        acc = _eval_polynomial(num, kmin, max(num) - kmin, inner)
        if kmin:
            acc = acc * inner ** kmin
        acc = acc / outer._row._den
        if wcap is not None and (acc.wprec is None or wcap < acc.wprec):
            acc = acc._truncate_w(wcap)
        return acc

    def revert(self):
        """Compositional inverse by Lagrange-Buermann inversion.

        Ascending input must look like ``c1*z + ...`` with ``c1 != 0``;
        descending input must look like ``z + c0 + c1/z + ...``.  Ascending
        ``g`` is ``c1 w (1 + t)``, and ``[z^k] g^-1 = (1/k) [w^(k-1)] (w/g(w))^k
        = c1^-k / k * sum_i C(-k, i) [w^(k-1)] t^i``.  The powers ``t^i``, for
        ``i`` up to ``wprec - 2``, are one table: each row ``t^(i-1) t`` is one
        cut product by ``t``, ``Row._mul``, at ``w^(wprec-2)``, is summed into
        int accumulators over the running lcm of the row denominators and is
        dropped; one Rational is built per result coefficient.  Descending
        ``g`` is conjugated to the ascending ``G(t) = 1/g(1/t)``, whose inverse
        conjugates back the same way.  The result window matches the input's.
        """
        g = self
        wp = g.wprec
        if wp is None:
            raise TruncationError("reversion needs a finite window; truncate() first")
        if g.direction == DESCENDING:
            if g.lead != 1 or g.lead_coeff != 1:
                raise LeadingTermError("descending reversion needs shape z*(1 + lower orders)")
            conj = g.invert_variable().reciprocal()
            return conj.revert().reciprocal().invert_variable()
        if g.lead != 1:
            raise LeadingTermError("ascending reversion needs shape c1*z + higher with c1 != 0")
        # over the row's denominator D, c1 = n_1/D and t = T/n_1; acc[k] / den
        # is sum_i C(-k, i) [w^(k-1)] t^i, C(-k, i) = (-1)^i C(k+i-1, i)
        n1, top = g._row._num[1], wp - 2
        t = Row._canon(g._rest(), n1)
        acc, den = [0, 1, *[0] * top], 1
        power, times_t = Row._of({0: 1}, 1), t._mul(1, top + 1)
        for i in range(1, top + 1):
            power = times_t(power)
            if not power._num:
                break
            if den % power._den:
                f = power._den // math.gcd(den, power._den)
                acc, den = [c * f for c in acc], den * f
            f = (-1) ** i * (den // power._den)
            for d, x in power._num.items():
                acc[d + 1] += f * math.comb(d + i, i) * x
        # [z^k] g^-1 = acc[k] / den * (D/n_1)^k / k
        ratio = Rational(g._row._den, n1)
        p, q, pk, qk, coeffs = ratio.numerator, ratio.denominator, 1, 1, {}
        for k in range(1, wp):
            pk, qk = pk * p, qk * q
            if acc[k]:
                coeffs[k] = Rational(acc[k] * pk, den * qk * k)
        return GradedSeries._cut(ASCENDING, Row(coeffs), wp)


def _sum(direction, pairs):
    """sum c s over (rational c, series s) pairs, known where every s is known."""
    wp = min((s.wprec for _, s in pairs if s.prec is not None), default=None)
    return GradedSeries._cut(direction, Row._combine([(c, s._row) for c, s in pairs]), wp)


def _eval_polynomial(coeffs, kmin, deg, x):
    """``sum_{j=0..deg} coeffs[kmin + j] * x^j``; absent keys are zero.

    Baby steps and giant steps (Paterson-Stockmeyer 1973, as used for
    composition by Brent-Kung 1978): with ``m = isqrt(deg)`` it forms the
    baby steps ``x^0 .. x^m``, sums each block of ``m`` coefficients against
    them, and runs Horner's rule in ``x^m`` over the blocks: about
    ``2 sqrt(deg)`` series products where Horner's rule in ``x`` takes
    ``deg``.  Every product and sum derives its own window; terms that fall
    beyond the running window are dropped with the rest of the unknown tail.
    """
    m = max(1, math.isqrt(deg))
    powers = [GradedSeries.constant(1, x.direction), x]
    while len(powers) <= m:
        powers.append(powers[-1] * x)
    acc = None
    for base in range(kmin + deg // m * m, kmin - 1, -m):
        terms = [(coeffs[base + j], powers[j]) for j in range(m) if base + j in coeffs]
        block = _sum(x.direction, terms)
        acc = block if acc is None else acc * powers[m] + block
    return acc


def _first_order(s, depth, p, b, q, head=ONE, source=False):
    """The row ``g_0 = head, g_1 .. g_(depth-1)`` solving ``(q + b s) g' = p s' g (+ s')``.

    ``s`` maps ``j >= 1``, ascending, to ``s_j``; ``s'`` joins the right side
    when ``source`` is set.  The coefficients of ``w^(k-1)`` give ``q k g_k =
    [source] k s_k + sum_{j=1..k} ((p + b) j - b k) s_j g_(k-j)``, one pass
    over ``s`` per coefficient.  ``b`` and ``q`` set to ``r`` and ``r c``
    give J.C.P. Miller's recurrence for ``head (1 + s/c)^(p/r)``: with ``r = 1``
    and ``head = c^p`` that is ``(c + s)^p`` for any integer ``p``.  ``p, b = 1,
    0`` with ``q = 1`` gives ``e^s``, and ``p, b = 0, 1`` with ``q = 1``,
    ``head = 0`` and ``source`` gives ``log(1 + s)``.
    Scaling ``q`` and ``s`` together scales both sides, so a caller whose
    ``s`` is int numerators over ``D`` passes them with ``q`` times ``D`` and
    the same ``head``: every sum then runs in ints, over the denominator of
    the ``g`` solved so far, each ``g_k`` goes into the row as the int pair
    ``(acc, q k den)`` through ``Row._put``, with no Rational built, and the
    row it returns may hold zeros.
    """
    g = Row._of({0: head.numerator}, head.denominator)
    gn = g._num
    for k in range(1, depth):
        acc = k * s.get(k, 0) * g._den if source else 0
        for j, sj in s.items():
            if j > k:
                break
            gj = gn[k - j]
            if gj:
                acc += ((p + b) * j - b * k) * sj * gj
        g._put(k, acc, q * k * g._den)
    return g


# --- hyperbolic maps -------------------------------------------------------


def coth(g):
    """``cosh g / sinh g``, known to the relative depth of ``g``.

    For an odd ``g`` (every exponent odd), e^(-g) is e^g at -z, so cosh g and
    sinh g are the even and odd parts of one ``e = e^g``; any other ``g`` takes
    ``(e + 1)/(e - 1)`` with ``e = e^(2g)``.
    """
    if _is_odd(g):
        even, odd = _parity_parts(g.exp())
        return even * odd.reciprocal()
    e = (2 * g).exp()
    return (e + 1) * (e - 1).reciprocal()


def csch(g):
    """``1/sinh g``, known to the relative depth of ``g``: the reciprocal of the
    odd part of ``e^g`` for an odd ``g``, else ``2/(e - 1/e)`` with ``e = e^g``."""
    if _is_odd(g):
        return _parity_parts(g.exp())[1].reciprocal()
    e = g.exp()
    return 2 * (e - e.reciprocal()).reciprocal()


def _is_odd(g):
    return all(e % 2 for e in g._row._num)


def _parity_parts(x):
    """The even and odd parts of ``x``, each on the window of ``x``."""
    num, den = x._row._num, x._row._den
    parts = ({e: n for e, n in num.items() if e % 2 == r} for r in (0, 1))
    return tuple(GradedSeries._cut(x.direction, Row._canon(p, den), x.wprec) for p in parts)
