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

Internally order bookkeeping uses ``w = exponent`` for ascending and
``w = -exponent`` for descending series, which makes the two directions
share one code path: terms get *smaller* as ``w`` grows, and the unknown
region is always ``w >= wprec``.
"""

from __future__ import annotations

import math

from .exact import ONE, ZERO, Rational, Row, rational, rational_str

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


def _coerce(value):
    if type(value) is Rational:  # immutable, so shared as it is
        return value
    if isinstance(value, float):
        raise TypeError("float coefficients are not exact; pass int, str, or Rational")
    return rational(value)


class GradedSeries:
    __slots__ = ("direction", "coeffs", "prec")

    def __init__(self, direction, coeffs=None, prec=None):
        if direction not in (ASCENDING, DESCENDING):
            raise SeriesError(f"unknown direction {direction!r}")
        if prec is not None:
            prec = int(prec)
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coerce(c)
                if c == 0:
                    continue
                e = int(e)
                if prec is not None:
                    inside = e < prec if direction == ASCENDING else e > prec
                    if not inside:
                        raise SeriesError(
                            f"coefficient at z^{e} lies outside the known window (prec={prec})"
                        )
                clean[e] = c
        self.direction = direction
        self.coeffs = clean
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
    def _of(cls, direction, coeffs, prec):
        """Wraps Rationals that are already nonzero and inside the window."""
        g = object.__new__(cls)
        g.direction, g.coeffs, g.prec = direction, coeffs, prec
        return g

    @classmethod
    def _from_w(cls, direction, wcoeffs, wprec):
        sign = 1 if direction == ASCENDING else -1
        prec = None if wprec is None else sign * wprec
        return cls(direction, {sign * w: c for w, c in wcoeffs.items()}, prec)

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
        if not self.coeffs:
            return None
        return min(map(self._w, self.coeffs))

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
        base = self.wlead if self.coeffs else 0
        return self.wprec - base - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def known(self, exponent) -> bool:
        wp = self.wprec
        return wp is None or self._w(exponent) < wp

    def coefficient(self, exponent):
        if not self.known(exponent):
            raise TruncationError(
                f"coefficient at z^{exponent} is beyond the known window (prec={self.prec})"
            )
        return self.coeffs.get(exponent, ZERO)

    def support(self):
        return sorted(self.coeffs, key=self._w)

    def truncate(self, prec):
        wp = prec if self.direction == ASCENDING else -prec
        return self._truncate_w(wp)

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
        kept = {e: c for e, c in self.coeffs.items() if self._w(e) < wp}
        return GradedSeries._from_w(self.direction, {self._w(e): c for e, c in kept.items()}, wp)

    # --- comparison / display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (
            self.direction == other.direction
            and self.prec == other.prec
            and self.coeffs == other.coeffs
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
        if len(self.coeffs) > 10:
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
        value = _coerce(value)
        if value == 0:
            return self
        wp = self.wprec
        if wp is not None and wp <= 0:
            raise TruncationError("constant term lies beyond the known window")
        out = dict(self.coeffs)
        s = out.get(0, ZERO) + value
        if s == 0:
            out.pop(0, None)
        else:
            out[0] = s
        return GradedSeries(self.direction, out, self.prec)

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return self._add_scalar(other)
        self._check_direction(other)
        wa, wb = self.wprec, other.wprec
        if wa is None:
            wp = wb
        elif wb is None:
            wp = wa
        else:
            wp = min(wa, wb)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, ZERO) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        if wp is not None:
            out = {e: c for e, c in out.items() if self._w(e) < wp}
        return GradedSeries._from_w(self.direction, {self._w(e): c for e, c in out.items()}, wp)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries(self.direction, {e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedSeries) else -_coerce(other))

    def __rsub__(self, other):
        return (-self)._add_scalar(other)

    def _scale(self, value):
        value = _coerce(value)
        if value == 0:
            # an exact zero factor annihilates the unknown tail as well
            return GradedSeries.zero(self.direction)
        return GradedSeries(
            self.direction, {e: c * value for e, c in self.coeffs.items()}, self.prec
        )

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self._scale(other)
        self._check_direction(other)
        if (self.prec is None and not self.coeffs) or (other.prec is None and not other.coeffs):
            return GradedSeries.zero(self.direction)
        wpa, wpb = self.wprec, other.wprec
        # a lead stand-in of wprec for a window of zeros keeps the rule sound
        wla = self.wlead if self.coeffs else wpa
        wlb = other.wlead if other.coeffs else wpb
        wp = min((e + lead for e, lead in ((wpa, wlb), (wpb, wla)) if e is not None), default=None)
        # int numerators over the lcm of each factor's denominators
        ra, rb = Row(self.coeffs), Row(other.coeffs)
        sign, out = (1 if self.direction == ASCENDING else -1), {}
        for ea, ca in ra.nums.items():
            for eb, cb in rb.nums.items():
                if wp is None or sign * (ea + eb) < wp:
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        den, prec = ra.den * rb.den, None if wp is None else sign * wp
        coeffs = {e: Rational(c, den) for e, c in out.items() if c}
        return GradedSeries._of(self.direction, coeffs, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GradedSeries):
            return self * other.reciprocal()
        other = _coerce(other)
        if other == 0:
            raise ZeroDivisionError("series divided by zero scalar")
        return self._scale(ONE / other)

    def shift(self, delta):
        """Multiply by z**delta (exact)."""
        delta = int(delta)
        if delta == 0:
            return self
        prec = None if self.prec is None else self.prec + delta
        return GradedSeries(
            self.direction, {e + delta: c for e, c in self.coeffs.items()}, prec
        )

    def invert_variable(self):
        """Substitute z -> 1/z, flipping the truncation direction."""
        direction = DESCENDING if self.direction == ASCENDING else ASCENDING
        prec = None if self.prec is None else -self.prec
        return GradedSeries(direction, {-e: c for e, c in self.coeffs.items()}, prec)

    # --- multiplicative structure ---------------------------------------

    def reciprocal(self):
        if not self.coeffs:
            raise LeadingTermError("reciprocal of a series with no known leading term")
        wp = self.wprec
        if wp is None:
            raise TruncationError("reciprocal does not terminate on exact input; truncate() first")
        L = self.wlead
        cl = self.coeffs[self.lead]
        # 1/(cl + s) with s the rest, supported on relative w >= 1
        s = sorted((self._w(e) - L, c) for e, c in self.coeffs.items() if e != self.lead)
        inv = _first_order(s, wp - L, -1, 1, q=cl, head=ONE / cl)
        return GradedSeries._from_w(
            self.direction, {k - L: c for k, c in enumerate(inv)}, wp - 2 * L
        )

    def __pow__(self, n):
        if not isinstance(n, int):
            return self.pow(n)
        if n == 0:
            return GradedSeries.constant(1, self.direction)
        if n < 0:
            return self.reciprocal() ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def pow(self, exponent):
        """Raise to a rational power; needs unit leading coefficient.

        A non-integer power ``r`` of ``z^e0 (1 + s)`` is ``z^(r*e0) (1 + s)^r``,
        whose second factor comes from J.C.P. Miller's recurrence (see
        :func:`_first_order`).  ``r*e0`` must be an integer.  The result is
        known to the input's relative depth: ``wprec - wlead`` orders past its
        lead ``z^(r*e0)``.
        """
        r = rational(exponent)
        if r.denominator == 1:
            return self ** int(r)
        if not self.coeffs:
            raise LeadingTermError("rational power of a series with no known leading term")
        wp = self.wprec
        if wp is None:
            raise TruncationError("rational power needs a finite window; truncate() first")
        e0 = self.lead
        if self.coeffs[e0] != 1:
            raise LeadingTermError(
                f"rational power requires unit leading coefficient, got {rational_str(self.coeffs[e0])}"
            )
        shift_exp = r * e0
        if shift_exp.denominator != 1:
            raise LeadingTermError(
                f"exponent {r} * leading exponent {e0} is not an integer"
            )
        L = self.wlead
        s = sorted((self._w(e) - L, c) for e, c in self.coeffs.items() if e != e0)
        depth = wp - L
        out = _first_order(s, depth, r.numerator, r.denominator, r.denominator)
        rel = GradedSeries._from_w(self.direction, dict(enumerate(out)), depth)
        return rel.shift(int(shift_exp))

    def sqrt(self):
        return self.pow(Rational(1, 2))

    # --- transcendental maps ---------------------------------------------

    def exp(self):
        """``e^s`` for ``s`` without a constant term, known on the window of ``s``.

        ``E = e^s`` solves ``E' = s'E``, so in w-space ``e_0 = 1`` and
        ``e_k = (1/k) sum_{j=1..k} j s_j e_(k-j)`` (:func:`_first_order`).
        ``e_k`` reads only ``s_1 .. s_k``, so every ``w < wprec`` is exact.
        """
        if not self.coeffs:
            return GradedSeries.constant(1, self.direction)._truncate_w(self.wprec)
        if self.wlead < 1:
            raise LeadingTermError(
                "exp requires every term to lower the order strictly (no constant term)"
            )
        wp = self.wprec
        if wp is None:
            raise TruncationError("exp does not terminate on exact input; truncate() first")
        s = sorted((self._w(e), c) for e, c in self.coeffs.items())
        return GradedSeries._from_w(self.direction, dict(enumerate(_first_order(s, wp, 1, 0))), wp)

    def log(self):
        """``log(1 + s)`` for ``s`` without a constant term, known on its window.

        ``L = log(1 + s)`` solves ``(1 + s)L' = s'``, so in w-space ``L_0 = 0`` and
        ``k L_k = k s_k - sum_{j=1..k-1} (k-j) L_(k-j) s_j`` (:func:`_first_order`).
        ``L_k`` reads only ``s_1 .. s_k``, so every ``w < wprec`` is exact.
        """
        if self.coeffs.get(0) != 1 or self.wlead != 0:
            raise LeadingTermError("log requires leading term exactly 1")
        wp = self.wprec
        if len(self.coeffs) == 1:
            return GradedSeries.zero(self.direction, self.prec)
        if wp is None:
            raise TruncationError("log does not terminate on exact input; truncate() first")
        s = sorted((self._w(e), c) for e, c in self.coeffs.items() if e)
        out = _first_order(s, wp, 0, 1, head=ZERO, source=True)
        return GradedSeries._from_w(self.direction, dict(enumerate(out)), wp)

    # --- calculus ---------------------------------------------------------

    def derivative(self):
        out = {}
        for e, c in self.coeffs.items():
            if e != 0:
                out[e - 1] = c * e
        prec = None if self.prec is None else self.prec - 1
        return GradedSeries(self.direction, out, prec)

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

        if not outer.coeffs:
            return GradedSeries._from_w(rdir, {}, wcap)

        kmin = min(outer.coeffs)
        acc = _eval_polynomial(outer.coeffs, kmin, max(outer.coeffs) - kmin, inner)
        if kmin:
            acc = acc * inner ** kmin
        if wcap is not None and (acc.wprec is None or wcap < acc.wprec):
            acc = acc._truncate_w(wcap)
        return acc

    def revert(self):
        """Compositional inverse by Lagrange inversion.

        Ascending input must look like ``c1*z + ...`` with ``c1 != 0``;
        descending input must look like ``z + c0 + c1/z + ...``.  For
        ascending ``g``, ``[z^k] g^-1 = (1/k) [w^(k-1)] (w/g(w))^k``, each
        power from :func:`_first_order`.  Descending ``g`` is conjugated to
        the ascending ``G(t) = 1/g(1/t)``, whose inverse conjugates back the
        same way.  The result window matches the input's.
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
        # g(w)/w = c1 (1 + t), so (w/g(w))^k = c1^-k (1 + t)^-k
        c1 = g.coeffs[1]
        t = sorted((e - 1, c / c1) for e, c in g.coeffs.items() if e != 1)
        inv = ONE / c1
        scale = ONE
        out = {}
        for k in range(1, wp):
            scale *= inv
            c = _first_order(t, k, -k, 1)[k - 1]
            if c:
                out[k] = c * scale / k
        return GradedSeries(ASCENDING, out, wp)


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
        block = GradedSeries.zero(x.direction)
        for j in range(m):
            c = coeffs.get(base + j)
            if c is not None:
                block = block + powers[j] * c
        acc = block if acc is None else acc * powers[m] + block
    return acc


def _first_order(s, depth, p, b, q=1, head=ONE, source=False):
    """``g_0 = head, g_1 .. g_(depth-1)`` solving ``(q + b s) g' = p s' g (+ s')``.

    ``s`` lists ``(j, c_j)``, ``j >= 1``, ascending; ``s'`` joins the right side
    when ``source`` is set.  The coefficients of ``w^(k-1)`` give ``q k g_k =
    [source] k s_k + sum_{j=1..k} ((p + b) j - b k) s_j g_(k-j)``, one pass over
    ``s`` per coefficient, summed in ints over the denominators of ``s`` and of
    the ``g`` solved so far (:class:`Row`).  ``b = q`` is J.C.P. Miller's
    recurrence for ``(1 + s)^(p/q)``, and ``p, b = -1, 1`` with ``head = 1/q``
    gives ``1/(q + s)``; ``p, b = 1, 0`` gives ``e^s``, and ``p, b = 0, 1``
    with ``head = 0`` and ``source`` gives ``log(1 + s)``.
    """
    S, g = Row(dict(s)), Row({0: head})
    sn, gn = S.nums, g.nums
    out = [head]
    for k in range(1, depth):
        acc = k * sn.get(k, 0) * g.den if source else 0
        for j, sj in sn.items():
            if j > k:
                break
            gj = gn[k - j]
            if gj:
                acc += ((p + b) * j - b * k) * sj * gj
        value = Rational(acc * q.denominator, S.den * g.den * k * q.numerator)
        g.put(k, value)
        out.append(value)
    return out


# --- hyperbolic maps -------------------------------------------------------


def sinh(g):
    e = g.exp()
    return (e - g.__neg__().exp()) / 2


def cosh(g):
    e = g.exp()
    return (e + g.__neg__().exp()) / 2


def coth(g):
    e, e_neg = g.exp(), g.__neg__().exp()
    return (e + e_neg) * (e - e_neg).reciprocal()


def csch(g):
    return sinh(g).reciprocal()

