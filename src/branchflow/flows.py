"""Derivation flows exp(sign * sum g_k z^(1 - s k) d/dz) and the named series they move.

A coefficient list with a named exponent law, ``LAW_STANDARD`` (step s = 1)
or ``LAW_EVEN`` (s = 2), defines a derivation D whose exponential acts on
descending Laurent series.  Each application of D strictly lowers the
leading exponent, so the flow sum_j D^j target / j! stops at any depth.
:func:`flow_apply` forms each term T_j = G T_{j-1}' / j as one product of
whole rows cut at the window edge.  :func:`flow_solve` solves each generator
coefficient from a target z + lower order while the terms of the flow of z
fill depth by depth.
"""

from __future__ import annotations

import math
import random
from functools import wraps

from .branches import coeffs_b, coeffs_c, series_K
from .exact import ONE, Rational, Row, ZERO, bernoulli_upto, check_int, factorial, rational
from .report import Record, verifier
from .series import (
    ASCENDING,
    DESCENDING,
    GradedSeries,
    LeadingTermError,
    SeriesError,
    TruncationError,
    coth,
)

LAW_STANDARD = "standard"  # step 1: g_k at z^(1 - k)
LAW_EVEN = "even"  # step 2: g_m at z^(1 - 2m), the coefficient of L_2m
_STEPS = {LAW_STANDARD: 1, LAW_EVEN: 2}

_series_cache: dict = {}


def _step(law) -> int:
    """The step s of a named law; any other value, a callable included, is refused."""
    try:
        return _STEPS[law]
    except (KeyError, TypeError):  # TypeError: an unhashable law
        raise SeriesError(f"unknown exponent law {law!r}") from None


class FlowCoeffs(Record):
    """Generator coefficients g_1, g_2, ... for D = sign * sum g_k z^(1 - s k) d/dz."""

    __slots__ = ("values", "law", "sign")

    def __init__(self, values: tuple, law=LAW_STANDARD, sign: int = 1):
        if sign not in (1, -1):
            raise SeriesError("flow sign must be +1 or -1")
        self._init(values, law, sign)

    def __getitem__(self, index: int):
        if index < 1 or index > len(self.values):
            raise IndexError(f"flow coefficient index {index} out of range")
        return self.values[index - 1]

    def __len__(self):
        return len(self.values)

    def with_sign(self, sign: int) -> "FlowCoeffs":
        return FlowCoeffs(self.values, self.law, sign)

    def generator(self) -> GradedSeries:
        """sign * sum g_k z^(1 - s k) as a series whose prec marks the untracked tail."""
        s = _step(self.law)
        coeffs = {1 - s * k: self.sign * rational(g) for k, g in enumerate(self.values, start=1)}
        return GradedSeries(DESCENDING, coeffs, prec=1 - s * (len(self.values) + 1))


def _flow_fill(g: Row, top: int, solve: dict, step: int) -> None:
    """Set G at the exponents of ``solve`` so the flow of z sums to ``solve`` there.

    The terms T_0 = z, T_j = G T_{j-1}' / j fill at each depth w = -exponent
    below top, stepping by the law's ``step``: when G sits at exponents 1 - 2k,
    so does every T_j, and the exponents between are zero.  T_j at depth w reads
    T_{j-1} only at smaller depths, so all terms fill together, depth by depth
    (relaxed evaluation, van der Hoeven 2002), and T_1 = G alone reads G at the
    depth being solved.  G and each T_j' are rows keyed by exponent, so a cell's
    convolution runs in ints, over only the G terms that meet the row below;
    the cell's value goes into T_j' through ``Row._put`` and into the depth's
    sum as int numerator and denominator, so no Rational is built."""
    # T_0' = 1, then T_1' .. T_top'; T_j' starts at z^(-j) or deeper
    derivs = [Row._of({0: 1}, 1)] + [Row._of({}, 1) for _ in range(top)]
    g_pairs = []  # G's (exponent, numerator) pairs, solved from z^0 down
    for e in range(1, -top, -step):
        # the terms from T_2 on, sn / sd; T_0 = z adds nothing at a solved exponent
        sn, sd, gd = 0, 1, g._den
        for j in range(2, 2 - e):
            below = derivs[j - 1]
            get = below._num.get
            t = 0
            for a, ga in g_pairs:
                # T_{j-1}' starts at z^(-j) or deeper: the z^0 term of T_1 = G
                # differentiates to zero
                if a < e + j:
                    break
                t += ga * get(e - a, 0)
            if t:
                d = gd * below._den * j
                derivs[j]._put(e - 1, e * t, d)  # T_j' = e T_j z^(e-1)
                lcm = math.lcm(sd, d)
                sn, sd = sn * (lcm // sd) + t * (lcm // d), lcm
        if e in solve:
            v = solve[e]  # g_e = v - s
            num, den = v.numerator * sd - sn * v.denominator, v.denominator * sd
            g._put(e, num, den)
            g_pairs = list(g._num.items())
            derivs[1]._put(e - 1, e * num, den)


def flow_apply(coeffs: FlowCoeffs, target: GradedSeries) -> GradedSeries:
    """exp(D) target, known on the window of target + G target' by the series
    window rules: every later term leads deeper than G target'.  A target with
    no known term, or an exact constant, is its own image.

    Each term T_j = G T_{j-1}' / j is one int convolution of whole rows, cut at
    that window's edge, and the terms are summed once."""
    if target.direction != DESCENDING:
        raise SeriesError("flows act on descending series")
    gen = coeffs.generator()
    d = target.derivative()
    if target.is_zero() or (d.prec is None and d.is_zero()):
        return target
    # a product stands in the window edge for the lead of a factor with no known term
    top = gen.wprec + (d.wprec if d.is_zero() else d.wlead)
    if target.prec is not None:
        top = min(top, target.wprec)
    # G in window order, so each walk stops at the edge z^(-top)
    g, gden = sorted(gen._row._num.items(), reverse=True), gen._row._den
    term, terms, j = target._row, [(ONE, target._row)], 1
    while True:
        out = {}
        get = out.get
        for eb, nb in term._num.items():
            if eb:  # T' = sum e n z^(e-1)
                nb *= eb
                eb -= 1
                edge = -top - eb
                for ea, ga in g:
                    if ea <= edge:
                        break
                    out[ea + eb] = get(ea + eb, 0) + ga * nb
        term = Row._canon(out, gden * term._den * j)
        if not term._num:
            break
        terms.append((ONE, term))
        j += 1
    return GradedSeries._cut(DESCENDING, Row._combine(terms), top)


def flow_solve(target: GradedSeries, count=None, law=LAW_STANDARD, sign=1) -> FlowCoeffs:
    """Solve exp(sign * sum g_k z^(1 - s k) d/dz) z = target for g_1 .. g_count.

    The default count takes every g_k whose exponent the target's window
    knows.  Then the flow of z fills, with each g_k solved at its depth.
    """
    if target.direction != DESCENDING:
        raise SeriesError("flows act on descending series")
    if target.lead != 1 or target.lead_coeff != ONE:
        raise LeadingTermError("flow target must start with z itself")
    s = _step(law)
    if count is None:
        if target.prec is None:
            raise TruncationError("coefficient count must be given for an exact target")
        count = -target.prec // s
    else:
        check_int(count, "count")
        if count < 0:
            raise ValueError(f"coefficient count must not be negative, got {count}")
    wanted = {1 - s * k: target.coefficient(1 - s * k) for k in range(1, count + 1)}
    g = Row._of({}, 1)
    _flow_fill(g, s * count, wanted, s)
    return FlowCoeffs(tuple(sign * g.terms[e] for e in wanted), law, sign)


# --- named series -------------------------------------------------------------


def _windowed(series: GradedSeries, order: int) -> GradedSeries:
    """``series`` at order ``order``: its ``order + 1`` coefficients from the lead.

    Every named series keeps this contract.  Each builder asks its inputs for
    exactly the window its result needs and pads nothing, so a cold build
    already ends at this window; a cached deeper build is truncated to it.
    """
    step = 1 if series.direction == ASCENDING else -1
    prec = series.lead + step * (order + 1)
    if series.prec is not None and series.prec == prec:
        return series
    # truncate raises if the series is shallower than the requested window
    return series.truncate(prec)


def _cached(build):
    """Cache ``build`` by name; each call windows its deepest build so far."""
    name = build.__name__

    @wraps(build)
    def cached(order: int) -> GradedSeries:
        have = _series_cache.get(name)
        if have is None or have[0] < order:
            have = (order, build(order))
            _series_cache[name] = have
        return _windowed(have[1], order)

    return cached


@_cached
def series_f(order: int) -> GradedSeries:
    """f = (-2 log(1-w) - 2w)^(-1/2) with w = 1/(1+z); starts z + 2/3 - z^{-1}/12."""
    # w = 1/(1+z) is known two orders below 1+z; the w term cancels in
    # g = -2log(1-w) - 2w, so g keeps order + 1 orders past its lead z^-2,
    # which is what g^(-1/2) needs
    one_plus_z = GradedSeries(DESCENDING, {1: ONE, 0: ONE}, prec=-order - 1)
    w = one_plus_z.reciprocal()
    g = -2 * (1 - w).log() - 2 * w
    return g.pow(Rational(-1, 2))


@_cached
def series_theta(order: int) -> GradedSeries:
    """theta = (3 sum b_{2k+1}/(2k+3) z^{-2k-3})^(-1/3); starts z - z^{-1}/180."""
    # the -1/3 power keeps order + 1 orders past the inner lead z^-3; every
    # odd exponent -e of that window is filled, e = 2k + 3
    bs = coeffs_b(order + 1)
    inner = GradedSeries(
        DESCENDING, {-e: 3 * bs[e - 2] / e for e in range(3, order + 4, 2)}, prec=-order - 4
    )
    return inner.pow(Rational(-1, 3))


@_cached
def series_theta_f(order: int) -> GradedSeries:
    """theta(f(z)), the target of the e family's flow; starts z + 2/3 - (4/45)z^{-1}."""
    return series_theta(order).compose(series_f(order))


def _phi(order: int) -> GradedSeries:
    # e^t sinh(t)/t - 1 = (e^{2t} - 1)/(2t) - 1 = t + (2/3)t^2 + (1/3)t^3 + ...
    # at order n is known below t^(n+2); dividing by t costs one order
    t = GradedSeries.identity(ASCENDING, prec=order + 3)
    return ((2 * t).exp() - 1).shift(-1) / 2 - 1


@_cached
def series_h(order: int) -> GradedSeries:
    """h = (3z^{-2} coth(z^{-1}) - 3z^{-1})^(-1/3); starts z + z^{-1}/45."""
    # u = 3t^2 coth t - 3t leads at t^3 and keeps the window of t, so
    # u^(-1/3) keeps order + 1 orders from its lead t^-1
    t = GradedSeries.identity(ASCENDING, prec=order + 4)
    u = 3 * t * t * coth(t) - 3 * t
    return u.pow(Rational(-1, 3)).invert_variable()


def series_y(order: int) -> GradedSeries:
    """y with 1/y = psi(1/z), psi the inverse of e^t sinh(t)/t - 1."""
    return _y_inverse(order).reciprocal()


@_cached
def _y_inverse(order: int) -> GradedSeries:
    return _phi(order).revert().invert_variable()


@_cached
def series_f_plus_1(order: int) -> GradedSeries:
    """1/(z e^{1/z} sinh(1/z) - 1); starts z - 2/3 + z^{-1}/9."""
    return _phi(order).invert_variable().reciprocal()


@_cached
def series_f_plus_2(order: int) -> GradedSeries:
    return series_h(order).revert()


@_cached
def series_f_plus(order: int) -> GradedSeries:
    """f_+ = f_+1 composed with f_+2; starts z - 2/3 + (4/45)z^{-1}."""
    return series_f_plus_1(order).compose(series_f_plus_2(order))


def series_F(order: int) -> GradedSeries:
    """F = x + (1/2) sum_{n>=2} c_n x^n, ascending, through x^(order+1).

    Like every named series, order n holds n + 1 coefficients from the lead.
    """
    cs = coeffs_c(order + 1)
    coeffs = {1: ONE}
    coeffs.update({n: cs[n] / 2 for n in range(2, order + 2)})
    return GradedSeries(ASCENDING, coeffs, prec=order + 2)


@_cached
def series_H(order: int) -> GradedSeries:
    """H = (3F^2 coth F - 3F)^(-1/3), ascending Laurent with lead x^{-1}."""
    # as for h: u leads at x^3 and keeps the window of F, x^(order+4)
    F = series_F(order + 2)
    u = 3 * F * F * coth(F) - 3 * F
    return u.pow(Rational(-1, 3))


def series_E(order: int, H=None) -> GradedSeries:
    """E = 1 + sqrt(x^2 + 4/(3H^3)), ascending from 1; equals 1 + mu."""
    # the square root keeps the radicand's depth past its lead x^2, so the
    # radicand is needed below x^(order+2); H^-3 is known four orders past
    # H's window edge, and H exists from order 0 on
    HH = H if H is not None else series_H(max(order - 2, 0))
    x_sq = GradedSeries.monomial(2, ONE, ASCENDING, prec=order + 2)
    mu = (x_sq + Rational(4, 3) * HH ** -3).pow(Rational(1, 2))
    return 1 + mu


def series_mu(order: int) -> GradedSeries:
    """mu = x + sum_{n>=2} c_n x^n from the coefficient recurrence."""
    cs = coeffs_c(order)
    return GradedSeries(
        ASCENDING, {n: cs[n] for n in range(1, order + 1)}, prec=order + 1
    )


# --- verifiers ----------------------------------------------------------------


@verifier("prop-hy")
def verify_prop_hy(order: int, h=None):
    """h(y(z)) = theta(f(z))."""
    # a descending composition keeps the window its outer and inner share
    hh = h if h is not None else series_h(order)
    lhs = hh.compose(series_y(order))
    yield lhs, series_theta_f(order), range(1, -order, -1)


@verifier("lemma-yk")
def verify_lemma_yk(order: int, K=None):
    """1/y = K(1/f), with 1/f the multiplicative reciprocal."""
    # the order coefficients of 1/y from z^-1 are 1/y at order - 1; 1/f keeps
    # the order of f, and K known below x^(order+1) makes K(1/f) known above
    # z^-(order+1)
    KK = K if K is not None else series_K(order)
    lhs = _y_inverse(order - 1)
    rhs = KK.compose(series_f(order - 1).reciprocal())
    yield lhs, rhs, range(-1, -order - 1, -1)


@verifier("iden")
def verify_iden(order: int, e=None, ahat=None):
    """The headline identity: the backward flow of f_+ and the forward flow of
    theta(f) both reproduce the compositional inverse of f_+."""
    fplus = series_f_plus(order)
    a_hat = ahat if ahat is not None else flow_solve(fplus, count=order)
    e_fam = e if e is not None else flow_solve(series_theta_f(order), count=order)
    z = GradedSeries.identity(DESCENDING)
    lhs = flow_apply(a_hat.with_sign(-1), z)
    rhs = flow_apply(e_fam.with_sign(1), z)
    window = range(1, -order, -1)
    yield lhs, rhs, window
    yield lhs, fplus.revert(), window


@verifier("fplus-functional")
def verify_fplus_functional(order: int, H=None):
    """f_+ and E satisfy the branch-pair equation (1-x)e^x = (1+mu)e^{-mu}.

    Checked in the z variable with x~ = 1/(1+f_+), mu~ = sqrt(x~^2 + (4/3)z^{-3}),
    then in the x variable with E = 1 + sqrt(x^2 + 4/(3H^3)), and finally E - 1
    is matched against the mu coefficient family itself.
    """
    # both sides are known two orders past f_+'s window edge, and z^-order
    # must be known: f_+ at order - 1, but at least 1 so 1 + f_+ has its z^0
    fplus = series_f_plus(max(order - 1, 1))
    x_t = (1 + fplus).reciprocal()
    z_cubed = GradedSeries.monomial(-3, Rational(4, 3), DESCENDING)
    mu_t = (x_t * x_t + z_cubed).pow(Rational(1, 2))
    yield (1 - x_t) * x_t.exp(), (1 + mu_t) * (-mu_t).exp(), range(0, -order - 1, -1)

    E = series_E(order, H=H)
    x = GradedSeries.identity(ASCENDING, prec=order + 1)
    yield (1 - x) * x.exp(), E * (1 - E).exp(), range(0, order + 1)
    yield E - 1, series_mu(order), range(1, order + 1)


@verifier("flow-laws")
def verify_flow_laws(order: int, seed: int = 0, a=None):
    """Round trip, automorphism law, composition law, inverse law, closed form."""
    f = series_f(order)
    a_fam = a if a is not None else flow_solve(f, count=order)
    z = GradedSeries.identity(DESCENDING)

    # round trip: applying the solved generator reproduces the target
    flowed_z = flow_apply(a_fam, z)
    yield flowed_z, f, range(1, -order, -1)

    # automorphism law: exp(D) g = g(exp(D) z) for any series g; no image is
    # known at z^-order, and the K sample starts at z^-1
    depth = order - 2
    for g in (series_theta(order), f, series_K(order).invert_variable()):
        yield flow_apply(a_fam, g), g.compose(flowed_z), range(g.lead, g.lead - depth - 1, -1)

    # composition law: exp(A) exp(-L) z = theta(f) with A from f, L from theta
    l_fam = flow_solve(series_theta(order), count=order // 2, law=LAW_EVEN, sign=-1)
    inner = flow_apply(l_fam, z)
    yield flow_apply(a_fam, inner), series_theta_f(order), range(1, -depth, -1)

    # inverse law: the sign-flipped flow is the compositional inverse
    rng = random.Random(seed)
    c = FlowCoeffs(
        tuple(Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6))
    )
    plus = flow_apply(c, z)
    minus = flow_apply(c.with_sign(-1), z)
    yield minus, plus.revert(), range(1, -4, -1)

    # closed form: {a_2 = a} integrates to sqrt(z^2 + 2a); the explicit zero
    # tail widens the generator window so the flow is exact to depth
    for a_val in (rational(1), rational(-2), Rational(3, 5)):
        for sign in (1, -1):
            fc = FlowCoeffs((ZERO, a_val) + (ZERO,) * order, sign=sign)
            flowed = flow_apply(fc, GradedSeries.identity(DESCENDING, prec=-order))
            closed = GradedSeries(DESCENDING, {2: ONE, 0: 2 * sign * a_val}, prec=-order)
            yield flowed, closed.pow(Rational(1, 2)), range(1, -order + 2, -1)


@verifier("nz-bernoulli")
def verify_nz_identity(order: int, bernoulli_fn=None):
    """sum_{k>=2} 2^{2k} B_{2k}/(2k)! z^{-2k-1} = z^{-2} coth(1/z) - 1/z - z^{-3}/3."""
    # one fill of the table serves every B_2k the sum reads, 2k < order
    bfn = bernoulli_fn if bernoulli_fn is not None else bernoulli_upto(order).__getitem__
    lhs = GradedSeries(
        DESCENDING,
        {
            -(2 * k + 1): (2 ** (2 * k)) * bfn(2 * k) / factorial(2 * k)
            for k in range(2, (order - 1) // 2 + 1)
        },
        prec=-order - 1,
    )
    # t^2 coth t keeps the window of t, and z^-order must be known
    t = GradedSeries.identity(ASCENDING, prec=order + 1)
    rhs = (t * t * coth(t) - t - t ** 3 / 3).invert_variable()
    yield lhs, rhs, range(-1, -order - 1, -1)
