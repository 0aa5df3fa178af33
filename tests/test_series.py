"""GradedSeries ring, composition, reversion, and transcendental maps."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchflow.exact import ONE, ZERO, bernoulli, factorial, rational
from branchflow.series import (
    ASCENDING,
    DESCENDING,
    DirectionMismatchError,
    GradedSeries,
    LeadingTermError,
    SeriesError,
    SubstitutionError,
    TruncationError,
    coth,
    csch,
)


def asc(coeffs, prec=None):
    return GradedSeries(ASCENDING, coeffs, prec=prec)


def desc(coeffs, prec=None):
    return GradedSeries(DESCENDING, coeffs, prec=prec)


small_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12).map(rational)

# z + c2 z^2 + ... + c6 z^6, window of 8 tracked orders: enough structure for
# reversion and pow round trips without slowing hypothesis down
unit_series = st.lists(small_rationals, min_size=5, max_size=5).map(
    lambda cs: asc({1: 1, **{k + 2: c for k, c in enumerate(cs)}}, prec=9)
)

# z + c0 + c1/z + ... + c4/z^4, known down to z^-6 (descending reversion shape)
descending_unit_series = st.lists(small_rationals, min_size=5, max_size=5).map(
    lambda cs: desc({1: 1, **{-k: c for k, c in enumerate(cs)}}, prec=-6)
)

# c1 z + c2 z^2 + ... + c6 z^6 with c1 != 0
scaled_series = st.tuples(
    small_rationals.filter(lambda c: c != 0),
    st.lists(small_rationals, min_size=5, max_size=5),
).map(lambda t: asc({1: t[0], **{k + 2: c for k, c in enumerate(t[1])}}, prec=9))


directions = st.sampled_from([ASCENDING, DESCENDING])


@st.composite
def sparse_series(draw, leads, coeffs):
    """Sparse series of either direction leading at a w from ``leads``: exact, or
    known on a window that may hold none of its terms, so zeros come in both kinds."""
    d = draw(directions)
    sign = 1 if d == ASCENDING else -1
    lead = draw(leads)
    terms = draw(st.dictionaries(st.integers(0, 10), coeffs, max_size=6))
    wp = draw(st.one_of(st.none(), st.integers(lead - 2, lead + 12)))
    known = {sign * (lead + k): c for k, c in terms.items() if wp is None or lead + k < wp}
    return GradedSeries(d, known, None if wp is None else sign * wp)


@st.composite
def powerable_series(draw):
    """z^e0 (1 + lower orders) in either direction, with q | e0, and (p, q)."""
    direction = draw(st.sampled_from([ASCENDING, DESCENDING]))
    q = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(min_value=-4, max_value=4).filter(lambda n: n % q))
    e0 = q * draw(st.integers(min_value=-1, max_value=1))
    cs = draw(st.lists(small_rationals, min_size=4, max_size=4))
    sign = 1 if direction == ASCENDING else -1
    coeffs = {e0: 1, **{e0 + sign * (k + 1): c for k, c in enumerate(cs)}}
    g = GradedSeries(direction, coeffs, prec=e0 + sign * 6)
    return g, p, q


# --- construction and windows ------------------------------------------------


def test_normalizes_zero_coefficients():
    s = asc({0: 1, 1: 0, 2: rational(3)}, prec=5)
    assert s.support() == [0, 2]
    assert s.coefficient(1) == ZERO


def test_rejects_floats():
    with pytest.raises(TypeError):
        asc({1: 0.5})
    with pytest.raises(TypeError):  # a power too: 0.5 is not read as 1/2
        asc({0: 1, 1: 1}, prec=4).pow(0.5)


@pytest.mark.parametrize(
    "coeffs, prec",
    [({1.5: 1, 0: 1}, 3), ({"2": 1}, None), ({True: 1}, None), ({1: 1}, 3.9), ({1: 1}, True)],
)
def test_rejects_non_int_exponents_and_prec(coeffs, prec):
    # int() would truncate 1.5 to 1 and read "2" as 2 without a word
    with pytest.raises(TypeError):
        asc(coeffs, prec=prec)


@pytest.mark.parametrize("bad", [1.5, 2.5, 0.5, True, "1"])
def test_series_methods_reject_non_int_exponents(bad):
    # int() would shift by 1 for 1.5; 2.5 would become a float prec; a float
    # exponent would read as an unknown zero coefficient
    s = asc({0: 1, 1: rational(1, 2), 2: 3}, prec=4)
    for method in (s.shift, s.truncate, s.coefficient, s.known):
        with pytest.raises(TypeError, match="must be an int"):
            method(bad)


def test_coefficients_are_a_read_only_view():
    s = asc({0: 1, 1: rational(1, 2)}, prec=4)
    with pytest.raises(TypeError):
        s.coeffs[0] = 99
    assert dict(s.coeffs) == {0: ONE, 1: rational(1, 2)}


def test_rejects_coefficients_outside_window():
    with pytest.raises(Exception):
        asc({5: 1}, prec=3)
    with pytest.raises(Exception):
        desc({-5: 1}, prec=-3)


def test_coefficient_read_beyond_window_raises():
    s = asc({1: 1}, prec=4)
    assert s.coefficient(3) == ZERO
    with pytest.raises(TruncationError):
        s.coefficient(4)


def test_truncate_cannot_widen():
    s = asc({1: 1}, prec=4)
    assert s.truncate(2).prec == 2
    with pytest.raises(TruncationError):
        s.truncate(9)


def test_rejects_unknown_direction():
    with pytest.raises(SeriesError, match="unknown direction 'sideways'"):
        GradedSeries("sideways", {0: 1})


def test_repr_shows_ten_terms_and_the_window():
    many = asc({k: rational(1, k) for k in range(-1, 12) if k}, prec=12)
    assert repr(many) == (
        "<ascending -1*z^-1 + 1*z^1 + 1/2*z^2 + 1/3*z^3 + 1/4*z^4 + 1/5*z^5"
        " + 1/6*z^6 + 1/7*z^7 + 1/8*z^8 + 1/9*z^9 + ... + O(z^12)>"
    )
    assert repr(desc({0: 3, -2: rational(-1, 2)})) == "<descending 3 + -1/2*z^-2>"
    assert repr(asc({}, prec=4)) == "<ascending 0 + O(z^4)>"
    assert repr(desc({})) == "<descending 0>"


def test_lead_and_depth():
    s = desc({1: 1, 0: rational(2, 3)}, prec=-3)
    assert s.lead == 1
    assert s.lead_coeff == ONE
    assert s.depth == 3


# --- ring arithmetic ----------------------------------------------------------


def test_product_of_linear_factors():
    assert (asc({1: 1, 0: 1}) * asc({1: 1, 0: -1})).coeffs == asc({2: 1, 0: -1}).coeffs


def test_direction_mismatch_rejected():
    with pytest.raises(DirectionMismatchError):
        asc({1: 1}) + desc({1: 1})
    with pytest.raises(DirectionMismatchError):
        asc({1: 1}) * desc({1: 1})


def test_add_keeps_overlap_window():
    a = asc({1: 1}, prec=5)
    b = asc({2: 1}, prec=3)
    assert (a + b).prec == 3


def test_mul_window_rule():
    # product window: min over (prec_a + lead_b, prec_b + lead_a)
    a = asc({1: 1}, prec=5)
    b = asc({2: 1}, prec=7)
    assert (a * b).prec == 7
    # exact zero annihilates the unknown tail
    z = a * 0
    assert z.is_zero() and z.prec is None


def test_series_divided_by_series():
    # (z + z^2)/(1 + z) is z, on the window min(8 + 0, 8 + 1) of the product
    q = asc({1: 1, 2: 1}, prec=8) / asc({0: 1, 1: 1}, prec=8)
    assert q == asc({1: 1}, prec=8)
    with pytest.raises(TruncationError):
        asc({1: 1}) / asc({0: 1, 1: 1})


def test_geometric_reciprocal():
    r = asc({0: 1, 1: 1}, prec=6).reciprocal()
    assert [r.coefficient(k) for k in range(4)] == [
        rational(1), rational(-1), rational(1), rational(-1)
    ]


def test_reciprocal_of_descending_cubic_window():
    f3 = desc({1: 1, 0: rational(2, 3), -1: rational(-1, 12)}, prec=-2)
    r = f3.reciprocal()
    assert r.lead == -1
    assert r.coefficient(-1) == ONE
    assert r.coefficient(-2) == rational(-2, 3)
    assert r.coefficient(-3) == rational(19, 36)
    back = f3 * r
    assert back.coefficient(0) == ONE
    assert all(back.coefficient(e) == ZERO for e in range(back.prec + 1, 0))


def test_reciprocal_needs_leading_term():
    with pytest.raises(LeadingTermError):
        asc({}, prec=5).reciprocal()
    with pytest.raises(TruncationError):
        asc({0: 1, 1: 1}).reciprocal()


def test_shift_and_invert_variable():
    s = asc({1: 1, 3: 2}, prec=5)
    assert s.shift(2).support() == [3, 5]
    flipped = s.invert_variable()
    assert flipped.direction == DESCENDING
    assert flipped.coefficient(-1) == ONE
    assert flipped.prec == -5


# --- powers, exp, log ---------------------------------------------------------


def test_integer_powers():
    s = asc({1: 1, 2: 1}, prec=8)
    assert (s ** 3).coefficient(4) == rational(3)
    assert (s ** 0).coefficient(0) == ONE
    inv2 = s ** -2
    assert inv2.lead == -2


def test_rational_power_binomial():
    g = asc({2: 1, 3: rational(2, 3), 4: rational(1, 2)}, prec=6)
    r = g.pow(rational(-1, 2))
    assert r.lead == -1
    assert r.coefficient(-1) == ONE
    assert r.coefficient(0) == rational(-1, 3)
    assert r.coefficient(1) == rational(-1, 12)


def test_rational_power_preconditions():
    with pytest.raises(LeadingTermError):
        asc({2: 2, 3: 1}, prec=6).pow(rational(1, 2))  # non-unit lead
    with pytest.raises(LeadingTermError):
        asc({1: 1, 2: 1}, prec=6).pow(rational(1, 2))  # odd lead * 1/2
    with pytest.raises(TruncationError):
        asc({2: 1}).pow(rational(1, 2))


def test_exp_log_basics():
    zero = asc({}, prec=6)
    assert zero.exp().coefficient(0) == ONE
    lg = asc({0: 1, 1: 1}, prec=6).log()
    assert [lg.coefficient(k) for k in (1, 2, 3)] == [
        rational(1), rational(-1, 2), rational(1, 3)
    ]
    with pytest.raises(LeadingTermError):
        asc({0: 1, 1: 1}, prec=6).exp()  # constant term
    with pytest.raises(LeadingTermError):
        asc({0: 2, 1: 1}, prec=6).log()


def test_exp_matches_factorials():
    e = asc({1: 1}, prec=9).exp()
    for k in range(9):
        assert e.coefficient(k) == rational(1, factorial(k))


@given(unit_series)
@settings(max_examples=60)
def test_exp_log_round_trip(g):
    s = g - GradedSeries.identity(ASCENDING, prec=9) + 1  # 1 + higher terms
    assert s.log().exp() == s


@given(unit_series, st.integers(min_value=-3, max_value=3).filter(lambda n: n))
@settings(max_examples=60)
def test_pow_times_inverse_pow(g, num):
    r = rational(num, 2)
    g = g * g  # even lead exponent, so half-integer powers stay in the ring
    p = g.pow(r) * g.pow(-r)
    assert p.coefficient(0) == ONE
    assert all(c == ZERO for e, c in p.coeffs.items() if e != 0)


@given(powerable_series())
@settings(max_examples=60)
def test_rational_power_to_the_denominator(case):
    g, p, q = case
    r = g.pow(rational(p, q))
    assert r.lead == p * g.lead // q
    assert r ** q == g ** p


# --- calculus -----------------------------------------------------------------


def test_derivative_basics():
    assert asc({3: 1}).derivative().coeffs == {2: rational(3)}
    s = asc({1: 1}, prec=5).derivative()
    assert s.prec == 4


# --- composition and reversion --------------------------------------------------


def test_compose_identity_outer():
    g = asc({1: 1, 4: rational(7, 2)}, prec=6)
    assert GradedSeries.identity(ASCENDING).compose(g) == g


def test_compose_descending_pair():
    theta = desc({1: 1, -1: rational(-1, 180)}, prec=-2)
    f = desc({1: 1, 0: rational(2, 3), -1: rational(-1, 12)}, prec=-2)
    out = theta.compose(f)
    assert out.coefficient(1) == ONE
    assert out.coefficient(0) == rational(2, 3)
    assert out.coefficient(-1) == rational(-4, 45)


def test_compose_ascending_outer_descending_inner():
    K = asc({1: 1, 3: rational(1, 36)}, prec=5)
    inv_f = desc(
        {-1: 1, -2: rational(-2, 3), -3: rational(19, 36)}, prec=-4
    )
    out = K.compose(inv_f)
    assert out.direction == DESCENDING
    assert out.coefficient(-1) == ONE
    assert out.coefficient(-2) == rational(-2, 3)
    assert out.coefficient(-3) == rational(5, 9)


def test_compose_descending_outer_deeper_than_inner_window():
    # z^-5 composed with z + 1/3 - 2/z + O(z^-2) lies wholly in O(z^-2)
    inner = desc({1: 1, 0: rational(1, 3), -1: -2}, prec=-2)
    out = desc({1: 1, -5: 1}).compose(inner)
    assert out == inner


def test_compose_rejects_nonconvergent_shapes():
    with pytest.raises(SubstitutionError):
        asc({1: 1}, prec=4).compose(asc({0: 1, 1: 1}, prec=4))
    with pytest.raises(SubstitutionError):
        desc({1: 1}, prec=-4).compose(desc({2: 1, 1: 1}, prec=-1))
    with pytest.raises(SubstitutionError):
        desc({1: 1}, prec=-4).compose(asc({1: 1}, prec=4))


def test_revert_translation():
    a = rational(5, 7)
    g = desc({1: 1, 0: a}, prec=-5)
    h = g.revert()
    assert h.coefficient(1) == ONE
    assert h.coefficient(0) == -a
    assert all(h.coefficient(e) == ZERO for e in range(-1, -5, -1))


def test_revert_ascending_cubic():
    phi = asc({1: 1, 2: rational(2, 3), 3: rational(1, 3)}, prec=4)
    psi = phi.revert()
    assert psi.coefficient(1) == ONE
    assert psi.coefficient(2) == rational(-2, 3)
    assert psi.coefficient(3) == rational(5, 9)


def test_revert_descending_matches_sign_flip_to_second_order():
    g = desc({1: 1, 0: rational(2, 3), -1: rational(-4, 45)}, prec=-2)
    h = g.revert()
    assert h.coefficient(0) == rational(-2, 3)
    assert h.coefficient(-1) == rational(4, 45)


def test_revert_leading_shape_errors():
    with pytest.raises(LeadingTermError):
        asc({2: 1}, prec=5).revert()
    with pytest.raises(LeadingTermError):
        desc({1: 2, 0: 1}, prec=-3).revert()
    with pytest.raises(TruncationError):
        desc({1: 1, 0: 1}).revert()


@given(st.one_of(unit_series, descending_unit_series, scaled_series))
@settings(max_examples=60)
def test_revert_round_trips(g):
    h = g.revert()
    back = g.compose(h)
    assert back.coefficient(1) == ONE
    assert all(c == ZERO for e, c in back.coeffs.items() if e != 1)
    assert h.revert() == g


# --- hyperbolic expansions ------------------------------------------------------


def test_coth_csch_pole_expansions():
    t = asc({1: 1}, prec=9)
    ct = coth(t)
    assert ct.lead == -1
    assert ct.coefficient(-1) == ONE
    assert ct.coefficient(1) == rational(1, 3)
    assert ct.coefficient(3) == rational(-1, 45)
    assert ct.coefficient(5) == rational(2, 945)
    cs = csch(t)
    assert cs.coefficient(-1) == ONE
    assert cs.coefficient(1) == rational(-1, 6)
    assert cs.coefficient(3) == rational(7, 360)


@given(sparse_series(st.integers(-1, 3), small_rationals))
@settings(max_examples=150)
def test_coth_csch_match_two_exponential_definitions(g):
    # == compares windows too; where the definitions refuse, so do coth and csch
    try:
        e, e_neg = g.exp(), (-g).exp()
        want_coth = (e + e_neg) * (e - e_neg).reciprocal()
        want_csch = ((e - e_neg) / 2).reciprocal()
    except SeriesError:
        for fn in (coth, csch):
            with pytest.raises(SeriesError):
                fn(g)
        return
    assert coth(g) == want_coth
    assert csch(g) == want_csch


def test_coth_coefficients_are_scaled_bernoulli():
    # coefficient of t^(2k-1) in coth t is 2^(2k) B_2k / (2k)!
    order = 40
    t = asc({1: 1}, prec=order + 2)
    ct = coth(t)
    for k in range(0, order // 2 + 1):
        want = rational(2 ** (2 * k) * bernoulli(2 * k), factorial(2 * k))
        assert ct.coefficient(2 * k - 1) == want, k


# --- window honesty ----------------------------------------------------------------


@st.composite
def cut_series(draw, direction, lead, unit=False):
    """(g, g cut short): g has six orders past ``lead``, the cut keeps 1..6."""
    sign = 1 if direction == ASCENDING else -1
    head = ONE if unit else draw(small_rationals.filter(lambda c: c != 0))
    tail = draw(st.lists(small_rationals, min_size=6, max_size=6))
    g = GradedSeries(
        direction,
        {lead: head, **{lead + sign * (k + 1): c for k, c in enumerate(tail)}},
        prec=lead + sign * 7,
    )
    keep = draw(st.integers(min_value=1, max_value=6))
    return g, g.truncate(lead + sign * keep)


def assert_canonical(*series):
    """Each row is int numerators over a positive denominator, none zero, gcd 1."""
    for s in series:
        num, den = s._row._num, s._row._den
        assert den > 0 and all(type(n) is int and n for n in num.values())
        assert math.gcd(den, *num.values()) == 1


def assert_window_agrees(short, full):
    """``full`` knows every coefficient ``short`` declares known, with its value."""
    start = min((s.wlead for s in (short, full) if s.coeffs), default=short.wprec)
    for w in range(start, short.wprec):
        e = w if short.direction == ASCENDING else -w
        assert full.known(e), e
        assert short.coefficient(e) == full.coefficient(e), e


@given(st.data())
@settings(max_examples=60)
def test_mul_window_is_honest(data):
    d = data.draw(directions)
    x, x_cut = data.draw(cut_series(d, data.draw(st.integers(-2, 2))))
    y, _ = data.draw(cut_series(d, data.draw(st.integers(-2, 2))))
    assert_window_agrees(x_cut * y, x * y)
    assert_canonical(x_cut * y, x * y, x + y, x_cut - y, -x, x * rational(-3, 4), 2 - x)
    assert_canonical(x.derivative(), x.shift(2), x.invert_variable(), x.truncate(x_cut.prec))


@given(st.data())
@settings(max_examples=60)
def test_reciprocal_window_is_honest(data):
    x, x_cut = data.draw(cut_series(data.draw(directions), data.draw(st.integers(-2, 2))))
    assert_window_agrees(x_cut.reciprocal(), x.reciprocal())
    assert_canonical(x_cut.reciprocal(), x.reciprocal())


@given(st.data(), st.sampled_from([rational(1, 2), rational(-1, 2), rational(3, 2), -2, 3]))
@settings(max_examples=60)
def test_pow_window_is_honest(data, r):
    lead = data.draw(st.sampled_from([-2, 0, 2]))
    x, x_cut = data.draw(cut_series(data.draw(directions), lead, unit=True))
    assert_window_agrees(x_cut.pow(r), x.pow(r))
    assert_canonical(x_cut.pow(r), x.pow(r))


@given(st.data())
@settings(max_examples=60)
def test_exp_log_windows_are_honest(data):
    d = data.draw(directions)
    sign = 1 if d == ASCENDING else -1
    x, x_cut = data.draw(cut_series(d, sign * data.draw(st.integers(1, 2))))
    assert_window_agrees(x_cut.exp(), x.exp())
    assert_canonical(x_cut.exp(), x.exp())
    x, x_cut = data.draw(cut_series(d, 0, unit=True))
    assert_window_agrees(x_cut.log(), x.log())
    assert_canonical(x_cut.log(), x.log())


@st.composite
def composable_pairs(draw):
    """(outer, outer cut, inner, inner cut) in each convergent shape."""
    shape = draw(st.sampled_from(["asc-asc", "asc-desc", "desc-desc"]))
    outer_dir = DESCENDING if shape == "desc-desc" else ASCENDING
    outer = draw(cut_series(outer_dir, draw(st.integers(-1, 2))))
    if shape == "asc-asc":
        inner = draw(cut_series(ASCENDING, draw(st.integers(1, 2))))
    elif shape == "asc-desc":
        inner = draw(cut_series(DESCENDING, draw(st.integers(-2, -1))))
    else:
        inner = draw(cut_series(DESCENDING, 1, unit=True))
    return outer + inner


@given(composable_pairs())
@settings(max_examples=60)
def test_compose_window_is_honest(case):
    outer, outer_cut, inner, inner_cut = case
    full = outer.compose(inner)
    assert_window_agrees(outer_cut.compose(inner), full)
    assert_window_agrees(outer.compose(inner_cut), full)
    assert_canonical(full, outer_cut.compose(inner), outer.compose(inner_cut))


@given(st.data())
@settings(max_examples=60)
def test_revert_window_is_honest(data):
    d = data.draw(directions)
    x, x_cut = data.draw(cut_series(d, 1, unit=d == DESCENDING))
    assert_window_agrees(x_cut.revert(), x.revert())
    assert_canonical(x_cut.revert(), x.revert())


# --- the integer kernel against one Fraction product per term ---------------------


def fraction_mul(x, y):
    """``(coeffs, prec)`` of ``x * y``, summing one Fraction product per term."""
    sign = 1 if x.direction == ASCENDING else -1
    if (x.prec is None and not x.coeffs) or (y.prec is None and not y.coeffs):
        return {}, None
    # the window rule: each known edge plus the other factor's lead
    wla = x.wlead if x.coeffs else x.wprec
    wlb = y.wlead if y.coeffs else y.wprec
    edges = [wp + wl for wp, wl in ((x.wprec, wlb), (y.wprec, wla)) if wp is not None]
    wp = min(edges, default=None)
    out = {}
    for ea, ca in x.coeffs.items():
        for eb, cb in y.coeffs.items():
            if wp is None or sign * (ea + eb) < wp:
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}, None if wp is None else sign * wp


def fraction_reciprocal(x):
    """``(coeffs, prec)`` of ``1/x`` from ``r_s = -(sum_u x_u r_(s-u)) / x_0`` in
    relative orders, one Fraction product per term."""
    sign = 1 if x.direction == ASCENDING else -1
    lead, wp = x.wlead, x.wprec
    rel = {sign * e - lead: Fraction(c) for e, c in x.coeffs.items()}
    inv = [1 / rel[0]]
    for s in range(1, wp - lead):
        inv.append(-sum(rel.get(u, 0) * inv[s - u] for u in range(1, s + 1)) / rel[0])
    return {sign * (s - lead): c for s, c in enumerate(inv) if c}, sign * (wp - 2 * lead)


# coprime, prime-power, large and composite denominators next to small ones
kernel_rationals = st.one_of(
    small_rationals,
    st.builds(
        Fraction,
        st.integers(-(10**40), 10**40),
        st.sampled_from([7, 9, 720, 3**30, 2**61 - 1, 10**25 + 13]),
    ),
)


@st.composite
def kernel_pairs(draw):
    """(x, y) of one direction, each sparse, exact or windowed; y is drawn, or is
    x at -z, so that every odd order of x * y cancels to zero."""
    d = draw(directions)
    sign = 1 if d == ASCENDING else -1

    def series():
        lead = draw(st.integers(-3, 3))
        terms = draw(st.dictionaries(st.integers(0, 12), kernel_rationals, max_size=8))
        wp = draw(st.one_of(st.none(), st.integers(lead, lead + 14)))
        coeffs = {sign * (lead + k): c for k, c in terms.items() if wp is None or lead + k < wp}
        return GradedSeries(d, coeffs, None if wp is None else sign * wp)

    x = series()
    if draw(st.booleans()):
        return x, series()
    return x, GradedSeries(d, {e: -c if e % 2 else c for e, c in x.coeffs.items()}, x.prec)


@given(kernel_pairs())
@settings(max_examples=200)
def test_mul_and_reciprocal_match_fraction_reference(case):
    x, y = case
    got = x * y
    assert (got.coeffs, got.prec) == fraction_mul(x, y)
    if x.coeffs and x.prec is not None:
        got = x.reciprocal()
        assert (got.coeffs, got.prec) == fraction_reciprocal(x)


def test_descending_mul_of_exact_and_truncated_matches_fraction_reference():
    # rows whose insertion order is not window order, terms on both sides of
    # the product's window edge, the exact factor on either side
    exact_rows = (
        {-3: 1, 2: 2, 0: rational(5, 3), -1: -3},
        {0: 7},
        {4: rational(-2, 9), -6: 1, 1: 3},
    )
    cut_rows = (
        ({1: 1, -2: 4, 0: rational(7, 2)}, -4),
        ({-1: rational(1, 6), 3: -2, -5: 5, 2: 1}, -6),
        ({}, -2),
        ({0: 3}, -1),
    )
    for ex in exact_rows:
        x = desc(ex)
        for coeffs, prec in cut_rows:
            y = desc(coeffs, prec=prec)
            for a, b in ((x, y), (y, x)):
                got = a * b
                assert (got.coeffs, got.prec) == fraction_mul(a, b), (a, b)


def fraction_power(coeffs, n):
    """{exponent: Fraction} of an exact row to the power n >= 1, by plain products."""
    out = {0: Fraction(1)}
    for _ in range(n):
        step = {}
        for ea, ca in out.items():
            for eb, cb in coeffs.items():
                step[ea + eb] = step.get(ea + eb, 0) + ca * Fraction(cb)
        out = {e: c for e, c in step.items() if c}
    return out


@pytest.mark.parametrize("make", [asc, desc], ids=["ascending", "descending"])
def test_sparse_exact_rows_cost_their_terms_not_their_span(make):
    # a span of 100,000 between two or three terms: products and positive powers
    # are accumulated by terms, so neither time nor memory follows the span
    import tracemalloc

    for coeffs in ({1: 1, 100001: 1}, {-1: 2, 50000: rational(1, 3), 99999: -5}):
        x = make(coeffs)
        for n in range(1, 5):
            tracemalloc.start()
            try:
                got = x * x if n == 2 else x ** n
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (coeffs, n, peak)
            assert got.prec is None and dict(got.coeffs) == fraction_power(coeffs, n)
        assert (x ** 2).coeffs == (x * x).coeffs == fraction_mul(x, x)[0]


# --- integer powers against binary powering ----------------------------------------


def product_power(x, n):
    """``x ** n`` by binary powering with ``*``, through ``reciprocal`` for n < 0."""
    if n == 0:
        return GradedSeries.constant(1, x.direction)
    if n < 0:
        x, n = x.reciprocal(), -n
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return result


@given(sparse_series(st.integers(-3, 3), kernel_rationals), st.integers(-4, 5))
@settings(max_examples=200)
def test_integer_powers_match_binary_powering(x, n):
    got, want = outcome(lambda s: s ** n, x), outcome(lambda s: product_power(s, n), x)
    if isinstance(want, GradedSeries):
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    else:
        assert got is want


# --- exp and log against their power sums ------------------------------------------


def power_sum_exp(s):
    """``sum_n s^n / n!``, one series product per term, from ``+`` and ``*`` only."""
    if not s.coeffs:
        return s if s.wprec is not None and s.wprec <= 0 else s + 1
    if s.wlead < 1:
        raise LeadingTermError("constant term")
    if s.prec is None:
        raise TruncationError("exact input")
    total, term = s + 1, s
    for n in range(2, s.wprec):
        term = term * s * rational(1, n)
        total = total + term
    return total


def power_sum_log(x):
    """``sum_k (-1)^(k+1) s^k / k`` for ``x = 1 + s``, from ``+`` and ``*`` only."""
    if x.coeffs.get(0) != 1 or x.wlead != 0:
        raise LeadingTermError("leading term is not 1")
    s = x + -1
    if s.is_zero():
        return s
    if x.prec is None:
        raise TruncationError("exact input")
    total, power = s, s
    for k in range(2, x.wprec):
        power = power * s
        total = total + power * rational((-1) ** (k + 1), k)
    return total


@st.composite
def exp_log_arguments(draw):
    """Sparse ``head + s``: ``s`` leads at w = 1..4, window w < 0..25 or exact.

    ``head`` is nothing (exp's shape), ``1`` (log's shape), a constant other
    than 1, or 1 behind a term at w = -1; every term outside the window is
    dropped.
    """
    d = draw(directions)
    sign = 1 if d == ASCENDING else -1
    wp = draw(st.integers(0, 25)) if draw(st.integers(0, 7)) else None
    wl = draw(st.integers(1, 4))
    nonzero = small_rationals.filter(lambda c: c != 0)
    tail = draw(st.dictionaries(st.integers(wl + 1, 24), nonzero, max_size=6))
    valid = [{}, {0: ONE}]  # drawn twice as often as each refused head
    head = draw(st.sampled_from(valid * 2 + [{0: rational(2)}, {0: -ONE}, {-1: ONE, 0: ONE}]))
    terms = {**head, wl: draw(nonzero), **tail}
    if wp is not None:
        terms = {w: c for w, c in terms.items() if w < wp}
    return GradedSeries(d, {sign * w: c for w, c in terms.items()}, None if wp is None else sign * wp)


def outcome(fn, x):
    try:
        return fn(x)
    except SeriesError as exc:
        return type(exc)


@given(exp_log_arguments())
@settings(max_examples=200)
def test_exp_log_match_power_sums(x):
    assert outcome(GradedSeries.exp, x) == outcome(power_sum_exp, x)
    assert outcome(GradedSeries.log, x) == outcome(power_sum_log, x)


# --- reversion against a plain-Fraction Lagrange inversion -------------------------


def fraction_inverse(p, degree):
    """1/p through ``degree`` for the list p of Fractions, p[0] != 0, by long division."""
    out = [1 / p[0]]
    for s in range(1, degree + 1):
        out.append(-sum(p[u] * out[s - u] for u in range(1, min(s, len(p) - 1) + 1)) / p[0])
    return out


def lagrange_ascending(a):
    """[b_1 .. b_(n-1)] with g^-1 = sum b_k z^k, for g = sum a_k z^k known below
    z^n, n = len(a), a[0] = 0 and a[1] != 0: b_k = (1/k) [w^(k-1)] (w/g(w))^k,
    each power a product of Fraction lists."""
    top = len(a) - 2
    phi = fraction_inverse(a[1:], top)  # w/g(w)
    power, out = [Fraction(1)] + [Fraction(0)] * top, []
    for k in range(1, len(a)):
        power = [sum(power[i] * phi[d - i] for i in range(d + 1)) for d in range(top + 1)]
        out.append(power[k - 1] / k)
    return out


def lagrange_oracle(g):
    """``(coeffs, prec)`` of ``g^-1``, or the refusal's error type, in Fractions.

    A descending ``g = z P(1/z)`` is reverted through ``G(t) = 1/g(1/t) = t/P(t)``:
    the inverse ``H = t Q(t)`` of ``G`` gives ``g^-1(z) = 1/H(1/z) = z/Q(1/z)``."""
    if g.prec is None:
        return TruncationError
    if g.direction == ASCENDING:
        if g.lead != 1:
            return LeadingTermError
        b = lagrange_ascending([Fraction(g.coefficient(e)) for e in range(g.prec)])
        return {k + 1: c for k, c in enumerate(b) if c}, g.prec
    if g.lead != 1 or g.lead_coeff != 1:
        return LeadingTermError
    span = -g.prec  # P is known through t^span
    P = [Fraction(g.coefficient(1 - j)) for j in range(span + 1)]
    H = lagrange_ascending([Fraction(0), *fraction_inverse(P, span)])
    R = fraction_inverse(H, span)
    return {1 - j: c for j, c in enumerate(R) if c}, g.prec


@st.composite
def reversion_inputs(draw):
    """Input for ``revert``: either direction, ``span`` orders known past the lead
    z^1 (none included), an ascending lead that is any non-zero rational, rows
    that are sparse, odd (every exponent odd) or dense with zeros inside, and
    now and then a refused shape."""
    d = draw(directions)
    sign = 1 if d == ASCENDING else -1
    span = draw(st.integers(0, 11))
    offsets = st.integers(1, span) if span else st.nothing()
    if draw(st.booleans()):
        offsets = offsets.filter(lambda k: k % 2 == 0)  # g odd
    tail = draw(st.dictionaries(offsets, kernel_rationals | st.just(ZERO), max_size=span))
    coeffs = {1 + sign * k: c for k, c in tail.items()}
    prec = sign * (sign + 1 + span)
    lead = draw(kernel_rationals.filter(lambda c: c != 0)) if d == ASCENDING else ONE
    shape = draw(st.sampled_from(["good"] * 8 + ["no lead", "window 1", "exact", "lead 2"]))
    if shape == "no lead":
        return GradedSeries(d, coeffs, prec)
    if shape == "window 1":  # z^1 unknown (ascending, g = O(z)) or known to be 0
        return GradedSeries(d, {}, sign)
    if shape == "lead 2" and d == DESCENDING:
        lead = ONE + 1
    return GradedSeries(d, {1: lead, **coeffs}, None if shape == "exact" else prec)


@given(reversion_inputs())
@settings(max_examples=300)
def test_revert_matches_plain_fraction_lagrange_inversion(g):
    got, want = outcome(GradedSeries.revert, g), lagrange_oracle(g)
    if isinstance(want, tuple):
        assert (got.coeffs, got.prec) == want
        assert_canonical(got)
    else:
        assert got is want
