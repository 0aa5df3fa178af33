"""Named series, derivation flows, and the flow-based verifiers."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchflow import exact, flows
from branchflow.branches import coeffs_b, coeffs_c, series_K
from branchflow.exact import ONE, ZERO, bernoulli, rational
from branchflow.flows import (
    LAW_EVEN,
    LAW_STANDARD,
    FlowCoeffs,
    flow_apply,
    flow_solve,
    series_E,
    series_F,
    series_H,
    series_f,
    series_f_plus,
    series_f_plus_1,
    series_f_plus_2,
    series_h,
    series_mu,
    series_theta,
    series_y,
    verify_flow_laws,
    verify_fplus_functional,
    verify_iden,
    verify_lemma_yk,
    verify_nz_identity,
    verify_prop_hy,
)
from branchflow.report import Mismatch, verifier
from branchflow.series import (
    ASCENDING,
    DESCENDING,
    GradedSeries,
    LeadingTermError,
    SeriesError,
    SubstitutionError,
    TruncationError,
    coth,
)


def window(s, exponents):
    return [s.coefficient(e) for e in exponents]


# --- named series: frozen leading windows --------------------------------------


def test_f_leading_window():
    f = series_f(4)
    assert window(f, range(1, -4, -1)) == [
        rational(x) for x in ("1", "2/3", "-1/12", "11/270", "-329/12960")
    ]


def test_theta_leading_window():
    th = series_theta(4)
    assert window(th, range(1, -4, -1)) == [
        rational(x) for x in ("1", "0", "-1/180", "0", "13/453600")
    ]


def test_h_leading_window():
    h = series_h(4)
    assert window(h, range(1, -4, -1)) == [
        rational(x) for x in ("1", "0", "1/45", "0", "-16/14175")
    ]


def test_y_leading_window():
    y = series_y(4)
    assert window(y, range(1, -4, -1)) == [
        rational(x) for x in ("1", "2/3", "-1/9", "8/135", "-16/405")
    ]


def test_fplus_pieces_and_composite():
    f1 = series_f_plus_1(3)
    assert window(f1, range(1, -2, -1)) == [rational(x) for x in ("1", "-2/3", "1/9")]
    fp = series_f_plus(4)
    assert window(fp, range(1, -4, -1)) == [
        rational(x) for x in ("1", "-2/3", "4/45", "2/135", "1/1575")
    ]


def test_F_H_E_leading_windows():
    F = series_F(4)
    assert window(F, range(1, 5)) == [rational(x) for x in ("1", "1/3", "2/9", "22/135")]
    H = series_H(4)
    assert window(H, range(-1, 4)) == [
        rational(x) for x in ("1", "-1/3", "-4/45", "-2/45", "-401/14175")
    ]
    E = series_E(4)
    assert window(E, range(0, 5)) == [
        rational(x) for x in ("1", "1", "2/3", "4/9", "44/135")
    ]


def test_E_tail_is_the_c_family():
    order = 12
    E, mu, cs = series_E(order), series_mu(order), coeffs_c(order)
    for n in range(1, order + 1):
        assert E.coefficient(n) == cs[n] == mu.coefficient(n)


# --- window honesty of the builders ---------------------------------------------

# test id -> cached builder
CACHED_BUILDERS = {
    "f": series_f,
    "theta": series_theta,
    "h": series_h,
    "y-inverse": flows._y_inverse,
    "f-plus-1": series_f_plus_1,
    "f-plus-2": series_f_plus_2,
    "f-plus": series_f_plus,
    "theta-f": flows.series_theta_f,
    "H": series_H,
}


def raw_build(name, order, monkeypatch):
    """What a cold cache builds for ``order``, before any windowing."""
    monkeypatch.setattr(flows, "_series_cache", {})
    if name == "E":
        return series_E(order)
    builder = CACHED_BUILDERS[name]
    builder(order)
    return flows._series_cache[builder.__name__][1]


@pytest.mark.parametrize("name", [*CACHED_BUILDERS, "E"])
def test_builders_know_exactly_their_window(name, monkeypatch):
    # one reference at order 48 stands in for the order-2n build of every
    # n <= 24: it is at least as deep and built on its own cold cache
    top = 24
    ref = raw_build(name, 2 * top, monkeypatch)
    for n in range(1, top + 1):
        raw = raw_build(name, n, monkeypatch)
        for w in range(raw.wlead, raw.wprec):
            e = w if raw.direction == ASCENDING else -w
            assert raw.coefficient(e) == ref.coefficient(e), (n, e)
        assert raw == flows._windowed(raw, n), n


def test_cached_series_cannot_be_changed_in_place():
    # a write through ``coeffs`` would reach every later series_f(n) and verifier
    f = series_f(8)
    with pytest.raises(TypeError):
        f.coeffs[0] = 99
    assert series_f(8).coefficient(0) == rational(2, 3)
    assert verify_prop_hy(8).status == "PASS"


# --- defining functional equations ----------------------------------------------


def test_f_inverse_square_is_log_expression():
    order = 30
    f = series_f(order)
    w = GradedSeries(DESCENDING, {1: ONE, 0: ONE}, prec=-order - 4).reciprocal()
    g = -2 * (1 - w).log() - 2 * w
    lhs = f ** -2
    for e in range(-2, -order - 2, -1):
        assert lhs.coefficient(e) == g.coefficient(e), e


def test_f_closed_form_without_logs():
    # (1 - w) e^w = exp(-f^-2 / 2) with w = 1/(1+z)
    order = 30
    w = GradedSeries(DESCENDING, {1: ONE, 0: ONE}, prec=-order - 4).reciprocal()
    lhs = (1 - w) * w.exp()
    rhs = ((series_f(order) ** -2) * rational(-1, 2)).exp()
    for e in range(0, -order, -1):
        assert lhs.coefficient(e) == rhs.coefficient(e), e


def test_theta_inverse_cube_matches_branch_integrals():
    order = 20
    th = series_theta(order)
    bs = coeffs_b(order + 3)
    lhs = th ** -3
    for k in range((order - 1) // 2):
        e = -(2 * k + 3)
        assert lhs.coefficient(e) == 3 * bs[2 * k + 1] / (2 * k + 3), k
    # even Laurent coefficients vanish
    assert all(e % 2 == 1 for e in th.support())


def test_h_inverse_cube_is_coth_expression():
    order = 20
    h = series_h(order)
    t = GradedSeries.identity(ASCENDING, prec=order + 6)
    rhs = (3 * t * t * coth(t) - 3 * t).invert_variable()
    lhs = h ** -3
    for e in range(-3, -order - 3, -1):
        assert lhs.coefficient(e) == rhs.coefficient(e), e


def test_f_plus_2_inverts_h():
    # outer and inner must carry matching windows or compose runs dry
    order = 16
    back = series_h(order).compose(series_f_plus_2(order))
    assert back.coefficient(1) == ONE
    for e in range(0, back.prec, -1):
        assert back.coefficient(e) == ZERO, e


def test_y_reciprocal_leading_window():
    yinv = series_y(4).reciprocal()
    assert window(yinv, range(-1, -4, -1)) == [
        rational(x) for x in ("1", "-2/3", "5/9")
    ]


def test_E_squares_to_its_defining_radical():
    order = 14
    E = series_E(order)
    H = series_H(order + 6)
    lhs = (E - 1) ** 2
    rhs = GradedSeries.monomial(2, ONE, ASCENDING, prec=order + 2) + rational(4, 3) * H ** -3
    for e in range(0, order + 1):
        assert lhs.coefficient(e) == rhs.coefficient(e), e


# --- flow mechanics ---------------------------------------------------------------


# only the two named laws exist: a callable, however it would place the g_k,
# is refused as an unknown law
def _refused_as_unknown(law):
    return pytest.raises(SeriesError, match=re.escape(f"unknown exponent law {law!r}"))


def test_generator_rejects_order_raising_law():
    law = lambda k: 1 + k
    with _refused_as_unknown(law):
        FlowCoeffs((ONE,), law=law).generator()


@pytest.mark.parametrize("values", [(), (ONE,)], ids=["no-values", "one-value"])
def test_generator_rejects_order_raising_first_exponent(values):
    # refused with or without values: the law is looked up before any g_k is placed
    law = lambda k: 2 - k
    with _refused_as_unknown(law):
        FlowCoeffs(values, law=law).generator()


def test_generator_rejects_non_decreasing_law():
    law = lambda k: 0
    with _refused_as_unknown(law):
        FlowCoeffs((ONE, ONE), law=law).generator()


def test_unknown_law_name_is_refused():
    laws = ["odd", ["standard"], lambda k: 1 - k, lambda k: 2 - k, lambda k: 0]
    for law in laws:
        for values in ((), (ONE,), (ONE, ONE)):
            with _refused_as_unknown(law):
                FlowCoeffs(values, law=law).generator()
        with _refused_as_unknown(law):
            flow_solve(series_f(4), law=law)


def test_flow_coeffs_indexing_and_sign():
    fc = FlowCoeffs((rational(2, 3), rational(-1, 12)))
    assert fc[1] == rational(2, 3)
    with pytest.raises(IndexError):
        fc[0]
    assert fc.with_sign(-1).sign == -1
    with pytest.raises(SeriesError):
        FlowCoeffs((ONE,), sign=2)


def test_flow_apply_requires_descending_target():
    fc = FlowCoeffs((ONE,))
    with pytest.raises(SeriesError):
        flow_apply(fc, GradedSeries.identity(ASCENDING, prec=5))


def test_flow_solve_of_exact_target_needs_count():
    z = GradedSeries.identity(DESCENDING)  # exact
    with pytest.raises(TruncationError):
        flow_solve(z)


def test_solve_of_identity_is_zero_generator():
    z = GradedSeries.identity(DESCENDING, prec=-6)
    fc = flow_solve(z)
    assert all(g == ZERO for g in fc.values)
    assert len(fc) == 6


def test_round_trip_small():
    target = GradedSeries(
        DESCENDING,
        {1: 1, 0: rational(1, 2), -1: rational(-3, 7), -2: rational(5, 9)},
        prec=-3,
    )
    fc = flow_solve(target)
    back = flow_apply(fc, GradedSeries.identity(DESCENDING, prec=target.prec))
    for e in range(1, -3, -1):
        assert back.coefficient(e) == target.coefficient(e), e


def test_solve_is_triangular():
    # changing the target at exponent 1-j moves g_j and no earlier coefficient
    target = series_f(8)
    base = flow_solve(target, count=8)
    bumped = dict(target.coeffs)
    bumped[-2] = bumped.get(-2, ZERO) + rational(1, 13)  # exponent 1 - j for j = 3
    fc = flow_solve(GradedSeries(DESCENDING, bumped, prec=target.prec), count=8)
    assert fc.values[0] == base.values[0]
    assert fc.values[1] == base.values[1]
    assert fc.values[2] != base.values[2]


def _flow_by_products(generator, target):
    """exp(D) target as a sum of whole series products, an oracle independent
    of the engine: T_j = (G T_{j-1}') / j by series ``*``, ``derivative`` and
    ``/``, summed by ``+``, each term clamped to the running window."""
    acc = term = target
    n = 1
    while not term.is_zero():
        term = (generator * term.derivative()) / n
        acc = acc + term
        if term.wprec is None or term.wprec > acc.wprec:
            term = term.truncate(acc.prec)
        n += 1
    return acc


# the step s of each law, g_k at z^(1 - s k), written out apart from flows.py
STEPS = {LAW_STANDARD: 1, LAW_EVEN: 2}


def _solve_by_reapplying(target, count, law, sign):
    """g_k read off the flow of the generator g_1 .. g_{k-1} (g_k set to 0)."""
    vals = []
    for k in range(1, count + 1):
        e = 1 - STEPS[law] * k
        z = GradedSeries.identity(DESCENDING, prec=e - 1)
        generator = FlowCoeffs(tuple(vals) + (ZERO,), law, sign).generator()
        known = _flow_by_products(generator, z)
        vals.append(sign * (target.coefficient(e) - known.coefficient(e)))
    return tuple(vals)


@st.composite
def flow_problems(draw):
    law = draw(st.sampled_from(list(STEPS)))
    depth = draw(st.integers(min_value=0, max_value=8))
    tail = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=7) | st.just(0),
            min_size=depth,
            max_size=depth,
        )
    )
    target = GradedSeries(
        DESCENDING, {1: 1, **{-i: c for i, c in enumerate(tail)}}, prec=-depth
    )
    fits = 0
    while 1 - STEPS[law] * (fits + 1) > target.prec:
        fits += 1
    count = draw(st.none() | st.integers(min_value=0, max_value=fits))
    return target, count, fits if count is None else count, law, draw(st.sampled_from([1, -1]))


@settings(max_examples=80, deadline=None)
@given(flow_problems())
def test_flow_solve_matches_per_coefficient_reapplication(problem):
    target, count, solved, law, sign = problem
    fc = flow_solve(target, count=count, law=law, sign=sign)
    assert fc.values == _solve_by_reapplying(target, solved, law, sign)
    assert (fc.law, fc.sign) == (law, sign)


def _solve_by_fraction_depths(target, count, law, sign):
    """g_1 .. g_count over plain Fraction dicts, apart from the row and series
    layers, refusing as ``flow_solve`` documents.  Depth by depth: g_k is the
    target's coefficient at z^(1 - s k) less that of the flow of z under
    g_1 .. g_(k-1), summed term by term, T_j = G T_(j-1)' / j, down to that
    exponent."""
    if target.direction != DESCENDING:
        raise SeriesError("descending")
    t = {e: Fraction(c) for e, c in target.coeffs.items()}
    if max(t, default=None) != 1 or t[1] != 1:
        raise LeadingTermError("lead")
    if law not in STEPS:
        raise SeriesError("law")
    step = STEPS[law]
    if count is None:
        if target.prec is None:
            raise TruncationError("count")
        count = -target.prec // step
    elif type(count) is not int:
        raise TypeError("count")
    elif count < 0:
        raise ValueError("count")
    if count and target.prec is not None and 1 - step * count <= target.prec:
        raise TruncationError("window")
    gen = {}
    for k in range(1, count + 1):
        e = 1 - step * k
        flowed, term, j = {}, {1: Fraction(1)}, 1
        while term:
            out = {}
            for a, ga in gen.items():
                for b, cb in term.items():
                    if b and a + b - 1 >= e:
                        out[a + b - 1] = out.get(a + b - 1, 0) + ga * b * cb / j
            term = {x: c for x, c in out.items() if c}
            for x, c in term.items():
                flowed[x] = flowed.get(x, 0) + c
            j += 1
        gen[e] = t.get(e, Fraction(0)) - flowed.get(e, 0)
    return tuple(sign * gen[1 - step * k] for k in range(1, count + 1))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ArithmeticError, TypeError, ValueError) as err:
        return type(err)


big_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**15)


@st.composite
def fill_problems(draw):
    """A target z + tail with a dense, zero-holed or sparse tail of small or
    large-denominator coefficients, truncated or exact, with a count from 0 to
    one past what its window knows; a few targets have a wrong lead."""
    law = draw(st.sampled_from(list(STEPS)))
    depth = draw(st.integers(min_value=0, max_value=10))
    value = draw(st.sampled_from([small_rationals, big_rationals]))
    shape = draw(st.sampled_from(["dense", "holed", "sparse"]))
    zero = {"dense": 0.0, "holed": 0.3, "sparse": 0.85}[shape]
    tail = {}
    for i in range(depth):
        if draw(st.floats(0, 1)) >= zero:
            tail[-i] = draw(value)
    lead = draw(st.sampled_from([{1: 1}] * 8 + [{1: 2}, {2: 1, 1: 1}]))
    prec = None if draw(st.integers(0, 9)) == 0 else -depth
    target = GradedSeries(DESCENDING, {**lead, **tail}, prec=prec)
    fits = depth // STEPS[law]  # 1 - s k > -depth
    count = draw(st.none() | st.integers(min_value=0, max_value=fits + 1))
    return target, count, law, draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(fill_problems())
def test_flow_solve_matches_a_fraction_oracle_depth_by_depth(problem):
    target, count, law, sign = problem
    got = _outcome(flow_solve, target, count, law, sign)
    want = _outcome(_solve_by_fraction_depths, target, count, law, sign)
    if isinstance(got, FlowCoeffs):
        assert (got.values, got.law, got.sign) == (want, law, sign)
    else:
        assert got is want


def _fractions_built(monkeypatch, call):
    """How many Fractions ``call()`` constructs, counted at ``Fraction.__new__``."""
    new, count = Fraction.__new__, [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counting))
        call()
    return count[0]


@pytest.mark.parametrize(
    "name, build, op",
    [
        ("flow_solve", series_f, lambda f, n: flow_solve(f, count=n)),
        ("reciprocal", series_f, lambda f, n: f.reciprocal()),
        ("exp", series_mu, lambda mu, n: mu.exp()),
    ],
)
def test_relaxed_fills_build_no_fraction_per_cell(name, build, op, monkeypatch):
    # an affine count a + b n at most doubles from n = 24 to 48; a Fraction per
    # cell of the triangular fill adds about n^2 / 2 and more than doubles it
    counts = {}
    for n in (24, 48):
        x = build(n)  # the input, and any table it reads, is built outside the count
        counts[n] = _fractions_built(monkeypatch, lambda: op(x, n))
    assert counts[48] <= 2 * counts[24], counts


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def flow_images(draw):
    """A generator (zero runs and g_1 = 0 included) and a target leading at
    z^2 .. z^-3, exact or truncated; exact constants are left out."""
    law = draw(st.sampled_from(list(STEPS)))
    values = draw(st.lists(small_rationals | st.just(0), max_size=6))
    coeffs = FlowCoeffs(tuple(values), law, draw(st.sampled_from([1, -1])))
    lead = draw(st.integers(min_value=-3, max_value=2))
    head = draw(small_rationals.filter(bool))
    tail = draw(st.lists(small_rationals | st.just(0), max_size=7))
    last = lead - len(tail)
    prec = draw(st.none() | st.integers(min_value=last - 3, max_value=last - 1))
    target = GradedSeries(
        DESCENDING, {lead - i: c for i, c in enumerate([head, *tail])}, prec=prec
    )
    assume(not (prec is None and target.lead == 0 and len(target.coeffs) == 1))
    return coeffs, target


@settings(max_examples=150, deadline=None)
@given(flow_images())
def test_flow_apply_matches_series_products(problem):
    coeffs, target = problem
    # == compares the window too
    assert flow_apply(coeffs, target) == _flow_by_products(coeffs.generator(), target)


def _flow_by_fractions(coeffs, target):
    """``(coeffs, prec)`` of exp(D) target over plain Fraction dicts, apart from
    the series and row layers: T_j = G T_{j-1}' / j term by term, each cut at
    the window of target + G target' (every later term leads deeper)."""
    step = STEPS[coeffs.law]
    gen = {1 - step * k: coeffs.sign * Fraction(g) for k, g in enumerate(coeffs.values, 1)}
    gen_edge = step * (len(coeffs.values) + 1) - 1  # depth of G's first unknown term
    t = {e: Fraction(c) for e, c in target.coeffs.items()}
    deriv = {e - 1: e * c for e, c in t.items() if e}
    if not t or (target.prec is None and not deriv):
        return t, target.prec
    # depths: G's edge past the lead of target' (past its edge when it has no
    # term, -prec + 1), and the target's own edge
    deriv_lead = -max(deriv) if deriv else -target.prec + 1
    top = gen_edge + deriv_lead
    if target.prec is not None:
        top = min(top, -target.prec)
    total = {e: c for e, c in t.items() if -e < top}
    term, j = t, 1
    while term:
        deriv = {e - 1: e * c for e, c in term.items() if e}
        image = {}
        for a, ga in gen.items():
            for b, cb in deriv.items():
                if -(a + b) < top:
                    image[a + b] = image.get(a + b, 0) + ga * cb / j
        term = {e: c for e, c in image.items() if c}
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
        j += 1
    return {e: c for e, c in total.items() if c}, -top


@settings(max_examples=150, deadline=None)
@given(flow_images())
def test_flow_apply_matches_fraction_oracle(problem):
    coeffs, target = problem
    got = flow_apply(coeffs, target)
    assert (dict(got.coeffs), got.prec) == _flow_by_fractions(coeffs, target)


def test_flow_apply_matches_fraction_oracle_on_named_flows():
    # deep, dense generators with large denominators, both laws and signs
    f, theta = series_f(16), series_theta(16)
    z = GradedSeries.identity(DESCENDING)
    for coeffs, target in (
        (flow_solve(f), z),
        (flow_solve(f, sign=-1), f),
        (flow_solve(theta, law=LAW_EVEN, sign=-1), z),
        (flow_solve(theta, law=LAW_EVEN), theta),
    ):
        got = flow_apply(coeffs, target)
        assert (dict(got.coeffs), got.prec) == _flow_by_fractions(coeffs, target)


@pytest.mark.parametrize("law", [LAW_STANDARD, LAW_EVEN])
def test_stepped_fill_equals_the_fill_at_every_exponent(law):
    # the fill steps by the law's step; at step 1 it walks every exponent, as
    # it did for both laws before, and the exponents it skips hold only zeros
    s = STEPS[law]
    tail = {-e: rational(e % 7 - 3, e + 2) for e in range(24)}
    dense = GradedSeries(DESCENDING, {1: ONE, **tail}, prec=-24)
    for target, count in ((series_f(30), 30 // s), (series_theta(40), 20), (dense, 24 // s)):
        wanted = {1 - s * k: target.coefficient(1 - s * k) for k in range(1, count + 1)}
        stepped, every = exact.Row._of({}, 1), exact.Row._of({}, 1)
        flows._flow_fill(stepped, s * count, wanted, s)
        flows._flow_fill(every, s * count, wanted, 1)
        assert (stepped._num, stepped._den) == (every._num, every._den)
        assert flow_solve(target, count, law).values == tuple(every.terms[e] for e in wanted)


def test_flow_of_exact_constant_is_that_constant():
    cases = [(1, FlowCoeffs((1, 2))), (rational(-3, 7), FlowCoeffs((0, 5), LAW_EVEN, -1))]
    for value, coeffs in cases:
        constant = GradedSeries(DESCENDING, {0: value})
        assert flow_apply(coeffs, constant) == constant


def test_flow_solve_refusals_in_order():
    f = series_f(6)  # known from z down to z^-5
    with pytest.raises(SeriesError, match="descending"):
        flow_solve(GradedSeries.identity(ASCENDING, prec=5), count=2, law="odd")
    for lead in ({1: 2, 0: 1}, {2: 1, 1: 1}, {0: 1}):
        with pytest.raises(LeadingTermError):
            flow_solve(GradedSeries(DESCENDING, lead, prec=-4), count=2, law="odd")
    with pytest.raises(TruncationError, match="count must be given"):
        flow_solve(GradedSeries(DESCENDING, {1: 1, -1: 3}))
    # a count past the target's window is refused when its first unknown
    # coefficient is read
    for law, fits in ((LAW_STANDARD, 6), (LAW_EVEN, 3)):
        assert len(flow_solve(f, count=fits, law=law)) == fits
        with pytest.raises(TruncationError, match="beyond the known window"):
            flow_solve(f, count=fits + 1, law=law)
    assert flow_solve(f, count=0).values == ()


def test_flow_solve_refuses_a_bad_count():
    f = series_f(4)
    for count in (-1, -3):
        with pytest.raises(ValueError, match="must not be negative"):
            flow_solve(f, count=count)
    for count in (True, 1.0, "2"):
        with pytest.raises(TypeError, match="count must be an int"):
            flow_solve(f, count=count)


def test_default_count_takes_every_exponent_the_window_knows():
    for law, step in STEPS.items():
        for prec in range(-1, -31, -1):
            count = 0
            while 1 - step * (count + 1) > prec:
                count += 1
            target = GradedSeries(DESCENDING, {1: 1, prec + 1: 1}, prec=prec)
            assert len(flow_solve(target, law=law)) == count, (law, prec)


def test_even_law_solves_theta():
    l2 = flow_solve(series_theta(6), count=2, law=LAW_EVEN, sign=-1)
    assert l2.values == (rational(1, 180), rational(-1, 22680))


def test_lemma_yk_uses_multiplicative_inverse_not_reversion():
    # the compositional inverse of f has lead z and cannot be substituted into
    # an ascending outer series; only the reciprocal (lead 1/z) can
    f = series_f(8)
    K = series_K(10)
    assert f.revert().lead == 1
    with pytest.raises(SubstitutionError):
        K.compose(f.revert())
    assert K.compose(f.reciprocal()).lead == -1


# --- verifiers: pass and located faults -------------------------------------------


def test_flow_verifiers_pass():
    for rep in (
        verify_prop_hy(20),
        verify_lemma_yk(20),
        verify_iden(20),
        verify_fplus_functional(20),
        verify_flow_laws(20),
        verify_nz_identity(21),
    ):
        assert rep.status == "PASS", rep


def test_fault_prop_hy():
    h = series_h(24)
    coeffs = dict(h.coeffs)
    coeffs[-1] = rational(1, 44)
    rep = verify_prop_hy(20, h=GradedSeries(DESCENDING, coeffs, prec=h.prec))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == -1


def test_fault_lemma_yk():
    K = series_K(26)
    coeffs = dict(K.coeffs)
    coeffs[3] = rational(1, 35)
    rep = verify_lemma_yk(20, K=GradedSeries(ASCENDING, coeffs, prec=K.prec))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == -3


def test_fault_iden_e_family():
    theta_f = series_theta(20).compose(series_f(20))
    values = list(flow_solve(theta_f, count=20).values)
    values[2] = values[2] + rational(1, 1000)
    rep = verify_iden(20, e=FlowCoeffs(tuple(values)))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == -2


def test_fault_iden_ahat_family():
    values = list(flow_solve(series_f_plus(20), count=20).values)
    values[1] = values[1] + rational(1, 1000)
    rep = verify_iden(20, ahat=FlowCoeffs(tuple(values)))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == -1


def test_fault_fplus_functional():
    H = series_H(30)
    coeffs = dict(H.coeffs)
    coeffs[1] = coeffs[1] + rational(1, 997)
    rep = verify_fplus_functional(20, H=GradedSeries(ASCENDING, coeffs, prec=H.prec))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == 5


def test_fault_flow_laws():
    values = list(flow_solve(series_f(20), count=20).values)
    values[1] = values[1] + rational(1, 1000)
    rep = verify_flow_laws(20, a=FlowCoeffs(tuple(values)))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == -1


def test_fault_nz_bernoulli():
    def bad(n):
        return rational(-1, 31) if n == 4 else bernoulli(n)

    rep = verify_nz_identity(21, bernoulli_fn=bad)
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == -5
    assert rep.first_mismatch.lhs == "-2/93"


def test_nz_bernoulli_fills_the_bernoulli_table_once(monkeypatch):
    fills, fill = [], exact._fill_bernoulli

    def recorded_fill(upto):
        fills.append(upto)
        fill(upto)

    monkeypatch.setattr(exact, "_bernoulli_table", [])
    monkeypatch.setattr(exact, "_fill_bernoulli", recorded_fill)
    assert verify_nz_identity(60).status == "PASS"
    assert fills == [60]


def test_verifier_stops_at_the_first_failing_check():
    z = GradedSeries.identity(ASCENDING, prec=4)

    @verifier("toy")
    def toy(order, bump=ZERO):
        yield z, z, range(0, order)
        yield z + bump, z, range(0, order)
        raise AssertionError("resumed after a failing check")

    rep = toy(3, bump=ONE)
    assert rep.status == "FAIL"
    assert (rep.identity, rep.order) == ("toy", 3)
    assert rep.first_mismatch == Mismatch(exponent=0, lhs="1", rhs="0")

    @verifier("toy")
    def passing(order):
        yield z, z, range(0, order)
        yield z * z, z * z, range(0, order)

    rep = passing(3)
    assert (rep.identity, rep.order, rep.status, rep.first_mismatch) == ("toy", 3, "PASS", None)
