"""Rational field and integer-table tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchflow import exact
from branchflow.exact import (
    ONE,
    ZERO,
    Rational,
    Row,
    bernoulli,
    bernoulli_upto,
    double_factorial,
    factorial,
    rational,
    rational_str,
)
from branchflow.series import ASCENDING, GradedSeries

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
).map(lambda f: rational(f))


def test_rational_coercions():
    assert rational(3) == Rational(3)
    assert rational("-7/3") == Rational(-7) / Rational(3)
    assert rational(5, 15) == rational("1/3")
    assert rational(Fraction(2, 4)) == rational(1, 2)
    for value, denominator in [(0.5, None), (1, 0.5)]:
        with pytest.raises(TypeError, match="float coefficients are not exact"):
            rational(value, denominator)


def test_rational_str_canonical():
    assert rational_str(rational(4, 2)) == "2"
    assert rational_str(rational(-1, 12)) == "-1/12"
    assert rational_str(rational(0)) == "0"


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + (b + c) == (a + b) + c
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO
    if b != ZERO:
        assert (a / b) * b == a


@given(rationals)
def test_string_round_trip(a):
    assert rational(rational_str(a)) == a


def test_row_raises_its_denominator_only_when_a_value_needs_it():
    row = Row({0: Rational(1, 6), 1: Rational(-1, 4), 2: ZERO})  # zeros are dropped
    assert (row._num, row._den) == ({0: 2, 1: -3}, 12)
    row._put(2, 5, 3)  # 3 divides 12: the numerators stay as they are
    assert (row._num, row._den) == ({0: 2, 1: -3, 2: 20}, 12)
    nums = row._num
    row._put(3, 1, 10)  # the lcm 60 rescales the earlier numerators in place
    assert row._num is nums
    assert (row._num, row._den) == ({0: 10, 1: -15, 2: 100, 3: 6}, 60)
    row._put(1, 1, 7)  # a key put again takes the new value
    assert list(row.terms.values()) == [
        Rational(1, 6), Rational(1, 7), Rational(5, 3), Rational(1, 10)
    ]
    assert (Row({})._num, Row({})._den) == ({}, 1)


def test_row_put_takes_an_int_numerator_and_denominator():
    row = Row({0: Rational(1, 6)})
    row._put(1, 3, -4)  # a negative denominator: the row's stays positive
    assert (row._num, row._den) == ({0: 2, 1: -9}, 12)
    row._put(2, 0, -5)  # a zero numerator is a zero value, whatever the denominator
    assert (row._num, row._den) == ({0: 2, 1: -9, 2: 0}, 12)
    row._put(3, 10, 8)  # 5/4 after one gcd: 4 divides 12, so nothing is rescaled
    assert (row._num, row._den) == ({0: 2, 1: -9, 2: 0, 3: 15}, 12)
    row._put(4, -14, -35)  # 2/5 after the gcd and the sign: the lcm 60 rescales
    assert (row._num, row._den) == ({0: 10, 1: -45, 2: 0, 3: 75, 4: 24}, 60)
    row._put(1, -6, 9)  # a key put twice takes the new value, over the same 60
    assert (row._num, row._den) == ({0: 10, 1: -40, 2: 0, 3: 75, 4: 24}, 60)
    assert dict(row.terms) == {
        0: Rational(1, 6), 1: Rational(-2, 3), 2: ZERO, 3: Rational(5, 4), 4: Rational(2, 5)
    }
    assert Row._canon(row._num, row._den) == Row(dict(row.terms))


def test_row_kernel_returns_canonical_rows():
    a, b = Row({0: Rational(1, 6), 1: Rational(1, 4)}), Row({0: Rational(-1, 6), 2: ONE})
    total = Row._combine(((1, a), (1, b)))  # the z^0 terms cancel, leaving 1/4 and 1
    assert (total._num, total._den) == ({1: 1, 2: 4}, 4)
    assert Row._canon({0: 6, 1: 0, 2: -9}, 12) == Row._of({0: 2, 2: -3}, 4)
    assert Row._combine(((Rational(3, 2), a),)).terms == {0: Rational(1, 4), 1: Rational(3, 8)}
    with pytest.raises(TypeError):
        a.terms[0] = ONE


def test_factorials():
    assert factorial(0) == 1
    assert factorial(6) == 720
    with pytest.raises(ValueError):
        factorial(-1)
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)
    # (2k)! = (2k)!! (2k-1)!!
    for k in range(1, 12):
        assert factorial(2 * k) == double_factorial(2 * k) * double_factorial(2 * k - 1)


def test_bernoulli_values():
    known = {
        0: rational(1),
        1: rational(-1, 2),
        2: rational(1, 6),
        4: rational(-1, 30),
        6: rational(1, 42),
        8: rational(-1, 30),
        10: rational(5, 66),
        12: rational(-691, 2730),
    }
    for n, want in known.items():
        assert bernoulli(n) == want, n
    for n in range(3, 41, 2):
        assert bernoulli(n) == ZERO


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 120):
        total = sum(rational(math.comb(n + 1, k)) * bernoulli(k) for k in range(n + 1))
        assert total == ZERO, n


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_table_matches_the_generating_function():
    # t/(e^t - 1) = sum B_m t^m / m!: the reciprocal of sum t^k/(k+1)! in the
    # series engine, a route independent of the tangent numbers
    top = 120
    expm1_over_t = GradedSeries(
        ASCENDING,
        {k: Rational(1, factorial(k + 1)) for k in range(top + 1)},
        prec=top + 1,
    )
    gen = expm1_over_t.reciprocal()
    for m in range(top + 1):
        assert bernoulli(m) == gen.coefficient(m) * factorial(m), m


def test_bernoulli_table_does_not_depend_on_the_order_of_the_calls(monkeypatch):
    # ascending calls grow the table in blocks (to 32, 66, 134), a descending
    # run fills it once, to 238
    tables = []
    for indices in (range(120), range(119, -1, -1)):
        monkeypatch.setattr(exact, "_bernoulli_table", [])
        got = {n: bernoulli(n) for n in indices}
        tables.append([got[n] for n in range(120)])
    assert tables[0] == tables[1]


def test_bernoulli_prefix_reads_the_table(monkeypatch):
    monkeypatch.setattr(exact, "_bernoulli_table", [])
    assert bernoulli_upto(0) == [ONE]
    assert bernoulli_upto(1) == [ONE, rational(-1, 2)]
    head = bernoulli_upto(120)
    assert head == [bernoulli(k) for k in range(121)]
    with pytest.raises(ValueError):
        bernoulli_upto(-1)


@pytest.mark.parametrize("order", [1, 2, 3, 40, 200])
@pytest.mark.parametrize("family", ["bernoulli", "stirling"])
def test_bernoulli_prefixes_fill_the_table_once(monkeypatch, family, order):
    # coeffs bernoulli and coeffs stirling read B_0 .. B_order at most: from an
    # empty table, one fill, to no further than order + 1
    from branchflow.cli import family_rows

    want = family_rows(family, order)
    fills = []
    fill = exact._fill_bernoulli

    def counted(upto):
        fills.append(upto)
        fill(upto)

    monkeypatch.setattr(exact, "_bernoulli_table", [])
    monkeypatch.setattr(exact, "_fill_bernoulli", counted)
    assert family_rows(family, order) == want
    assert len(fills) == 1 and fills[0] <= order + 1


@pytest.mark.parametrize(
    "fn", [factorial, double_factorial, bernoulli, bernoulli_upto], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("n", [5.5, 2.0, True, Fraction(4), "3"], ids=repr)
def test_integer_helpers_refuse_non_int(fn, n):
    with pytest.raises(TypeError, match="must be an int"):
        fn(n)
