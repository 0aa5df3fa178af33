"""Branch expansions of w e^w at the critical point: recurrences, oracles, verifiers."""

import math
from fractions import Fraction

import pytest

from branchflow import branches
from branchflow.branches import (
    coeffs_b,
    coeffs_c,
    oracle_b,
    oracle_c,
    series_K,
    series_w0,
    stirling_coeffs,
    verify_K_functional,
    verify_K_integral,
    verify_b_family,
    verify_c_family,
    verify_w0,
    w0_by_reversion,
)
from branchflow import exact
from branchflow.exact import ZERO, double_factorial, rational
from branchflow.series import ASCENDING, GradedSeries

B_HEAD = [rational(x) for x in ("1", "1/3", "1/36", "-1/270", "1/4320")]
C_HEAD = [rational(x) for x in ("1", "2/3", "4/9", "44/135")]


def test_b_frozen_head():
    bs = coeffs_b(5)
    assert [bs[i] for i in range(1, 6)] == B_HEAD


def test_c_frozen_head():
    cs = coeffs_c(4)
    assert [cs[i] for i in range(1, 5)] == C_HEAD


def test_recurrences_match_reversion_oracles():
    order = 25
    assert coeffs_b(order).values == oracle_b(order).values
    assert coeffs_c(order).values == oracle_c(order).values


def test_branch_indexing():
    bs = coeffs_b(3)
    assert len(bs) == 3
    with pytest.raises(IndexError):
        bs[0]
    with pytest.raises(IndexError):
        bs[4]


def test_u_v_K_relations():
    order = 12
    bs = coeffs_b(order)
    # v = 1 + sum b_i z^i, and u is v under z -> -z; K is the odd half of v
    v = GradedSeries(ASCENDING, {0: 1, **{i: bs[i] for i in range(1, order + 1)}}, prec=order + 1)
    u = GradedSeries(
        ASCENDING, {0: 1, **{i: (-1) ** i * bs[i] for i in range(1, order + 1)}}, prec=order + 1
    )
    K = series_K(order)
    for i in range(order + 1):
        assert K.coefficient(i) == ((v - u) / 2).coefficient(i)
    assert K.coefficient(1) == rational(1)
    assert K.coefficient(3) == rational(1, 36)
    assert K.coefficient(5) == rational(1, 4320)
    assert all(e % 2 == 1 for e in K.support())


def test_stirling_head():
    assert stirling_coeffs(4) == [
        rational(1),
        rational(1, 12),
        rational(1, 288),
        rational(-139, 51840),
    ]


def test_stirling_series_matches_the_branch_table():
    # gamma_i = (2i+1)!! b_(2i+1) from the b recurrence, independent of the
    # Bernoulli numbers; odd and even counts test the j <= count // 2 window,
    # and 201 is what coeffs stirling --order 200 asks for
    for count in (*range(41), 201):
        bs = coeffs_b(2 * count + 1)
        want = [double_factorial(2 * i + 1) * bs[2 * i + 1] for i in range(count)]
        assert stirling_coeffs(count) == want, count


@pytest.mark.parametrize("index, first_changed", [(2, 1), (4, 3)])
def test_fault_stirling_bernoulli_entry(monkeypatch, index, first_changed):
    # B_2j enters the exponent at y^(2j-1), so a wrong B_2j leaves gamma_i for
    # i < 2j - 1 as they are and changes every gamma_i from there on
    count = 12
    good = stirling_coeffs(count)
    table = list(exact._bernoulli_table)
    table[index] = rational(-1, 31)
    monkeypatch.setattr(exact, "_bernoulli_table", table)
    bad = stirling_coeffs(count)
    assert bad[:first_changed] == good[:first_changed]
    assert all(b != g for b, g in zip(bad[first_changed:], good[first_changed:]))


def test_w0_taylor_equals_reversion():
    order = 18
    taylor = series_w0(order)
    reverted = w0_by_reversion(order)
    for n in range(1, order + 1):
        assert taylor.coefficient(n) == reverted.coefficient(n)


def test_verifiers_pass():
    for rep in (
        verify_b_family(30),
        verify_c_family(30),
        verify_K_functional(30),
        verify_K_integral(30),
        verify_w0(30),
    ):
        assert rep.status == "PASS", rep


def _perturbed_K(order):
    K = series_K(order + 8)
    coeffs = dict(K.coeffs)
    coeffs[3] = rational(1, 35)
    return GradedSeries(ASCENDING, coeffs, prec=K.prec)


def test_fault_b_recurrence():
    bs = list(coeffs_b(20).values)
    bs[2] = rational(1, 35)
    rep = verify_b_family(20, values=tuple(bs))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == 3


def test_fault_c_recurrence():
    cs = list(coeffs_c(20).values)
    cs[2] = cs[2] + rational(1, 1000)
    rep = verify_c_family(20, values=tuple(cs))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == 3


def test_fault_K_functional():
    rep = verify_K_functional(20, K=_perturbed_K(20))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == 4


def test_fault_K_integral():
    rep = verify_K_integral(20, K=_perturbed_K(20))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == 5
    assert rep.first_mismatch.lhs == "2/315"


def test_fault_w0():
    w = series_w0(20)
    coeffs = dict(w.coeffs)
    coeffs[4] = coeffs[4] + rational(1, 7)
    rep = verify_w0(20, w0=GradedSeries(ASCENDING, coeffs, prec=w.prec))
    assert rep.status == "FAIL"
    assert rep.first_mismatch.exponent == 4


def test_b_odd_tail_alternates_from_b7():
    # sanity on deeper values: signs of b_{2i+1} settle into the known pattern
    bs = coeffs_b(13)
    assert bs[7] != ZERO and bs[9] != ZERO and bs[11] != ZERO
    assert bs[5] > 0 > bs[7]


# --- the integer tables against a plain Fraction recurrence ----------------------


def _fraction_b(order):
    # (n+1) b_n = b_{n-1} - sum_{k=2}^{n-1} k b_k b_{n+1-k}
    t = [Fraction(1), Fraction(1, 3)]
    while len(t) < order:
        n = len(t) + 1
        acc = t[n - 2] - sum(k * t[k - 1] * t[n - k] for k in range(2, n))
        t.append(acc / (n + 1))
    return tuple(t[:order])


def _fraction_c(order):
    # (n+1) c_n = 2 + sum_{j=2}^{n-1} c_j (1 - j c_{n-j+1})
    t = [Fraction(1), Fraction(2, 3)]
    while len(t) < order:
        n = len(t) + 1
        acc = 2 + sum(t[j - 1] * (1 - j * t[n - j]) for j in range(2, n))
        t.append(acc / (n + 1))
    return tuple(t[:order])


@pytest.mark.parametrize(
    "table, coeffs, reference",
    [("_b_table", coeffs_b, _fraction_b), ("_c_table", coeffs_c, _fraction_c)],
)
def test_integer_tables_match_fraction_recurrence(monkeypatch, table, coeffs, reference):
    # a fresh table grown in two steps, so the second resumes over the
    # common denominator the first one left
    old = getattr(branches, table)
    fresh = branches._Recurrence(old.scale, old.step, old.rest1)
    monkeypatch.setattr(branches, table, fresh)
    expected = reference(150)
    assert coeffs(7).values == expected[:7]
    den = fresh.row._den
    assert coeffs(150).values == expected
    assert fresh.row._den != den and fresh.row._den % den == 0
    # the row holds s^n n! t_n
    s = fresh.scale
    scaled = [s**n * math.factorial(n) * t for n, t in enumerate(expected, start=1)]
    assert list(fresh.row.terms.values()) == scaled
