"""The operator layer against a plain reference: q-polynomials as {sorted index
tuple: Fraction} dicts and operators read straight off their defining sums,
with no monomial key, no common denominator and no memo.

Inputs mix small random monomials with far indices (q_59 .. q_70), high
multiplicities (q_1^20 .. q_1^40) and the empty monomial.  Every example starts
from an empty prime table, so the table grows while the example runs."""

import subprocess
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchflow import (
    QPoly,
    check_heisenberg_commutator,
    check_virasoro_commutator,
    exp_op_apply,
    make_alpha,
    make_d,
    make_L,
    op_sum,
    scan_grading,
    verify_factorization,
)
from branchflow import virasoro

# --- the reference ---------------------------------------------------------------


def ref_d(j, idx):
    """d/dq_j of q^idx, one term per factor q_j."""
    return [(idx[:i] + idx[i + 1:], Fraction(1)) for i, x in enumerate(idx) if x == j]


def ref_L(m, idx):
    """sum (k+m) q_k d/dq_{k+m} + (1/2) sum_{a+b=m} ab d_a d_b + (1/2) sum_{i+j=-m} q_i q_j
    on q^idx, one term per factor, per ordered pair of factors and per ordered pair
    (i, j)."""
    out = []
    for i, x in enumerate(idx):
        if x - m > 0:
            out.append((idx[:i] + idx[i + 1:] + (x - m,), Fraction(x)))
    for i, a in enumerate(idx):
        rest = idx[:i] + idx[i + 1:]
        for j, b in enumerate(rest):
            if a + b == m:
                out.append((rest[:j] + rest[j + 1:], Fraction(a * b, 2)))
    for i in range(1, -m):
        out.append((idx + (i, -m - i), Fraction(1, 2)))
    return out


def ref_alpha(n, idx):
    return [(idx + (-n,), Fraction(1))] if n < 0 else [(r, n * w) for r, w in ref_d(n, idx)]


def ref_apply(terms_of, poly):
    """The linear extension of a monomial map over {tuple: Fraction}, zeros dropped."""
    out = {}
    for idx, c in poly.items():
        for r, w in terms_of(idx):
            key = tuple(sorted(r))
            out[key] = out.get(key, 0) + c * w
    return {k: v for k, v in out.items() if v}


def ref_exp(terms_of, poly):
    """sum_n A^n p / n!, for an A that sends p to zero in finitely many steps."""
    total, term, n = dict(poly), dict(poly), 0
    while term:
        n += 1
        assert n < 200, "the reference exponential did not end"
        term = ref_apply(terms_of, term)
        for k, v in term.items():
            total[k] = total.get(k, 0) + v / factorial(n)
    return {k: v for k, v in total.items() if v}


def ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def canonical(keys):
    return sorted(keys, key=lambda k: (sum(k), k))


# --- inputs ----------------------------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
small = st.lists(st.integers(1, 8), max_size=5)
far = st.tuples(st.lists(st.integers(1, 4), max_size=2), st.sampled_from([59, 61, 67, 70]))
monomials = st.one_of(
    small,
    far.map(lambda t: t[0] + [t[1]]),
    st.integers(20, 40).map(lambda e: [1] * e),  # q_1^e
    st.just([1] * 40 + [3]),
    st.just([]),
).map(lambda xs: tuple(sorted(xs)))
polys = st.dictionaries(monomials, rationals, min_size=1, max_size=4)


@pytest.fixture(autouse=True)
def no_memo_left():
    """No decoded key outlives a test; each test starts from an empty memo."""
    assert virasoro._DECODED == {}
    yield
    assert virasoro._DECODED == {}


@contextmanager
def fresh_table():
    """A context in which the prime table starts empty again."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(virasoro, "_PRIMES", [1])
        yield


def check(result, expected):
    """``result`` is the reference dict, term for term, and no memo is left."""
    assert dict(result.terms) == expected
    assert virasoro._DECODED == {}


# --- the tests -------------------------------------------------------------------


@given(polys)
@settings(max_examples=40, deadline=None)
def test_operators_match_their_defining_sums(poly):
    with fresh_table():
        p = QPoly(poly)
        check(p, poly)
        for m in range(-16, 17):
            check(make_L(m)(p), ref_apply(lambda idx: ref_L(m, idx), poly))
        for n in (-61, -9, -3, -1, 1, 2, 3, 9, 61):
            check(make_alpha(n)(p), ref_apply(lambda idx: ref_alpha(n, idx), poly))
        for j in (1, 2, 3, 8, 61, 67):
            check(make_d(j)(p), ref_apply(lambda idx: ref_d(j, idx), poly))
            check(p.derivative(j), ref_apply(lambda idx: ref_d(j, idx), poly))


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_products_weights_order_and_views_match(a, b):
    with fresh_table():
        pa, pb = QPoly(a), QPoly(b)
        check(pa * pb, ref_mul(a, b))
        parts = pa.weight_parts()
        assert list(parts) == sorted({sum(k) for k in a})
        for w, part in parts.items():
            check(part, {k: v for k, v in a.items() if sum(k) == w})
        assert [k for k, _ in pa.items()] == canonical(a)
        assert [v for _, v in pa.items()] == [a[k] for k in canonical(a)]
        assert pa.max_weight() == max(sum(k) for k in a)
        assert all(pa.coefficient(k[::-1]) == v for k, v in a.items())
        assert pa.coefficient((71,)) == 0 and pa.coefficient((0,)) == 0
        assert virasoro._DECODED == {}


@given(polys, rationals, rationals)
@settings(max_examples=25, deadline=None)
def test_sums_and_exponentials_match(poly, c1, c2):
    with fresh_table():
        p = QPoly(poly)
        pairs = [(c1, make_L(2)), (c2, make_L(5)), (Fraction(1, 3), make_d(61))]
        refs = [(c1, 2, ref_L), (c2, 5, ref_L), (Fraction(1, 3), 61, ref_d)]

        def total(idx):
            return [(r, c * w) for c, i, ref in refs for r, w in ref(i, idx)]

        check(op_sum(pairs)(p), ref_apply(total, poly))
        check(exp_op_apply(op_sum(pairs), p), ref_exp(total, poly))


def test_the_empty_monomial_is_the_key_one():
    with fresh_table():
        one = QPoly.one()
        assert one == QPoly({(): 1}) and dict(one.terms) == {(): 1}
        assert one.max_weight() == 0 and list(one.weight_parts()) == [0]
        assert make_L(0)(one).is_zero() and make_L(3)(one).is_zero()
        assert dict(make_L(-3)(one).terms) == {(1, 2): 1}
        assert repr(one.scale(Fraction(-1, 2))) == "QPoly(-1/2*1)"


def test_scans_decode_through_a_memo_that_dies_with_them(monkeypatch):
    # while a scan walks, its images read the memo; once it returns, nothing is left
    seen = []
    make_L_ = virasoro.make_L

    def watched(m):
        L = make_L_(m)

        def image(key):
            seen.append(len(virasoro._DECODED))
            return L.image(key)

        return virasoro.LinearOp(L.name, image, L.den)

    monkeypatch.setattr(virasoro, "make_L", watched)
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: False)
    corpus = [QPoly({(): 1}), QPoly({(1,) * 12: 2, (61,): Fraction(1, 3)}), QPoly({(2, 3, 67): 5})]
    assert check_virasoro_commutator(3, -2, corpus).status == "PASS"
    assert virasoro._DECODED == {} and max(seen) > 0
    assert check_heisenberg_commutator(2, -5, corpus).status == "PASS"
    assert virasoro._DECODED == {}
    assert all(r.status == "PASS" for r in scan_grading([(m,) for m in range(-4, 5)], corpus))
    assert virasoro._DECODED == {}
    assert verify_factorization(8).status == "PASS"


def ref_primes(count):
    """[1] and the first ``count`` primes, by trial division."""
    out, c = [1], 1
    while len(out) <= count:
        c += 1
        if all(c % p for p in out[1:] if p * p <= c):
            out.append(c)
    return out


@given(st.lists(st.integers(0, 600), max_size=6))
@settings(max_examples=30, deadline=None)
def test_the_table_grows_to_the_primes_in_any_order(steps):
    expected = ref_primes(1200)
    for first in range(60):  # each small sieve bound once, from an empty table
        with fresh_table():
            virasoro._grow(first)
            assert virasoro._PRIMES == expected[: 2 * first + 1]
    with fresh_table():
        for n in steps:
            virasoro._grow(n)
            table = virasoro._PRIMES
            assert len(table) > 2 * n and table == expected[: len(table)]


def test_far_indices_read_zero_without_growing_the_table():
    with fresh_table():
        p = QPoly({(3,): 1, (1, 61): 2})
        size = len(virasoro._PRIMES)
        for far in [(10**9,), (3, 10**9), (size,), (True,), (0,), (-1,)]:
            assert p.coefficient(far) == 0
        assert len(virasoro._PRIMES) == size
        assert p.coefficient((61, 1)) == 2


def test_a_far_index_grows_the_table_through_twice_its_index():
    # P_10000 is the 10,000th prime; the table reaches P_20000 for the moves of L_m
    with fresh_table():
        p = QPoly.monomial([10_000, 1])
        assert virasoro._PRIMES[10_000] == 104_729 and len(virasoro._PRIMES) == 20_001
        assert dict(make_d(10_000)(p).terms) == {(1,): 1}


def test_scans_in_two_threads_leave_no_memo(monkeypatch):
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: False)
    corpus = [QPoly({(1,) * 12: 2, (61,): Fraction(1, 3)}), QPoly({(2, 3, 67): 5})]
    verdicts = []

    def scans():
        for m in range(-4, 5):
            verdicts.append(check_virasoro_commutator(m, 2, corpus).status)

    threads = [threading.Thread(target=scans) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert verdicts == ["PASS"] * 18
    assert virasoro._scopes == 0 and virasoro._DECODED == {}


def test_no_prime_is_computed_at_import():
    code = "from branchflow import virasoro; print(virasoro._PRIMES)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[1]"
