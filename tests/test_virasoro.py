"""Operator algebra on q-polynomials: commutators, exponentials, the
factorization identity, and the string-type constraints on the shipped
free-energy fixture."""

import json
import math
import numbers
import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchflow import (
    FAIL,
    PASS,
    SKIPPED,
    LinearOp,
    QPoly,
    check_grading,
    check_heisenberg_commutator,
    check_virasoro_commutator,
    commutator,
    corpus_monomials,
    default_corpus,
    exp_op_apply,
    kw_residual,
    load_fk_fixture,
    make_L,
    make_alpha,
    make_d,
    op_sum,
    scan_grading,
    scan_heisenberg_commutators,
    scan_virasoro_commutators,
    verify_factorization,
    verify_kw_constraints,
)
from branchflow import virasoro
from branchflow.branches import coeffs_b
from branchflow.exact import rational
from branchflow.report import failed, passed, skipped, start_clock
from branchflow.virasoro import factorization_sides

R = rational

ONE = QPoly.one()
Q1 = QPoly.monomial((1,))
Q3 = QPoly.monomial((3,))


# --- QPoly basics ---------------------------------------------------------


def test_qpoly_drops_zero_terms_and_sorts_keys():
    p = QPoly({(3, 1): R(2), (2,): R(0)})
    assert p.terms == {(1, 3): R(2)}
    assert p.coefficient((3, 1)) == R(2)
    assert p.coefficient((2,)) == 0


def test_qpoly_rejects_nonpositive_indices():
    with pytest.raises(ValueError):
        QPoly({(0,): R(1)})
    with pytest.raises(ValueError):
        QPoly.monomial((-1, 2))


@pytest.mark.parametrize(
    "build, index",
    [
        (lambda: QPoly({(True,): R(1)}), "True"),
        (lambda: QPoly({(1.5,): R(1)}), "1.5"),
        (lambda: QPoly.monomial((2, 1.0)), "1.0"),
        (lambda: make_L(0.5), "0.5"),
        (lambda: make_L(False), "False"),
        (lambda: make_alpha(1.5), "1.5"),
        (lambda: make_alpha(True), "True"),
        (lambda: make_d(2.0), "2.0"),
        (lambda: Q3.derivative(True), "True"),
    ],
    ids=["qpoly-bool", "qpoly-float", "monomial", "L-float", "L-bool", "alpha-float",
         "alpha-bool", "d-float", "derivative-bool"],
)
def test_q_indices_must_be_ints(build, index):
    # True once passed as q_1 and printed as qTrue; alpha_{1.5} acted as zero
    with pytest.raises(TypeError, match=rf"must be an int, got {re.escape(index)}$"):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: QPoly.monomial((1,), 0.1), lambda: QPoly({(2,): 0.5}), lambda: ONE.scale(0.1)],
    ids=["monomial", "constructor", "scale"],
)
def test_qpoly_refuses_floats(build):
    # 0.1 would enter as its binary value 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float coefficients are not exact"):
        build()


def test_qpoly_is_immutable():
    with pytest.raises(AttributeError):
        Q1.terms = {}


def test_qpoly_arithmetic():
    p = Q1 + Q3
    sq = p * p
    assert sq == QPoly(
        {(1, 1): R(1), (1, 3): R(2), (3, 3): R(1)}
    )
    assert (sq - sq).is_zero()
    assert p.scale(R(1, 2)) + p.scale(R(1, 2)) == p


def test_qpoly_sums_keys_of_one_monomial():
    assert QPoly({(3, 1): R(1), (1, 3): R(2)}).terms == {(1, 3): R(3)}
    assert QPoly({(2, 1, 1): R(1), (1, 2, 1): R(-1), (4,): R(5)}).terms == {(4,): R(5)}


def test_qpoly_derivative_and_multiplication():
    sq = (Q3 * Q3) * Q1
    assert sq.derivative(3) == make_alpha(-1)(Q3).scale(2)
    assert sq.derivative(2).is_zero()
    assert ONE.derivative(1).is_zero()


def test_weight_parts_sorted_ascending():
    p = QPoly.monomial((5,)) + Q1 + ONE
    assert list(p.weight_parts().keys()) == [0, 1, 5]
    assert p.max_weight() == 5


# --- the operators ---------------------------------------------------------


def test_lowering_operator_on_constant():
    # L_{-2} 1 = q_1^2 / 2, L_{-4} 1 = q_1 q_3 + q_2^2 / 2
    assert make_L(-2)(ONE) == QPoly({(1, 1): R(1, 2)})
    assert make_L(-4)(ONE) == QPoly({(1, 3): R(1), (2, 2): R(1, 2)})


def test_weight_operator_has_monomial_eigenvectors():
    for indices in [(1,), (3,), (1, 2, 2), (4, 5)]:
        p = QPoly.monomial(indices)
        assert make_L(0)(p) == p.scale(sum(indices))


def test_raising_operator_example():
    assert make_L(2)(Q3) == Q1.scale(3)
    assert make_L(2)(ONE).is_zero()


def test_central_term_pinned():
    # the bracket of the +-2 pair picks up the scalar 1/2 on constants
    assert commutator(make_L(2), make_L(-2), ONE) == ONE.scale(R(1, 2))


def test_alpha_operators():
    assert make_alpha(-2)(ONE) == QPoly.monomial((2,))
    assert make_alpha(3)(Q3) == ONE.scale(3)
    assert make_alpha(3)(Q1).is_zero()
    with pytest.raises(ValueError):
        make_alpha(0)


def test_operator_metadata():
    # an operator is its name, its monomial image and the denominator of its weights
    assert LinearOp.__slots__ == ("name", "image", "den")
    assert (make_L(2).name, make_L(2).den) == ("L[2]", 2)
    assert (make_alpha(-4).name, make_alpha(-4).den) == ("alpha[-4]", 1)
    assert (make_d(5).name, make_d(5).den) == ("d[5]", 1)
    total = op_sum([(R(1, 3), make_L(2)), (R(-2), make_d(5))])
    assert (total.name, total.den) == ("L[2]+d[5]", 6)


# --- monomial images against the defining sums ----------------------------------


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(R)

# several monomials in q_1..q_5 with up to four factors, so indices repeat;
# zero coefficients go through the public constructor, which drops them
qpolys = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=5), max_size=4).map(
        lambda idx: tuple(sorted(idx))
    ),
    small_rationals,
    max_size=6,
).map(QPoly)


def ref_d(idx, j):
    """d/dq_j of the monomial q^idx by the product rule, one term per factor q_j."""
    return [(idx[:i] + idx[i + 1:], 1) for i, x in enumerate(idx) if x == j]


def ref_L(m, idx):
    """The three sums that define L_m, applied to the monomial q^idx."""
    out = []
    for k in range(max(1, 1 - m), max(idx, default=0) - m + 1):
        out += [(rest + [k], (k + m) * w) for rest, w in ref_d(idx, k + m)]
    for a in range(1, m):
        for rest, w in ref_d(idx, a):
            out += [(r, R(a * (m - a), 2) * w * v) for r, v in ref_d(rest, m - a)]
    for i in range(1, -m):
        out.append((idx + [i, -m - i], R(1, 2)))
    return out


def ref_apply(image, terms):
    """Linear extension of a monomial image over a plain {key: coefficient} dict."""
    out = {}
    for key, coeff in terms.items():
        for idx, w in image(list(key)):
            k = tuple(sorted(idx))
            out[k] = out.get(k, 0) + w * coeff
    return {k: c for k, c in out.items() if c != 0}


def ref_exp(image, terms):
    """sum_n A^n p / n! over plain dicts, for a weight-lowering image A."""
    acc, term, n = dict(terms), dict(terms), 1
    while term:
        term = {k: c / n for k, c in ref_apply(image, term).items()}
        for k, c in term.items():
            acc[k] = acc.get(k, 0) + c
        n += 1
    return QPoly(acc)


def is_canonical(p):
    return QPoly(p.terms).terms == p.terms


@given(qpolys, qpolys, small_rationals)
@settings(max_examples=60)
def test_operators_match_defining_sums_and_stay_canonical(p, q, c):
    results = [p + q, p - q, p * q, -p, p.scale(c), p.scale(0), *p.weight_parts().values()]
    for j in range(1, 6):
        results += [p.derivative(j), make_alpha(-j)(p)]
        for op, image in [
            (make_d(j), lambda idx: ref_d(idx, j)),
            (make_alpha(j), lambda idx: [(r, j * w) for r, w in ref_d(idx, j)]),
            (make_alpha(-j), lambda idx: [(idx + [j], 1)]),
        ]:
            results.append(op(p))
            assert results[-1] == QPoly(ref_apply(image, p.terms)), op.name
    for m in range(-6, 7):
        results.append(make_L(m)(p))
        assert results[-1] == QPoly(ref_apply(lambda idx: ref_L(m, idx), p.terms)), m
    ops = [(c, make_L(1)), (R(1, 3), make_L(4)), (R(-2), make_d(2))]
    refs = [
        (c, lambda idx: ref_L(1, idx)),
        (R(1, 3), lambda idx: ref_L(4, idx)),
        (R(-2), lambda idx: ref_d(idx, 2)),
    ]

    def total(idx):
        return [(r, k * w) for k, ref in refs for r, w in ref(idx)]

    results.append(exp_op_apply(op_sum(ops), p))
    assert results[-1] == ref_exp(total, p.terms)
    assert all(is_canonical(r) for r in results)


def test_L_images_list_each_monomial_once_and_match_the_defining_sums():
    # every monomial up to weight 14 and every m in -12..12: an image lists
    # distinct sorted monomials with non-zero int weights, summing to ref_L
    keys = [key for p in corpus_monomials(14) for key in p.terms]
    for m in range(-12, 13):
        L = make_L(m)
        for key in keys:
            image = L.image(key)
            listed = [ikey for ikey, _ in image]
            assert len(set(listed)) == len(listed), (m, key)
            for ikey, weight in image:
                assert type(ikey) is tuple and list(ikey) == sorted(ikey), (m, key, ikey)
                assert type(weight) is int and weight != 0, (m, key, ikey)
            expected = {}
            for idx, w in ref_L(m, list(key)):
                expected[tuple(sorted(idx))] = expected.get(tuple(sorted(idx)), 0) + w
            assert {ikey: R(w, L.den) for ikey, w in image} == {
                ikey: c for ikey, c in expected.items() if c
            }, (m, key)


@given(st.lists(qpolys, min_size=2, max_size=5), small_rationals)
@settings(max_examples=40)
def test_one_exponential_serves_many_polynomials(ps, c):
    # the memoised images of one exponential must not bend any later result
    total_op = op_sum([(c, make_L(2)), (R(-1, 5), make_d(3))])

    def total(idx):
        return [(r, c * w) for r, w in ref_L(2, idx)] + [
            (r, R(-1, 5) * w) for r, w in ref_d(idx, 3)
        ]

    for p in ps:
        assert exp_op_apply(total_op, p) == ref_exp(total, p.terms)


def test_exponential_builds_each_monomial_image_once():
    calls = Counter()
    L1 = make_L(1)

    def image(key):
        calls[key] += 1
        return L1.image(key)

    counted = [(R(1, 2), LinearOp("L[1]", image, 2))]
    corpus = corpus_monomials(6)
    total = op_sum(counted)
    results = [exp_op_apply(total, p) for p in corpus]
    assert calls and set(calls.values()) == {1}
    # a fresh sum per call builds its images again, with the same results
    assert results == [exp_op_apply(op_sum(counted), p) for p in corpus]
    assert max(calls.values()) > 2


@given(qpolys, qpolys, small_rationals)
@settings(max_examples=40)
def test_results_are_int_numerators_in_lowest_terms(p, q, c):
    # the representation itself: a positive denominator, no zero numerator and
    # gcd(denominator, numerators) = 1, so == on values is == on representations
    results = [p + q, p - q, p * q, -p, p.scale(c), p.scale(0), *p.weight_parts().values()]
    results += [make_L(m)(p) for m in (-3, 0, 2)] + [p.derivative(2), make_alpha(-3)(p)]
    results.append(exp_op_apply(op_sum([(c, make_L(1)), (R(1, 3), make_d(2))]), p))
    for r in results:
        nums = list(r._num.values())
        assert r._den > 0 and all(isinstance(v, numbers.Integral) and v for v in nums)
        assert math.gcd(r._den, *nums) == 1
        assert r == QPoly(dict(r.terms))


def test_terms_view_reads_rationals_and_stays_read_only():
    p = QPoly({(1, 3): R(2, 3), (2,): R(-1, 6)})
    assert len(p.terms) == 2 and (1, 3) in p.terms and (3, 1) not in p.terms
    assert p.terms[(2,)] == R(-1, 6) and p.terms.get((5,)) is None
    assert dict(p.terms) == {(1, 3): R(2, 3), (2,): R(-1, 6)}
    with pytest.raises(TypeError):
        p.terms[(2,)] = R(1)


def test_hand_built_operator_with_rational_weights():
    # rational weights, stated as integers over the operator's denominator: d_1 / 2
    half_d1 = LinearOp("d[1]/2", lambda key: ref_d(key, 1), 2)
    assert half_d1(Q1 * Q1 * Q3) == (Q1 * Q3)
    assert half_d1(Q1) == ONE.scale(R(1, 2))


# --- commutator scans -------------------------------------------------------


def test_virasoro_commutators_small_scan():
    corpus = corpus_monomials(6)
    for m, n in [(1, -1), (2, -2), (3, -3), (2, 1), (-2, 3), (0, 4)]:
        report = check_virasoro_commutator(m, n, corpus)
        assert report.status == PASS, (m, n)


def test_heisenberg_commutators():
    corpus = corpus_monomials(6)
    assert check_heisenberg_commutator(2, 3, corpus).status == PASS
    assert check_heisenberg_commutator(-3, 1, corpus).status == PASS
    skip = check_heisenberg_commutator(2, -2, corpus)
    assert skip.status == SKIPPED
    assert skip.first_mismatch is None


def test_grading_scan():
    corpus = corpus_monomials(6)
    for m in range(-3, 4):
        assert check_grading(m, corpus).status == PASS


def test_grading_reports_canonical_first_term(monkeypatch):
    # a mis-graded L_0: the weight-1 input q_1 lands in weight 2, whose
    # canonical first term is q_1^2 although the image lists q_2 first
    bad = LinearOp("L[0]", lambda key: [((2,), 7), ((1, 1), 5)])
    monkeypatch.setattr(virasoro, "make_L", lambda m: bad)
    report = check_grading(0, [Q1])
    assert report.status == FAIL
    assert report.identity == "grading"
    assert report.order == 1
    assert report.first_mismatch.exponent == 2
    assert report.first_mismatch.lhs == "5"
    assert report.first_mismatch.rhs == "0"


def test_virasoro_commutator_reports_a_missing_central_term(monkeypatch):
    # L_{-2} without its (1/2) q_1^2 sum: [L_2, L_{-2}] 1 loses the central 1/2
    make_L_ = virasoro.make_L

    def wrong(m):
        L = make_L_(m)
        if m != -2:
            return L
        return LinearOp(
            L.name, lambda key: [t for t in L.image(key) if len(t[0]) <= len(key)], L.den
        )

    monkeypatch.setattr(virasoro, "make_L", wrong)
    report = check_virasoro_commutator(2, -2, corpus_monomials(6))
    assert report.status == FAIL
    assert report.order == 6
    assert report.first_mismatch.exponent == 0
    assert report.first_mismatch.lhs == "0"
    assert report.first_mismatch.rhs == "1/2"


# --- the scan engine against the per-cell loops it replaced ----------------------
#
# The oracle_* checks are the per-cell loops the scans used to run: each cell
# walks the whole corpus and recomputes every operator image it reads.  They look
# operators up through the virasoro module, so a monkeypatched make_L reaches them.


def oracle_compare(identity, order, sides, t0):
    for lhs, rhs in sides:
        if lhs == rhs:
            continue
        (nl, dl), (nr, dr) = (lhs._num, lhs._den), (rhs._num, rhs._den)
        for key in sorted(nl.keys() | nr.keys(), key=lambda k: (sum(k), k)):
            cl, cr = nl.get(key, 0), nr.get(key, 0)
            if cl * dr != cr * dl:
                left, right = str(R(cl, dl)), str(R(cr, dr))
                return failed(identity, order, t0, sum(key), left, right)
    return passed(identity, order, t0)


def oracle_virasoro(m, n, corpus):
    t0 = start_clock()
    order = max(p.max_weight() for p in corpus)
    Lm, Ln, Lmn = virasoro.make_L(m), virasoro.make_L(n), virasoro.make_L(m + n)
    central = R(m ** 3 - m, 12) if m + n == 0 else R(0)
    sides = (
        (commutator(Lm, Ln, p), Lmn(p).scale(m - n) + p.scale(central)) for p in corpus
    )
    return oracle_compare("virasoro-commutators", order, sides, t0)


def oracle_heisenberg(n, k, corpus):
    t0 = start_clock()
    order = max(p.max_weight() for p in corpus)
    if n + k == 0:
        return skipped("heisenberg-commutators", order, t0)
    an, Lk, ank = make_alpha(n), virasoro.make_L(k), make_alpha(n + k)
    inv = R(1, n)
    sides = ((an(Lk(p)).scale(inv) - Lk(an(p)).scale(inv), ank(p)) for p in corpus)
    return oracle_compare("heisenberg-commutators", order, sides, t0)


def oracle_grading(m, corpus):
    t0 = start_clock()
    order = max(p.max_weight() for p in corpus)
    Lm = virasoro.make_L(m)
    for p in corpus:
        for w, part in p.weight_parts().items():
            for iw, ipart in Lm(part).weight_parts().items():
                if iw != w - m:
                    _, coeff = ipart.items()[0]
                    return failed("grading", order, t0, iw, str(coeff), "0")
    return passed("grading", order, t0)


SPAN = range(-3, 4)
PAIRS = [(a, b) for a in SPAN for b in SPAN]
HEIS = [(n, k) for n, k in PAIRS if n != 0]  # the CLI does not scan alpha_0


def outcome(report):
    return report.identity, report.order, report.status, report.first_mismatch


def wrong_L_minus_2(make_L_):
    """L_{-2} without its (1/2) q_1^2 sum."""

    def make(m):
        L = make_L_(m)
        if m != -2:
            return L
        return LinearOp(
            L.name, lambda key: [t for t in L.image(key) if len(t[0]) <= len(key)], L.den
        )

    return make


def misgraded_L_0(make_L_):
    """L_0 sending every monomial to 7 q_2 + 5 q_1^2."""
    bad = LinearOp("L[0]", lambda key: [((2,), 7), ((1, 1), 5)])
    return lambda m: bad if m == 0 else make_L_(m)


@pytest.mark.parametrize("fault", [None, wrong_L_minus_2, misgraded_L_0],
                         ids=["true", "wrong-L-2", "misgraded-L0"])
def test_scans_report_what_the_per_cell_loops_report(monkeypatch, fault):
    if fault is not None:
        monkeypatch.setattr(virasoro, "make_L", fault(virasoro.make_L))
    corpus = default_corpus(6, 0)  # the CLI's corpus at --weight 6
    engine = [
        *scan_virasoro_commutators(PAIRS, corpus),
        *scan_heisenberg_commutators(HEIS, corpus),
        *scan_grading([(m,) for m in SPAN], corpus),
    ]
    oracle = [
        *(oracle_virasoro(m, n, corpus) for m, n in PAIRS),
        *(oracle_heisenberg(n, k, corpus) for n, k in HEIS),
        *(oracle_grading(m, corpus) for m in SPAN),
    ]
    assert [outcome(r) for r in engine] == [outcome(r) for r in oracle]
    one_cell = [
        *(check_virasoro_commutator(m, n, corpus) for m, n in PAIRS),
        *(check_heisenberg_commutator(n, k, corpus) for n, k in HEIS),
        *(check_grading(m, corpus) for m in SPAN),
    ]
    assert [outcome(r) for r in one_cell] == [outcome(r) for r in oracle]
    failures = sum(r.status == FAIL for r in oracle)
    assert (failures == 0) == (fault is None)


def test_scans_apply_each_image_once_per_polynomial(monkeypatch):
    # every operator a scan makes counts its image of each monomial it reads, so
    # applying op to a row counts once at each monomial of the row
    calls = Counter()

    def counting(make):
        def make_counted(i):
            op = make(i)

            def image(key):
                calls[op.name, key] += 1
                return op.image(key)

            return LinearOp(op.name, image, op.den)

        return make_counted

    monkeypatch.setattr(virasoro, "make_L", counting(make_L))
    monkeypatch.setattr(virasoro, "make_alpha", counting(make_alpha))
    # a forked child's images would be counted in the child: walk in one process
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: False)
    corpus = corpus_monomials(4)
    expected = Counter()

    def expect(op, row):
        expected.update((op.name, key) for key in row.terms)

    # L_k p for every k in the off-diagonal cells and their sums, then L_m (L_n p)
    # per ordered pair off the diagonal; a diagonal cell (m, m) has no terms, so
    # L_{2m} p is built only where an off-diagonal cell sums to 2m: not L_{+-6} p
    assert all(r.status == PASS for r in scan_virasoro_commutators(PAIRS, corpus))
    for p in corpus:
        for k in range(-5, 6):
            expect(make_L(k), p)
        for m, n in PAIRS:
            if m != n:
                expect(make_L(m), make_L(n)(p))
    assert calls == expected

    # alpha_j p and L_k p once each, then alpha_n (L_k p) and L_k (alpha_n p) per live cell
    calls.clear(), expected.clear()
    reports = scan_heisenberg_commutators(HEIS, corpus)
    live = [(n, k) for n, k in HEIS if n + k]
    assert [r.status for r in reports] == [PASS if n + k else SKIPPED for n, k in HEIS]
    for p in corpus:
        for j in {j for n, k in live for j in (n, n + k)}:
            expect(make_alpha(j), p)
        for k in {k for _, k in live}:
            expect(make_L(k), p)
        for n, k in live:
            expect(make_alpha(n), make_L(k)(p))
            expect(make_L(k), make_alpha(n)(p))
    assert calls == expected

    # each monomial is one weight part: one L_m image per cell
    calls.clear(), expected.clear()
    assert all(r.status == PASS for r in scan_grading([(m,) for m in SPAN], corpus))
    for p in corpus:
        for m in SPAN:
            expect(make_L(m), p)
    assert calls == expected


# --- scans split between two processes ------------------------------------------
#
# A scan walks the even corpus indices here and the odd ones in a forked child.
# These tests force the split and hold it against the one-process walk.

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def scan_all(corpus):
    return [
        *scan_virasoro_commutators(PAIRS, corpus),
        *scan_heisenberg_commutators(HEIS, corpus),
        *scan_grading([(m,) for m in SPAN], corpus),
    ]


def serial_scan_all(corpus):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(virasoro, "_forks", lambda pairs: False)
        return scan_all(corpus)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@fork_only
def test_the_two_halves_partition_the_corpus(monkeypatch):
    # this process walks the even indices, once; the child, another process,
    # walks the odd ones in one walk; every index comes back exactly once
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: True)
    here, walks = os.getpid(), []

    def walk(indices):
        if os.getpid() == here:
            walks.append(list(indices))
        return {(i,): (i, os.getpid(), len(indices)) for i in indices}

    for size in (2, 3, 8, 105):
        walks.clear()
        found = virasoro._walk_halves(walk, size, size)
        assert walks == [list(range(0, size, 2))]
        assert sorted(found) == [(i,) for i in range(size)]
        for i in range(1, size, 2):
            assert found[i,][1] != here and found[i,][2] == size // 2
        assert_no_child_left()


def test_a_walk_forks_only_when_it_pays_and_two_processes_can_share_it():
    least = virasoro._SPLIT_PAIRS
    assert not virasoro._forks(0) and not virasoro._forks(least - 1)
    can = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
    assert virasoro._forks(least) == can
    # fork copies only the calling thread: with another one running, never fork
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert not virasoro._forks(100 * least)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def forks_asked(monkeypatch):
    """Count the forks scans ask for; each one fails, so the scan walks here."""
    asked = []

    def fork():
        asked.append(os.getpid())
        raise OSError("no fork in this test")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    return asked


def test_one_cell_checks_and_small_scans_walk_in_one_process(monkeypatch):
    asked, corpus = forks_asked(monkeypatch), default_corpus(9)
    check_virasoro_commutator(3, -2, corpus)
    check_heisenberg_commutator(2, 1, corpus)
    check_grading(2, corpus)
    scan_grading([(m,) for m in range(-5, 6)], corpus)
    scan_virasoro_commutators([(m, n) for m in range(-1, 2) for n in range(-1, 2)], corpus[:20])
    assert asked == []
    scan_virasoro_commutators(PAIRS, corpus)
    assert len(asked) == virasoro._forks(len(PAIRS) * len(corpus))


@fork_only
def test_a_failed_fork_walks_everything_here_and_closes_its_pipe(monkeypatch):
    corpus = corpus_monomials(5)
    serial = serial_scan_all(corpus)
    pipes, real_pipe = [], os.pipe

    def pipe():
        made = real_pipe()
        pipes.extend(made)
        return made

    monkeypatch.setattr(os, "pipe", pipe)
    asked = forks_asked(monkeypatch)
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: True)
    split = scan_all(corpus)
    assert len(asked) == 3 and len(pipes) == 6
    assert [outcome(r) for r in split] == [outcome(r) for r in serial]
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


@fork_only
def test_split_scans_keep_the_first_failure_of_either_half(monkeypatch):
    # L_0 wrong at q_1^2 (index 3, walked by the child) and, differently, at
    # q_1^3 (index 6, walked here): each failing cell reports index 3 first,
    # as the one-process walk does
    corpus = corpus_monomials(3)
    assert [list(p.terms) for p in corpus[3::3]] == [[(1, 1)], [(1, 1, 1)]]
    wrong = {(1, 1): ((5,), 3), (1, 1, 1): ((7,), 4)}
    L0 = make_L(0)
    bad = LinearOp("L[0]", lambda key: [wrong[key]] if key in wrong else L0.image(key), 2)
    monkeypatch.setattr(virasoro, "make_L", lambda m: bad if m == 0 else make_L(m))
    serial = serial_scan_all(corpus)
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: True)
    split = scan_all(corpus)
    assert_no_child_left()
    assert [outcome(r) for r in split] == [outcome(r) for r in serial]
    grading_0 = split[-len(SPAN) :][list(SPAN).index(0)]
    assert grading_0.status == FAIL
    assert (grading_0.first_mismatch.exponent, grading_0.first_mismatch.lhs) == (5, "3/2")
    assert sum(r.status == FAIL for r in split) > 1


class Boom(Exception):
    pass


def raising_when(condition):
    """make_L whose L_1 raises Boom on any monomial while ``condition()``."""

    def make(m):
        L = make_L(m)
        if m != 1:
            return L

        def image(key):
            if condition():
                raise Boom(key)
            return L.image(key)

        return LinearOp(L.name, image, L.den)

    return make


@fork_only
def test_an_error_in_this_process_propagates_and_leaves_no_child(monkeypatch):
    here = os.getpid()
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: True)
    monkeypatch.setattr(virasoro, "make_L", raising_when(lambda: os.getpid() == here))
    with pytest.raises(Boom):
        scan_virasoro_commutators(PAIRS, corpus_monomials(5))
    assert_no_child_left()


@fork_only
def test_a_failing_child_is_redone_here(monkeypatch):
    # L_1 raises in the child only: the child exits 1 and the odd half is
    # walked again here, so this process reads every image the serial walk does
    here, calls = os.getpid(), Counter()

    def counted(m):
        L = raising_when(lambda: os.getpid() != here)(m)

        def image(key):
            if os.getpid() == here:
                calls[L.name, key] += 1
            return L.image(key)

        return LinearOp(L.name, image, L.den)

    corpus = corpus_monomials(4)
    monkeypatch.setattr(virasoro, "make_L", counted)
    serial = serial_scan_all(corpus)
    serial_calls = Counter(calls)
    calls.clear()
    monkeypatch.setattr(virasoro, "_forks", lambda pairs: True)
    split = scan_all(corpus)
    assert_no_child_left()
    assert [r.status for r in split].count(PASS) > 0
    assert [outcome(r) for r in split] == [outcome(r) for r in serial]
    assert calls == serial_calls


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_scans_match_the_per_cell_loops_under_a_perturbed_weight(seed):
    # one integer weight of one L_m image, at one monomial of the corpus, is off:
    # every cell, (n, m) next to (m, n) included, must report what its loop does
    rng = random.Random(seed)
    corpus = corpus_monomials(rng.randint(1, 5))
    bad, target = rng.choice(
        [(m, key) for m in SPAN for p in corpus for key in p.terms if make_L(m).image(key)]
    )
    at = rng.randrange(len(make_L(bad).image(target)))
    delta = rng.choice([-3, -2, -1, 1, 2, 3])

    def perturbed(k):
        L = make_L(k)
        if k != bad:
            return L

        def image(key):
            terms = list(L.image(key))
            if key == target:
                ikey, weight = terms[at]
                terms[at] = ikey, weight + delta
            return terms

        return LinearOp(L.name, image, L.den)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(virasoro, "make_L", perturbed)
        engine = [
            *scan_virasoro_commutators(PAIRS, corpus),
            *scan_heisenberg_commutators(HEIS, corpus),
        ]
        oracle = [
            *(oracle_virasoro(m, n, corpus) for m, n in PAIRS),
            *(oracle_heisenberg(n, k, corpus) for n, k in HEIS),
        ]
    assert [outcome(r) for r in engine] == [outcome(r) for r in oracle]


def test_jacobi_identity():
    def bracket(A, B):
        return lambda p: A(B(p)) - B(A(p))

    corpus = corpus_monomials(5)
    for a, b, c in [(2, -3, 1), (-2, -1, 3)]:
        La, Lb, Lc = make_L(a), make_L(b), make_L(c)
        ab, bc, ca = bracket(La, Lb), bracket(Lb, Lc), bracket(Lc, La)
        for p in corpus:
            total = (
                ab(Lc(p)) - Lc(ab(p))
                + bc(La(p)) - La(bc(p))
                + ca(Lb(p)) - Lb(ca(p))
            )
            assert total.is_zero(), (a, b, c, p)


# --- exponentials ------------------------------------------------------------


def test_exp_rejects_non_lowering_operator():
    with pytest.raises(ValueError, match=r"L\[0\] does not lower weight"):
        exp_op_apply(make_L(0), Q1)
    with pytest.raises(ValueError, match=r"alpha\[-2\] does not lower weight"):
        exp_op_apply(make_alpha(-2), Q1)


def test_exp_rejects_operator_without_uniform_shift():
    # L_1 q_1 = 0, but L_-1 raises q_1 to q_2, which L_1 lowers to 2 q_1 again
    mixed = op_sum([(1, make_L(-1)), (1, make_L(1))])
    with pytest.raises(ValueError, match=r"L\[-1\]\+L\[1\] does not lower weight"):
        exp_op_apply(mixed, Q1)


def test_exp_returns_terminating_sums_exactly():
    # neither operator lowers weight, but on these polynomials the sum ends
    assert exp_op_apply(make_L(0), ONE) == ONE
    assert exp_op_apply(make_L(0), ONE.scale(3)) == ONE.scale(3)
    zero = QPoly()
    assert exp_op_apply(make_alpha(-2), zero) == zero


def test_exp_of_empty_sum_is_identity():
    p = Q1 * Q3
    assert exp_op_apply(op_sum([]), p) == p


def test_exp_single_shift():
    # exp(-b_3 d_5) q_5 = q_5 - 1/36
    b3 = R(1, 36)
    out = exp_op_apply(op_sum([(-b3, make_d(5))]), QPoly.monomial((5,)))
    assert out == QPoly.monomial((5,)) - ONE.scale(b3)


def test_exp_with_coefficients_prime_to_the_operator_denominators():
    # the Taylor terms are summed over a running denominator and made canonical
    # only at the end: 1/7 and 3/5 share no factor with the 2 of L_2 or the 1 of d_3
    total = op_sum([(R(1, 7), make_L(2)), (R(3, 5), make_d(3))])

    def ref(idx):
        return [(r, R(1, 7) * w) for r, w in ref_L(2, idx)] + [
            (r, R(3, 5) * w) for r, w in ref_d(idx, 3)
        ]

    for p in default_corpus(8, 0):
        out = exp_op_apply(total, p)
        assert out == ref_exp(ref, p.terms)
        nums = list(out._num.values())
        assert out._den > 0 and all(type(v) is int and v for v in nums)
        assert math.gcd(out._den, *nums) == 1


def test_exp_group_law_on_commuting_shifts():
    c5, c7 = -R(1, 36), -R(1, 4320)
    A = [(c5, make_d(5))]
    B = [(c7, make_d(7))]
    p = QPoly.monomial((5, 7))
    joint = exp_op_apply(op_sum(A + B), p)
    staged = exp_op_apply(op_sum(A), exp_op_apply(op_sum(B), p))
    assert joint == staged
    assert joint.coefficient(()) == c5 * c7


# --- the factorization --------------------------------------------------------


def test_factorization_sides_agree_on_q3():
    lhs, rhs = factorization_sides(9)
    expected = Q3 + Q1.scale(R(1, 60))
    assert lhs(Q3) == expected
    assert rhs(Q3) == expected


def test_factorization_scan_passes():
    report = verify_factorization(9)
    assert report.status == PASS
    assert report.identity == "factorization"
    assert report.order == 9


@pytest.mark.parametrize("weight", range(1, 15))
def test_factorization_passes_at_every_weight(weight):
    # weights 2..4 leave no shift operator; the right-hand side must still
    # apply exp(sum l_m L_2m)
    assert verify_factorization(weight).status == PASS


def test_factorization_detects_wrong_l1():
    lhs, rhs = factorization_sides(9)
    lhs_bad, _ = factorization_sides(
        9, l_values=(R(1, 179), R(-1, 22680), R(-29, 12247200), R(1, 12028500))
    )
    assert lhs_bad(Q3) != rhs(Q3)


def test_factorization_reports_a_perturbed_b3():
    b_values = list(coeffs_b(7).values)
    assert b_values[2] == R(1, 36)
    b_values[2] += R(1, 7)  # b_3 = 43/252 in the shift exp(-b_3 d_5)
    report = verify_factorization(9, b_values=b_values)
    assert report.status == FAIL
    assert report.order == 9
    assert report.first_mismatch.exponent == 0
    assert report.first_mismatch.lhs == "-1/36"
    assert report.first_mismatch.rhs == "-43/252"


def test_factorization_builds_each_L_image_once(monkeypatch):
    # both sides read one sum of the l_m L_2m: 1,632 (m, monomial) pairs at
    # weight 12, each built once
    calls = Counter()
    make_L_ = virasoro.make_L

    def counted(m):
        L = make_L_(m)

        def image(key):
            calls[m, key] += 1
            return L.image(key)

        return LinearOp(L.name, image, L.den)

    monkeypatch.setattr(virasoro, "make_L", counted)
    assert verify_factorization(12).status == PASS
    assert len(calls) == 1632
    assert sum(calls.values()) == 1632


def test_factorization_memo_lives_for_one_check():
    # each check builds its own exponentials: a perturbed b_3 between two
    # passing checks fails alone, and leaves no image behind for the next
    assert verify_factorization(9).status == PASS
    b_values = list(coeffs_b(7).values)
    b_values[2] += R(1, 7)
    report = verify_factorization(9, b_values=b_values)
    assert report.status == FAIL
    assert report.first_mismatch.exponent == 0
    assert report.first_mismatch.lhs == "-1/36"
    assert verify_factorization(9).status == PASS


# --- the fixture ---------------------------------------------------------------


def test_fixture_loads_with_expected_values():
    F, bound = load_fk_fixture()
    assert bound == 18
    assert F.coefficient((1, 1, 1)) == R(1, 6)
    assert F.coefficient((3,)) == R(1, 24)
    assert F.coefficient((1, 5)) == R(1, 8)
    assert F.coefficient((3, 3)) == R(1, 48)
    assert F.coefficient((9,)) == R(35, 384)
    assert F.coefficient((15,)) == R(5005, 3072)
    assert len(F.terms) == 76


def test_fixture_regenerates_byte_identical(tmp_path):
    # guards against hand edits: the generator must reproduce the shipped file
    root = Path(__file__).resolve().parent.parent
    script = root / "scripts" / "generate_fk_fixture.py"
    shipped = root / "src" / "branchflow" / "data" / "fk_fixture.json"
    out = tmp_path / "fixture.json"
    subprocess.run(
        [sys.executable, str(script), "--out", str(out)],
        check=True,
        capture_output=True,
    )
    assert out.read_bytes() == shipped.read_bytes()


def test_fixture_explicit_path_roundtrip(tmp_path):
    doc = {
        "weight_bound": 3,
        "terms": [
            {"monomial": [1, 1, 1], "coefficient": "1/6"},
            {"monomial": [3], "coefficient": "1/24"},
        ],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    F, bound = load_fk_fixture(path)
    assert bound == 3
    assert F.coefficient((3,)) == R(1, 24)


@pytest.mark.parametrize("repeat", [[1, 2], [2, 1]], ids=["verbatim", "reordered"])
def test_fixture_refuses_a_monomial_listed_twice(tmp_path, repeat):
    doc = {
        "weight_bound": 3,
        "terms": [
            {"monomial": [1, 2], "coefficient": "1/2"},
            {"monomial": [3], "coefficient": "1/24"},
            {"monomial": repeat, "coefficient": "1/3"},
        ],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"monomial \[1, 2\] twice"):
        load_fk_fixture(path)


# --- the string-type constraints -----------------------------------------------


def test_kw_constraints_pass_on_shipped_fixture():
    rep1 = verify_kw_constraints(1)
    rep2 = verify_kw_constraints(2)
    assert rep1.status == PASS and rep1.order == 13
    assert rep2.status == PASS and rep2.order == 11


def test_kw_residual_vanishes_only_inside_window():
    F, bound = load_fk_fixture()
    residual = kw_residual(F, 1)
    # everything provable from the fixture cancels; the tail is truncation noise
    for w in residual.weight_parts():
        assert w > bound - 5


def test_kw_constraints_detect_perturbed_coefficient():
    F, bound = load_fk_fixture()
    terms = dict(F.terms)
    terms[(3,)] = R(1, 23)
    report = verify_kw_constraints(1, F=QPoly(terms), weight_bound=bound)
    assert report.status == FAIL
    assert report.first_mismatch.exponent == 1
    assert report.first_mismatch.lhs == "1/184"
    assert report.first_mismatch.rhs == "0"


@pytest.mark.parametrize("m, order, exponent, lhs", [(1, 13, 1, "-5/56"), (2, 11, 2, "5/56")])
def test_kw_constraints_report_a_perturbed_fixture_file(tmp_path, m, order, exponent, lhs):
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / "src" / "branchflow" / "data" / "fk_fixture.json").read_text())
    (rec,) = [rec for rec in doc["terms"] if rec["monomial"] == [1, 5]]
    assert rec["coefficient"] == "1/8"
    rec["coefficient"] = "1/7"
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    report = verify_kw_constraints(m, fixture_path=path)
    assert report.status == FAIL
    assert report.order == order
    assert report.first_mismatch.exponent == exponent
    assert report.first_mismatch.lhs == lhs
    assert report.first_mismatch.rhs == "0"


@pytest.mark.parametrize("m", [0, -1])
def test_kw_constraints_refuse_m_below_one(m):
    # L_0 carries the dilaton constant and L_-2 a multiplication part that acts
    # on 1; the residual formula covers neither, so both refuse with the reason
    F, _ = load_fk_fixture()
    with pytest.raises(ValueError, match=rf"m={m}: only the constraints m >= 1"):
        kw_residual(F, m)
    with pytest.raises(ValueError, match=rf"m={m}: only the constraints m >= 1"):
        verify_kw_constraints(m)


def test_kw_constraints_reject_short_fixture():
    F = QPoly({(1, 1, 1): R(1, 6), (3,): R(1, 24)})
    with pytest.raises(ValueError, match="too small"):
        verify_kw_constraints(1, F=F, weight_bound=3)
