"""The two real branch expansions of w*e^w around the critical point.

``v`` and ``u`` are the two solutions of ``x * e^{1-x} = e^{-z^2/2}``
meeting at 1, with odd-part generator ``K = (v - u)/2``; ``c`` drives the
companion branch pair written in the ``mu = x + ...`` normalization.  Both
coefficient families come with an independent reversion oracle so the
recurrences never certify themselves.
"""

from __future__ import annotations

from operator import add, mul

from .exact import ONE, Rational, Row, bernoulli_upto, factorial
from .report import Record, verifier
from .series import ASCENDING, GradedSeries, cosh, coth, csch


class BranchCoeffs(Record):
    """1-indexed coefficient family ``b`` or ``c``."""

    __slots__ = ("family", "values")

    def __init__(self, family: str, values: tuple):
        self._init(family, values)

    def __getitem__(self, index: int):
        if index < 1 or index > len(self.values):
            raise IndexError(f"{self.family}-coefficient index {index} out of range")
        return self.values[index - 1]

    def __len__(self):
        return len(self.values)


class _Recurrence:
    """t_1 = 1, t_2, ... of ``(n+1) t_n = rest(n) - sum_{k=2}^{n-1} k t_k t_{n+1-k}``,
    where ``rest(n) = step(rest(n-1), t_{n-1})`` for a linear ``step``, from
    ``rest(1) = rest1``.

    The table is kept factorial-scaled: ``row`` holds beta_n = s^n n! t_n under
    the keys 0, 1, ..., int numerators over one common denominator, on which the
    recurrence reads

        (n+1) s beta_n = r_n - sum_{k=2}^{n-1} C(n, k-1) beta_k beta_{n+1-k},

    with r_n = s^{n+1} n! rest(n) = s n step(r_{n-1}, s beta_{n-1}), an int
    numerator over the same denominator.  The terms k and n+1-k pair to
    C(n+1, k) beta_k beta_{n+1-k}, read off one Pascal row that each step
    advances, and each step builds one Rational.

    Why the scaling: dividing by n+1 at every step leaves the primes up to n+1
    in the denominators of the t_n, so over one common denominator every
    numerator is as long as the last one (3,621 bits up to b_403).  n! takes
    most of those primes back out.  What then still grows with n in the
    denominators of n! t_n is powers of 2 and 3 for b, and of 3 alone for c, so
    s = 6 for b and s = 3 for c.  The common denominator of beta_1 .. beta_403
    has 696 bits, and the numerator of beta_k grows with k like s^k k! |t_k|, so
    most products of the convolution pair a short numerator with a long one.
    The Rationals t_n = beta_n / (s^n n!) are built as the table is read.
    """

    def __init__(self, scale: int, step, rest1):
        self.scale, self.step, self.rest1 = scale, step, rest1
        self.row = Row({0: Rational(scale)})  # beta_1 = s
        self.rest = scale * scale * rest1  # r_1, over the row's denominator
        self.pascal = [1, 2, 1]  # row n of Pascal's triangle before step n
        self.values = []

    def __call__(self, order: int) -> tuple:
        s, row, pascal = self.scale, self.row, self.pascal
        nums = row._num
        while len(nums) < order:
            n = len(nums) + 1
            pascal = [1, *map(add, pascal, pascal[1:]), 1]  # C(n+1, k)
            betas, d = list(nums.values()), row._den
            rest = self.rest = s * n * self.step(self.rest, s * betas[-1])
            h = n // 2
            pairs = map(mul, pascal[2 : h + 1], betas[1:h])  # k = 2 .. n // 2
            conv = sum(map(mul, pairs, betas[n - 2 : n - h - 1 : -1]))
            if n % 2:
                conv += (pascal[h + 1] >> 1) * betas[h] ** 2
            row._put(n - 1, Rational(rest * d - conv, d * d * (n + 1) * s))
            self.rest *= row._den // d
        self.pascal = pascal
        vals = self.values
        for n in range(len(vals) + 1, order + 1):
            vals.append(Rational(nums[n - 1], row._den * s**n * factorial(n)))
        return tuple(vals[:order])


# b_1 = 1; rest(n) = b_{n-1}
_b_table = _Recurrence(6, lambda rest, t: t, 0)
# c_1 = 1; rest(n) = 1 + sum_{j=1}^{n-1} c_j
_c_table = _Recurrence(3, add, 1)


def coeffs_b(order: int) -> BranchCoeffs:
    return BranchCoeffs("b", _b_table(order))


def coeffs_c(order: int) -> BranchCoeffs:
    return BranchCoeffs("c", _c_table(order))


def oracle_b(order: int) -> BranchCoeffs:
    """b by reversion of z = sqrt(2s - 2 log(1+s)), independent of the recurrence."""
    # the square root of a radicand led by s^2 ends one order short of s
    s = GradedSeries.identity(ASCENDING, prec=order + 2)
    chi = (2 * s - 2 * (s + 1).log()).sqrt()
    v_minus_1 = chi.revert()
    return BranchCoeffs("b", tuple(v_minus_1.coefficient(i) for i in range(1, order + 1)))


def oracle_c(order: int) -> BranchCoeffs:
    """c by matching sqrt(2 - 2(1+mu)e^-mu) against sqrt(2 - 2(1-x)e^x)."""
    # both square roots have radicands led by x^2 and end one order short of x
    x = GradedSeries.identity(ASCENDING, prec=order + 2)
    psi = (1 + x) * (-x).exp()  # (1+mu) e^-mu in the mu variable
    a = (2 * (1 - psi)).sqrt()
    r = (1 - x) * x.exp()
    b = (2 * (1 - r)).sqrt()
    mu = a.revert().compose(b)
    return BranchCoeffs("c", tuple(mu.coefficient(i) for i in range(1, order + 1)))


def series_K(order: int) -> GradedSeries:
    """K = (v - u)/2 = sum b_{2i+1} z^{2i+1}; the odd part of the branch pair."""
    bs = coeffs_b(order)
    return GradedSeries(
        ASCENDING,
        {i: bs[i] for i in range(1, order + 1, 2)},
        prec=order + 1,
    )


def series_w0(order: int) -> GradedSeries:
    """Principal-branch Taylor series: coefficient of z^n is (-n)^(n-1)/n!."""
    return GradedSeries(
        ASCENDING,
        {n: Rational((-n) ** (n - 1), factorial(n)) for n in range(1, order + 1)},
        prec=order + 1,
    )


def w0_by_reversion(order: int) -> GradedSeries:
    t = GradedSeries.identity(ASCENDING, prec=order + 1)
    return (t * t.exp()).revert()


def stirling_coeffs(count: int) -> list:
    """Asymptotic-expansion coefficients gamma_i = (2i+1)!! * b_{2i+1}, i = 0..count-1.

    They are the Stirling series of Gamma, sum gamma_i y^i = exp(g) with
    g = sum_j B_2j / (2j (2j-1)) y^(2j-1), so they are read off g.exp() at
    prec=count, for which g needs the terms j <= count // 2.
    """
    B = bernoulli_upto(2 * (count // 2))
    g = GradedSeries(
        ASCENDING,
        {2 * j - 1: B[2 * j] / (2 * j * (2 * j - 1)) for j in range(1, count // 2 + 1)},
        prec=count,
    )
    e = g.exp()
    return [e.coefficient(i) for i in range(count)]


# --- verifiers ---------------------------------------------------------------


def _gaussian(order: int) -> GradedSeries:
    """e^{-z^2/2} through z^order; below order 2 the exponent is all tail."""
    return GradedSeries.monomial(2, Rational(-1, 2), ASCENDING).truncate(order + 1).exp()


@verifier("v-ode")
def verify_b_family(order: int, values=None):
    """Recurrence vs reversion oracle, the defining ODE, and the closed form."""
    bs = values if values is not None else coeffs_b(order).values
    rec = GradedSeries(ASCENDING, {i + 1: c for i, c in enumerate(bs)}, prec=order + 1)
    orc = GradedSeries(
        ASCENDING, {i: c for i, c in enumerate(oracle_b(order).values, start=1)}, prec=order + 1
    )
    yield rec, orc, range(1, order + 1)

    v = GradedSeries(ASCENDING, {0: ONE, **{i + 1: c for i, c in enumerate(bs)}}, prec=order + 1)
    yield v.derivative() * (v - 1), GradedSeries.identity(ASCENDING) * v, range(0, order)

    # v e^{1-v} = e^{-z^2/2}, both sides divided by e
    yield v * (-(v - 1)).exp(), _gaussian(order), range(0, order + 1)


@verifier("karamata")
def verify_c_family(order: int, values=None):
    """Recurrence vs reversion oracle plus (1+mu)e^-mu = (1-x)e^x."""
    cs = values if values is not None else coeffs_c(order).values
    rec = GradedSeries(ASCENDING, {i + 1: c for i, c in enumerate(cs)}, prec=order + 1)
    orc = GradedSeries(
        ASCENDING, {i: c for i, c in enumerate(oracle_c(order).values, start=1)}, prec=order + 1
    )
    yield rec, orc, range(1, order + 1)

    x = GradedSeries.identity(ASCENDING, prec=order + 1)
    mu = GradedSeries(ASCENDING, {i + 1: c for i, c in enumerate(cs)}, prec=order + 1)
    yield (1 + mu) * (-mu).exp(), (1 - x) * x.exp(), range(0, order + 1)


@verifier("k-functional")
def verify_K_functional(order: int, K=None):
    """e^{-z^2/2} = K e^{1 - K coth K} csch K, both sides divided by e."""
    # csch K = 1/sinh K loses two orders of K's window, and multiplying by K
    # wins one back, so K is needed through x^(order+1)
    KK = K if K is not None else series_K(order + 1)
    csch_K = csch(KK)
    k_coth_k = KK * cosh(KK) * csch_K
    rhs = KK * (1 - k_coth_k).exp() * csch_K
    yield _gaussian(order), rhs, range(0, order + 1)


@verifier("k-integral")
def verify_K_integral(order: int, K=None):
    """K^2 coth K - K = sum b_{2i+1}/(2i+3) z^{2i+3}."""
    # K^2 coth K keeps the window of K
    KK = K if K is not None else series_K(order)
    lhs = KK * KK * coth(KK) - KK
    bs = coeffs_b(order)
    rhs = GradedSeries(
        ASCENDING, {e: bs[e - 2] / e for e in range(3, order + 1, 2)}, prec=order + 1
    )
    yield lhs, rhs, range(0, order + 1)


@verifier("w0-reversion")
def verify_w0(order: int, w0=None):
    """Taylor coefficients vs reversion of t e^t, and W0 e^{W0} = z."""
    taylor = w0 if w0 is not None else series_w0(order)
    yield taylor, w0_by_reversion(order), range(1, order + 1)
    lhs = taylor * taylor.exp()
    yield lhs, GradedSeries.identity(ASCENDING, prec=order + 1), range(1, order + 1)
