"""Virasoro and Heisenberg operators acting exactly on polynomials in q_1, q_2, ...

L_m = sum_{k>0, k+m>0} (k+m) q_k d/dq_{k+m}
      + (1/2) sum_{a+b=m, a,b>0} ab d^2/dq_a dq_b
      + (1/2) sum_{i+j=-m, i,j>0} q_i q_j

An operator is its image of one monomial, read off the three sums, so every
result is exact; operators and QPoly arithmetic sum terms through one
accumulator.  Weight (the sum of q-indices of a monomial) is the grading: L_m
sends weight w to weight w - m.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from itertools import chain

from .exact import ONE, Rational, ZERO, rational
from .report import VerificationReport, failed, passed, skipped, start_clock

FIXTURE_RESOURCE = "fk_fixture.json"


def _key(indices) -> tuple:
    return tuple(sorted(indices))


def _d(key: tuple, j: int) -> tuple:
    """d/dq_j of the monomial ``key``: one j removed, times its multiplicity."""
    mult = key.count(j)
    if not mult:
        return ()
    i = key.index(j)
    return ((key[:i] + key[i + 1:], mult),)


def _collect(pairs) -> "QPoly":
    """Sums (canonical key, coefficient) pairs; keys whose sum is zero are dropped."""
    out: dict = {}
    for key, coeff in pairs:
        total = out[key] + coeff if key in out else coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return QPoly._of(out)


class QPoly:
    """Polynomial in the q-variables with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pairs = []
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            if any(i < 1 for i in key):
                raise ValueError(f"q-indices must be positive, got {key}")
            pairs.append((_key(key), coeff))
        # keys that canonicalise to one monomial are summed
        object.__setattr__(self, "terms", _collect(pairs).terms)

    @classmethod
    def _of(cls, terms: dict) -> "QPoly":
        """Wraps terms that are already canonical: sorted keys, no zero coefficient."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def one(cls) -> "QPoly":
        return cls({(): ONE})

    @classmethod
    def monomial(cls, indices, coeff=ONE) -> "QPoly":
        return cls({_key(indices): rational(coeff)})

    @classmethod
    def variable(cls, k: int) -> "QPoly":
        return cls.monomial((k,))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices):
        return self.terms.get(_key(indices), ZERO)

    def max_weight(self) -> int:
        return max((sum(key) for key in self.terms), default=0)

    def items(self):
        """Terms in canonical (weight, monomial) order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other: "QPoly") -> "QPoly":
        return _collect(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "QPoly":
        return self.scale(-1)

    def scale(self, value) -> "QPoly":
        return _collect((key, coeff * value) for key, coeff in self.terms.items())

    def __mul__(self, other: "QPoly") -> "QPoly":
        return _collect(
            (_key(ka + kb), ca * cb)
            for ka, ca in self.terms.items()
            for kb, cb in other.terms.items()
        )

    def mul_var(self, k: int) -> "QPoly":
        if k < 1:
            raise ValueError(f"q-indices must be positive, got {k}")
        return make_alpha(-k)(self)

    def derivative(self, j: int) -> "QPoly":
        return make_d(j)(self)

    def weight_parts(self) -> dict:
        parts: dict = {}
        for key, coeff in self.terms.items():
            parts.setdefault(sum(key), []).append((key, coeff))
        return {w: _collect(t) for w, t in sorted(parts.items())}

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "QPoly(0)"
        bits = []
        for key, coeff in self.items():
            mono = "*".join(f"q{i}" for i in key) or "1"
            bits.append(f"{coeff}*{mono}")
        return "QPoly(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class LinearOp:
    """Exact linear operator: ``image(key)`` lists the (monomial, weight) terms of
    its image of the monomial ``key``; delta is its uniform weight shift, if any."""

    name: str
    delta: int | None
    image: object

    def __call__(self, p: QPoly) -> QPoly:
        return _collect(
            (ikey, weight * coeff)
            for key, coeff in p.terms.items()
            for ikey, weight in self.image(key)
        )


def make_L(m: int) -> LinearOp:
    """The Virasoro operator L_m, read off its three sums monomial by monomial."""
    pairs = [(a, Rational(a * (m - a), 2)) for a in range(1, m)]
    products = [((i, -m - i), Rational(1, 2)) for i in range(1, -m)]

    def image(key):
        out = [  # (k + m) q_k d/dq_{k+m}, with j = k + m
            (_key(reduced + (j - m,)), j * mult)
            for j in dict.fromkeys(key)
            if j > m
            for reduced, mult in _d(key, j)
        ]
        out.extend(  # (ab/2) d_a d_b over ordered a + b = m
            (kb, c * ma * mb)
            for a, c in pairs
            for ka, ma in _d(key, a)
            for kb, mb in _d(ka, m - a)
        )
        out.extend((_key(key + ij), c) for ij, c in products)  # (1/2) q_i q_j
        return out

    return LinearOp(f"L[{m}]", -m, image)


def make_alpha(n: int) -> LinearOp:
    """Heisenberg operator: q_{-n} multiplication for n < 0, n d/dq_n for n > 0."""
    if n == 0:
        raise ValueError("alpha_0 is the zero operator; it has no basic form")
    if n < 0:
        return LinearOp(f"alpha[{n}]", -n, lambda key: ((_key(key + (-n,)), ONE),))
    return LinearOp(f"alpha[{n}]", -n, lambda key: [(k, n * w) for k, w in _d(key, n)])


def make_d(j: int) -> LinearOp:
    return LinearOp(f"d[{j}]", -j, lambda key: _d(key, j))


def commutator(A: LinearOp, B: LinearOp, p: QPoly) -> QPoly:
    return A(B(p)) - B(A(p))


def _compare_qpoly(identity, order, sides, t0):
    """PASS if lhs == rhs for every (lhs, rhs) of ``sides``, else FAIL at the
    first differing term of the first differing pair."""
    for lhs, rhs in sides:
        keys = sorted(set(lhs.terms) | set(rhs.terms), key=lambda k: (sum(k), k))
        for key in keys:
            cl, cr = lhs.terms.get(key, ZERO), rhs.terms.get(key, ZERO)
            if cl != cr:
                return failed(identity, order, t0, sum(key), str(cl), str(cr))
    return passed(identity, order, t0)


# --- corpora ------------------------------------------------------------------


def _partitions(total: int, cap: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def corpus_monomials(weight_bound: int) -> list:
    """1 and every q-monomial of weight up to the bound."""
    out = [QPoly.one()]
    for w in range(1, weight_bound + 1):
        out.extend(QPoly.monomial(part) for part in _partitions(w, w))
    return out


def corpus_random(weight_lo: int, weight_hi: int, seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = rng.randint(weight_lo, weight_hi)
        indices = []
        while w:
            part = rng.randint(1, w)
            indices.append(part)
            w -= part
        out.append(QPoly.monomial(indices, Rational(rng.randint(1, 9), rng.randint(1, 9))))
    return out


def default_corpus(weight_bound: int = 9, sample_bound: int = 12, seed: int = 0) -> list:
    corpus = corpus_monomials(weight_bound)
    if sample_bound > weight_bound:
        corpus.extend(corpus_random(weight_bound + 1, sample_bound, seed, 8))
    return corpus


# --- commutation checks ---------------------------------------------------------


def check_virasoro_commutator(m: int, n: int, corpus, order=None) -> VerificationReport:
    """[L_m, L_n] = (m-n) L_{m+n} + (m^3 - m)/12 on m + n = 0."""
    t0 = start_clock()
    order = order if order is not None else max(p.max_weight() for p in corpus)
    Lm, Ln, Lmn = make_L(m), make_L(n), make_L(m + n)
    central = Rational(m ** 3 - m, 12) if m + n == 0 else ZERO
    sides = (
        (commutator(Lm, Ln, p), Lmn(p).scale(m - n) + p.scale(central)) for p in corpus
    )
    return _compare_qpoly("virasoro-commutators", order, sides, t0)


def check_heisenberg_commutator(n: int, k: int, corpus, order=None) -> VerificationReport:
    """[(1/n) alpha_n, L_k] = alpha_{n+k}; the n + k = 0 case is out of scope."""
    t0 = start_clock()
    order = order if order is not None else max(p.max_weight() for p in corpus)
    if n + k == 0:
        return skipped("heisenberg-commutators", order, t0)
    an, Lk, ank = make_alpha(n), make_L(k), make_alpha(n + k)
    inv = Rational(1, n)
    sides = ((commutator(an, Lk, p).scale(inv), ank(p)) for p in corpus)
    return _compare_qpoly("heisenberg-commutators", order, sides, t0)


def check_grading(m: int, corpus, order=None) -> VerificationReport:
    """L_m maps a weight-w monomial to a weight-(w - m) polynomial or to zero."""
    t0 = start_clock()
    order = order if order is not None else max(p.max_weight() for p in corpus)
    Lm = make_L(m)
    for p in corpus:
        for w, part in p.weight_parts().items():
            for iw, ipart in Lm(part).weight_parts().items():
                if iw != w - m:
                    _, coeff = ipart.items()[0]
                    return failed("grading", order, t0, iw, str(coeff), "0")
    return passed("grading", order, t0)


# --- exponentials and the factorization -----------------------------------------


def exp_op_apply(ops, p: QPoly) -> QPoly:
    """exp(sum c_i op_i) p for weight-lowering op_i; the sum terminates exactly."""
    for _, op in ops:
        if op.delta >= 0:
            raise ValueError(f"{op.name} does not lower weight; exponential diverges")
    # sum c_i op_i is one operator: the weighted union of the monomial images
    total = LinearOp(
        "+".join(op.name for _, op in ops),
        None,
        lambda key: [(ikey, c * w) for c, op in ops for ikey, w in op.image(key)],
    )
    acc = p
    term = p
    n = 1
    while not term.is_zero():
        term = total(term).scale(Rational(1, n))
        acc = acc + term
        n += 1
    return acc


def factorization_sides(weight_bound: int, l_values=None, b_values=None):
    """Both sides of exp(sum l_m (L_2m - (2m+3) d_{2m+3})) =
    exp(sum l_m L_2m) exp(-sum b_{2k+1} d_{2k+3}) as application callables."""
    from .branches import coeffs_b
    from .flows import LAW_EVEN, flow_solve, series_theta

    m_max = weight_bound // 2
    k_max = max((weight_bound - 3) // 2, 0)
    if l_values is None:
        # l_m sits at z^(1 - 2m), which theta(2m) still knows
        l_values = flow_solve(
            series_theta(2 * m_max), count=m_max, law=LAW_EVEN, sign=-1
        ).values
    if b_values is None:
        b_values = coeffs_b(2 * k_max + 1).values if k_max else ()

    def combined(m):
        L = make_L(2 * m)
        shift = 2 * m + 3

        def image(key):
            return L.image(key) + [(k, -shift * w) for k, w in _d(key, shift)]

        return LinearOp(f"L[{2*m}]-{shift}d[{shift}]", -2 * m, image)

    lhs_ops = [(l_values[m - 1], combined(m)) for m in range(1, m_max + 1)]
    l_ops = [(l_values[m - 1], make_L(2 * m)) for m in range(1, m_max + 1)]
    shift_ops = [
        (-b_values[2 * k], make_d(2 * k + 3)) for k in range(1, k_max + 1)
    ]

    def lhs(p):
        return exp_op_apply(lhs_ops, p)

    def rhs(p):
        return exp_op_apply(l_ops, exp_op_apply(shift_ops, p))

    return lhs, rhs


def verify_factorization(
    weight_bound: int = 9, corpus=None, l_values=None, b_values=None
) -> VerificationReport:
    """Cross-module check: the operator identity with l from the theta flow and
    b from the branch recurrence holds on every polynomial of bounded weight."""
    t0 = start_clock()
    corpus = corpus if corpus is not None else corpus_monomials(weight_bound)
    lhs, rhs = factorization_sides(weight_bound, l_values, b_values)
    sides = ((lhs(p), rhs(p)) for p in corpus)
    return _compare_qpoly("factorization", weight_bound, sides, t0)


# --- the fixture and the string-equation constraints ----------------------------


def load_fk_fixture(path=None):
    """Returns (F, weight_bound) from the shipped or an explicit fixture file."""
    if path is None:
        blob = resources.files("branchflow.data").joinpath(FIXTURE_RESOURCE).read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            blob = fh.read()
    doc = json.loads(blob)
    terms: dict = {}
    for rec in doc["terms"]:
        key = _key(rec["monomial"])
        if key in terms:
            raise ValueError(f"fixture lists the monomial {list(key)} twice")
        terms[key] = rational(rec["coefficient"])
    return QPoly(terms), int(doc["weight_bound"])


def kw_residual(F: QPoly, m: int) -> QPoly:
    """e^{-F} (L_{2m} - (2m+3) d_{2m+3}) e^{F}, expanded in the log variables.

    e^{-F} d_a d_b e^{F} = d_a d_b F + d_a F d_b F, so the residual is L_{2m} F
    plus the bilinear terms (ab/2) d_a F d_b F, minus (2m+3) d_{2m+3} F.
    """
    two_m = 2 * m
    out = make_L(two_m)(F)
    for a in range(1, two_m):
        b = two_m - a
        out = out + (F.derivative(a) * F.derivative(b)).scale(Rational(a * b, 2))
    return out - F.derivative(two_m + 3).scale(two_m + 3)


def verify_kw_constraints(
    m: int = 1, F=None, weight_bound=None, fixture_path=None
) -> VerificationReport:
    """Residual of the weight-2m string-type constraint on the shipped free energy.

    The shift term reads the free energy three weights above the residual weight
    (the bilinear part only 2m above), so a fixture bounded at weight B pins the
    residual through weight B - 2m - 3 and no further.
    """
    t0 = start_clock()
    if F is None:
        F, bound = load_fk_fixture(fixture_path)
    else:
        bound = weight_bound if weight_bound is not None else F.max_weight()
    valid = bound - 2 * m - 3
    if valid < 0:
        raise ValueError(f"fixture weight bound {bound} too small for m={m}")
    residual = kw_residual(F, m)
    for w, part in residual.weight_parts().items():
        if w > valid:
            continue
        key, coeff = part.items()[0]
        return failed("kw-constraints", valid, t0, w, str(coeff), "0")
    return passed("kw-constraints", valid, t0)
