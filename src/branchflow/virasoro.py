"""Virasoro and Heisenberg operators acting exactly on polynomials in q_1, q_2, ...

L_m = sum_{k>0, k+m>0} (k+m) q_k d/dq_{k+m}
      + (1/2) sum_{a+b=m, a,b>0} ab d^2/dq_a dq_b
      + (1/2) sum_{i+j=-m, i,j>0} q_i q_j

A QPoly is a row keyed by monomial in the layout of ``branchflow.exact``, and
each operation normalises its result once.  An operator is its image of one
monomial, read off the sums as integer weights over a denominator fixed per
operator: 2 for L_m, 1 for alpha_n and d_j, and for a sum c_1 op_1 + ... built
by op_sum the lcm of the c_i op_i denominators.  Weight (the sum of q-indices
of a monomial) is the grading: L_m lowers it by m, and the exponential of an
operator that lowers it terminates on every polynomial.

The image of L_m is built in one pass over the runs of equal indices of the
sorted monomial.  A moved or added index is put in place with ``bisect``, and
each output monomial is listed once: pairs a + b = m and i + j = -m are taken
unordered, with their multiplicities in the weight.  An exponential sums its
Taylor terms as int numerators and canonicalises once, at the end.

A checked identity is compiled once per scan into an integer plan: its terms
(c, operator or None, row name) become (int factor, operator image or None, row
name) over one positive scale, the lcm of the c op denominators.  For each
polynomial p a scan builds its named rows p, L_k p and alpha_j p once and puts
them over one denominator D_p.  The residual sum lhs - sum rhs, times the scale
and D_p, is then one int accumulation into a dict, tested for zero; only when
it is not zero are the lhs terms of the same plan summed again, to read both
sides at the first differing term.  The only memo of images that outlives one
polynomial lives in an operator op_sum returns, and dies with it after one
factorization check.

A commutation scan runs in two processes when it pays and it can: where it asks
at least ``_SPLIT_PAIRS`` (cell, polynomial) pairs, ``os.fork`` exists and
works, and the process has one thread and may run on two CPUs, a forked child
walks the odd corpus indices while the caller walks the even ones.  A cell's
verdict on a polynomial depends on that polynomial alone, so each cell keeps the
failure with the smaller index and every report is the one-process walk's, but
for ``elapsed_ms``.  Otherwise, and for the factorization check, one process
walks everything.  The split assumes the second CPU is idle: it costs CPU time
to save wall time, and ``os.sched_getaffinity`` sees neither a cgroup's CPU
quota nor other processes' load.
"""

from __future__ import annotations

import json
import marshal
import os
import random
import re
import threading
from bisect import bisect
from reprlib import repr as _short
from functools import cache
from math import lcm
from time import perf_counter

from .exact import ONE, Rational, Row, ZERO, check_int, rational
from .report import Record, VerificationReport, failed, passed, skipped, start_clock

FIXTURE_RESOURCE = "fk_fixture.json"
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")  # p or p/q, q > 0


def _key(indices) -> tuple:
    return tuple(sorted(indices))


def _d(key: tuple, j: int) -> tuple:
    """d/dq_j of the monomial ``key``: one j removed, times its multiplicity."""
    mult = key.count(j)
    if not mult:
        return ()
    i = key.index(j)
    return ((key[:i] + key[i + 1:], mult),)


class QPoly(Row):
    """Polynomial in the q-variables: a row of rationals keyed by monomial."""

    __slots__ = ()

    def __init__(self, terms=None):
        summed: dict = {}  # keys that canonicalise to one monomial are summed
        for key, coeff in (terms or {}).items():
            for i in key:
                check_int(i, "a q-index")
            if coeff != 0 and any(i < 1 for i in key):
                raise ValueError(f"q-indices must be positive, got {key}")
            summed[_key(key)] = summed.get(_key(key), 0) + rational(coeff)
        super().__init__(summed)

    @classmethod
    def one(cls) -> "QPoly":
        return cls._of({(): 1}, 1)

    @classmethod
    def monomial(cls, indices, coeff=ONE) -> "QPoly":
        return cls({_key(indices): coeff})

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, indices):
        num = self._num.get(_key(indices))
        return ZERO if num is None else Rational(num, self._den)

    def max_weight(self) -> int:
        return max((sum(key) for key in self._num), default=0)

    def items(self):
        """Terms in canonical (weight, monomial) order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly._combine(((1, self), (1, other)))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return QPoly._combine(((1, self), (-1, other)))

    def __neg__(self) -> "QPoly":
        return self.scale(-1)

    def scale(self, value) -> "QPoly":
        return QPoly._combine(((rational(value), self),))

    def __mul__(self, other: "QPoly") -> "QPoly":
        out: dict = {}
        for ka, ca in self._num.items():
            for kb, cb in other._num.items():
                key = _key(ka + kb)
                out[key] = out.get(key, 0) + ca * cb
        return QPoly._canon(out, self._den * other._den)

    def derivative(self, j: int) -> "QPoly":
        return make_d(j)(self)

    def weight_parts(self) -> dict:
        parts: dict = {}
        for key, num in self._num.items():
            parts.setdefault(sum(key), {})[key] = num
        return {w: QPoly._canon(part, self._den) for w, part in sorted(parts.items())}

    def __repr__(self):
        if not self._num:
            return "QPoly(0)"
        bits = []
        for key, coeff in self.items():
            mono = "*".join(f"q{i}" for i in key) or "1"
            bits.append(f"{coeff}*{mono}")
        return "QPoly(" + " + ".join(bits) + ")"


class LinearOp(Record):
    """Exact linear operator: ``image(key)`` lists the (monomial, integer weight)
    terms of its image of the monomial ``key``, weights over ``den``."""

    __slots__ = ("name", "image", "den")

    def __init__(self, name: str, image, den: int = 1):
        self._init(name, image, den)

    def __call__(self, p: QPoly) -> QPoly:
        return QPoly._canon(_add({}, 1, self.image, p._num), p._den * self.den)


def _add(out: dict, f: int, image, nums: dict) -> dict:
    """``out`` plus f op(nums) on a dict of int numerators, for the operator op
    whose ``image`` is given; an image None is the identity."""
    get = out.get
    if image is None:
        for key, num in nums.items():
            out[key] = get(key, 0) + f * num
        return out
    for key, num in nums.items():
        fn = f * num
        for ikey, weight in image(key):
            out[ikey] = get(ikey, 0) + weight * fn
    return out


def _plan(lhs, rhs=()) -> tuple:
    """The integer plan of sum lhs = sum rhs over (rational c, operator or None,
    row name) terms: (terms, split, scale), where ``terms`` are (int factor,
    image or None, row name) triples, lhs first and rhs negated, and ``scale``
    is the lcm of the c op denominators.  Summed over rows put over one
    denominator D, the terms give scale * D (sum lhs - sum rhs); the first
    ``split`` alone give scale * D sum lhs.  Terms with c = 0 are dropped."""
    left = [(1, t) for t in lhs if t[0]]
    signed = left + [(-1, t) for t in rhs if t[0]]
    dens = [c.denominator * (1 if op is None else op.den) for _, (c, op, _) in signed]
    scale = lcm(*dens)
    terms = [
        (sign * c.numerator * (scale // d), None if op is None else op.image, name)
        for (sign, (c, op, name)), d in zip(signed, dens)
    ]
    return terms, len(left), scale


def _named_rows(ops, p: QPoly) -> tuple:
    """({name: int numerators}, D_p): p, named "p", and op(p) for each operator,
    named by the operator, over one denominator D_p, p's times the lcm of the
    operators' denominators."""
    k = lcm(*[op.den for op in ops])
    rows = {"p": p._num if k == 1 else _add({}, k, None, p._num)}
    for op in ops:
        rows[op.name] = _add({}, k // op.den, op.image, p._num)
    return rows, p._den * k


def _residual(terms, rows: dict) -> dict:
    """sum f op(rows[name]) over a plan's terms: int numerators, zeros kept."""
    out: dict = {}
    for f, image, name in terms:
        _add(out, f, image, rows[name])
    return out


def _first_mismatch(plan, groups):
    """(weight, lhs, rhs) at the first differing term, in canonical order, in
    the first (rows, D) group on which ``plan`` has a non-zero residual, or
    None.  There the lhs terms give the lhs, and lhs minus the residual the rhs."""
    terms, split, scale = plan
    for rows, den in groups:
        out = _residual(terms, rows)
        if any(out.values()):
            key = min((k for k, v in out.items() if v), key=lambda k: (sum(k), k))
            left, den = _residual(terms[:split], rows).get(key, 0), scale * den
            return sum(key), str(Rational(left, den)), str(Rational(left - out[key], den))
    return None


def make_L(m: int) -> LinearOp:
    """The Virasoro operator L_m over the denominator 2, read off its three sums.

    No output monomial is listed twice: the first-order terms of distinct runs
    differ, and the two other sums change the degree."""
    check_int(m, "the index of L")
    if m == 0:  # every q_k d/dq_k returns the monomial: L_0 is its weight
        return LinearOp("L[0]", lambda key: [(key, 2 * sum(key))] if key else [], 2)
    # q_i q_j over unordered i + j = -m: 1/2 per ordered pair
    products = [(i, -m - i, 1 if 2 * i == -m else 2) for i in range(1, -m // 2 + 1)]

    def image(key):
        out, starts, s, size = [], {}, 0, len(key)
        while s < size:
            j = key[s]
            e = bisect(key, j, s)
            mult = e - s
            if j > m:  # 2 (k + m) q_k d/dq_{k+m} with j = k + m: one of mult j's moves
                k = j - m
                if k < j:
                    at = bisect(key, k, 0, s)
                    out.append((key[:at] + (k,) + key[at:s] + key[s + 1:], 2 * j * mult))
                else:
                    at = bisect(key, k, e)
                    out.append((key[:s] + key[s + 1:at] + (k,) + key[at:], 2 * j * mult))
            elif 2 * j < m:  # a = j of ab d_a d_b: its pair b = m - j comes later
                starts[j] = s, mult
            elif 2 * j == m:  # a = b: mult (mult - 1) ordered picks
                if mult > 1:
                    out.append((key[:s] + key[s + 2:], j * j * mult * (mult - 1)))
            elif m - j in starts:  # a < b = j: both orders of the pair
                a = m - j
                sa, ma = starts[a]
                out.append((key[:sa] + key[sa + 1:s] + key[s + 1:], 2 * a * j * ma * mult))
            s = e
        for i, j, w in products:  # i <= j, inserted where they sort
            b = bisect(key, j)
            a = bisect(key, i, 0, b)
            out.append((key[:a] + (i,) + key[a:b] + (j,) + key[b:], w))
        return out

    return LinearOp(f"L[{m}]", image, 2)


def make_alpha(n: int) -> LinearOp:
    """Heisenberg operator: q_{-n} multiplication for n < 0, n d/dq_n for n > 0."""
    check_int(n, "the index of alpha")
    if n == 0:
        raise ValueError("alpha_0 is the zero operator; it has no basic form")
    if n < 0:
        return LinearOp(f"alpha[{n}]", lambda key: ((_key(key + (-n,)), 1),))
    return LinearOp(f"alpha[{n}]", lambda key: [(k, n * w) for k, w in _d(key, n)])


def make_d(j: int) -> LinearOp:
    check_int(j, "the index of d")
    return LinearOp(f"d[{j}]", lambda key: _d(key, j))


def commutator(A: LinearOp, B: LinearOp, p: QPoly) -> QPoly:
    return A(B(p)) - B(A(p))


def _scan(identity, t0, corpus, cells, plans, ops, mirror=lambda cell: None, parts=None) -> list:
    """One report per cell, in the order of ``cells``, from one walk of the corpus,
    which ``_walk_halves`` may share between two processes.
    A cell without a plan is SKIPPED, and one whose plan has no terms PASSes
    without being asked.  A cell FAILs at the first p where its plan
    has a non-zero residual on the rows ``_named_rows(ops, part)``, taken for p
    or, given ``parts``, for each polynomial of ``parts(p)`` in turn; on p it is
    not asked if it failed, or if ``mirror(cell)``, whose residual is minus its
    own, passed.  Elapsed time runs from ``t0`` on, read by the process that
    decided the cell, and each report's order is the corpus's largest weight."""
    order = max(p.max_weight() for p in corpus)
    asked = [cell for cell in cells if cell in plans and plans[cell][0]]

    def walk(indices):
        found = {}
        for i in indices:
            p, clean = corpus[i], set()
            groups = [_named_rows(ops, part) for part in (parts(p) if parts else (p,))]
            for cell in asked:
                if cell not in found and mirror(cell) not in clean:
                    mismatch = _first_mismatch(plans[cell], groups)
                    if mismatch is None:
                        clean.add(cell)
                    else:
                        found[cell] = i, *mismatch, perf_counter()
        return found

    found = _walk_halves(walk, len(corpus), len(asked) * len(corpus))
    reports = {cell: skipped(identity, order, t0) for cell in cells if cell not in plans}
    for cell, (_, weight, lhs, rhs, at) in found.items():
        reports[cell] = failed(identity, order, t0, weight, lhs, rhs, at)
    return [reports[cell] if cell in reports else passed(identity, order, t0) for cell in cells]


# Cell-polynomial pairs below which one process walks the corpus.  In a fresh
# interpreter a split costs 3-5 ms of wall time (the fork, copy-on-write faults
# in both processes, the reaping), and the second CPU takes about a third of the
# walk off the wall clock, so a split pays from about 12 ms of walking.  A pair
# costs 5-6 us of CPU in the -5..5 grids, 3.5-4 us in the grading scan, the
# cheapest, and 7-24 us in a one-cell check.  In paired cold runs below 2000
# pairs, a split won 5 to 32 of 50-75 runs of the Heisenberg scan, 6 of 50 of
# grading at 1155 pairs, and about half of the Virasoro scan's; from 2000 to
# 3300 pairs it won 44 to 64 of 75 in every scan.  So the constant stays.
_SPLIT_PAIRS = 2000


def _forks(pairs: int) -> bool:
    """Whether a walk of ``pairs`` cell-polynomial pairs is split between two
    processes: the platform can fork, this process has one thread and may run
    on two CPUs, and the walk is long enough to pay for the fork."""
    return (
        pairs >= _SPLIT_PAIRS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _walk_halves(walk, size: int, pairs: int) -> dict:
    """``walk(range(size))``, where a walk maps the indices it is given, in
    ascending order, to {cell: (index of its first failure, ...)}.

    When ``_forks(pairs)``, this process walks the even indices while a child
    made by ``os.fork`` walks the odd ones and sends back its dict as ``marshal``
    data; each cell keeps the failure with the smaller index.  If the fork
    fails, this process walks everything.  The child leaves only through
    ``os._exit``, so it never flushes inherited stdio; if it fails, the odd half
    is walked again here, where the error raises with its own traceback.  The
    child is reaped before this returns or raises, killed first if the walk here
    raised."""
    if not _forks(pairs):
        return walk(range(size))
    odds = range(1, size, 2)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return walk(range(size))
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps(walk(odds)))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            found = walk(range(0, size, 2))
            blob = pipe.read()
        except BaseException:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    other = marshal.loads(blob) if os.waitstatus_to_exitcode(status) == 0 else walk(odds)
    for cell, hit in other.items():
        if cell not in found or hit < found[cell]:
            found[cell] = hit
    return found


# --- corpora ------------------------------------------------------------------


def _partitions(total: int, cap: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def corpus_monomials(weight_bound: int) -> list:
    """1 and every q-monomial of weight up to the bound.  A partition, reversed,
    is already a sorted key, so each row is built canonical."""
    return [
        QPoly._of({part[::-1]: 1}, 1)
        for w in range(weight_bound + 1)
        for part in _partitions(w, w)
    ]


_SAMPLE_WEIGHT = 12  # the random samples reach this weight
_SAMPLES = 8


def default_corpus(weight_bound: int = 9, seed: int = 0) -> list:
    """Every monomial up to the weight bound and, below weight 12, eight seeded
    random monomials of weights above it with random rational coefficients."""
    corpus = corpus_monomials(weight_bound)
    if weight_bound >= _SAMPLE_WEIGHT:
        return corpus
    rng = random.Random(seed)
    for _ in range(_SAMPLES):
        w = rng.randint(weight_bound + 1, _SAMPLE_WEIGHT)
        indices = []
        while w:
            part = rng.randint(1, w)
            indices.append(part)
            w -= part
        corpus.append(QPoly.monomial(indices, Rational(rng.randint(1, 9), rng.randint(1, 9))))
    return corpus


# --- commutation checks ---------------------------------------------------------
#
# Each scan takes its cells as index tuples, compiles each cell's plan once and
# walks the corpus once.  A plan reads the rows p, L_k p and alpha_j p, built once
# per polynomial; a composite such as L_m L_n p goes straight into a residual and
# is never built.  The check_* functions are one-cell scans.  Operators come from
# the module globals make_L and make_alpha, looked up when a scan starts.


def scan_virasoro_commutators(cells, corpus) -> list:
    """[L_m, L_n] = (m-n) L_{m+n} + (m^3 - m)/12 on m + n = 0, per (m, n) cell.

    Swapping m and n negates both sides (checked here for the central term), so
    (n, m) takes the verdict of (m, n) on each polynomial: L_m L_n p and L_n L_m p
    are applied once for the two cells.  [L_m, L_m] = 0 holds for any operator, so
    the cell (m, m) has no terms and passes without building anything."""
    t0 = start_clock()
    L = {k: make_L(k) for k in sorted({k for m, n in cells if m != n for k in (m, n, m + n)})}
    central = {(m, n): Rational(m ** 3 - m, 12) if m + n == 0 else ZERO for m, n in cells}
    mirror = {(m, n): (n, m) for m, n in cells if central.get((n, m)) == -central[(m, n)]}
    plans = {
        (m, n): _plan(
            [(1, L[m], L[n].name), (-1, L[n], L[m].name)],
            [(m - n, None, L[m + n].name), (central[m, n], None, "p")],
        )
        if m != n
        else _plan(())
        for m, n in cells
    }
    return _scan("virasoro-commutators", t0, corpus, cells, plans, L.values(), mirror.get)


def scan_heisenberg_commutators(cells, corpus) -> list:
    """[(1/n) alpha_n, L_k] = alpha_{n+k} per (n, k) cell; n + k = 0 is SKIPPED."""
    t0 = start_clock()
    live = [(n, k) for n, k in cells if n + k]
    alpha = {j: make_alpha(j) for j in sorted({j for n, k in live for j in (n, n + k)})}
    L = {k: make_L(k) for k in sorted({k for _, k in live})}
    plans = {
        (n, k): _plan(
            [(Rational(1, n), alpha[n], L[k].name), (Rational(-1, n), L[k], alpha[n].name)],
            [(1, None, alpha[n + k].name)],
        )
        for n, k in live
    }
    return _scan(
        "heisenberg-commutators", t0, corpus, cells, plans, [*alpha.values(), *L.values()]
    )


def scan_grading(cells, corpus) -> list:
    """L_m maps a weight-w monomial to a weight-(w - m) polynomial or to zero,
    per (m,) cell: the part of each image outside weight w - m must vanish."""
    t0 = start_clock()

    def stray(m):  # L_m, keeping only the image terms off weight w - m
        L = make_L(m)
        return LinearOp(
            L.name, lambda key: [t for t in L.image(key) if sum(t[0]) != sum(key) - m], L.den
        )

    strays = {m: stray(m) for m in sorted({cell[0] for cell in cells})}
    plans = {cell: _plan([(1, strays[cell[0]], "p")]) for cell in cells}

    def parts(p):  # each weight part of p is checked on its own
        return p.weight_parts().values()

    return _scan("grading", t0, corpus, cells, plans, (), parts=parts)


def check_virasoro_commutator(m: int, n: int, corpus) -> VerificationReport:
    return scan_virasoro_commutators([(m, n)], corpus)[0]


def check_heisenberg_commutator(n: int, k: int, corpus) -> VerificationReport:
    return scan_heisenberg_commutators([(n, k)], corpus)[0]


def check_grading(m: int, corpus) -> VerificationReport:
    return scan_grading([(m,)], corpus)[0]


# --- exponentials and the factorization -----------------------------------------


def op_sum(pairs) -> LinearOp:
    """sum c_i op_i over (rational c_i, operator op_i) pairs, as one operator:
    the weighted union of the monomial images, with integer weights over the lcm
    of the c_i op_i denominators.  Its image of each monomial is built once and
    memoised for as long as the returned operator lives."""
    pairs = [(rational(c), op) for c, op in pairs]
    den = lcm(*(c.denominator * op.den for c, op in pairs))
    scaled = [(c.numerator * (den // (c.denominator * op.den)), op.image) for c, op in pairs]

    @cache
    def image(key):
        return [(ikey, f * w) for f, part in scaled for ikey, w in part(key)]

    return LinearOp("+".join(op.name for _, op in pairs), image, den)


def exp_op_apply(op: LinearOp, p: QPoly) -> QPoly:
    """exp(op) p, summed once: a weight-lowering op leaves nothing after
    ``p.max_weight() + 1`` applications, and anything left then is refused.

    The term op^n p / n! is int numerators over p._den op.den^n n!, never
    canonicalised: the terms are summed once, each scaled to the last one's
    denominator, into one dict that is canonicalised once."""
    terms = [p._num]
    for _ in range(p.max_weight() + 1):
        term = {key: num for key, num in _add({}, 1, op.image, terms[-1]).items() if num}
        if not term:
            total, f = dict(terms[-1]), 1
            for n in range(len(terms) - 1, 0, -1):  # the 1/n rides on the denominator
                f *= op.den * n
                _add(total, f, None, terms[n - 1])
            return QPoly._canon(total, p._den * f)
        terms.append(term)
    raise ValueError(f"{op.name} does not lower weight; exponential diverges")


def factorization_sides(weight_bound: int, l_values=None, b_values=None):
    """Both sides of exp(sum l_m (L_2m - (2m+3) d_{2m+3})) =
    exp(sum l_m L_2m) exp(-sum b_{2k+1} d_{2k+3}) as application callables.
    Both sides read one sum A = sum l_m L_2m, so each L_2m image is built once."""
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

    A = op_sum([(l_values[m - 1], make_L(2 * m)) for m in range(1, m_max + 1)])
    joint = op_sum(
        [(1, A)]
        + [(-(2 * m + 3) * l_values[m - 1], make_d(2 * m + 3)) for m in range(1, m_max + 1)]
    )
    shift = op_sum([(-b_values[2 * k], make_d(2 * k + 3)) for k in range(1, k_max + 1)])

    def lhs(p):
        return exp_op_apply(joint, p)

    def rhs(p):
        return exp_op_apply(A, exp_op_apply(shift, p))

    return lhs, rhs


def verify_factorization(
    weight_bound: int = 9, l_values=None, b_values=None
) -> VerificationReport:
    """Cross-module check: the operator identity with l from the theta flow and
    b from the branch recurrence holds on every monomial of bounded weight.
    Both sides are canonical rows, so ``==`` decides each monomial."""
    t0 = start_clock()
    lhs, rhs = factorization_sides(weight_bound, l_values, b_values)
    for p in corpus_monomials(weight_bound):
        left, right = lhs(p), rhs(p)
        if left != right:
            # each side's denominator rides on its coefficient, over rows of D = 1
            plan = _plan(
                [(Rational(1, left._den), None, "lhs")], [(Rational(1, right._den), None, "rhs")]
            )
            mismatch = _first_mismatch(plan, [({"lhs": left._num, "rhs": right._num}, 1)])
            return failed("factorization", weight_bound, t0, *mismatch)
    return passed("factorization", weight_bound, t0)


# --- the fixture and the string-equation constraints ----------------------------


class FixtureError(ValueError):
    """A fixture the loader or the constraint check refuses: bad JSON, a wrong
    type or shape at some key, or a weight bound too small to check anything."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_fk_fixture(path=None):
    """Returns (F, weight_bound) from the shipped or an explicit fixture file.

    The document is {"weight_bound": int, "terms": [{"monomial": [int >= 1, ...],
    "coefficient": int or "p/q"}, ...]}; anything else raises FixtureError.  A
    JSON float coefficient is refused too: it would be read as its binary value.
    """
    try:
        if path is None:
            from importlib import resources

            blob = resources.files("branchflow.data").joinpath(FIXTURE_RESOURCE).read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                blob = fh.read()
        doc = json.loads(blob)
    except (ValueError, RecursionError) as exc:  # undecodable bytes or malformed JSON
        raise FixtureError(f"fixture is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise FixtureError("fixture must be a JSON object with a list of terms")
    bound = doc.get("weight_bound")
    if not _is_int(bound):
        raise FixtureError(f"weight_bound must be an integer, got {_short(bound)}")
    terms: dict = {}
    for rec in doc["terms"]:
        if not isinstance(rec, dict):
            raise FixtureError(f"a term must be an object, got {_short(rec)}")
        mono, coeff = rec.get("monomial"), rec.get("coefficient")
        if not isinstance(mono, list) or not all(_is_int(i) and i >= 1 for i in mono):
            raise FixtureError(f"a monomial must list positive integers, got {_short(mono)}")
        if not (_is_int(coeff) or isinstance(coeff, str) and _RATIONAL.fullmatch(coeff)):
            raise FixtureError(f"a coefficient must be an int or 'p/q', got {_short(coeff)}")
        try:
            value = rational(coeff)
        except ValueError as exc:  # more digits than int() reads
            raise FixtureError(f"coefficient {_short(coeff)}: {exc}") from None
        key = _key(mono)
        if key in terms:
            raise FixtureError(f"fixture lists the monomial {list(key)} twice")
        terms[key] = value
    return QPoly(terms), bound


def kw_residual(F: QPoly, m: int, top=None) -> QPoly:
    """e^{-F} (L_{2m} - (2m+3) d_{2m+3}) e^{F}, expanded in the log variables;
    with ``top``, only its weights up to ``top`` are exact.

    e^{-F} d_a d_b e^{F} = d_a d_b F + d_a F d_b F, so the residual is L_{2m} F
    plus the bilinear terms (ab/2) d_a F d_b F, minus (2m+3) d_{2m+3} F.  A
    product of weight parts of d_a F and d_b F whose weights sum past ``top``
    is not built.  m < 1 is refused: L_0 adds the dilaton constant -1/8, and
    the multiplication part q_1^2/2 of L_{-2} acts on 1, not on F.
    """
    if m < 1:
        raise ValueError(
            f"m={m}: only the constraints m >= 1 are checked; L_0 adds a dilaton "
            "constant and the multiplication part of L_-2 acts on 1, not on F"
        )
    two_m = 2 * m
    dF = {a: F.derivative(a).weight_parts() for a in range(1, two_m)}
    bilinear = [
        (Rational(a * (two_m - a), 2), pa * pb)
        for a in dF
        for u, pa in dF[a].items()
        for v, pb in dF[two_m - a].items()
        if top is None or u + v <= top
    ]
    shift = (-(two_m + 3), F.derivative(two_m + 3))
    return QPoly._combine([(1, make_L(two_m)(F)), *bilinear, shift])


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
        raise FixtureError(f"fixture weight bound {bound} too small for m={m}")
    residual = kw_residual(F, m, valid)
    for w, part in residual.weight_parts().items():
        if w > valid:
            continue
        key, coeff = part.items()[0]
        return failed("kw-constraints", valid, t0, w, str(coeff), "0")
    return passed("kw-constraints", valid, t0)
