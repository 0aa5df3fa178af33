"""Virasoro and Heisenberg operators acting exactly on polynomials in q_1, q_2, ...

L_m = sum_{k>0, k+m>0} (k+m) q_k d/dq_{k+m}
      + (1/2) sum_{a+b=m, a,b>0} ab d^2/dq_a dq_b
      + (1/2) sum_{i+j=-m, i,j>0} q_i q_j

A QPoly is a row keyed by monomial in the layout of ``branchflow.exact``, and
each operation normalises its result once.  Inside, a monomial is one int key:
the product of P_i over its indices i, P_i the i-th prime (P_1 = 2), read from
a table grown on demand.  So q_j moved to q_k is ``key // P_j * P_k``, a product
term is one multiply, the product of two monomials is the product of their
keys, and the empty monomial is 1.  The multiplicity is not bounded, but an
index costs table: a key holding q_i needs P_1 .. P_(2i), sieved and kept for
the life of the process, about 80 bytes per index, and each decode of it is i
trial divisions.  So the fixture loader refuses an index above
``_FIXTURE_INDEX_CAP``, and ``coefficient`` reads an index past the table as
zero without growing it.  The public surface keeps sorted index tuples: the
constructor, ``monomial``, ``coefficient``, ``terms``, ``items`` and the
fixture loader.

An operator is its image of one monomial key, read off the sums as integer
weights over a denominator fixed per operator: 2 for L_m, 1 for alpha_n and
d_j, and for a sum c_1 op_1 + ... built by op_sum the lcm of the c_i op_i
denominators.  Weight (the sum of q-indices of a monomial) is the grading: L_m
lowers it by m, and the exponential of an operator that lowers it terminates
on every polynomial.

The image of L_m is built in one pass over the runs (index, multiplicity) of
the key, found by trial division, and each output monomial is listed once:
pairs a + b = m and i + j = -m are taken unordered, with their multiplicities
in the weight.  The runs and the weight of a key are memoised only while a
scan, a factorization check or an exponential runs, in any thread; the
outermost of these empties the memo when it returns, so no decoded key
outlives it; a scan also empties it after each polynomial.  An exponential sums its Taylor terms as int numerators and
canonicalises once, at the end.

A checked identity is compiled once per scan into an integer plan: its terms
(c, operator or None, row name) become (int factor, operator image or None, row
name) over one positive scale, the lcm of the c op denominators.  For each
polynomial p a scan builds its named rows p, L_k p and alpha_j p once and puts
them over one denominator D_p.  The residual sum lhs - sum rhs, times the scale
and D_p, is then one int accumulation into a dict, tested for zero; only when
it is not zero are the lhs terms of the same plan summed again, to read both
sides at the first differing term in canonical (weight, index tuple) order.
The only memo of images that outlives one polynomial lives in an operator
op_sum returns, and dies with it after one factorization check.

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
from collections.abc import Mapping
from reprlib import repr as _short
from functools import cache, wraps
from itertools import compress
from math import isqrt, lcm, log
from time import perf_counter

from .exact import ONE, Rational, Row, ZERO, _Terms, check_int, rational
from .report import Record, VerificationReport, failed, passed, skipped, start_clock

FIXTURE_RESOURCE = "fk_fixture.json"
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")  # p or p/q, q > 0


# --- monomial keys ------------------------------------------------------------

_PRIMES = [1]  # P_i at index i, the 1 a placeholder; grown in place, never rebound
_DECODED: dict = {}  # key -> (weight, runs), filled only while a scope is open
_scopes = 0  # scopes open: scans, checks and exponentials, nested, in any thread
_LOCK = threading.Lock()  # held to count scopes and to extend the table


def _grow(n: int) -> None:
    """Extends the prime table through P_(2n), by a sieve up to a bound on
    P_(2n): P_k < k (ln k + ln ln k) for k >= 6 (Rosser)."""
    k = 2 * n
    if k < len(_PRIMES):
        return
    top = 16 if k < 6 else int(k * (log(k) + log(log(k)))) + 2
    sieve = bytearray([1]) * top
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(top - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top, p)))
    primes = list(compress(range(top), sieve))
    with _LOCK:  # another thread may have grown the table meanwhile
        _PRIMES[len(_PRIMES) :] = primes[len(_PRIMES) - 1 : k]


def _encode(indices) -> int:
    """The key of the monomial of the positive int ``indices``: the product of P_i."""
    _grow(max(indices, default=0))
    key = 1
    for i in indices:
        key *= _PRIMES[i]
    return key


def _runs(key: int) -> tuple:
    """(weight, runs) of the monomial ``key``: its (index, multiplicity, P_index)
    runs in ascending index, by trial division.  The table is then long enough
    for twice the largest index, so an image may read P_(j - m) for any run j of
    ``key`` and any operator index m whose table is grown (see ``make_L``)."""
    got = _DECODED.get(key)
    if got is not None:
        return got
    P, runs, weight, i, x = _PRIMES, [], 0, 0, key
    while x > 1:
        i += 1
        if i == len(P):
            _grow(i)
        p = P[i]
        if not x % p:
            x //= p
            e = 1
            while not x % p:
                x //= p
                e += 1
            runs.append((i, e, p))
            weight += i * e
    if 2 * i >= len(P):
        _grow(i)
    got = weight, tuple(runs)
    if _scopes:
        _DECODED[key] = got
    return got


def _decode(key: int) -> tuple:
    """The sorted index tuple of the monomial ``key``."""
    return tuple(i for i, e, _ in _runs(key)[1] for _ in range(e))


def _scoped(fn):
    """``fn`` with the decode memo open while it runs; the outermost scope
    empties the memo when it returns or raises."""

    @wraps(fn)
    def run(*args, **kwargs):
        global _scopes
        with _LOCK:
            _scopes += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _LOCK:
                _scopes -= 1
                if not _scopes:
                    _DECODED.clear()

    return run


def _d(key: int, p: int) -> tuple:
    """d/dq_j of the monomial ``key``, p = P_j: one j removed, times its multiplicity."""
    if key % p:
        return ()
    out = x = key // p
    mult = 1
    while not x % p:
        x //= p
        mult += 1
    return ((out, mult),)


class QPoly(Row):
    """Polynomial in the q-variables: a row of rationals keyed by monomial."""

    __slots__ = ()

    def __init__(self, terms=None):
        summed: dict = {}  # keys that canonicalise to one monomial are summed
        for indices, coeff in (terms or {}).items():
            for i in indices:
                check_int(i, "a q-index")
            if coeff != 0 and any(i < 1 for i in indices):
                raise ValueError(f"q-indices must be positive, got {indices}")
            value = rational(coeff)
            if value:
                key = _encode(indices)
                summed[key] = summed.get(key, 0) + value
        super().__init__(summed)

    @classmethod
    def one(cls) -> "QPoly":
        return cls._of({1: 1}, 1)

    @classmethod
    def monomial(cls, indices, coeff=ONE) -> "QPoly":
        return cls({tuple(indices): coeff})

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, indices):
        # no stored key holds an index past the table, so that reads zero ungrown
        P, key = _PRIMES, 1
        for i in indices:
            if not (_is_int(i) and 0 < i < len(P)):
                return ZERO
            key *= P[i]
        num = self._num.get(key)
        return ZERO if num is None else Rational(num, self._den)

    def max_weight(self) -> int:
        return max((_runs(key)[0] for key in self._num), default=0)

    @property
    def terms(self) -> Mapping:
        """The read-only ``{sorted index tuple: Rational}`` view."""
        return _Terms({_decode(key): num for key, num in self._num.items()}, self._den)

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
        get = out.get
        for ka, ca in self._num.items():
            for kb, cb in other._num.items():
                key = ka * kb
                out[key] = get(key, 0) + ca * cb
        return QPoly._canon(out, self._den * other._den)

    def derivative(self, j: int) -> "QPoly":
        return make_d(j)(self)

    def weight_parts(self) -> dict:
        parts: dict = {}
        for key, num in self._num.items():
            parts.setdefault(_runs(key)[0], {})[key] = num
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
    """Exact linear operator: ``image(key)`` lists the (monomial key, integer
    weight) terms of its image of the monomial ``key``, weights over ``den``.
    A key is the int product of P_i over the monomial's indices i, P_i the i-th
    prime, and 1 is the empty monomial."""

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
            key = min((k for k, v in out.items() if v), key=lambda k: (_runs(k)[0], _decode(k)))
            left, den = _residual(terms[:split], rows).get(key, 0), scale * den
            return _runs(key)[0], str(Rational(left, den)), str(Rational(left - out[key], den))
    return None


def make_L(m: int) -> LinearOp:
    """The Virasoro operator L_m over the denominator 2, read off its three sums.

    No output monomial is listed twice: the first-order terms of distinct runs
    differ, and the two other sums change the degree."""
    check_int(m, "the index of L")
    if m == 0:  # every q_k d/dq_k returns the monomial: L_0 is its weight
        return LinearOp("L[0]", lambda key: [(key, 2 * _runs(key)[0])] if key != 1 else [], 2)
    P = _PRIMES
    if m < 0:
        _grow(-m)  # P_(j - m) for every run j: see _runs
        # q_i q_j over unordered i + j = -m: 1/2 per ordered pair
        products = [(P[i] * P[-m - i], 1 if 2 * i == -m else 2) for i in range(1, -m // 2 + 1)]

        def raising(key):  # every run j moves one j to j - m; then the products
            runs = _runs(key)[1]
            out = [(key // p * P[j - m], 2 * j * mult) for j, mult, p in runs]
            out += [(key * pq, w) for pq, w in products]
            return out

        return LinearOp(f"L[{m}]", raising, 2)

    def image(key):
        out, starts = [], {}
        for j, mult, p in _runs(key)[1]:
            if j > m:  # 2 (k + m) q_k d/dq_{k+m} with j = k + m: one of mult j's moves
                out.append((key // p * P[j - m], 2 * j * mult))
            elif 2 * j < m:  # a = j of ab d_a d_b: its pair b = m - j comes later
                starts[j] = mult, p
            elif 2 * j == m:  # a = b: mult (mult - 1) ordered picks
                if mult > 1:
                    out.append((key // (p * p), j * j * mult * (mult - 1)))
            elif m - j in starts:  # a < b = j: both orders of the pair
                a = m - j
                ma, pa = starts[a]
                out.append((key // (pa * p), 2 * a * j * ma * mult))
        return out

    return LinearOp(f"L[{m}]", image, 2)


def make_alpha(n: int) -> LinearOp:
    """Heisenberg operator: q_{-n} multiplication for n < 0, n d/dq_n for n > 0."""
    check_int(n, "the index of alpha")
    if n == 0:
        raise ValueError("alpha_0 is the zero operator; it has no basic form")
    _grow(abs(n))
    p = _PRIMES[abs(n)]
    if n < 0:
        return LinearOp(f"alpha[{n}]", lambda key: ((key * p, 1),))
    return LinearOp(f"alpha[{n}]", lambda key: [(k, n * w) for k, w in _d(key, p)])


def make_d(j: int) -> LinearOp:
    check_int(j, "the index of d")
    if j < 1:  # no monomial holds q_j
        return LinearOp(f"d[{j}]", lambda key: ())
    _grow(j)
    p = _PRIMES[j]
    return LinearOp(f"d[{j}]", lambda key: _d(key, p))


def commutator(A: LinearOp, B: LinearOp, p: QPoly) -> QPoly:
    return A(B(p)) - B(A(p))


@_scoped
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
            _DECODED.clear()  # few keys recur across polynomials; VmHWM stays flat
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
# costs about 3.5 us of CPU in the -5..5 grids and the grading scan with
# prime-product keys (5-6 us in the grids with index tuples).  Paired cold runs
# show no crossover near the 3500 pairs that price gives: a split won 28-37 of
# 75 runs at 2700-3000 pairs and 34-46 of 75 at 3800-4200, about a coin flip,
# and it lost most runs at every size while the second CPU was busy.  So the
# constant stays where the index-tuple measurements put it.
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
    """1 and every q-monomial of weight up to the bound, each row built canonical."""
    return [
        QPoly._of({_encode(part): 1}, 1)
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

        def image(key):
            w = _runs(key)[0] - m
            return [t for t in L.image(key) if _runs(t[0])[0] != w]

        return LinearOp(L.name, image, L.den)

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


@_scoped
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


@_scoped
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


# The largest q-index a fixture may name.  A key holding q_i needs the prime
# table through P_(2i): about 80 bytes of table per index, kept for the life of
# the process, and each decode of the key is i trial divisions.  At the cap
# that is 0.8 MB, sieved in about 10 ms, and about 3 ms per decode; the
# constraint check reaches no residual weight near it.
_FIXTURE_INDEX_CAP = 10_000


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
        if max(mono, default=0) > _FIXTURE_INDEX_CAP:
            raise FixtureError(
                f"a q-index above {_FIXTURE_INDEX_CAP} is refused, got {max(mono)}"
            )
        if not (_is_int(coeff) or isinstance(coeff, str) and _RATIONAL.fullmatch(coeff)):
            raise FixtureError(f"a coefficient must be an int or 'p/q', got {_short(coeff)}")
        try:
            value = rational(coeff)
        except ValueError as exc:  # more digits than int() reads
            raise FixtureError(f"coefficient {_short(coeff)}: {exc}") from None
        key = tuple(sorted(mono))
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
