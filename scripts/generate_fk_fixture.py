#!/usr/bin/env python3
"""Generate the truncated free-energy fixture from first principles.

Intersection numbers <tau_{d_1} ... tau_{d_n}>_g are computed by the string
equation, the dilaton equation, and the standard recursion on the largest
insertion, seeded only by <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  The genus-0
closed form (n-3)!/prod(d_i!) and route cross-checks guard the recursion.

The output records the monomial expansion of F(q) with t_d = (2d-1)!! q_{2d+1},
truncated at total q-weight WEIGHT_BOUND.  This script deliberately imports
nothing from the package it feeds: it is the independent oracle.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

WEIGHT_BOUND = 18


def odd_fact(n: int) -> int:
    """n!! for odd n >= -1."""
    if n < -1 or (n != -1 and n % 2 == 0):
        raise ValueError(f"odd double factorial needs odd n >= -1, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _dim_ok(g: int, ds: tuple) -> bool:
    return sum(ds) == 3 * g - 3 + len(ds)


@lru_cache(maxsize=None)
def corr(g: int, ds: tuple) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g; ds sorted ascending."""
    n = len(ds)
    if g < 0 or n == 0 or not _dim_ok(g, ds):
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)  # <tau_0^3> = 1; dimension already forced ds = (0,0,0)
    if g == 1 and n == 1:
        return Fraction(1, 24)  # <tau_1> = 1/24
    if ds[0] == 0:
        # string equation
        rest = ds[1:]
        total = Fraction(0)
        for j, dj in enumerate(rest):
            if dj >= 1:
                total += corr(g, tuple(sorted(rest[:j] + (dj - 1,) + rest[j + 1:])))
        return total
    if ds[0] == 1:
        # dilaton equation
        rest = ds[1:]
        return (2 * g - 2 + len(rest)) * corr(g, rest)
    return _dvv(g, ds)


def _dvv(g: int, ds: tuple) -> Fraction:
    """Recursion on the largest insertion d1 >= 2."""
    d1 = ds[-1]
    rest = ds[:-1]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        total += Fraction(odd_fact(2 * (d1 + dj) - 1), odd_fact(2 * dj - 1)) * corr(
            g, tuple(sorted(rest[:j] + (d1 + dj - 1,) + rest[j + 1:]))
        )
    for a in range(0, d1 - 1):
        b = d1 - 2 - a
        weight = Fraction(odd_fact(2 * a + 1) * odd_fact(2 * b + 1), 2)
        total += weight * corr(g - 1, tuple(sorted(rest + (a, b))))
        split = Fraction(0)
        for mask in range(1 << len(rest)):
            left = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            right = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            for g1 in range(0, g + 1):
                cl = corr(g1, tuple(sorted(left + (a,))))
                if cl:
                    split += cl * corr(g - g1, tuple(sorted(right + (b,))))
        total += weight * split
    return total / odd_fact(2 * d1 + 1)


def corr_genus0_closed(ds: tuple) -> Fraction:
    n = len(ds)
    if not _dim_ok(0, ds):
        return Fraction(0)
    denom = 1
    for d in ds:
        denom *= math.factorial(d)
    return Fraction(math.factorial(n - 3), denom)


def _self_check() -> None:
    # seeds and hand values
    assert corr(0, (0, 0, 0)) == 1
    assert corr(1, (1,)) == Fraction(1, 24)
    assert corr(1, (0, 2)) == Fraction(1, 24)
    assert corr(2, (4,)) == Fraction(1, 1152)
    assert corr(0, (0, 0, 0, 1)) == 1
    assert corr(1, (1, 1)) == Fraction(1, 24)
    # genus-0 closed form across the truncation range
    for n in range(3, 8):
        for ds in _compositions(n - 3, n):
            assert corr(0, ds) == corr_genus0_closed(ds), (0, ds)
    # one-point closed form 1/(24^g g!)
    for g in range(1, 5):
        assert corr(g, (3 * g - 2,)) == Fraction(1, 24 ** g * math.factorial(g)), g
    # route consistency: entries with both a zero and a d >= 2 admit two
    # derivations (string equation vs recursion on the largest insertion)
    for g, ds in [(1, (0, 2)), (1, (0, 0, 3)), (2, (0, 5)), (1, (0, 1, 2)), (2, (0, 0, 6))]:
        assert _dim_ok(g, ds)
        via_string = corr(g, ds)
        via_dvv = _dvv(g, ds)
        assert via_string == via_dvv, (g, ds, via_string, via_dvv)


def _compositions(total: int, n: int):
    """Multisets of n nonnegative integers with the given sum, ascending."""

    def rec(remaining, slots, minimum):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(total, n, 0)


def free_energy_terms(weight_bound: int):
    """All (monomial, coefficient) pairs of F(q) with weight <= weight_bound."""
    terms = {}
    g = 0
    while 6 * g - 6 + 3 <= weight_bound:  # smallest weight at this genus (n = 1 or 3)
        n = 3 if g == 0 else 1
        while 6 * g - 6 + 3 * n <= weight_bound:
            for ds in _compositions(3 * g - 3 + n, n):
                value = corr(g, ds)
                if not value:
                    continue
                coeff = value
                counts = {}
                for d in ds:
                    coeff *= odd_fact(2 * d - 1)
                    counts[d] = counts.get(d, 0) + 1
                for c in counts.values():
                    coeff /= math.factorial(c)
                monomial = tuple(sorted(2 * d + 1 for d in ds))
                terms[monomial] = terms.get(monomial, Fraction(0)) + coeff
            n += 1
        g += 1
    pinned = {(1, 1, 1): Fraction(1, 6), (3,): Fraction(1, 24), (1, 5): Fraction(1, 8)}
    for mono, value in pinned.items():  # those the weight bound reaches
        assert sum(mono) > weight_bound or terms[mono] == value, mono
    return sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(
        os.path.dirname(__file__), "..", "src", "branchflow", "data", "fk_fixture.json"
    )
    parser.add_argument("--out", default=os.path.normpath(default_out))
    parser.add_argument("--weight-bound", type=int, default=WEIGHT_BOUND)
    args = parser.parse_args()

    _self_check()
    terms = free_energy_terms(args.weight_bound)
    doc = {
        "generator": "scripts/generate_fk_fixture.py",
        "oracle": "string/dilaton equations plus the recursion on the largest insertion",
        "weight_bound": args.weight_bound,
        "terms": [
            {"monomial": list(mono), "coefficient": str(coeff)} for mono, coeff in terms
        ],
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(terms)} terms up to weight {args.weight_bound} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
