"""A fixed reference job that shows how fast the host runs at the moment.

Usage: python3 perfbench/hostref.py

Computes the Bernoulli numbers B_0 .. B_259 with exact rationals, by the
recurrence sum_k C(m+1, k) B_k = 0.  It is the same kind of work as the
program's (big-integer rational arithmetic in a fresh interpreter) but runs
none of the program's code, so its time follows the host's speed and never a
change to branchflow.  run.py spawns it between the worker interpreters and
scales wall_s and setup_s by it.  Exits 1 if B_12 is not -691/2730.
"""

import sys
from fractions import Fraction
from math import comb

N = 260


def bernoulli(n):
    b = [Fraction(1)]
    for m in range(1, n):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


if __name__ == "__main__":
    sys.exit(0 if bernoulli(N)[12] == Fraction(-691, 2730) else 1)
