#!/usr/bin/env python3
"""Time one series or operator operation at several sizes and fit how its cost grows.

    python3 scripts/growth.py exp --orders 40 80 120 200
    python3 scripts/growth.py coth --orders 40 80 --runs 1 --src ../other/src
    python3 scripts/growth.py vir_scan --orders 6 9 12 15
    python3 scripts/growth.py vir_grid --orders 12 13 14 15
    python3 scripts/growth.py heis_grid --orders 12 13 14 15
    python3 scripts/growth.py recurrence --orders 100 200 403
    python3 scripts/growth.py stirling --orders 50 100 200

Each (order, run) is a fresh interpreter that builds the operation's input
and times only the operation itself with ``time.perf_counter``.  The last
stdout line is one JSON object: the median time per order, the median CPU
time of the timed statement per order (user plus system from ``os.times``,
reaped child processes included, in steps of the clock tick), the exponent of
the least-squares line through (log order, log time), and the largest peak
RSS per order (``VmHWM`` in ``/proc/self/status`` of the interpreters, KiB,
so each reads its own peak: ``ru_maxrss`` of a child keeps the RSS of the
process that spawned it as a floor), so that a trade of memory for time shows
next to its fit, and the line count of the ``branchflow`` package it timed
(``src_lines``).  ``recurrence`` grows the branch table ``b`` from empty to
b_n, as ``coeffs b --order n`` does; ``stirling`` and ``bernoulli`` build the
rows of ``coeffs stirling --order n`` and ``coeffs bernoulli --order n`` from
empty tables.  For the operator ops the order is the weight bound of the
q-polynomial corpus: ``vir_scan`` times one commutator cell, ``vir_grid`` and
``heis_grid`` the CLI's whole -5..5 Virasoro and Heisenberg scans (their
corpus adds a seeded sample up to weight 12, so fit them from 12 up), and
``factorization`` the factorization check.  ``--src`` points at the ``src``
directory of another checkout, so one harness times both sides of a change.
Stdlib only; Linux, for ``/proc``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# name -> (what is timed, input setup, timed statement); ``n`` is the order,
# or for the operator ops the corpus weight bound
OPS = {
    "mul": (
        "mu * mu, mu = series_mu(n), the dense c-family series",
        "from branchflow import series_mu\nx = series_mu(n)",
        "x * x",
    ),
    "reciprocal": (
        "1/(1 + mu), mu = series_mu(n)",
        "from branchflow import series_mu\nx = 1 + series_mu(n)",
        "x.reciprocal()",
    ),
    "exp": (
        "exp(-mu), mu = series_mu(n), the dense c-family series",
        "from branchflow import series_mu\nx = -series_mu(n)",
        "x.exp()",
    ),
    "log": (
        "log(1 + mu), mu = series_mu(n)",
        "from branchflow import series_mu\nx = 1 + series_mu(n)",
        "x.log()",
    ),
    "coth": (
        "coth(K), K = series_K(n)",
        "from branchflow import series_K\nfrom branchflow.series import coth\nx = series_K(n)",
        "coth(x)",
    ),
    "revert": (
        "revert(t e^t) known below t^(n+1)",
        "from branchflow.series import ASCENDING, GradedSeries\n"
        "t = GradedSeries.identity(ASCENDING, prec=n + 1)\nx = t * t.exp()",
        "x.revert()",
    ),
    "compose": (
        "series_theta(n).compose(series_f(n))",
        "from branchflow import series_f, series_theta\nx, y = series_theta(n), series_f(n)",
        "x.compose(y)",
    ),
    "flow_solve": (
        "flow_solve(series_f(n))",
        "from branchflow import flow_solve, series_f\nx = series_f(n)",
        "flow_solve(x)",
    ),
    "flow_apply": (
        "flow_apply(flow_solve(series_f(n)), z)",
        "from branchflow import DESCENDING, GradedSeries, flow_apply, flow_solve, series_f\n"
        "x, z = flow_solve(series_f(n)), GradedSeries.identity(DESCENDING)",
        "flow_apply(x, z)",
    ),
    "vir_scan": (
        "check_virasoro_commutator(3, -2, corpus_monomials(n))",
        "from branchflow import check_virasoro_commutator, corpus_monomials\n"
        "x = corpus_monomials(n)",
        "check_virasoro_commutator(3, -2, x)",
    ),
    "vir_grid": (
        "verify virasoro-commutators --weight n --range=-5..5: all 121 cells, one corpus",
        "from argparse import Namespace\nfrom branchflow.cli import IDENTITIES\n"
        "x = Namespace(weight=n, seed=0, range=(-5, 5))",
        'IDENTITIES["virasoro-commutators"](x)',
    ),
    "heis_grid": (
        "verify heisenberg-commutators --weight n --range=-5..5: all 110 cells, one corpus",
        "from argparse import Namespace\nfrom branchflow.cli import IDENTITIES\n"
        "x = Namespace(weight=n, seed=0, range=(-5, 5))",
        'IDENTITIES["heisenberg-commutators"](x)',
    ),
    "factorization": (
        "verify_factorization(n), l and b built inside",
        "from branchflow import verify_factorization",
        "verify_factorization(n)",
    ),
    "recurrence": (
        "coeffs_b(n) from the empty table: b_1 .. b_n",
        "from branchflow import coeffs_b",
        "coeffs_b(n)",
    ),
    "stirling": (
        "stirling_coeffs(n + 1) from empty tables: gamma_0 .. gamma_n",
        "from branchflow import stirling_coeffs",
        "stirling_coeffs(n + 1)",
    ),
    "bernoulli": (
        "family_rows('bernoulli', n) from the empty table: B_0 .. B_n",
        "from branchflow.cli import family_rows",
        'family_rows("bernoulli", n)',
    ),
}

CHILD = """\
import os, sys, time
sys.path.insert(0, {src!r})
n = {n}
{setup}
c0, t0 = os.times(), time.perf_counter()
{stmt}
t, c1 = time.perf_counter() - t0, os.times()
cpu = sum(c1[:4]) - sum(c0[:4])
with open("/proc/self/status") as status:
    print(t, cpu, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def time_once(src, op, n):
    """(seconds, CPU seconds, peak RSS in KiB) of one fresh interpreter."""
    _, setup, stmt = OPS[op]
    code = CHILD.format(src=src, n=n, setup=setup, stmt=stmt)
    # bytecode caching on, as for an installed package: a copy of src/ without
    # __pycache__ would otherwise recompile every module in every interpreter
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"{op} at order {n} failed:\n{done.stderr}")
    seconds, cpu, kib = done.stdout.split()[-3:]
    return float(seconds), float(cpu), int(kib)


def src_lines(src):
    """Lines in the ``branchflow`` modules under ``src``."""
    total = 0
    for path in glob.glob(os.path.join(src, "branchflow", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def growth_exponent(orders, times):
    """Slope of the least-squares line through (log order, log time)."""
    if len(orders) < 2:
        return None
    xs = [math.log(n) for n in orders]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--orders", type=int, nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters per order")
    parser.add_argument("--src", default=SRC, help="src directory of the checkout to time")
    args = parser.parse_args(argv)
    if args.runs < 1 or any(n < 1 for n in args.orders):
        parser.error("--runs and every order must be at least 1")

    orders = sorted(set(args.orders))
    runs = [[time_once(args.src, args.op, n) for _ in range(args.runs)] for n in orders]
    medians = [statistics.median(t for t, _, _ in per_order) for per_order in runs]
    slope = growth_exponent(orders, medians)
    print(json.dumps({
        "op": args.op,
        "what": OPS[args.op][0],
        "python": platform.python_version(),
        "runs": args.runs,
        "orders": orders,
        "median_s": [round(t, 6) for t in medians],
        "median_cpu_s": [round(statistics.median(c for _, c, _ in per), 6) for per in runs],
        "peak_rss_kib": [max(kib for _, _, kib in per_order) for per_order in runs],
        "growth_exp": None if slope is None else round(slope, 2),
        "src_lines": src_lines(args.src),
    }))


if __name__ == "__main__":
    main()
