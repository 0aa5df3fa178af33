"""The benchmark's workloads: CLI argument lists made from a seed, plus the
expected outcome of every unit.

A workload pass is a list of interpreters, each a list of units, and a unit is
one ``branchflow`` argument list.  Every pass of a run repeats the same units,
so the per-pass figures of one run are samples of one quantity.

``reduced=True`` gives the same structure at small sizes; the self-test uses it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

SERIES_IDENTITIES = (
    "v-ode",
    "karamata",
    "k-functional",
    "k-integral",
    "w0-reversion",
    "lemma-yk",
    "prop-hy",
    "fplus-functional",
    "iden",
    "flow-laws",
    "nz-bernoulli",
)

# (family, order) per dump; the seed only shuffles them and picks a format
DEEP_DUMPS = (("y", 48), ("fplus", 48), ("e", 40), ("stirling", 200), ("c", 200))
DEEP_DUMPS_REDUCED = (("y", 12), ("fplus", 12), ("e", 10), ("stirling", 40), ("c", 40))

# factorization at these weights reports FAIL on a true identity (the
# right-hand side drops exp(sum l_m L_2m) when no shift operator is left).
# They stay in the inputs and count as failed units; they do not make a run
# incorrect, so fixing the defect moves `failed` and nothing else.
KNOWN_DEFECTS = {("factorization", 2), ("factorization", 3), ("factorization", 4)}

WORKLOAD_LAYERS = {
    # layers that must record spans on a traced pass of each workload
    "series-verify": ("exact", "series", "branches", "flows", "report", "cli"),
    "operator-algebra": ("exact", "series", "branches", "flows", "virasoro", "report", "cli"),
    "coeffs-deep": ("exact", "series", "branches", "flows", "cli"),
}

WORKLOADS = tuple(WORKLOAD_LAYERS)


@dataclass(frozen=True)
class Unit:
    argv: tuple
    # verify: the exact (identity, status) list expected on stdout;
    # coeffs: the SHA-256 of stdout
    reports: tuple = ()
    sha256: str = ""
    known_defect: bool = False

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"


def _golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)["coeffs_sha256"]


def _verify(identity, reports, *extra, known_defect=False) -> Unit:
    return Unit(("verify", identity) + tuple(extra), tuple(reports), known_defect=known_defect)


def _series_verify(rng, seed, reduced):
    order = "8" if reduced else "24"
    names = list(SERIES_IDENTITIES)
    rng.shuffle(names)
    units = [
        _verify(n, [(n, "PASS")], "--order", order, "--seed", str(seed)) for n in names
    ]
    return [units]


def _scan_reports(weight, lo, hi):
    pairs = [(m, n) for m in range(lo, hi + 1) for n in range(lo, hi + 1)]
    vir = [(f"virasoro-commutators(m={m},n={n})", "PASS") for m, n in pairs]
    heis = [
        (f"heisenberg-commutators(n={n},k={k})", "SKIPPED" if n + k == 0 else "PASS")
        for n, k in pairs
        if n != 0
    ]
    grad = [(f"grading(m={m})", "PASS") for m in range(lo, hi + 1)]
    return {"virasoro-commutators": vir, "heisenberg-commutators": heis, "grading": grad}


def _operator_algebra(rng, seed, reduced):
    weight, lo, hi, top = (5, -2, 2, 6) if reduced else (9, -5, 5, 12)
    s = ("--seed", str(seed))
    units = [
        _verify(name, reports, "--weight", str(weight), "--range", f"{lo}..{hi}", *s)
        for name, reports in _scan_reports(weight, lo, hi).items()
    ]
    units.append(
        _verify("kw-constraints", [(f"kw-constraints(m={m})", "PASS") for m in (1, 2)], *s)
    )
    units.extend(
        _verify(
            "factorization",
            [("factorization", "PASS")],
            "--weight",
            str(w),
            *s,
            known_defect=("factorization", w) in KNOWN_DEFECTS,
        )
        for w in range(1, top + 1)
    )
    rng.shuffle(units)
    return [units]


def _coeffs_deep(rng, seed, reduced):
    golden = _golden()
    dumps = list(DEEP_DUMPS_REDUCED if reduced else DEEP_DUMPS)
    rng.shuffle(dumps)
    interps = []
    for family, order in dumps:
        fmt = rng.choice(("json", "csv"))
        argv = ("coeffs", family, "--order", str(order), "--format", fmt)
        interps.append([Unit(argv, sha256=golden[f"{family}/{order}/{fmt}"])])
    return interps


_BUILDERS = {
    "series-verify": _series_verify,
    "operator-algebra": _operator_algebra,
    "coeffs-deep": _coeffs_deep,
}


def make_pass(workload: str, seed: int, reduced: bool = False) -> list:
    """The interpreters of one pass: a list of unit lists."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, seed, reduced)
