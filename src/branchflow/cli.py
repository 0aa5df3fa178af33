"""Batch driver: dump coefficient families, run verifications, signal via exit code.

Output contract: machine-readable results on stdout (one JSON document for
coeffs, JSON lines for verify), human-oriented notes on stderr.  Exit 0 when
everything passed or was skipped, 1 on any FAIL, 2 on usage errors (bad
arguments, an unusable path or fixture), 3 on an internal error: any other
exception, such as a series operation refusing to answer for accepted input.
"""

import argparse
import json
import os
import re
import sys
import time
from itertools import product

from .branches import (
    coeffs_b,
    coeffs_c,
    series_w0,
    stirling_coeffs,
    verify_K_functional,
    verify_K_integral,
    verify_b_family,
    verify_c_family,
    verify_w0,
)
from .exact import bernoulli_upto, rational_str
from .flows import (
    LAW_EVEN,
    flow_solve,
    series_E,
    series_F,
    series_H,
    series_f,
    series_f_plus,
    series_h,
    series_theta,
    series_y,
    verify_flow_laws,
    verify_fplus_functional,
    verify_iden,
    verify_lemma_yk,
    verify_nz_identity,
    verify_prop_hy,
)
from .report import VerificationReport
from .series import ASCENDING, SeriesError
from .virasoro import (
    FixtureError,
    default_corpus,
    scan_grading,
    scan_heisenberg_commutators,
    scan_virasoro_commutators,
    verify_factorization,
    verify_kw_constraints,
)

MAX_ORDER = 200
MAX_WEIGHT = 16
# a scan costs cells x corpus, so --range ends are capped like --weight
MAX_INDEX = 16
ENV_ORDER = "BRANCHFLOW_DEFAULT_ORDER"


def _numbered(values) -> list:
    return list(enumerate(values, start=1))


def _series_rows(series, order: int) -> list:
    """(exponent, coefficient) for order + 1 exponents from the lead down the window."""
    step = 1 if series.direction == ASCENDING else -1
    exponents = [series.lead + step * i for i in range(order + 1)]
    return [(e, series.coefficient(e)) for e in exponents]


# name -> rows(order), the (index, value) pairs of one family.  Entries look
# builders up by global name at call time, so rebinding a module name reaches them.
FAMILIES = {
    "b": lambda order: _numbered(coeffs_b(order).values),
    "c": lambda order: _numbered(coeffs_c(order).values),
    "a": lambda order: _numbered(flow_solve(series_f(order)).values),
    "e": lambda order: _numbered(
        flow_solve(series_theta(order).compose(series_f(order)), count=order).values
    ),
    "ahat": lambda order: _numbered(flow_solve(series_f_plus(order), count=order).values),
    # l_order sits at z^(1 - 2*order), the last exponent theta(2*order) knows
    "l": lambda order: _numbered(
        flow_solve(series_theta(2 * order), count=order, law=LAW_EVEN, sign=-1).values
    ),
    "theta": lambda order: _series_rows(series_theta(order), order),
    "f": lambda order: _series_rows(series_f(order), order),
    "h": lambda order: _series_rows(series_h(order), order),
    "y": lambda order: _series_rows(series_y(order), order),
    "fplus": lambda order: _series_rows(series_f_plus(order), order),
    "F": lambda order: _series_rows(series_F(order), order),
    "H": lambda order: _series_rows(series_H(order), order),
    "E": lambda order: _series_rows(series_E(order), order),
    # w_1 .. w_order: the series leads at z^1
    "w0": lambda order: _series_rows(series_w0(order), order - 1),
    "bernoulli": lambda order: list(enumerate(bernoulli_upto(order))),
    "stirling": lambda order: list(enumerate(stirling_coeffs(order + 1))),
}


def family_rows(family: str, order: int) -> list:
    """(index, value) pairs; series families use exponents counted from the lead."""
    return FAMILIES[family](order)


def render_coeffs(family: str, order: int, rows, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "family": family,
            "order": order,
            "coeffs": [{"index": i, "value": rational_str(v)} for i, v in rows],
        }
        return json.dumps(doc) + "\n"
    lines = ["index,value"]
    lines.extend(f"{i},{rational_str(v)}" for i, v in rows)
    return "\n".join(lines) + "\n"


def _cell(report, cell: dict):
    """A report labelled by its cell of a scan, as in ``grading(m=2)``."""
    label = ",".join(f"{k}={v}" for k, v in cell.items())
    identity = f"{report.identity}({label})"
    return VerificationReport(
        identity, report.order, report.status, report.first_mismatch, report.elapsed_ms
    )


def _grid(args, *keys) -> list:
    """Every cell {key: index} with each index in --range, the first key outermost."""
    lo, hi = args.range
    return [dict(zip(keys, idx)) for idx in product(range(lo, hi + 1), repeat=len(keys))]


def _operator_scan(args, scan, cells) -> list:
    """One scan over every cell: the corpus is walked once, not once per cell."""
    corpus = default_corpus(args.weight, args.seed)
    reports = scan([tuple(cell.values()) for cell in cells], corpus)
    return [_cell(report, cell) for report, cell in zip(reports, cells)]


# name -> runner(args), the reports of one identity, in the order `verify all`
# runs them.  Entries look verifiers up by global name, as FAMILIES does.
IDENTITIES = {
    "v-ode": lambda args: [verify_b_family(args.order)],
    "karamata": lambda args: [verify_c_family(args.order)],
    "k-functional": lambda args: [verify_K_functional(args.order)],
    "k-integral": lambda args: [verify_K_integral(args.order)],
    "w0-reversion": lambda args: [verify_w0(args.order)],
    "lemma-yk": lambda args: [verify_lemma_yk(args.order)],
    "prop-hy": lambda args: [verify_prop_hy(args.order)],
    "fplus-functional": lambda args: [verify_fplus_functional(args.order)],
    "iden": lambda args: [verify_iden(args.order)],
    "flow-laws": lambda args: [verify_flow_laws(args.order, seed=args.seed)],
    "nz-bernoulli": lambda args: [verify_nz_identity(args.order)],
    "virasoro-commutators": lambda args: _operator_scan(
        args, scan_virasoro_commutators, _grid(args, "m", "n")
    ),
    # alpha_0 has no basic form, so the n = 0 row is not scanned at all
    "heisenberg-commutators": lambda args: _operator_scan(
        args, scan_heisenberg_commutators, [c for c in _grid(args, "n", "k") if c["n"] != 0]
    ),
    "grading": lambda args: _operator_scan(args, scan_grading, _grid(args, "m")),
    "factorization": lambda args: [verify_factorization(weight_bound=args.weight)],
    "kw-constraints": lambda args: [
        _cell(verify_kw_constraints(m, fixture_path=args.fixture), {"m": m}) for m in (1, 2)
    ],
}


def _parse_range(text: str, parser) -> tuple:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if match is None:
        parser.error(f"--range must look like A..B, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        parser.error(f"--range bounds out of order: {lo} > {hi}")
    if not -MAX_INDEX <= lo <= hi <= MAX_INDEX:
        parser.error(f"--range ends must lie in -{MAX_INDEX}..{MAX_INDEX}, got {lo}..{hi}")
    return lo, hi


def _resolve_order(raw, parser) -> int:
    if raw is None:
        raw = os.environ.get(ENV_ORDER, "40")
    try:
        order = int(raw)
    except (TypeError, ValueError):
        parser.error(f"order must be an integer, got {raw!r}")
    if not 1 <= order <= MAX_ORDER:
        parser.error(f"order must be between 1 and {MAX_ORDER}, got {order}")
    return order


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchflow",
        description="Exact series engine: coefficient dumps and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="dump a coefficient family")
    coeffs.add_argument("family", choices=FAMILIES, metavar="family",
                        help="one of: " + ", ".join(FAMILIES))
    coeffs.add_argument("--order", default=None,
                        help=f"family depth, 1..{MAX_ORDER} (default ${ENV_ORDER} or 40)")
    coeffs.add_argument("--format", choices=("json", "csv"), default="json")
    coeffs.add_argument("--out", default=None, help="write to this path instead of stdout")

    verify = sub.add_parser("verify", help="run one identity check, or all of them")
    names = [*IDENTITIES, "all"]
    verify.add_argument("identity", choices=names, metavar="identity",
                        help="one of: " + ", ".join(names))
    verify.add_argument("--order", default=None,
                        help=f"truncation depth, 1..{MAX_ORDER} (default ${ENV_ORDER} or 40)")
    verify.add_argument("--seed", type=int, default=0, help="seed for sampled corpora")
    verify.add_argument("--weight", type=int, default=9,
                        help="exhaustive corpus weight bound (operator checks)")
    verify.add_argument("--range", default="-5..5",
                        help="index range A..B for operator scans (default -5..5)")
    verify.add_argument("--fixture", default=None,
                        help="free-energy fixture path (kw-constraints only)")
    return parser


def _refusal(label: str, exc: Exception) -> int:
    """The exit code and stderr line for an exception out of a runner: 2 when the
    input is refused (an unusable path or fixture), 3 for anything else."""
    if isinstance(exc, (OSError, FixtureError)):
        print(f"error: {label}: {exc}", file=sys.stderr)
        return 2
    reason = exc if isinstance(exc, SeriesError) else f"{type(exc).__name__}: {exc}"
    print(f"internal error: {label}: {reason}", file=sys.stderr)
    return 3


def run_coeffs(args) -> int:
    try:
        rows = family_rows(args.family, args.order)
        text = render_coeffs(args.family, args.order, rows, args.format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as sink:
                sink.write(text)
    except Exception as exc:  # no traceback leaves the CLI
        return _refusal(f"coeffs {args.family}", exc)
    return 0


def run_verify(args) -> int:
    names = list(IDENTITIES) if args.identity == "all" else [args.identity]
    t0 = time.perf_counter()
    counts = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
    for name in names:
        try:
            reports = IDENTITIES[name](args)
        except Exception as exc:  # no traceback leaves the CLI
            return _refusal(name, exc)
        for rep in reports:
            counts[rep.status] += 1
            sys.stdout.write(rep.to_json_line() + "\n")
            if rep.status == "FAIL":
                mm = rep.first_mismatch
                print(
                    f"FAIL {rep.identity} (order {rep.order}) at exponent {mm.exponent}: "
                    f"{mm.lhs} != {mm.rhs}",
                    file=sys.stderr,
                )
        sys.stdout.flush()
    elapsed = int((time.perf_counter() - t0) * 1000)
    print(
        f"{counts['PASS']} PASS, {counts['FAIL']} FAIL, {counts['SKIPPED']} SKIPPED "
        f"in {elapsed} ms",
        file=sys.stderr,
    )
    return 1 if counts["FAIL"] else 0


def _normalize_argv(argv) -> list:
    """Join '--range -2..2' into '--range=-2..2'.

    A leading minus on the next token would otherwise be read as an option
    name, because the value is not a plain negative number.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    args.order = _resolve_order(args.order, parser)
    if args.command == "verify":
        args.range = _parse_range(args.range, parser)
        if not 1 <= args.weight <= MAX_WEIGHT:
            parser.error(f"--weight must be between 1 and {MAX_WEIGHT}, got {args.weight}")
    return run_coeffs(args) if args.command == "coeffs" else run_verify(args)


if __name__ == "__main__":
    sys.exit(main())
