"""Batch driver: dump coefficient families, run verifications, signal via exit code.

Output contract: machine-readable results on stdout (one JSON document for
coeffs, JSON lines for verify), human-oriented notes on stderr.  Exit 0 when
everything passed or was skipped, 1 on any FAIL, 2 on usage errors, 3 on an
internal error: a series operation refused to answer for accepted input.
"""

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace

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
from .exact import bernoulli, rational_str
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
from .series import ASCENDING, SeriesError
from .virasoro import (
    check_grading,
    check_heisenberg_commutator,
    check_virasoro_commutator,
    default_corpus,
    verify_factorization,
    verify_kw_constraints,
)

MAX_ORDER = 200
ENV_ORDER = "BRANCHFLOW_DEFAULT_ORDER"

# exponent-indexed families: dumped as (exponent, coefficient) from the lead down
SERIES_FAMILIES = {
    "theta": series_theta,
    "f": series_f,
    "h": series_h,
    "y": series_y,
    "fplus": series_f_plus,
    "F": series_F,
    "H": series_H,
    "E": series_E,
}

FAMILIES = (
    "b", "c", "a", "e", "ahat", "l",
    "theta", "f", "h", "y", "fplus", "F", "H", "E",
    "w0", "bernoulli", "stirling",
)

IDENTITIES = (
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
    "virasoro-commutators",
    "heisenberg-commutators",
    "grading",
    "factorization",
    "kw-constraints",
)


def family_rows(family: str, order: int) -> list:
    """(index, value) pairs; series families use exponents counted from the lead."""
    if family == "b":
        bs = coeffs_b(order)
        return [(i, bs[i]) for i in range(1, order + 1)]
    if family == "c":
        cs = coeffs_c(order)
        return [(i, cs[i]) for i in range(1, order + 1)]
    if family == "a":
        return list(enumerate(flow_solve(series_f(order)).values, start=1))
    if family == "e":
        target = series_theta(order).compose(series_f(order))
        return list(enumerate(flow_solve(target, count=order).values, start=1))
    if family == "ahat":
        return list(enumerate(flow_solve(series_f_plus(order), count=order).values, start=1))
    if family == "l":
        # l_order sits at z^(1 - 2*order), the last exponent theta(2*order) knows
        fc = flow_solve(series_theta(2 * order), count=order, law=LAW_EVEN, sign=-1)
        return list(enumerate(fc.values, start=1))
    if family == "w0":
        w0 = series_w0(order)
        return [(n, w0.coefficient(n)) for n in range(1, order + 1)]
    if family == "bernoulli":
        return [(n, bernoulli(n)) for n in range(order + 1)]
    if family == "stirling":
        return list(enumerate(stirling_coeffs(order + 1)))
    series = SERIES_FAMILIES[family](order)
    step = 1 if series.direction == ASCENDING else -1
    exponents = [series.lead + step * i for i in range(order + 1)]
    return [(e, series.coefficient(e)) for e in exponents]


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


def _scan_pairs(lo: int, hi: int):
    for m in range(lo, hi + 1):
        for n in range(lo, hi + 1):
            yield m, n


def run_identity(name: str, args) -> list:
    """All reports for one identity name; scans yield one report per tuple."""
    order = args.order
    if name == "v-ode":
        return [verify_b_family(order)]
    if name == "karamata":
        return [verify_c_family(order)]
    if name == "k-functional":
        return [verify_K_functional(order)]
    if name == "k-integral":
        return [verify_K_integral(order)]
    if name == "w0-reversion":
        return [verify_w0(order)]
    if name == "lemma-yk":
        return [verify_lemma_yk(order)]
    if name == "prop-hy":
        return [verify_prop_hy(order)]
    if name == "fplus-functional":
        return [verify_fplus_functional(order)]
    if name == "iden":
        return [verify_iden(order)]
    if name == "flow-laws":
        return [verify_flow_laws(order, seed=args.seed)]
    if name == "nz-bernoulli":
        return [verify_nz_identity(order)]
    if name == "factorization":
        return [verify_factorization(weight_bound=args.weight)]
    if name == "kw-constraints":
        return [
            replace(verify_kw_constraints(m, fixture_path=args.fixture), identity=f"kw-constraints(m={m})")
            for m in (1, 2)
        ]
    lo, hi = args.range
    corpus = default_corpus(args.weight, max(args.weight, 12), args.seed)
    if name == "virasoro-commutators":
        return [
            replace(check_virasoro_commutator(m, n, corpus), identity=f"virasoro-commutators(m={m},n={n})")
            for m, n in _scan_pairs(lo, hi)
        ]
    if name == "heisenberg-commutators":
        # alpha_0 has no basic form, so the n = 0 row is not scanned at all
        return [
            replace(check_heisenberg_commutator(n, k, corpus), identity=f"heisenberg-commutators(n={n},k={k})")
            for n, k in _scan_pairs(lo, hi)
            if n != 0
        ]
    if name == "grading":
        return [
            replace(check_grading(m, corpus), identity=f"grading(m={m})")
            for m in range(lo, hi + 1)
        ]
    raise ValueError(f"unknown identity {name!r}")


def _parse_range(text: str, parser) -> tuple:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if match is None:
        parser.error(f"--range must look like A..B, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        parser.error(f"--range bounds out of order: {lo} > {hi}")
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
    verify.add_argument("identity", choices=IDENTITIES + ("all",), metavar="identity",
                        help="one of: " + ", ".join(IDENTITIES + ("all",)))
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


def run_coeffs(args, parser) -> int:
    text = render_coeffs(args.family, args.order, family_rows(args.family, args.order), args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(text)
    return 0


def run_verify(args, parser) -> int:
    names = list(IDENTITIES) if args.identity == "all" else [args.identity]
    t0 = time.perf_counter()
    counts = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
    for name in names:
        try:
            reports = run_identity(name, args)
        except SeriesError as exc:
            print(f"internal error: {name}: {exc}", file=sys.stderr)
            return 3
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
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
        if not 1 <= args.weight <= 16:
            parser.error(f"--weight must be between 1 and 16, got {args.weight}")
    return run_coeffs(args, parser) if args.command == "coeffs" else run_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
