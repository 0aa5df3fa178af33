"""The branchflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload in fresh interpreters, one interpreter at a time, in a
closed loop (an interpreter starts when the previous one has ended) for about
S seconds and at least one whole pass, checks every output, and prints as its
last stdout line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  ``--trace 0`` reports the end-to-end metrics of untraced
interpreters; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones.  ``--workload all`` runs every
workload untraced and then traced.

The line before the result is {"run_info": ...}: Python version, rational
backend, nproc, src/ line count, seed and the host reference loop time; for
an untraced run also the unscaled times and the host reference job times.
See perfbench/README.md for every workload and metric.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOAD_LAYERS, WORKLOADS, make_pass  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
HOSTREF = os.path.join(HERE, "hostref.py")
# bytecode caching on, as for an installed package, whatever the caller's
# environment says; the first import in a checkout writes src/**/__pycache__
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
SETUP_PROBES_PER_INTERP = 2
# host reference time spent per second of slot time, and the reference time
# wall_s and setup_s are scaled to (about what hostref.py took on the 2-core
# host the benchmark was written on)
HOST_REF_SHARE = 0.33
HOST_REF_NOMINAL_S = 0.30
UNIT_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a worker broke down)."""


# --- host facts -------------------------------------------------------------------------


def ref_loop_s() -> float:
    """A fixed pure-Python Fraction loop: host speed drift shows here."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 6000):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
    return time.perf_counter() - t0


def host_ref() -> float:
    """Spawn-to-exit time of one fresh interpreter running hostref.py."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, HOSTREF], cwd=ROOT, capture_output=True, timeout=UNIT_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"host reference job exited {done.returncode}")
    return time.monotonic() - t0


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "branchflow", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- interpreters and passes --------------------------------------------------------


def spawn(units, trace) -> dict:
    """Run one worker interpreter to completion; returns its document plus timings."""
    spec = json.dumps({"units": [list(u.argv) for u in units], "trace": trace})
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, spec],
        cwd=ROOT,
        env=WORKER_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out on {spec}") from None
    except BaseException:  # interrupted: leave no worker behind
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    t_exit = time.monotonic()
    doc = json.loads(out.splitlines()[-1])
    doc["setup_s"] = doc["ready"] - t_spawn
    doc["wall_s"] = t_exit - t_spawn
    return doc


def unit_failure(unit, got) -> str | None:
    """Why a unit counts as failed, or None.  A mismatch never stops the pass."""
    if got["error"] is not None:
        return got["error"]
    if got["rc"] not in (0, 1):
        return f"exit code {got['rc']}"
    if unit.is_verify:
        if any(status == "FAIL" for _, status in got["reports"]):
            return "FAIL report"
        if [tuple(r) for r in got["reports"]] != list(unit.reports):
            return "reports differ from the expected identities and statuses"
        if got["rc"] != 0:
            return f"exit code {got['rc']} without a FAIL report"
    else:
        if got["rc"] != 0:
            return f"exit code {got['rc']}"
        if got["sha256"] != unit.sha256:
            return "output differs from the golden digest"
    return None


def run_pass(interps, trace) -> dict:
    docs = [spawn(units, trace) for units in interps]
    outcomes = []
    for units, doc in zip(interps, docs):
        for unit, got in zip(units, doc["units"]):
            outcomes.append((unit, got, unit_failure(unit, got)))
    return {
        "wall_s": sum(d["wall_s"] for d in docs),
        "setup_s": [d["setup_s"] for d in docs],
        "outcomes": outcomes,
        "docs": docs,
        "trace": spans.merge(d["trace"] for d in docs) if trace else None,
    }


def closed_loop(seconds, cycle):
    """Repeat a cycle of passes, given as (interpreters, trace) pairs, for about ``seconds``.

    Returns one list of passes per cycle.  The first cycle always runs; another
    starts only if one more cycle, at the median cycle time so far, still fits.
    Traced runs use it: their per-layer figures are per whole pass.
    """
    t0 = time.monotonic()
    cycles, cycle_s = [], []
    while True:
        c0 = time.monotonic()
        cycles.append([run_pass(interps, trace) for interps, trace in cycle])
        cycle_s.append(time.monotonic() - c0)
        if time.monotonic() - t0 + statistics.median(cycle_s) > seconds:
            return cycles


def fill_loop(seconds, slots):
    """Run the interpreters ``slots`` round robin, untraced, for about ``seconds``.

    Every slot runs at least once.  After that the next slot starts only if at
    least half of it still fits, at the median time of its earlier steps.  A
    step is the slot's set-up probes (interpreters with no units), the slot,
    and then host reference jobs that take about HOST_REF_SHARE of the slot's
    time.  So a run lasts about ``seconds`` whatever the slot sizes, and the
    references and probes are spread over the run in step with the slots.
    Returns the slot runs as (slot index, one-interpreter pass), the probe
    set-up times and the host reference times.
    """
    t0 = time.monotonic()
    runs, probes, refs = [], [], [host_ref()]
    step_s = [[] for _ in slots]
    for k in itertools.count():
        i = k % len(slots)
        if k >= len(slots) and time.monotonic() - t0 + statistics.median(step_s[i]) / 2 > seconds:
            return runs, probes, refs
        s0 = time.monotonic()
        probes += [spawn([], False)["setup_s"] for _ in range(SETUP_PROBES_PER_INTERP)]
        p = run_pass([slots[i]], False)
        n_refs = max(1, round(HOST_REF_SHARE * p["wall_s"] / statistics.median(refs)))
        refs += [host_ref() for _ in range(n_refs)]
        runs.append((i, p))
        step_s[i].append(time.monotonic() - s0)


# --- metrics ---------------------------------------------------------------------------


def layer_metrics(t, outcomes) -> dict:
    """Per-layer figures of one traced pass (``t`` is its merged span summary)."""
    named, incl, c = t["named"], t["incl"], t["counts"]

    def series_op(op):
        stats = [named.get(f"series.GradedSeries.{n}", [0, 0.0]) for n in spans.SERIES_OPS[op]]
        return sum(s[0] for s in stats), sum(s[1] for s in stats)

    m = {f"{layer}.self_s": t["layer_self_s"][layer] for layer in spans.LAYERS}
    for op in spans.SERIES_OPS:
        m[f"series.{op}.calls"], m[f"series.{op}.self_s"] = series_op(op)
        m[f"series.{op}.incl_s"] = incl[f"series.{op}"][1]
    mults = c.get("coeff_mults", 0)
    m["exact.coeff_mults"] = mults
    m["exact.mults_per_s"] = _ratio(mults, m["series.mul.self_s"])
    m["exact.max_coeff_bits"] = c.get("max_coeff_bits", 0)
    m["series.mul.growth_exp"] = spans.growth_exponent(t["samples"]["mul"])
    m["series.revert.growth_exp"] = spans.growth_exponent(t["samples"]["revert"])
    m["series.errors"] = c.get("series_errors", 0)
    m["branches.recurrence_s"] = incl["recurrence"][1]
    m["branches.oracle_s"] = incl["oracle"][1]
    m["branches.oracle_calls"] = incl["oracle"][0]
    m["flows.build_calls"] = incl["build"][0]
    m["flows.build_s"] = incl["build"][1]
    m["flows.cache_hit_ratio"] = _ratio(
        c.get("cached_builder_hits", 0), c.get("cached_builder_calls", 0)
    )
    m["flows.flow_solve_s"] = incl["flow_solve"][1]
    m["flows.flow_apply_s"] = incl["flow_apply"][1]
    m["flows.check_s"] = incl["verifier"][1] - t["check_excluded_s"]
    m["report.compare_s"] = incl["compare"][1]
    m["report.coeffs_compared"] = c.get("coeffs_compared", 0)
    m["report.window_use_ratio"] = _ratio(c.get("window_compared", 0), c.get("window_known", 0))
    op_calls, op_self = named.get("virasoro.LinearOp.__call__", [0, 0.0])
    m["virasoro.op_apply.calls"] = op_calls
    m["virasoro.op_apply.self_s"] = op_self
    m["virasoro.terms_out"] = c.get("terms_out", 0)
    m["virasoro.exp_op_s"] = incl["exp_op"][1]
    scan = t["samples"]["scan_ms"]
    m["virasoro.unit_p50_ms"] = _percentile(scan, 50)
    m["virasoro.unit_p95_ms"] = _percentile(scan, 95)
    m["cli.family_rows_s"] = incl["family_rows"][1]
    m["cli.render_s"] = incl["render"][1]
    m["cli.output_bytes"] = sum(got["out_bytes"] for _, got, _ in outcomes)
    m["cli.errors"] = sum(1 for _, got, _ in outcomes if got["error"] or got["rc"] == 2)
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, p):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, -(-p * len(s) // 100) - 1)]


# metric -> unit; must agree with BENCHMARK.json (the self-test checks)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "exact.coeff_mults": "count",
    "exact.mults_per_s": "1/s",
    "exact.max_coeff_bits": "bit",
    **{
        f"series.{op}.{k}": u
        for op in spans.SERIES_OPS
        for k, u in (("calls", "count"), ("self_s", "s"), ("incl_s", "s"))
    },
    "series.mul.growth_exp": "exponent",
    "series.revert.growth_exp": "exponent",
    "series.errors": "count",
    "branches.recurrence_s": "s",
    "branches.oracle_s": "s",
    "branches.oracle_calls": "count",
    "flows.build_calls": "count",
    "flows.build_s": "s",
    "flows.cache_hit_ratio": "ratio",
    "flows.flow_solve_s": "s",
    "flows.flow_apply_s": "s",
    "flows.check_s": "s",
    "report.compare_s": "s",
    "report.coeffs_compared": "count",
    "report.window_use_ratio": "ratio",
    "virasoro.op_apply.calls": "count",
    "virasoro.op_apply.self_s": "s",
    "virasoro.terms_out": "count",
    "virasoro.exp_op_s": "s",
    "virasoro.unit_p50_ms": "ms",
    "virasoro.unit_p95_ms": "ms",
    "cli.family_rows_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "byte",
    "cli.errors": "count",
    "host.ref_loop_s": "s",
    "trace.overhead_ratio": "ratio",
}


# --- one run ---------------------------------------------------------------------------------


def check_program():
    cli = os.path.join(ROOT, "src", "branchflow", "cli.py")
    if not os.path.isfile(cli):
        raise BenchError(f"no branchflow sources under {os.path.join(ROOT, 'src')}")


def consistency_problems(passes) -> list:
    """Each unit prints the same every time it runs, traced or not (verify: minus elapsed_ms)."""
    first, problems = {}, []
    for p in passes:
        for unit, got, _ in p["outcomes"]:
            if got["comparable"] != first.setdefault(unit.argv, got["comparable"]):
                kind = "traced" if p["trace"] else "untraced"
                problems.append(f"{' '.join(unit.argv)}: a {kind} run printed different output")
    return problems


def trace_problems(workload, p) -> list:
    t = p["trace"]
    problems = [
        f"layer {layer} recorded no spans"
        for layer in WORKLOAD_LAYERS[workload]
        if t["layer_spans"][layer] == 0
    ]
    total = sum(t["layer_self_s"].values())
    if total > p["wall_s"]:
        problems.append(f"layer self times add up to {total:.3f} s > traced wall {p['wall_s']:.3f} s")
    return problems


def run(workload, seed, seconds, trace, reduced=False) -> dict:
    """One benchmark run; returns the result object plus run_info and problems."""
    check_program()
    ref = ref_loop_s()
    interps = make_pass(workload, seed, reduced)
    if trace:
        passes = [p for c in closed_loop(seconds, [(interps, False), (interps, True)]) for p in c]
    else:
        orders = [interps]
        if any(len(units) > 1 for units in interps):
            # units sharing an interpreter share its caches, so how much work
            # they do depends on their order; the seed's order and its reverse
            # together do nearly the same work for every seed
            orders.append([units[::-1] for units in interps[::-1]])
        slots = [units for order in orders for units in order]
        runs, setup, refs = fill_loop(seconds, slots)
        passes = [p for _, p in runs]
    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [(unit, why) for unit, _, why in outcomes if why is not None]
    problems = [
        f"{' '.join(unit.argv)}: {why}" for unit, why in failures if not unit.known_defect
    ]
    problems += consistency_problems(passes)
    plain = [p for p in passes if not p["trace"]]
    host = {}
    if trace:
        wall = statistics.median(p["wall_s"] for p in plain)
        traced = [p for p in passes if p["trace"]]
        for p in traced:
            problems += trace_problems(workload, p)
        per_pass = [layer_metrics(p["trace"], p["outcomes"]) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["host.ref_loop_s"] = ref
        values["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / wall
        units = PER_LAYER_UNITS
    else:
        setup += [s for p in passes for s in p["setup_s"]]
        rss_kib = max(d["maxrss_kib"] for p in passes for d in p["docs"])
        # a pass costs the sum of its interpreters' mean times; with two orders
        # it is the mean of the two.  The host's speed drifts by a fifth over
        # minutes, and the reference jobs run in the same minutes follow it
        # (perfbench/README.md, Noise), so times are scaled to a host on which
        # the reference job takes HOST_REF_NOMINAL_S.
        slot_s = [statistics.mean(p["wall_s"] for j, p in runs if j == i) for i in range(len(slots))]
        wall_raw = sum(slot_s) / len(orders)
        setup_raw = statistics.median(setup)
        host_ref_s = statistics.mean(refs)
        values = {
            "wall_s": wall_raw * HOST_REF_NOMINAL_S / host_ref_s,
            "setup_s": setup_raw * HOST_REF_NOMINAL_S / host_ref_s,
            "peak_rss_mb": rss_kib / 1024,
        }
        host = {
            "wall_raw_s": wall_raw,
            "setup_raw_s": setup_raw,
            "host_ref_s": host_ref_s,
            "host_refs": len(refs),
        }
        units = END_TO_END_UNITS
    probe = passes[0]["docs"][0]
    return {
        "result": {
            "correct": not problems,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
        "run_info": {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "passes": len(passes) if trace else round(len(runs) / len(interps), 2),
            "python": probe["python"],
            "backend": probe["backend"],
            "nproc": nproc(),
            "src_lines": src_lines(),
            "host.ref_loop_s": ref,
            **host,
            "fail_ratio": len(failures) / len(outcomes),
            "failures": sorted({f"{' '.join(u.argv)}: {why}" for u, why in failures}),
        },
        "problems": problems,
    }


def _print_human(workload, out):
    res = out["result"]
    info = out["run_info"]
    print(f"[{workload} trace={info['trace']} seed={info['seed']} passes={info['passes']}]",
          file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'fail_ratio':28s} {res['failed']}/{res['attempted']} = {info['fail_ratio']:.4g}",
          file=sys.stderr)
    for line in info["failures"]:
        print(f"  failed unit: {line}", file=sys.stderr)
    for line in out["problems"]:
        print(f"  PROBLEM: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so spawn() stops its worker
    jobs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    try:
        outs = [(w, run(w, args.seed, args.seconds, t)) for w, t in jobs]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for workload, out in outs:
        _print_human(workload, out)
        print(json.dumps({"run_info": out["run_info"]}))
        print(json.dumps(out["result"]))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
