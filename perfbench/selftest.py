"""Self-test of the benchmark: every workload at reduced sizes, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run is correct, that the metric names and units it prints are
exactly those declared in BENCHMARK.json, that traced and untraced passes print
identical outputs (the run itself compares every pass with the first), and
that every layer a workload is meant to use records spans.  Exits 1 on the
first workload that breaks any of these.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def main() -> int:
    end_to_end, per_layer = declared()
    bad = []
    for workload in WORKLOADS:
        for trace in (False, True):
            # seconds=0: each slot once untraced, one cycle traced
            out = run.run(workload, seed=7, seconds=0, trace=trace, reduced=True)
            res = out["result"]
            printed = {k: m["unit"] for k, m in res["metrics"].items()}
            want = per_layer if trace else end_to_end
            label = f"{workload} trace={int(trace)}"
            if printed != want:
                extra = sorted(set(printed.items()) - set(want.items()))
                missing = sorted(set(want.items()) - set(printed.items()))
                bad.append(f"{label}: printed-not-declared {extra}, declared-not-printed {missing}")
            if not res["correct"]:
                bad.append(f"{label}: incorrect: {out['problems']}")
            if res["attempted"] < 1:
                bad.append(f"{label}: no units attempted")
            print(f"{label}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} passes={out['run_info']['passes']}")
    for line in bad:
        print("SELFTEST FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
