"""One fresh interpreter of a workload pass.

Usage: python3 worker.py '<json spec>'  (spec: {"units": [argv, ...], "trace": bool})

Imports ``branchflow.cli`` from the checkout's ``src/`` and stamps the moment
the import finished (CLOCK_MONOTONIC, comparable with run.py's clock), so
run.py can take set-up time from spawn to ready.  Then it runs every unit
through ``branchflow.cli.main`` with stdout and stderr captured and writes one
JSON document to its own stdout: per unit the exit code, any exception, the
SHA-256 of the output and the reports it printed, and the interpreter's peak
RSS; with tracing on, the span summary as well.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import branchflow.cli  # noqa: E402  (timed: this is the set-up being measured)

READY = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _install_tracer():
    import importlib

    import spans
    from branchflow.series import SeriesError

    layers = {name: importlib.import_module(f"branchflow.{name}") for name in spans.LAYERS}
    return spans, spans.install(layers, [sys.modules["branchflow"]], SeriesError)


def _reports(text):
    """(identity, status) per JSON line, and the output with elapsed_ms removed."""
    reports, lines = [], []
    for line in text.splitlines():
        doc = json.loads(line)
        reports.append((doc["identity"], doc["status"]))
        doc.pop("elapsed_ms", None)
        lines.append(json.dumps(doc, sort_keys=True))
    return reports, "\n".join(lines)


def run_unit(argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = time.perf_counter()
    try:
        rc = branchflow.cli.main(list(argv))
    except SystemExit as exc:  # argparse refusals
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # recorded as a failed unit, the pass goes on
        rc = None
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=err)
    finally:
        sys.stdout, sys.stderr = saved
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    raw = text.encode("utf-8")
    result = {
        "argv": list(argv),
        "rc": rc,
        "error": error,
        "elapsed_s": elapsed,
        "out_bytes": len(raw),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "reports": None,
    }
    comparable = raw
    if argv[0] == "verify" and error is None:
        try:
            reports, normal = _reports(text)
        except (ValueError, KeyError) as exc:
            result["error"] = f"unreadable report: {exc}"
        else:
            result["reports"] = reports
            comparable = normal.encode("utf-8")
    # what traced and untraced runs must agree on (verify lines drop elapsed_ms)
    result["comparable"] = hashlib.sha256(comparable).hexdigest()
    if error is not None or rc not in (0, 1):
        result["stderr_tail"] = err.getvalue()[-2000:]
    return result


def main():
    spec = json.loads(sys.argv[1])
    doc = {
        "ready": READY,
        "backend": branchflow.exact.BACKEND,
        "python": sys.version.split()[0],
    }
    spans = tracer = None
    if spec.get("trace"):
        spans, tracer = _install_tracer()
    doc["units"] = [run_unit(argv) for argv in spec["units"]]
    doc["trace"] = spans.summarize(tracer) if tracer is not None else None
    doc["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
