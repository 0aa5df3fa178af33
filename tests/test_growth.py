"""scripts/growth.py: cold-process timings and the log-log growth fit."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "growth.py"


def load_growth():
    spec = importlib.util.spec_from_file_location("growth", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_recovers_a_power_law():
    growth = load_growth()
    orders = [10, 20, 40, 80]
    assert growth.growth_exponent(orders, [3e-6 * n**2.5 for n in orders]) == pytest.approx(2.5)
    assert growth.growth_exponent([10], [1.0]) is None


@pytest.mark.parametrize(
    "op",
    [
        "mul", "reciprocal", "exp", "log", "coth", "revert", "compose", "flow_solve",
        "flow_apply", "vir_scan", "vir_grid", "heis_grid", "factorization", "recurrence",
        "stirling", "bernoulli",
    ],
)
def test_times_each_order_in_a_fresh_interpreter(op):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), op, "--orders", "8", "4", "--runs", "1"],
        check=True,
        capture_output=True,
        text=True,
    )
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["op"] == op
    assert out["orders"] == [4, 8]
    assert len(out["median_s"]) == 2 and all(t > 0 for t in out["median_s"])
    assert len(out["median_cpu_s"]) == 2 and all(c >= 0 for c in out["median_cpu_s"])
    assert isinstance(out["growth_exp"], float)
    assert len(out["peak_rss_kib"]) == 2
    assert all(isinstance(k, int) and k > 1024 for k in out["peak_rss_kib"])
    package = SCRIPT.parent.parent / "src" / "branchflow"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.glob("*.py"))
    assert out["src_lines"] == lines


def test_children_compile_the_timed_src(tmp_path, monkeypatch):
    # a copy of src/ with no __pycache__ gets its bytecode written by the first
    # child, whatever PYTHONDONTWRITEBYTECODE says where the script runs
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    package = SCRIPT.parent.parent / "src" / "branchflow"
    copy = tmp_path / "src" / "branchflow"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    load_growth().time_once(str(copy.parent), "mul", 4)
    compiled = {path.name.split(".")[0] for path in (copy / "__pycache__").glob("*.pyc")}
    imported = {path.stem for path in package.glob("*.py")} - {"__main__", "cli"}
    assert imported <= compiled


def test_children_report_their_own_peak_rss():
    # 64 MiB held here: a child's ru_maxrss would read at least that much,
    # its own VmHWM reads what the child itself touched
    ballast = b"\x01" * (64 << 20)
    seconds, _, kib = load_growth().time_once(str(SCRIPT.parent.parent / "src"), "recurrence", 8)
    assert seconds > 0 and 1024 < kib < 48 * 1024
    del ballast


def test_cpu_time_counts_the_reaped_children():
    # the statement forks a child that spins 0.3 s of CPU and reaps it: the
    # child's user and system time count, where this process barely ran
    growth = load_growth()
    spin = "while time.process_time() < 0.3:\n        pass\n    os._exit(0)"
    stmt = f"pid = os.fork()\nif pid == 0:\n    {spin}\nos.waitpid(pid, 0)"
    growth.OPS["spin"] = ("a forked child spinning 0.3 s of CPU", "", stmt)
    seconds, cpu, _ = growth.time_once(str(SCRIPT.parent.parent / "src"), "spin", 1)
    assert seconds >= 0.3 and cpu >= 0.25
