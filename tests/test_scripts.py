"""The scripts under scripts/ still run against the package API."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_bohb_vs_random_runs():
    out = _run("scripts/bohb_vs_random.py", "--pairs", "2",
               "--iterations", "2")
    assert out.returncode == 0, out.stderr
    assert "bohb wins or ties" in out.stdout


def test_run_benchmark_help():
    out = _run("scripts/run_benchmark.py", "--help")
    assert out.returncode == 0, out.stderr
    assert "--out" in out.stdout


def test_posterior_latency_runs():
    out = _run("scripts/posterior_latency.py", "--windows", "2",
               "--length", "64", "--samples", "3", "--repeats", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    for method in ("mc_dropout", "dropconnect", "flipout"):
        line = next(ln for ln in lines if ln.startswith(method))
        assert "one-window requests" in line and "samples " in line
