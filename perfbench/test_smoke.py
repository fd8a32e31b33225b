"""Smoke test of the benchmark at c10 size: every workload, untraced and
traced, finishes in seconds with its checks passing.

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# data_prep is runnable but not in BENCHMARK.json; smoke-test it too
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["data_prep"]


def bench(tmp_path, workload, trace, root=ROOT, seed=5):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--scale", "tiny",
           "--workdir", str(tmp_path / "work")]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record: "))
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(tmp_path, workload):
    res, record = result(bench(tmp_path, workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert record["reps"] >= 2
    assert record["machine"]["seed"] == 5
    assert not (tmp_path / "work").exists() or \
        not any((tmp_path / "work").iterdir())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    first, rec1 = result(bench(tmp_path, workload, 1))
    second, rec2 = result(bench(tmp_path, workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    assert rec1["exact_counts"] == rec2["exact_counts"]


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
