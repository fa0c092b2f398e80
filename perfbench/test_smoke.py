"""Smoke test of the benchmark itself: every workload with a tiny task list.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that each run checks its outputs correct and prints every metric
BENCHMARK.json names, with its unit, and nothing else.  Takes about a
minute on 2 vCPU.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for key in ("python", "cpus", "loadavg_start", "src_sha256", "seed"):
        assert key in record
    assert record["seed"] == 0 and record["error_rate"] == 0


def test_tasks_depend_only_on_seed():
    sys.path.insert(0, str(HERE))
    import workloads

    for w in WORKLOADS:
        assert workloads.make_tasks(w, 5) == workloads.make_tasks(w, 5)
    assert workloads.make_tasks("reduction", 5) != workloads.make_tasks("reduction", 6)
    assert workloads.make_tasks("verbs", 5) != workloads.make_tasks("verbs", 6)


def test_refuses_to_run_without_the_library():
    """In a tree holding only the benchmark, it exits nonzero and prints no result."""
    tmp_path = HERE / "out" / "bare-tree"  # inside the checkout, ignored by git
    shutil.rmtree(tmp_path, ignore_errors=True)
    (tmp_path / "perfbench").mkdir(parents=True)
    for f in HERE.rglob("*"):
        if f.is_file() and "out" not in f.relative_to(HERE).parts \
                and "__pycache__" not in f.parts:
            dest = tmp_path / "perfbench" / f.relative_to(HERE)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
