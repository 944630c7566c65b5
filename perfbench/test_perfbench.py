"""Tests of the benchmark itself: the negative control, the metric names, the exit codes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, corrupted  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_negative_control_fails_the_gate():
    workload = WORKLOADS["smoke-study"]
    inputs = workload.inputs(3)
    assert workload.study(inputs).ok
    studies = run.run_studies(workload, corrupted(inputs, 1e-3), seconds=0.0)
    assert all(outcome is not None for _, _, outcome, _ in studies)
    assert run.verdict(studies) == {"correct": False, "attempted": len(studies),
                                    "failed": len(studies)}
    assert run.verdict(run.run_studies(workload, inputs, seconds=0.0))["failed"] == 0


@pytest.mark.parametrize("workload, trace", [
    ("smoke-study", 0), ("smoke-study", 1), ("smoke-lemmas", 1),
])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "study-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
