"""Self-test of the benchmark: ``python -m pytest bench -q`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op, build_oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    doc = _result(proc.stdout)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    units = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_reports_every_per_layer_metric(workload):
    ops = WORKLOADS[workload](1).trace_ops()[:2]
    result = run.traced(ops, workload, 1)
    assert result["failed"] == 0
    units = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _flip_first_symbol(answer):
    code, text = answer
    i = min(text.index(c) for c in "01" if c in text)
    return code, text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]


def test_corrupted_answer_raises_fail_ratio():
    ops = WORKLOADS["oracle-reads"](1).ops[:4]
    _, failed = run.run_ops(ops)
    assert failed == 0
    corrupted = [Op(op.kind, lambda op=op: _flip_first_symbol(op.run()), op.check)
                 for op in ops]
    latencies, failed = run.run_ops(corrupted)
    assert failed / len(latencies) > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "indist-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("spec", [
    ("mech", "lower", (5, 13), (0, 1)),
    ("mech", "upper", (-1, 1, 2, 5), (-2, 7)),
    ("rev", ("shift", ("mech", "lower", (0, 1, 2, 2), (1, 3)), 9)),
    ("sub", ((0, 1, 2), (2,)), ("mech", "upper", (3, -1, 2, 5), (0, 1)), 3),
    ("evp", (1, 0), (1, 1, 1), (0,), (0, 1, 1)),
])
def test_reference_agrees_with_the_library(spec):
    oracle = build_oracle(spec)
    for lo, hi in ((-70, 70), (5000, 5040), (-9000, -8950)):
        assert ref.window(spec, lo, hi) == list(oracle.window(lo, hi))
