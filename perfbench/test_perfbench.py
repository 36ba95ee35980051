"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EXACT_LAYER = [name for name in PER_LAYER if name.endswith(".calls")] + [
    "solvers.bisection.probes",
    "solvers.trivial_bound_hit_rate",
]


def small(name: str) -> Workload:
    """The named workload cut to a few ops, so a run takes seconds."""
    return dataclasses.replace(WORKLOADS[name], pool_size=5, exact_ops=run.REPRO_CELLS)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace):
    result, report = run.run_workload(small(name), seed=3, seconds=0.05, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.REPRO_CELLS
    assert set(result["metrics"]) == set(PER_LAYER if trace else END_TO_END)
    assert all(math.isfinite(v) for v in result["metrics"].values())
    assert report["failed_frac"] == 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_metrics_repeat_across_runs_and_tracing(name):
    workload = small(name)
    untraced = [run.run_workload(workload, seed=7, seconds=0.05, trace=False) for _ in range(2)]
    traced = [run.run_workload(workload, seed=7, seconds=0.05, trace=True) for _ in range(2)]
    reports = [report for _, report in untraced + traced]
    assert all(r["exact"] == reports[0]["exact"] for r in reports)
    for key in ("evals_per_solve", "quality_ratio"):
        assert untraced[0][0]["metrics"][key] == untraced[1][0]["metrics"][key] == reports[0]["exact"][key]
    for key in EXACT_LAYER:
        assert traced[0][0]["metrics"][key] == traced[1][0]["metrics"][key]
    assert traced[0][0]["metrics"]["solvers.trivial_bound_hit_rate"] == reports[0]["exact"]["trivial_bound_hit_rate"]


def test_scale_uses_the_kernel_blocks_on_either_side():
    ref = speed.REFERENCE_KERNEL_MS
    assert speed.scales([ref, ref, 2 * ref, 2 * ref]) == pytest.approx([1.0, 2 / 3, 0.5])
    assert speed.kernel_ms(1) > 0


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_line_prints_metrics_with_units():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper-quadrant", "--seed", "5", "--seconds", "0.1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = _result_line(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ring-uniform", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
