"""The benchmark's own tests: workloads at a tiny size, self time, the gates."""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import layers
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = json.loads((HERE / "refs.json").read_text())


def run_tiny(workload, tmp_path, refs=REFS, trace=False):
    # seconds=0 runs exactly one pass (two when traced)
    return harness.run_workload(workload, "tiny", 5, 0.0, trace, tmp_path, refs, ROOT / "src")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(workload, tmp_path):
    res = run_tiny(workload, tmp_path)
    assert res["problems"] == []
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(harness.E2E_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_corrupted_reference_drives_fail_ratio_above_zero(tmp_path):
    refs = copy.deepcopy(REFS)
    refs["analytic"]["analyze-fid/0:10:10"]["probability"][0] += 1e-5
    res = run_tiny("analyze-fid", tmp_path, refs)
    assert res["failed"] / res["attempted"] > 0
    assert "sinr coverage" in res["problems"][0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 3.0, "end": 6.0},   # overlaps span 1
        {"id": 4, "parent": 0, "start": 8.0, "end": 12.0},  # runs past its parent
    ]
    got = tracing.self_times(spans)
    # the root's children cover [1, 6] and [8, 10]
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = run_tiny("analyze-fid", tmp_path, trace=True)
    assert res["failed"] == 0
    assert set(res["metrics"]) == set(layers.LAYER_METRICS)
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    assert res["metrics"]["src.loc"]["value"] == sum(
        res["metrics"][f"{m}.loc"]["value"] for m in layers.MODULES)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {"setup_s": "s",
                                                                  **harness.E2E_UNITS}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in layers.LAYER_METRICS.items()}


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze-fid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_engine_gate_pools_passes_and_needs_enough_reps():
    analytic = np.asarray(REFS["analytic"]["fid-41"]["probability"])
    pool = wl.EnginePool()
    pool.reps, pool.hits = wl.REF_SIM_REPS, wl.REF_SIM_REPS * analytic
    assert pool.check(REFS) == []
    pool.hits = pool.hits + 0.03 * wl.REF_SIM_REPS
    assert "pooled sinr vs analytic" in pool.check(REFS)[0]
    pool.reps, pool.hits = wl.REF_SIM_REPS // 4, wl.REF_SIM_REPS // 4 * analytic
    assert "pooled reps" in pool.check(REFS)[0]
