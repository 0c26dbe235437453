"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py

Runs every workload traced and untraced, checks the result line against
BENCHMARK.json, checks that the exact work counters repeat (across two runs
and on a second seed), and checks the input generator and output checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTERS = ("linalg.eigensolves_per_op", "linalg.eig_cost_d3", "measurement.povm_builds_per_op")


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, declared: list) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines[:-1])
    return result["metrics"]


def test_declared_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counters(workload):
    runs = [result_of(bench(workload, 1, seed), SPEC["per_layer"]) for seed in (0, 0, 1)]
    for name in EXACT_COUNTERS:
        values = [metrics[name]["value"] for metrics in runs]
        assert values[0] > 0
        assert values == [values[0]] * 3, name


def test_refuses_to_run_without_the_program():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_instances(seed):
    d = 16
    for index in range(run.INPUTS_PER_RUN):
        inst = oracle.make_instance(seed, index, d)
        defects = oracle.instance_defects(inst)
        assert defects["outcomes"] == 2 * d
        assert defects["trace"] < 1e-12 and defects["completeness"] < 1e-12
        assert defects["rho_min_eig"] > 0 and defects["element_min_eig"] > -1e-12
        assert defects["min_gap"] >= oracle.MIN_LEVEL_GAP * (1 - 1e-9)
        assert defects["projector_defect"] > 1e-3
        doc = json.loads(json.dumps(oracle.instance_document(inst)))
        state = np.array(doc["state"])
        assert np.array_equal(state[..., 0] + 1j * state[..., 1], inst["rho"])
    again = oracle.make_instance(seed, 0, d)
    assert np.array_equal(again["povm"], oracle.make_instance(seed, 0, d)["povm"])
    assert not np.array_equal(again["rho"], oracle.make_instance(seed + 1, 0, d)["rho"])


def test_output_checks_reject_wrong_numbers():
    inst = oracle.make_instance(0, 0, 4)
    tol = oracle.tolerance(inst)
    expected = oracle.report_values(inst)
    good = json.dumps(expected).encode()
    assert run.check_report(good, expected, tol) == 0
    off = dict(expected, observational=expected["observational"] + 100 * tol)
    assert run.check_report(json.dumps(off).encode(), expected, tol) == 1
    grid = [0.0, 0.5, 1.0]
    values = oracle.mix_sweep_values(inst, grid)
    rows = ["parameter,observational_ergotropy"] + [f"{t!r},{v!r}" for t, v in zip(grid, values)]
    assert run.check_sweep("\n".join(rows).encode(), grid, values, tol) == 0
    rows[2] = f"0.5,{values[1] + 100 * tol!r}"
    assert run.check_sweep("\n".join(rows).encode(), grid, values, tol) == 1
    line = '{"claim": "%s", "trials": 3, "violations": %d}'
    lines = [line % (c, 0) for c in run.CLAIMS]
    assert run.check_verify("\n".join(lines).encode(), 3) == 0
    lines[1] = line % (run.CLAIMS[1], 1)
    assert run.check_verify("\n".join(lines).encode(), 3) == 3
