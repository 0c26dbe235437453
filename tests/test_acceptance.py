"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; without -s they appear in the captured output of failing tests.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ergokit.audits import AuditConfig, run_audit
from ergokit.cli import main
from ergokit.ergotropy import report
from ergokit.measurement import Povm, computational_basis
from ergokit.states import (
    DensityMatrix,
    Hamiltonian,
    RandomSource,
    random_density,
    random_hamiltonian,
)

from _oracles import qubit_sweep_closed_form, sampled_min_energy

H01 = Hamiltonian(np.diag([0.0, 1.0]))


def _criterion(num, label, checks):
    failed = [name for name, ok in checks.items() if not ok]
    print(f"acceptance {num} [{label}]: {'FAIL' if failed else 'PASS'}")
    assert not failed, f"criterion {num} ({label}) failed: {failed}"


def test_criterion_1_closed_form_qubit():
    rep = report(DensityMatrix(np.diag([0.25, 0.75])), H01)
    _criterion(1, "closed-form qubit instance", {
        "ergotropy": abs(rep.ergotropy - 0.5) <= 1e-12,
        "passive": abs(rep.passive_energy - 0.25) <= 1e-12,
        "incoherent": abs(rep.incoherent - 0.5) <= 1e-12,
        "coherent": abs(rep.coherent - 0.0) <= 1e-12,
    })


def test_criterion_2_coherence_advantage():
    plus = DensityMatrix(np.full((2, 2), 0.5))
    rep = report(plus, H01)
    energy_basis = computational_basis(2)
    coherent_basis = Povm(
        np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    obs_energy = report(plus, H01, energy_basis).observational
    obs_coherent = report(plus, H01, coherent_basis).observational
    _criterion(2, "coherence advantage instance", {
        "ergotropy": abs(rep.ergotropy - 0.5) <= 1e-10,
        "incoherent": abs(rep.incoherent - 0.0) <= 1e-10,
        "coherent": abs(rep.coherent - 0.5) <= 1e-10,
        "energy_basis_measurement": abs(obs_energy - 0.0) <= 1e-10,
        "coherent_basis_measurement": abs(obs_coherent - 0.5) <= 1e-10,
    })


def test_criterion_3_sweep_reproduction(tmp_path, capsys):
    instance = {
        "dimension": 2,
        "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        "state": [[[0.25, 0], [0, 0]], [[0, 0], [0.75, 0]]],
    }
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps(instance))
    start = time.perf_counter()
    code = main(["sweep", str(path), "--family", "merge", "--grid", "0:1:5"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    values = [r for _, r in rows]
    _criterion(3, "post-processing sweep", {
        "exit_code": code == 0,
        "grid": [b for b, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0],
        "closed_form": all(abs(r - qubit_sweep_closed_form(b)) <= 1e-10 for b, r in rows),
        "monotone": all(values[i] >= values[i + 1] for i in range(len(values) - 1)),
        "endpoints": abs(values[0] - 0.5) <= 1e-10 and abs(values[-1] - 0.25) <= 1e-10,
        "runtime": elapsed < 1.0,
    })


def test_criterion_4_postprocessing_monotonicity_audit():
    start = time.perf_counter()
    trials = 0
    violations = 0
    for d in (2, 3, 4, 6):
        for n in range(2, 9):
            cfg = AuditConfig(dimension=d, outcomes=n, trials=36, seed=1000 * d + n, tolerance=1e-9)
            result = run_audit("theorem1", cfg)
            trials += result.trials
            violations += result.violations
    elapsed = time.perf_counter() - start
    _criterion(4, "coarsening monotonicity audit", {
        "coverage": trials >= 1000,
        "violations": violations == 0,
        "runtime": elapsed < 30.0,
    })


def test_criterion_5_energy_incoherent_audit():
    result = run_audit("theorem2",
        AuditConfig(dimension=3, outcomes=4, trials=1000, seed=5, tolerance=1e-9))
    _criterion(5, "energy-incoherent limit audit", {
        "trials": result.trials == 1000,
        "violations": result.violations == 0,
    })


def test_criterion_6_fine_grained_optimum_audit():
    result = run_audit("theorem3",
        AuditConfig(dimension=3, outcomes=4, trials=1000, seed=6, tolerance=1e-9))
    _criterion(6, "fine-grained optimum audit", {
        "trials": result.trials == 1000,
        "violations": result.violations == 0,
    })


def test_criterion_7_majorization_and_schur_audits():
    spectra = run_audit("lemma1",
        AuditConfig(dimension=5, outcomes=3, trials=1000, seed=7, tolerance=1e-9))
    schur = run_audit("schur",
        AuditConfig(dimension=6, outcomes=4, trials=1000, seed=7, tolerance=1e-9))
    _criterion(7, "spectrum majorization + Schur concavity audits", {
        "majorization_trials": spectra.trials == 1000,
        "majorization_violations": spectra.violations == 0,
        "schur_trials": schur.trials == 1000,
        "schur_violations": schur.violations == 0,
    })


def test_criterion_8_minimization_oracle_cross_check():
    rng = RandomSource(808)
    worst = -np.inf
    for t in range(50):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        closed_form = report(rho, h).passive_energy
        sampled = sampled_min_energy(rho.op, h.op, samples=10_000, seed=7000 + t)
        worst = max(worst, closed_form - sampled)
    _criterion(8, "unitary minimization oracle", {
        "one_sided_bound": worst <= 1e-9,
    })


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "ergokit", "verify", "all",
           "--d", "3", "--trials", "100", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    _criterion(9, "byte-identical reruns", {
        "exit_codes": first.returncode == 0 and second.returncode == 0,
        "stdout_identical": first.stdout == second.stdout,
        "nonempty": len(first.stdout) > 0,
    })
