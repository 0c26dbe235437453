import json

import numpy as np
import pytest

from ergokit.cli import main
from ergokit import ergotropy
from ergokit.ergotropy import passive_energy_of_spectrum, passive_state, report, work
from ergokit.errors import DimensionMismatch, InconsistentReport
from ergokit.instances import matrix_to_json
from ergokit.linalg import adjoint, energy_tol, max_abs
from ergokit.measurement import Povm, StochasticMatrix, computational_basis, post_process, random_column_stochastic
from ergokit.states import (
    DensityMatrix,
    Hamiltonian,
    RandomSource,
    dephase,
    energy_populations,
    haar_unitary,
    random_density,
    random_hamiltonian,
)

from _oracles import qubit_sweep_closed_form, sampled_min_energy, stream

H01 = Hamiltonian(np.diag([0.0, 1.0]))
RHO = DensityMatrix(np.diag([0.25, 0.75]))
PLUS = DensityMatrix(np.full((2, 2), 0.5))


def merge_povm(b):
    d = StochasticMatrix(np.array([[b, 1.0], [1.0 - b, 0.0]]))
    return post_process(computational_basis(2), d)


def qubit_sic_povm():
    """Tetrahedron POVM: elements do not commute, so it is not a classical
    post-processing of any single projective measurement."""
    paulis = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    directions = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]) / np.sqrt(3.0)
    elements = []
    for s in directions:
        bloch = sum(c * p for c, p in zip(s, paulis))
        elements.append(0.25 * (np.eye(2) + bloch))
    return Povm(tuple(elements))


def test_passive_energy_hand_value():
    assert report(RHO, H01).passive_energy == pytest.approx(0.25, abs=1e-14)


def test_passive_energy_maximally_mixed():
    h = random_hamiltonian(5, RandomSource(2))
    expected = float(np.trace(h.op).real) / 5.0
    assert report(DensityMatrix(np.eye(5) / 5), h).passive_energy == pytest.approx(expected, abs=1e-12)


def test_passive_energy_not_above_sampled_minimum():
    rng = RandomSource(30)
    rho = random_density(3, 3, rng)
    h = random_hamiltonian(3, rng)
    sampled = sampled_min_energy(rho.op, h.op, samples=10_000, seed=99)
    assert report(rho, h).passive_energy <= sampled + 1e-9


def test_passive_energy_of_spectrum_checks_length():
    with pytest.raises(DimensionMismatch):
        passive_energy_of_spectrum(H01.energies, [0.2, 0.3, 0.5])


def test_tied_energies_are_degenerate_levels():
    # equal neighbours pass the ascending check; the largest population still sits on the lowest level
    assert passive_energy_of_spectrum([0.0, 1.0, 1.0], [0.2, 0.3, 0.5]) == pytest.approx(0.5, abs=1e-15)
    assert work([0.0, 1.0, 1.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)


def test_passive_state_fixed_point():
    rho = DensityMatrix(np.diag([0.75, 0.25]))  # descending populations on ascending energies
    pi, u = passive_state(rho, H01)
    assert max_abs(pi.op - rho.op) <= 1e-12
    assert max_abs(u @ rho.op @ adjoint(u) - rho.op) <= 1e-12


def test_passive_state_pure_state_sinks_to_ground():
    pi, _ = passive_state(PLUS, H01)
    np.testing.assert_allclose(pi.op, np.diag([1.0, 0.0]), atol=1e-12)


def test_passive_state_properties_random():
    rng = RandomSource(33)
    for t in range(10):
        sub = rng.split(t)
        rho = random_density(4, 4, sub)
        h = random_hamiltonian(4, sub)
        pi, u = passive_state(rho, h)
        assert max_abs(adjoint(u) @ u - np.eye(4)) <= 1e-10
        assert max_abs(u @ rho.op @ adjoint(u) - pi.op) <= 1e-9
        assert abs(np.trace(h.op @ pi.op).real - report(rho, h).passive_energy) <= 1e-10
        assert report(pi, h).ergotropy <= 1e-10


def test_passive_state_keeps_the_state_spectrum():
    # the passive state carries the eigenvalues rho kept at validation, not a second eigensolve's
    rng = RandomSource(34)
    for d in (2, 5, 16, 64):
        rho, h = random_density(d, d, rng.split(d)), random_hamiltonian(d, rng.split(d))
        assert passive_state(rho, h)[0].eigenvalues.tobytes() == np.sort(rho.eigenvalues).tobytes()


def test_ergotropy_hand_values():
    assert report(RHO, H01).ergotropy == pytest.approx(0.5, abs=1e-14)
    assert report(PLUS, H01).ergotropy == pytest.approx(0.5, abs=1e-12)


def test_ergotropy_of_passive_state_is_zero():
    gibbs_like = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    h = Hamiltonian(np.diag([0.0, 1.0, 2.0]))
    assert abs(report(gibbs_like, h).ergotropy) <= 1e-14


def test_ergotropy_nonnegative_random():
    rng = RandomSource(35)
    for t in range(50):
        sub = rng.split(t)
        rho = random_density(4, 2, sub)
        h = random_hamiltonian(4, sub)
        assert report(rho, h).ergotropy >= -1e-10


@pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_observational_ergotropy_merge_family(b):
    value = report(RHO, H01, merge_povm(b)).observational
    assert value == pytest.approx(qubit_sweep_closed_form(b), abs=1e-12)


def test_observational_ergotropy_eigenbasis_recovers_full():
    # Theorem 3's equality, which verify theorem3 leaves to tier-1: rho's own eigenbasis attains the ergotropy
    # within energy_tol at every size and rank (the largest gap seen is ~0.1 energy_tol), the eigensolver's residual
    for d in (1, 2, 3, 8, 16, 64):
        rng = RandomSource(36 + d)
        for t in range(20 if d == 64 else 80):
            sub = rng.split(t)
            rank = d if t % 2 else 1
            rho, h = random_density(d, rank, sub), random_hamiltonian(d, sub)
            rep = report(rho, h, Povm(rho.eig()[1]))
            gap = rep.observational - rep.ergotropy
            assert abs(gap) <= energy_tol(d, max_abs(h.energies)), (d, rank, t, gap)


def test_observational_ergotropy_can_be_negative():
    ground = DensityMatrix(np.diag([1.0, 0.0]))
    plus_minus = Povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    assert report(ground, H01, plus_minus).observational == pytest.approx(-0.5, abs=1e-12)


def test_observational_never_exceeds_ergotropy():
    # holds for arbitrary POVMs, not only post-processed projective ones
    rng = RandomSource(37)
    for t in range(30):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        m = post_process(Povm(haar_unitary(3, sub)),
                         random_column_stochastic(5, 3, sub))
        rep = report(rho, h, m)
        assert rep.observational <= rep.ergotropy + 1e-9


def test_observational_bound_holds_for_sic_povm():
    sic = qubit_sic_povm()
    rng = RandomSource(38)
    for t in range(20):
        sub = rng.split(t)
        rho = random_density(2, 2, sub)
        h = random_hamiltonian(2, sub)
        rep = report(rho, h, sic)
        assert rep.observational <= rep.ergotropy + 1e-9


def test_observational_pure_state_in_own_basis():
    # rank-1 spectrum (1, 0, ...) sinks everything to the ground level
    rng = RandomSource(44)
    rho = random_density(3, 1, rng)
    h = random_hamiltonian(3, rng)
    basis = Povm(rho.eig()[1])
    expected = np.trace(h.op @ rho.op).real - float(h.energies[0])
    assert report(rho, h, basis).observational == pytest.approx(expected, abs=1e-10)


def test_all_quantities_vanish_for_maximally_mixed():
    h = random_hamiltonian(4, RandomSource(45))
    rep = report(DensityMatrix(np.eye(4) / 4), h, computational_basis(4))
    assert abs(rep.ergotropy) <= 1e-10
    assert abs(rep.incoherent) <= 1e-10
    assert abs(rep.coherent) <= 1e-10
    assert abs(rep.observational) <= 1e-10


def test_incoherent_ergotropy_plus_state():
    assert abs(report(PLUS, H01).incoherent) <= 1e-12


def test_incoherent_equals_full_for_diagonal_states():
    rho = DensityMatrix(np.diag([0.1, 0.2, 0.7]))
    h = Hamiltonian(np.diag([0.0, 0.5, 1.0]))
    rep = report(rho, h)
    assert rep.incoherent == pytest.approx(rep.ergotropy, abs=1e-12)


def test_incoherent_matches_energy_basis_measurement():
    rng = RandomSource(39)
    for t in range(20):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        rep = report(rho, h, Povm(h.eigenbasis))
        assert rep.observational == pytest.approx(rep.incoherent, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_theorem2_equality_is_exact_in_the_object_api(d):
    # both sides are work(E, p, p) off the same energy populations p, which are positive for a full-rank state
    rng = RandomSource(60 + d)
    for t in range(75):
        sub = rng.split(t)
        rho, h = random_density(d, d, sub), random_hamiltonian(d, sub)
        rep = report(rho, h, Povm(h.eigenbasis))
        assert rep.observational == rep.incoherent


def test_coherent_ergotropy_plus_state():
    assert report(PLUS, H01).coherent == pytest.approx(0.5, abs=1e-12)


def test_coherent_ergotropy_diagonal_is_zero():
    assert abs(report(RHO, H01).coherent) <= 1e-14


def test_coherent_ergotropy_nonnegative_sweep():
    rng = RandomSource(40)
    worst = 0.0
    for t in range(1000):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        worst = min(worst, report(rho, h).coherent)
    assert worst >= -1e-10


def test_report_diagonal_instance():
    rep = report(RHO, H01)
    assert (rep.mean_energy, rep.passive_energy, rep.ergotropy) == (0.75, 0.25, 0.5)
    assert rep.incoherent == pytest.approx(0.5, abs=1e-14)
    assert rep.coherent == pytest.approx(0.0, abs=1e-14)
    assert rep.observational is None


def test_report_plus_state():
    rep = report(PLUS, H01)
    assert rep.mean_energy == pytest.approx(0.5, abs=1e-12)
    assert rep.passive_energy == pytest.approx(0.0, abs=1e-12)
    assert rep.incoherent == pytest.approx(0.0, abs=1e-12)
    assert rep.coherent == pytest.approx(0.5, abs=1e-12)


def test_report_with_own_eigenbasis_measurement():
    rng = RandomSource(42)
    rho = random_density(3, 3, rng)
    h = random_hamiltonian(3, rng)
    basis = Povm(rho.eig()[1])
    rep = report(rho, h, basis)
    assert rep.observational == pytest.approx(rep.ergotropy, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_report_ergotropy_is_mean_minus_passive_energy(d):
    rng = RandomSource(62 + d)
    rho, h = random_density(d, d, rng), random_hamiltonian(d, rng)
    coarse = post_process(Povm(haar_unitary(d, rng)), random_column_stochastic(3, d, rng))
    for m in (None, coarse, Povm(coarse.elements)):
        rep = report(rho, h, m)
        assert rep.ergotropy == rep.mean_energy - rep.passive_energy
        assert abs(rep.mean_energy - np.trace(h.op @ rho.op).real) <= energy_tol(d, np.abs(h.energies).max())


def test_report_and_incoherent_ergotropy_build_no_operator(monkeypatch):
    # report reads rho's energy populations once; its incoherent field builds no dephased state or any d x d operator
    from ergokit import measurement, states

    rng = RandomSource(66)
    rho, h = random_density(4, 4, rng), random_hamiltonian(4, rng)
    calls = []
    for module in (states, measurement):
        monkeypatch.setattr(module, "operator_in_basis", lambda *a, _f=module.operator_in_basis: calls.append(a) or _f(*a))
    original = states.DensityMatrix._in_basis
    monkeypatch.setattr(states.DensityMatrix, "_in_basis", lambda *a: calls.append(a) or original(*a))
    report(rho, h)
    report(rho, h, computational_basis(4))
    assert calls == []
    dephase(rho, h)  # the spies do see a built state
    assert len(calls) == 2


def test_kernels_read_energies_given_as_a_list():
    energies, populations, spectrum = [0.0, 0.5, 2.0], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]
    assert work(energies, populations, spectrum) == work(np.array(energies), populations, spectrum)
    assert passive_energy_of_spectrum(energies, spectrum) == passive_energy_of_spectrum(np.array(energies), spectrum)


def test_work_over_a_batch_equals_row_by_row_calls():
    gen = stream(67)
    energies = np.sort(gen.random((6, 5)), axis=-1)
    populations, spectra = gen.standard_exponential((6, 5)), gen.standard_exponential((6, 5))
    batch = work(energies, populations, spectra)
    assert batch.shape == (6,)
    assert batch.tolist() == [work(*row) for row in zip(energies, populations, spectra)]
    assert all(type(work(*row)) is float for row in zip(energies, populations, spectra))


def test_energy_populations_read_the_mean_energy():
    rng = RandomSource(68)
    for d in (1, 3, 8):
        sub = rng.split(d)
        rho, h = random_density(d, d, sub), random_hamiltonian(d, sub)
        p = energy_populations(rho, h)
        assert abs(np.sum(h.energies * p) - np.trace(h.op @ rho.op).real) <= energy_tol(d, np.abs(h.energies).max())
        assert np.array_equal(np.sort(p), dephase(rho, h).eigenvalues)


def test_report_csv_layout(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"dimension": 2, "hamiltonian": matrix_to_json(H01.op), "state": matrix_to_json(RHO.op)}))
    assert main(["report", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "d,mean,passive,ergotropy,incoherent,coherent,observational\n2,0.75,0.25,0.5,0.5,0.0,\n"


def test_work_report_rejects_inconsistent_fields(monkeypatch):
    # report, whose every work call here returns the ergotropy below: at max|E| = 1 one past energy_tol(2, 1) ~ 7e-15
    # is rejected, and one within roundoff is kept
    monkeypatch.setattr(ergotropy, "work", lambda *args: -1e-13)
    with pytest.raises(InconsistentReport, match=r"ergotropy is negative: -1e-13 < -7\.1e-15"):
        report(RHO, H01)
    monkeypatch.setattr(ergotropy, "work", lambda *args: -1e-15)
    assert report(RHO, H01).ergotropy == -1e-15
