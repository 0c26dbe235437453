import json

import numpy as np
import pytest

from ergokit.cli import main
from ergokit.ergotropy import (
    WorkReport,
    coherent_ergotropy,
    ergotropy,
    incoherent_ergotropy,
    observational_ergotropy,
    passive_energy,
    passive_energy_of_spectrum,
    passive_state,
    report,
    work,
)
from ergokit.errors import DimensionMismatch, NonFinite
from ergokit.instances import matrix_to_json
from ergokit.linalg import adjoint, energy_tol, max_abs
from ergokit.measurement import Povm, StochasticMatrix, computational_basis, post_process, random_column_stochastic
from ergokit.states import (
    RandomSource,
    diagonal_hamiltonian,
    dephase,
    diagonal_state,
    energy_populations,
    haar_unitary,
    maximally_mixed,
    pure_state,
    random_density,
    random_hamiltonian,
)

from _oracles import qubit_sweep_closed_form, sampled_min_energy, stream

H01 = diagonal_hamiltonian([0.0, 1.0])
RHO = diagonal_state([0.25, 0.75])
PLUS = pure_state([1.0, 1.0])


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
    assert passive_energy(RHO, H01) == pytest.approx(0.25, abs=1e-14)


def test_passive_energy_maximally_mixed():
    h = random_hamiltonian(5, RandomSource(2))
    expected = float(np.trace(h.op).real) / 5.0
    assert passive_energy(maximally_mixed(5), h) == pytest.approx(expected, abs=1e-12)


def test_passive_energy_not_above_sampled_minimum():
    rng = RandomSource(30)
    rho = random_density(3, 3, rng)
    h = random_hamiltonian(3, rng)
    sampled = sampled_min_energy(rho.op, h.op, samples=10_000, seed=99)
    assert passive_energy(rho, h) <= sampled + 1e-9


def test_passive_energy_of_spectrum_checks_length():
    with pytest.raises(DimensionMismatch):
        passive_energy_of_spectrum(H01.energies, [0.2, 0.3, 0.5])


def test_passive_state_fixed_point():
    rho = diagonal_state([0.75, 0.25])  # descending populations on ascending energies
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
        assert abs(np.trace(h.op @ pi.op).real - passive_energy(rho, h)) <= 1e-10
        assert ergotropy(pi, h) <= 1e-10


def test_ergotropy_hand_values():
    assert ergotropy(RHO, H01) == pytest.approx(0.5, abs=1e-14)
    assert ergotropy(PLUS, H01) == pytest.approx(0.5, abs=1e-12)


def test_ergotropy_of_passive_state_is_zero():
    gibbs_like = diagonal_state([0.5, 0.3, 0.2])
    h = diagonal_hamiltonian([0.0, 1.0, 2.0])
    assert abs(ergotropy(gibbs_like, h)) <= 1e-14


def test_ergotropy_nonnegative_random():
    rng = RandomSource(35)
    for t in range(50):
        sub = rng.split(t)
        rho = random_density(4, 2, sub)
        h = random_hamiltonian(4, sub)
        assert ergotropy(rho, h) >= -1e-10


@pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_observational_ergotropy_merge_family(b):
    value = observational_ergotropy(RHO, H01, merge_povm(b))
    assert value == pytest.approx(qubit_sweep_closed_form(b), abs=1e-12)


def test_observational_ergotropy_eigenbasis_recovers_full():
    rng = RandomSource(36)
    rho = random_density(4, 4, rng)
    h = random_hamiltonian(4, rng)
    basis = Povm(rho.eig()[1])
    assert observational_ergotropy(rho, h, basis) == pytest.approx(ergotropy(rho, h), abs=1e-10)


def test_observational_ergotropy_can_be_negative():
    ground = diagonal_state([1.0, 0.0])
    plus_minus = Povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    assert observational_ergotropy(ground, H01, plus_minus) == pytest.approx(-0.5, abs=1e-12)


def test_observational_never_exceeds_ergotropy():
    # holds for arbitrary POVMs, not only post-processed projective ones
    rng = RandomSource(37)
    for t in range(30):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        m = post_process(Povm(haar_unitary(3, sub)),
                         random_column_stochastic(5, 3, sub))
        assert observational_ergotropy(rho, h, m) <= ergotropy(rho, h) + 1e-9


def test_observational_bound_holds_for_sic_povm():
    sic = qubit_sic_povm()
    rng = RandomSource(38)
    for t in range(20):
        sub = rng.split(t)
        rho = random_density(2, 2, sub)
        h = random_hamiltonian(2, sub)
        assert observational_ergotropy(rho, h, sic) <= ergotropy(rho, h) + 1e-9


def test_observational_pure_state_in_own_basis():
    # rank-1 spectrum (1, 0, ...) sinks everything to the ground level
    rng = RandomSource(44)
    rho = random_density(3, 1, rng)
    h = random_hamiltonian(3, rng)
    basis = Povm(rho.eig()[1])
    expected = np.trace(h.op @ rho.op).real - float(h.energies[0])
    assert observational_ergotropy(rho, h, basis) == pytest.approx(expected, abs=1e-10)


def test_all_quantities_vanish_for_maximally_mixed():
    h = random_hamiltonian(4, RandomSource(45))
    rep = report(maximally_mixed(4), h, computational_basis(4))
    assert abs(rep.ergotropy) <= 1e-10
    assert abs(rep.incoherent) <= 1e-10
    assert abs(rep.coherent) <= 1e-10
    assert abs(rep.observational) <= 1e-10


def test_incoherent_ergotropy_plus_state():
    assert abs(incoherent_ergotropy(PLUS, H01)) <= 1e-12


def test_incoherent_equals_full_for_diagonal_states():
    rho = diagonal_state([0.1, 0.2, 0.7])
    h = diagonal_hamiltonian([0.0, 0.5, 1.0])
    assert incoherent_ergotropy(rho, h) == pytest.approx(ergotropy(rho, h), abs=1e-12)


def test_incoherent_matches_energy_basis_measurement():
    rng = RandomSource(39)
    for t in range(20):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        energy_basis = Povm(h.eigenbasis)
        assert observational_ergotropy(rho, h, energy_basis) == pytest.approx(
            incoherent_ergotropy(rho, h), abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_theorem2_equality_is_exact_in_the_object_api(d):
    # both sides are work(E, p, p) off the same energy populations p, which are positive for a full-rank state
    rng = RandomSource(60 + d)
    for t in range(75):
        sub = rng.split(t)
        rho, h = random_density(d, d, sub), random_hamiltonian(d, sub)
        energy_basis = Povm(h.eigenbasis)
        assert observational_ergotropy(rho, h, energy_basis) == incoherent_ergotropy(rho, h)


def test_coherent_ergotropy_plus_state():
    assert coherent_ergotropy(PLUS, H01) == pytest.approx(0.5, abs=1e-12)


def test_coherent_ergotropy_diagonal_is_zero():
    assert abs(coherent_ergotropy(RHO, H01)) <= 1e-14


def test_coherent_ergotropy_nonnegative_sweep():
    rng = RandomSource(40)
    worst = 0.0
    for t in range(1000):
        sub = rng.split(t)
        rho = random_density(3, 3, sub)
        h = random_hamiltonian(3, sub)
        worst = min(worst, coherent_ergotropy(rho, h))
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
def test_report_fields_equal_the_single_quantity_functions(d):
    rng = RandomSource(62 + d)
    rho, h = random_density(d, d, rng), random_hamiltonian(d, rng)
    coarse = post_process(Povm(haar_unitary(d, rng)), random_column_stochastic(3, d, rng))
    for m in (None, coarse, Povm(coarse.elements)):
        rep = report(rho, h, m)
        assert (rep.passive_energy, rep.ergotropy, rep.incoherent, rep.coherent, rep.observational) == (
            passive_energy(rho, h), ergotropy(rho, h), incoherent_ergotropy(rho, h), coherent_ergotropy(rho, h),
            None if m is None else observational_ergotropy(rho, h, m))
        assert rep.ergotropy == rep.mean_energy - rep.passive_energy
        assert abs(rep.mean_energy - np.trace(h.op @ rho.op).real) <= energy_tol(d, rep.energy_scale)


def test_report_and_incoherent_ergotropy_build_no_operator(monkeypatch):
    # both read rho's energy populations once; neither builds the dephased state or any d x d operator
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
    incoherent_ergotropy(rho, h)
    assert calls == []
    dephase(rho, h)  # the spies do see a built state
    assert len(calls) == 2


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


def test_work_report_rejects_non_finite_fields():
    # NaN compares false, so without a finiteness check it would pass every identity check
    nan = float("nan")
    with pytest.raises(NonFinite):
        WorkReport(dimension=2, mean_energy=nan, passive_energy=nan, ergotropy=nan,
                   incoherent=nan, coherent=nan, observational=nan)
    with pytest.raises(NonFinite):
        WorkReport(dimension=2, mean_energy=0.75, passive_energy=0.25, ergotropy=0.5,
                   incoherent=0.5, coherent=0.0, observational=float("-inf"))


def test_work_report_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        WorkReport(dimension=2, mean_energy=1.0, passive_energy=0.25,
                   ergotropy=0.5, incoherent=0.5, coherent=0.0)
    with pytest.raises(ValueError):
        WorkReport(dimension=2, mean_energy=0.75, passive_energy=0.25,
                   ergotropy=0.5, incoherent=0.1, coherent=0.0)
