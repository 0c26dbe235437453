import numpy as np
import pytest

from ergokit.errors import DimensionMismatch, InvalidRank, NoConvergence, NotHermitian, PreconditionFailed
from ergokit.linalg import adjoint, max_abs, require_unitary
from ergokit.states import (
    DensityMatrix,
    Hamiltonian,
    RandomSource,
    dephase,
    diagonal_hamiltonian,
    diagonal_state,
    haar_unitary,
    maximally_mixed,
    mean_energy,
    pure_state,
    random_density,
    random_hamiltonian,
)

H01 = diagonal_hamiltonian([0.0, 1.0])
PLUS = pure_state([1.0, 1.0])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_spectrum_clips_roundoff(self):
        rho = random_density(4, 4, RandomSource(0))
        assert float(np.min(rho.spectrum())) >= 0.0
        assert float(np.sum(rho.spectrum())) == pytest.approx(1.0, abs=1e-10)


class TestHamiltonian:
    def test_energies_ascending(self):
        h = random_hamiltonian(6, RandomSource(4))
        assert np.all(np.diff(h.energies) >= 0.0)

    def test_eigenbasis_diagonalizes(self):
        h = random_hamiltonian(5, RandomSource(8))
        v = h.eigenbasis
        rebuilt = (v * h.energies) @ adjoint(v)
        assert max_abs(rebuilt - h.op) <= 1e-10

    def test_min_gap_resampling(self):
        h = random_hamiltonian(4, RandomSource(1), min_gap=1e-3)
        assert float(np.min(np.diff(h.energies))) >= 1e-3

    def test_random_hamiltonian_makes_no_eigensolve(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        random_hamiltonian(8, RandomSource(9), min_gap=1e-3)
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_random_hamiltonian_keeps_the_decomposition_it_drew(self, d):
        h = random_hamiltonian(d, RandomSource(d))
        tol = 16 * d * np.finfo(float).eps * float(np.max(np.abs(h.energies)))
        np.testing.assert_allclose(h.energies, Hamiltonian(h.op).energies, rtol=0.0, atol=tol)
        v = require_unitary(h.eigenbasis)
        assert max_abs(adjoint(v) @ h.op @ v - np.diag(h.energies)) <= tol


def test_dephase_plus_state():
    # populations of |+><+| in the energy basis are both 1/2
    out = dephase(PLUS, H01)
    np.testing.assert_allclose(out.op, np.eye(2) / 2.0, atol=1e-12)


def test_dephase_leaves_diagonal_state():
    rho = diagonal_state([0.25, 0.75])
    out = dephase(rho, H01)
    assert max_abs(out.op - rho.op) <= 1e-14


def test_dephase_preserves_energy():
    rng = RandomSource(23)
    for t in range(20):
        sub = rng.split(t)
        rho = random_density(4, 4, sub)
        h = random_hamiltonian(4, sub)
        assert abs(mean_energy(dephase(rho, h), h) - mean_energy(rho, h)) <= 1e-10


def test_dephase_idempotent():
    rng = RandomSource(29)
    rho = random_density(5, 5, rng)
    h = random_hamiltonian(5, rng)
    once = dephase(rho, h)
    twice = dephase(once, h)
    assert max_abs(twice.op - once.op) <= 1e-12


def test_dephase_commutes_with_hamiltonian():
    rng = RandomSource(31)
    rho = random_density(4, 4, rng)
    h = random_hamiltonian(4, rng, min_gap=1e-6)
    delta = dephase(rho, h).op
    assert max_abs(delta @ h.op - h.op @ delta) <= 1e-10


def test_dephase_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dephase(maximally_mixed(3), H01)


def test_haar_unitary_scalar_case():
    u = haar_unitary(1, RandomSource(2))
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_is_unitary():
    u = haar_unitary(4, RandomSource(3))
    assert max_abs(adjoint(u) @ u - np.eye(4)) <= 1e-10


def test_haar_unitary_deterministic():
    a = haar_unitary(5, RandomSource(77))
    b = haar_unitary(5, RandomSource(77))
    assert np.array_equal(a, b)


def test_haar_conjugation_preserves_spectrum():
    rng = RandomSource(41)
    rho = random_density(4, 4, rng)
    before = np.sort(rho.spectrum())
    for t in range(10):
        u = haar_unitary(4, rng.split(t))
        rotated = DensityMatrix(u @ rho.op @ adjoint(u))
        np.testing.assert_allclose(np.sort(rotated.spectrum()), before, atol=1e-9)


def test_random_density_rank_one_is_pure():
    rho = random_density(2, 1, RandomSource(5))
    np.testing.assert_allclose(np.sort(rho.spectrum()), [0.0, 1.0], atol=1e-10)


def test_random_density_full_rank():
    rho = random_density(4, 4, RandomSource(6))
    assert float(np.trace(rho.op).real) == pytest.approx(1.0, abs=1e-12)
    assert float(np.min(rho.spectrum())) > 1e-6


def test_random_density_rank_deficient():
    rho = random_density(5, 2, RandomSource(7))
    spectrum = np.sort(rho.spectrum())
    assert max_abs(spectrum[:3]) < 1e-10
    assert spectrum[3] > 1e-10


def test_random_density_reproducible():
    a = random_density(4, 3, RandomSource(9))
    b = random_density(4, 3, RandomSource(9))
    assert np.array_equal(a.op, b.op)


def test_random_density_invalid_rank():
    with pytest.raises(InvalidRank):
        random_density(3, 4, RandomSource(0))
    with pytest.raises(InvalidRank):
        random_density(3, 0, RandomSource(0))


def test_random_source_split_streams():
    root = RandomSource(123)
    a = root.split(4).normal(8)
    b = RandomSource(123).split(4).normal(8)
    c = RandomSource(123).split(5).normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_hamiltonian_rejects_infeasible_gap():
    # three levels in [0, 1] are at most 0.5 apart
    with pytest.raises(PreconditionFailed):
        random_hamiltonian(3, RandomSource(0), min_gap=0.6)


def test_random_hamiltonian_resampling_is_bounded():
    # feasible, but met with probability ~1e-11 per draw
    with pytest.raises(NoConvergence):
        random_hamiltonian(3, RandomSource(0), min_gap=0.4999)
