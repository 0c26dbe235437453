import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit.errors import LengthMismatch, NotUnitary, PreconditionFailed
from ergokit.majorization import (
    bistochastic_from_unitary,
    majorization_deficit,
    majorizes,
    prob_vector,
    refinement_bistochastic,
    schur_concavity_check,
)
from ergokit.measurement import Povm, StochasticMatrix, computational_basis, post_process, random_column_stochastic
from ergokit.states import RandomSource, diagonal_hamiltonian, haar_unitary, random_density, random_hamiltonian


def simplex_point(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


positive_weights = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8)


def test_majorizes_extreme_point():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])


def test_majorizes_requires_matching_totals():
    assert not majorizes([0.6, 0.3], [0.5, 0.5])


def test_majorizes_rejects_unequal_lengths():
    with pytest.raises(LengthMismatch):
        majorizes([1.0], [0.5, 0.5])


def test_majorization_deficit_rejects_unequal_last_axes_of_stacks():
    rng = RandomSource(31)
    x, y = rng.exponential((5, 3)), rng.exponential((5, 4))
    x, y = x / x.sum(axis=-1, keepdims=True), y / y.sum(axis=-1, keepdims=True)
    with pytest.raises(LengthMismatch, match="lengths 3 and 4"):
        majorization_deficit(x, y)


@given(positive_weights)
@settings(deadline=None)
def test_majorizes_reflexive(weights):
    x = simplex_point(weights)
    assert majorizes(x, x)


@given(positive_weights)
@settings(deadline=None)
def test_extreme_and_uniform_bounds(weights):
    x = simplex_point(weights)
    n = x.shape[0]
    top = np.zeros(n)
    top[0] = 1.0
    uniform = np.full(n, 1.0 / n)
    assert majorizes(top, x)
    assert majorizes(x, uniform)


def test_bistochastic_mixing_is_majorized():
    rng = RandomSource(50)
    for t in range(50):
        sub = rng.split(t)
        x = simplex_point(sub.exponential(5))
        b = bistochastic_from_unitary(haar_unitary(5, sub))
        assert majorizes(x, b.entries @ x)


def test_majorization_transitive_on_mixing_chains():
    rng = RandomSource(51)
    for t in range(20):
        sub = rng.split(t)
        x = simplex_point(sub.exponential(4))
        y = bistochastic_from_unitary(haar_unitary(4, sub)).entries @ x
        z = bistochastic_from_unitary(haar_unitary(4, sub.split(1))).entries @ y
        assert majorizes(x, y) and majorizes(y, z) and majorizes(x, z)


def test_qubit_merge_spectra_pair():
    # coarse-graining the diag(1/4, 3/4) estimate at b = 1/2 mixes its spectrum
    assert majorizes([0.75, 0.25], [7.0 / 12.0, 5.0 / 12.0])
    assert not majorizes([7.0 / 12.0, 5.0 / 12.0], [0.75, 0.25])


def test_composed_matrix_maps_outcomes_to_coarse_spectrum():
    from ergokit.measurement import FineGrainedMeasurement, coarse_grained_state, outcome_distribution
    from ergokit.states import random_density as _random_density

    rng = RandomSource(56)
    rho = _random_density(4, 4, rng)
    fine = FineGrainedMeasurement.from_basis(haar_unitary(4, rng))
    coarse = post_process(fine, random_column_stochastic(6, 4, rng))
    b = refinement_bistochastic(coarse)
    mapped = np.sort(b.entries @ outcome_distribution(rho, fine))
    coarse_spectrum = np.sort(coarse_grained_state(rho, coarse).spectrum())
    assert float(np.max(np.abs(mapped - coarse_spectrum))) <= 1e-10
    assert majorizes(outcome_distribution(rho, fine), mapped)


def test_majorization_deficit_signs():
    assert majorization_deficit([1.0, 0.0], [0.5, 0.5]) <= 0.0
    assert majorization_deficit([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)


def test_prob_vector_clips_and_validates():
    v = prob_vector([1.0, -1e-13])
    assert float(v[1]) == 0.0
    with pytest.raises(ValueError):
        prob_vector([0.9, 0.2])
    with pytest.raises(ValueError):
        prob_vector([1.1, -0.1])


class TestBistochasticFromUnitary:
    def test_identity(self):
        b = bistochastic_from_unitary(np.eye(3))
        np.testing.assert_allclose(b.entries, np.eye(3), atol=0.0)

    def test_hadamard_like(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        b = bistochastic_from_unitary(h)
        np.testing.assert_allclose(b.entries, np.full((2, 2), 0.5), atol=1e-14)

    def test_haar_sample_row_and_column_sums(self):
        b = bistochastic_from_unitary(haar_unitary(5, RandomSource(52)))
        assert float(np.max(np.abs(b.entries.sum(axis=0) - 1.0))) <= 1e-10
        assert float(np.max(np.abs(b.entries.sum(axis=1) - 1.0))) <= 1e-10
        assert b.bistochastic

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            bistochastic_from_unitary(np.ones((2, 2)))

    def test_maps_spectrum_to_diagonal(self):
        # |<k|V|i>|^2 applied to the eigenvalues recovers the matrix diagonal
        # when V's columns are the eigenvectors
        rho = random_density(4, 4, RandomSource(53))
        w, v = rho.eig()
        b = bistochastic_from_unitary(v)
        np.testing.assert_allclose(b.entries @ w, np.real(np.diag(rho.op)), atol=1e-10)


class TestRefinementBistochastic:
    def test_identity_post_processing(self):
        b = refinement_bistochastic(post_process(computational_basis(3), StochasticMatrix.identity(3)))
        np.testing.assert_allclose(b.entries, np.eye(3), atol=0.0)

    def test_qubit_merge_half(self):
        d = StochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]]))
        b = refinement_bistochastic(post_process(computational_basis(2), d))
        expected = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        np.testing.assert_allclose(b.entries, expected, atol=1e-14)
        assert b.bistochastic

    def test_random_composition_is_bistochastic(self):
        rng = RandomSource(54)
        d = random_column_stochastic(5, 4, rng)
        b = refinement_bistochastic(post_process(computational_basis(4), d))
        assert b.entries.shape == (4, 4)
        assert float(np.max(np.abs(b.entries.sum(axis=0) - 1.0))) <= 1e-10
        assert float(np.max(np.abs(b.entries.sum(axis=1) - 1.0))) <= 1e-10

    def test_all_zero_row_is_dropped_not_refused(self):
        # post_process drops the dead coarse outcome, so one outcome holds everything and B is uniform
        m = post_process(computational_basis(2), StochasticMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])))
        np.testing.assert_array_equal(refinement_bistochastic(m).entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_dense_base_is_refused_without_an_eigensolve(self, monkeypatch):
        dense = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        with pytest.raises(PreconditionFailed):
            refinement_bistochastic(dense)


class TestSchurConcavity:
    def test_hand_example(self):
        h = diagonal_hamiltonian([0.0, 1.0])
        assert schur_concavity_check(h, [1.0, 0.0], [0.5, 0.5])

    def test_equal_spectra(self):
        h = diagonal_hamiltonian([0.0, 0.3, 1.0])
        x = [0.5, 0.3, 0.2]
        assert schur_concavity_check(h, x, x)

    def test_requires_majorization(self):
        h = diagonal_hamiltonian([0.0, 1.0])
        with pytest.raises(PreconditionFailed):
            schur_concavity_check(h, [0.5, 0.5], [1.0, 0.0])

    def test_permutation_mixing_keeps_passive_energy(self):
        h = diagonal_hamiltonian([0.0, 0.4, 1.0])
        perm = bistochastic_from_unitary(np.eye(3)[:, [2, 0, 1]].astype(complex))
        x = np.array([0.6, 0.3, 0.1])
        y = perm.entries @ x
        assert schur_concavity_check(h, x, y)
        assert schur_concavity_check(h, y, x)

    @pytest.mark.parametrize("c", [1.0, 1e8])
    def test_tolerance_scales_with_the_energies(self, c):
        """H -> cH keeps the verdict: mixing a roundoff away from the identity
        passes at any energy scale, and a gap well past roundoff still fails."""
        d, rng = 8, RandomSource(88)
        b = (1.0 - 1e-16) * np.eye(d) + 1e-16 * np.full((d, d), 1.0 / d)
        for t in range(200):
            sub = rng.split(t)
            h = diagonal_hamiltonian(c * np.sort(sub.uniform(d)))
            x = simplex_point(sub.exponential(d))
            assert schur_concavity_check(h, x, b @ x)
        # [0.5, 0.5] majorizes this y within LOOSE_TOL, yet its passive energy is lower by 5e-10 c
        assert not schur_concavity_check(diagonal_hamiltonian([0.0, c]), [0.5, 0.5], [0.5 + 5e-10, 0.5 - 5e-10])

    def test_random_mixing_chains(self):
        rng = RandomSource(55)
        for t in range(200):
            sub = rng.split(t)
            x = simplex_point(sub.exponential(4))
            b = bistochastic_from_unitary(haar_unitary(4, sub))
            h = random_hamiltonian(4, sub)
            assert schur_concavity_check(h, x, b.entries @ x)
