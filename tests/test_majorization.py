import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit.ergotropy import passive_energy_of_spectrum
from ergokit.errors import DimensionMismatch
from ergokit.linalg import TOL, energy_tol
from ergokit.majorization import majorization_deficit, majorizes
from ergokit.measurement import StochasticMatrix, computational_basis, link_matrix, post_process, random_column_stochastic
from ergokit.states import RandomSource, haar_from_ginibre, haar_unitary, random_density, random_hamiltonian

from _oracles import complex_normal, stream


def simplex_point(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def mixing(u):
    """|U_ki|^2 of a unitary U: bistochastic (Birkhoff), so it only mixes a spectrum."""
    return np.abs(u) ** 2


def bistochastic_residual(b):
    """Largest deviation from 1 of a row or column sum of b, or of each matrix in a stack."""
    return max(np.abs(b.sum(axis=-2) - 1.0).max(), np.abs(b.sum(axis=-1) - 1.0).max())


positive_weights = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8)


def test_majorizes_extreme_point():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])


def test_majorizes_requires_matching_totals():
    assert not majorizes([0.6, 0.3], [0.5, 0.5])


def test_majorizes_rejects_unequal_lengths():
    with pytest.raises(DimensionMismatch):
        majorizes([1.0], [0.5, 0.5])


def test_majorization_deficit_rejects_unequal_last_axes_of_stacks():
    gen = stream(31)
    x, y = gen.standard_exponential((5, 3)), gen.standard_exponential((5, 4))
    x, y = x / x.sum(axis=-1, keepdims=True), y / y.sum(axis=-1, keepdims=True)
    with pytest.raises(DimensionMismatch, match=re.escape("shapes (5, 3) and (5, 4) do not pair")):
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
        x = sub.sample(("simplex",), 5)[0]
        assert majorizes(x, mixing(haar_unitary(5, sub)) @ x)


def test_majorization_transitive_on_mixing_chains():
    rng = RandomSource(51)
    for t in range(20):
        sub = rng.split(t)
        x = sub.sample(("simplex",), 4)[0]
        y = mixing(haar_unitary(4, sub)) @ x
        z = mixing(haar_unitary(4, sub.split(1))) @ y
        assert majorizes(x, y) and majorizes(y, z) and majorizes(x, z)


def test_qubit_merge_spectra_pair():
    # coarse-graining the diag(1/4, 3/4) estimate at b = 1/2 mixes its spectrum
    assert majorizes([0.75, 0.25], [7.0 / 12.0, 5.0 / 12.0])
    assert not majorizes([7.0 / 12.0, 5.0 / 12.0], [0.75, 0.25])


def test_composed_matrix_maps_outcomes_to_coarse_spectrum():
    from ergokit.measurement import Povm, coarse_grained_state, outcome_distribution

    rng = RandomSource(56)
    rho = random_density(4, 4, rng)
    fine = Povm(haar_unitary(4, rng))
    coarse = post_process(fine, random_column_stochastic(6, 4, rng))
    mapped = np.sort(link_matrix(coarse.post) @ outcome_distribution(rho, fine))
    coarse_spectrum = np.sort(np.clip(coarse_grained_state(rho, coarse).eigenvalues, 0.0, None))
    assert float(np.max(np.abs(mapped - coarse_spectrum))) <= 1e-10
    assert majorizes(outcome_distribution(rho, fine), mapped)


def test_majorization_deficit_signs():
    assert majorization_deficit([1.0, 0.0], [0.5, 0.5]) <= 0.0
    assert majorization_deficit([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)


def test_majorization_deficit_keeps_batch_axes():
    gen = stream(57)
    x = gen.standard_exponential((2, 5, 3))
    x /= x.sum(axis=-1, keepdims=True)
    y = (mixing(haar_from_ginibre(complex_normal(gen, (2, 5, 3, 3)))) @ x[..., np.newaxis])[..., 0]
    deficit = majorization_deficit(x, y)
    assert deficit.shape == (2, 5)
    assert np.array_equal(deficit, [[majorization_deficit(a, b) for a, b in zip(xs, ys)] for xs, ys in zip(x, y)])


class TestBistochasticFromUnitary:
    """Birkhoff: |U|^2 of a unitary is bistochastic, here for the package's Haar construction."""

    def test_identity(self):
        np.testing.assert_array_equal(mixing(haar_from_ginibre(np.eye(3, dtype=complex))), np.eye(3))

    def test_hadamard_like(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        np.testing.assert_allclose(mixing(haar_from_ginibre(h)), np.full((2, 2), 0.5), atol=1e-14)

    def test_haar_sample_row_and_column_sums(self):
        for d in (1, 3, 8, 64):
            b = mixing(haar_from_ginibre(complex_normal(stream(52), (5, d, d))))
            assert bistochastic_residual(b) <= TOL

    def test_maps_spectrum_to_diagonal(self):
        # |<k|V|i>|^2 applied to the eigenvalues recovers the matrix diagonal
        # when V's columns are the eigenvectors
        rho = random_density(4, 4, RandomSource(53))
        w, v = rho.eig()
        np.testing.assert_allclose(mixing(v) @ w, np.real(np.diag(rho.op)), atol=1e-10)


class TestRefinementBistochastic:
    """Lemma 1: over a unitary base the link B = link_matrix(D) is bistochastic (B p is the coarse
    estimate's spectrum: test_measurement.py::test_link_matrix_is_the_kernel_as_a_matrix)."""

    def test_identity_post_processing(self):
        m = post_process(computational_basis(3), StochasticMatrix(np.eye(3)))
        np.testing.assert_allclose(link_matrix(m.post), np.eye(3), atol=0.0)

    def test_qubit_merge_half(self):
        d = StochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]]))
        b = link_matrix(post_process(computational_basis(2), d).post)
        expected = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        np.testing.assert_allclose(b, expected, atol=1e-14)
        assert bistochastic_residual(b) <= TOL

    def test_random_composition_is_bistochastic(self):
        rng = RandomSource(54)
        d = random_column_stochastic(5, 4, rng)
        b = link_matrix(post_process(computational_basis(4), d).post)
        assert b.shape == (4, 4)
        assert bistochastic_residual(b) <= TOL

    def test_all_zero_row_gets_no_weight(self):
        # post_process keeps the dead coarse outcome and the kernel weighs it 0, so the live one holds everything and
        # B is uniform
        m = post_process(computational_basis(2), StochasticMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert m.n_outcomes == 2
        np.testing.assert_array_equal(link_matrix(m.post), [[0.5, 0.5], [0.5, 0.5]])


class TestSchurConcavity:
    """Passive energy is Schur-concave: when x majorizes y, passive_energy_of_spectrum(E, x) is at most that of y."""

    def test_hand_example(self):
        e = np.array([0.0, 1.0])
        assert passive_energy_of_spectrum(e, [1.0, 0.0]) <= passive_energy_of_spectrum(e, [0.5, 0.5])

    def test_equal_spectra(self):
        e, x = np.array([0.0, 0.3, 1.0]), [0.5, 0.3, 0.2]
        assert passive_energy_of_spectrum(e, x) == passive_energy_of_spectrum(e, x[::-1])

    def test_requires_majorization(self):
        # without x majorizing y the order can reverse: the pure spectrum has the lower passive energy
        e, x, y = np.array([0.0, 1.0]), [0.5, 0.5], [1.0, 0.0]
        assert not majorizes(x, y)
        assert passive_energy_of_spectrum(e, x) > passive_energy_of_spectrum(e, y)

    def test_permutation_mixing_keeps_passive_energy(self):
        e = np.array([0.0, 0.4, 1.0])
        x = np.array([0.6, 0.3, 0.1])
        y = mixing(np.eye(3)[:, [2, 0, 1]]) @ x
        assert passive_energy_of_spectrum(e, x) == passive_energy_of_spectrum(e, y)

    @pytest.mark.parametrize("c", [1.0, 1e8])
    def test_tolerance_scales_with_the_energies(self, c):
        """H -> cH keeps the verdict: mixing a roundoff away from the identity
        passes at any energy scale, and a gap well past roundoff still fails."""
        d = 8
        b = (1.0 - 1e-16) * np.eye(d) + 1e-16 * np.full((d, d), 1.0 / d)
        for t in range(200):
            gen = stream(88, (t,))
            e = c * np.sort(gen.random(d))
            x = simplex_point(gen.standard_exponential(d))
            assert passive_energy_of_spectrum(e, x) <= passive_energy_of_spectrum(e, b @ x) + energy_tol(d, c)
        # [0.5, 0.5] majorizes this y within LOOSE_TOL, yet its passive energy is lower by 5e-10 c
        x, y, e = [0.5, 0.5], [0.5 + 5e-10, 0.5 - 5e-10], np.array([0.0, c])
        assert majorizes(x, y)
        assert passive_energy_of_spectrum(e, x) > passive_energy_of_spectrum(e, y) + energy_tol(2, c)

    def test_random_mixing_chains(self):
        rng = RandomSource(55)
        for t in range(200):
            sub = rng.split(t)
            x = sub.sample(("simplex",), 4)[0]
            b = mixing(haar_unitary(4, sub))
            e = random_hamiltonian(4, sub).energies
            assert passive_energy_of_spectrum(e, x) <= passive_energy_of_spectrum(e, b @ x) + energy_tol(4, 1.0)
