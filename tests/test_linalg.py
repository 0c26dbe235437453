import numpy as np
import pytest

from ergokit import linalg
from ergokit.errors import NotHermitian, NotUnitary
from ergokit.linalg import adjoint, diagonal_in_basis, eig_hermitian, max_abs, require_unitary
from ergokit.states import RandomSource, haar_unitary

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(d, seed):
    rng = RandomSource(seed)
    g = rng.complex_normal((d, d))
    return g + adjoint(g)


def test_tolerance_constants():
    assert linalg.HERMITICITY_TOL == 1e-10
    assert linalg.RESIDUAL_TOL == 1e-9


def test_eig_diagonal():
    dec = eig_hermitian(np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-14)
    # columns are the standard basis up to phase
    assert abs(abs(dec.eigenvectors[0, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.eigenvectors[1, 1]) - 1.0) < 1e-12


def test_eig_pauli_x():
    dec = eig_hermitian(PAULI_X)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(minus, dec.eigenvectors[:, 0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(plus, dec.eigenvectors[:, 1])) - 1.0) < 1e-12


def test_eig_reconstructs_random_hermitian():
    a = random_hermitian(8, seed=11)
    dec = eig_hermitian(a)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ adjoint(dec.eigenvectors)
    assert max_abs(rebuilt - a) <= 1e-9 * max(1.0, max_abs(a))
    assert max_abs(adjoint(dec.eigenvectors) @ dec.eigenvectors - np.eye(8)) <= 1e-10


def test_eig_sorted_ascending():
    a = random_hermitian(12, seed=3)
    dec = eig_hermitian(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)


def test_eig_invariant_under_conjugation():
    a = random_hermitian(6, seed=5)
    u = haar_unitary(6, RandomSource(6))
    before = eig_hermitian(a).eigenvalues
    after = eig_hermitian(u @ a @ adjoint(u)).eigenvalues
    np.testing.assert_allclose(before, after, atol=1e-9)


def test_eig_handles_dimension_64():
    a = random_hermitian(64, seed=64)
    dec = eig_hermitian(a)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ adjoint(dec.eigenvectors)
    assert max_abs(rebuilt - a) <= 1e-9 * max(1.0, max_abs(a))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eig_eigenpairs_satisfy_definition():
    a = random_hermitian(7, seed=21)
    dec = eig_hermitian(a)
    for k in range(7):
        residual = a @ dec.eigenvectors[:, k] - dec.eigenvalues[k] * dec.eigenvectors[:, k]
        assert max_abs(residual) <= 1e-10 * max(1.0, max_abs(a))


def test_adjoint_involution():
    a = RandomSource(2).complex_normal((4, 2))
    np.testing.assert_allclose(adjoint(adjoint(a)), a, atol=0.0)


def test_require_unitary_haar_sample():
    u = haar_unitary(6, RandomSource(13))
    # the oracle is the explicit residual itself
    assert max_abs(adjoint(u) @ u - np.eye(6)) <= 1e-10
    np.testing.assert_array_equal(require_unitary(u), u)


def test_require_unitary_rejections():
    with pytest.raises(NotUnitary):
        require_unitary(np.ones((2, 3)))
    with pytest.raises(NotUnitary):
        require_unitary(2.0 * np.eye(3))


def test_diagonal_in_basis_matches_explicit_product():
    a = random_hermitian(5, seed=31)
    u = haar_unitary(5, RandomSource(32))
    np.testing.assert_allclose(diagonal_in_basis(a, u), np.real(np.diag(adjoint(u) @ a @ u)), atol=1e-12)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
