import numpy as np
import pytest

from ergokit import linalg
from ergokit.errors import NotHermitian, NotUnitary
from ergokit.linalg import (
    adjoint,
    diagonal_in_basis,
    hermitian_part,
    max_abs,
    operator_in_basis,
    require_hermitian,
    require_unitary,
)
from ergokit.states import Hamiltonian, RandomSource, haar_unitary

from _oracles import complex_normal, stream

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(d, seed):
    g = complex_normal(stream(seed), (d, d))
    return g + adjoint(g)


def eig(a):
    """The library's one kept eigensolve: a Hamiltonian's ascending energies and its eigenbasis."""
    h = Hamiltonian(a)
    return h.energies, h.eigenbasis


def test_tolerance_constants():
    assert linalg.TOL == 1e-10
    assert linalg.LOOSE_TOL == 1e-9


def test_eig_diagonal():
    w, v = eig(np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-14)
    # columns are the standard basis up to phase
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12
    assert abs(abs(v[1, 1]) - 1.0) < 1e-12


def test_eig_pauli_x():
    w, v = eig(PAULI_X)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(minus, v[:, 0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(plus, v[:, 1])) - 1.0) < 1e-12


def test_eig_reconstructs_random_hermitian():
    a = random_hermitian(8, seed=11)
    w, v = eig(a)
    rebuilt = (v * w) @ adjoint(v)
    assert max_abs(rebuilt - a) <= 1e-9 * max(1.0, max_abs(a))
    assert max_abs(adjoint(v) @ v - np.eye(8)) <= 1e-10


def test_eig_sorted_ascending():
    a = random_hermitian(12, seed=3)
    w, _ = eig(a)
    assert np.all(np.diff(w) >= 0.0)


def test_eig_invariant_under_conjugation():
    a = random_hermitian(6, seed=5)
    u = haar_unitary(6, RandomSource(6))
    before, _ = eig(a)
    after, _ = eig(u @ a @ adjoint(u))
    np.testing.assert_allclose(before, after, atol=1e-9)


def test_eig_handles_dimension_64():
    a = random_hermitian(64, seed=64)
    w, v = eig(a)
    rebuilt = (v * w) @ adjoint(v)
    assert max_abs(rebuilt - a) <= 1e-9 * max(1.0, max_abs(a))


def test_eig_eigenpairs_satisfy_definition():
    a = random_hermitian(7, seed=21)
    w, v = eig(a)
    for k in range(7):
        residual = a @ v[:, k] - w[k] * v[:, k]
        assert max_abs(residual) <= 1e-10 * max(1.0, max_abs(a))


def test_adjoint_involution():
    a = complex_normal(stream(2), (4, 2))
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


def test_hermiticity_tolerance_is_relative_to_scale():
    # max |A - A^dag| is compared with TOL * max |A|
    unit = PAULI_X.copy()
    unit[0, 1] += 5e-10
    with pytest.raises(NotHermitian):
        require_hermitian(unit)
    large = 1e7 * PAULI_X
    large[0, 1] += 5e-10  # roundoff-sized at this scale
    np.testing.assert_array_equal(require_hermitian(large), large)
    large[0, 1] += 10.0  # a relative asymmetry of 1e-6
    with pytest.raises(NotHermitian):
        require_hermitian(large)


def test_batched_helpers_match_one_matrix_at_a_time():
    rng = RandomSource(6)
    basis = np.stack([haar_unitary(3, rng.split(k)) for k in range(5)])
    values = stream(6).random((5, 3))
    ops = operator_in_basis(basis, values)
    for k in range(5):
        np.testing.assert_array_equal(ops[k], operator_in_basis(basis[k], values[k]))
        np.testing.assert_array_equal(adjoint(ops)[k], adjoint(ops[k]))
        np.testing.assert_array_equal(hermitian_part(ops)[k], hermitian_part(ops[k]))
        np.testing.assert_array_equal(diagonal_in_basis(ops, basis)[k], diagonal_in_basis(ops[k], basis[k]))
    np.testing.assert_allclose(diagonal_in_basis(ops, basis), values, atol=1e-14)
