"""Dense complex linear algebra for operators up to a few hundred dimensions.

Everything downstream (states, measurements, work quantities) goes through
the handful of primitives here, so the tolerances are centralized in this
module and treated as read-only constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotUnitary

# Max-entry tolerance on |A - A^dag| for an input to count as Hermitian.
HERMITICITY_TOL = 1e-10
# Max-entry tolerance on reconstruction/unitarity residuals of eigendecompositions.
RESIDUAL_TOL = 1e-9
# Max-entry tolerance on |A^dag A - I| for an input to count as unitary.
UNITARY_TOL = 1e-10


def as_matrix(a, dtype=complex) -> np.ndarray:
    """Coerce to a 2-D array and reject non-finite entries."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    finite = np.isfinite(m.real) & np.isfinite(m.imag) if np.iscomplexobj(m) else np.isfinite(m)
    if not np.all(finite):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL, what: str = "matrix") -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {a.shape}")
    defect = max_abs(a - adjoint(a))
    if defect > tol:
        raise NotHermitian(f"{what} is not Hermitian: max |A - A^dag| = {defect:.3e} > {tol:.0e}")
    return a


def require_unitary(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a matrix and check it is square with max |A^dag A - I| <= UNITARY_TOL."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotUnitary(f"{what} must be square to be unitary, got {a.shape}")
    defect = max_abs(adjoint(a) @ a - np.eye(a.shape[0]))
    if defect > UNITARY_TOL:
        raise NotUnitary(f"{what} is not unitary: max |A^dag A - I| = {defect:.3e} > {UNITARY_TOL:.0e}")
    return a


def diagonal_in_basis(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real part of the diagonal of B^dag A B: the populations of A in the
    columns of B, in O(d^3) with one product."""
    return np.real(np.sum(np.conj(basis) * (a @ basis), axis=0))


def unchecked(cls, **fields):
    """Instance of a frozen dataclass with the given fields, skipping its
    ``__post_init__``. Only for objects the package computed itself from
    validated inputs, so that they are not validated (or eigensolved) again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    Eigenvalues are real and ascending; column k of `eigenvectors` is the
    unit eigenvector paired with eigenvalue k. Degenerate eigenvalues keep a
    deterministic order (stable sort), so downstream sorted quantities are
    reproducible run to run.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within `tol` (max-entry). The numerically
    exact Hermitian part (A + A^dag)/2 is decomposed so that roundoff in the
    input cannot leak into complex eigenvalues.
    """
    a = require_hermitian(a, tol=tol)
    herm = (a + adjoint(a)) / 2.0
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is pathological
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(eigenvalues=np.ascontiguousarray(w[order]),
                              eigenvectors=np.ascontiguousarray(v[:, order]))

