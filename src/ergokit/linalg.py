"""Dense complex linear algebra for operators up to a few hundred dimensions.

Everything downstream (states, measurements, work quantities) goes through
the handful of primitives here. Each module keeps the tolerances of the
objects it validates as read-only constants; the Hermiticity and unitarity
tolerances live here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFinite, NotHermitian, NotUnitary

# Max-entry tolerance on |A - A^dag| / max(1, max |A|) for an input to count as Hermitian.
HERMITICITY_TOL = 1e-10
# Max-entry tolerance on |A^dag A - I| for an input to count as unitary.
UNITARY_TOL = 1e-10


def as_matrix(a, dtype=complex, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D array (or a stack of them) and reject non-finite entries."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    finite = np.isfinite(m.real) & np.isfinite(m.imag) if np.iscomplexobj(m) else np.isfinite(m)
    if not np.all(finite):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2, exactly Hermitian; leading axes are a batch."""
    return (a + adjoint(a)) / 2.0


def require_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Coerce to a square matrix with max |A - A^dag| <= HERMITICITY_TOL * max(1, max |A|)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {a.shape}")
    defect, tol = max_abs(a - adjoint(a)), HERMITICITY_TOL
    if defect > tol and defect > tol * max_abs(a):  # the scale is read only when the defect exceeds tol
        raise NotHermitian(f"{what} is not Hermitian: max |A - A^dag| = {defect:.3e} > {tol * max(1.0, max_abs(a)):.1e}")
    return a


def require_unitary(a, what: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a matrix (or a stack) and check each is square with max |A^dag A - I| <= UNITARY_TOL."""
    a = as_matrix(a, stack=stack)
    if a.shape[-1] != a.shape[-2]:
        raise NotUnitary(f"{what} must be square to be unitary, got {a.shape}")
    defect = max_abs(adjoint(a) @ a - np.eye(a.shape[-1]))
    if defect > UNITARY_TOL:
        raise NotUnitary(f"{what} is not unitary: max |A^dag A - I| = {defect:.3e} > {UNITARY_TOL:.0e}")
    return a


def diagonal_in_basis(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real part of the diagonal of B^dag A B: the populations of A in the
    columns of B, in O(d^3) with one product. Leading axes are a batch."""
    return np.real(np.sum(np.conj(basis) * (a @ basis), axis=-2))


def operator_in_basis(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """B diag(values) B^dag: the operator with eigenvectors the columns of B
    and eigenvalues ``values``. Leading axes of both broadcast as a batch."""
    return (basis * values[..., np.newaxis, :]) @ adjoint(basis)


def unchecked(cls, **fields):
    """Instance of a frozen dataclass with the given fields, skipping its
    ``__post_init__``. Only for objects the package computed itself from
    validated inputs, so that they are not validated (or eigensolved) again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix the package has
    already validated, as np.linalg.eigh returns them: ascending, with
    column k the unit eigenvector of eigenvalue k. LAPACK orders degenerate
    eigenvalues deterministically, so sorted quantities repeat run to run."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is pathological
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
