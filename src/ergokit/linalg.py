"""Dense complex linear algebra for operators up to a few hundred dimensions.

Everything downstream (states, measurements, work quantities) goes through
the handful of primitives here, and so does the one tolerance policy: TOL for
objects normalised to 1 (states, POVM elements, stochastic maps, unitaries)
and for Hermiticity relative to max|A|, LOOSE_TOL for completeness,
majorization and audit verdicts, and energy_tol for identities between
energies, which scales with H and has no absolute floor.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotHermitian, NotUnitary

# Dimensionless tolerance: unitarity, trace, sums and PSD floors of objects normalised to 1, and
# max |A - A^dag| relative to max |A|.
TOL = 1e-10
# Looser dimensionless tolerance: POVM completeness, majorization and the default audit verdict.
LOOSE_TOL = 1e-9


def energy_tol(dimension: int, energy_scale):
    """Roundoff tolerance of an energy identity in dimension d with max|E| = energy_scale (a float or an
    array): 16 d eps max|E|, floored only at the smallest normal float so that H = 0 still works."""
    return np.maximum(np.finfo(float).tiny, 16 * dimension * np.finfo(float).eps * energy_scale)


def _numeric(a, dtype, what: str) -> np.ndarray:
    """a as an array of dtype, with what it cannot read raised as an ErgokitError."""
    try:
        if (m := np.asarray(a)).dtype.kind in "USb" or m.dtype.kind == "O" and any(
                isinstance(x, (str, bytes, bool, np.bool_)) for x in m.flat):  # numpy would parse or count them
            raise TypeError(f"strings or booleans (dtype {m.dtype}) where numbers are read")
        if m.dtype.kind == "c" and dtype is float:  # a cast to float would drop imaginary parts
            raise TypeError(f"complex entries (dtype {m.dtype}) where real numbers are read")
        return m.astype(dtype, copy=False)
    except OverflowError as exc:  # an integer entry past the float range
        raise NonFinite(f"{what} has an entry past the float range: {exc}") from exc
    except (TypeError, ValueError) as exc:  # ragged rows, non-numeric or complex entries where floats are read
        raise DimensionMismatch(f"cannot read {what} as a numeric array: {exc}") from exc


def as_matrix(a, dtype=complex, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D array (or a stack of them) and reject empty axes and non-finite entries."""
    m = _numeric(a, dtype, "input")
    if (m.ndim != 2 and not (stack and m.ndim > 2)) or not m.size:
        raise DimensionMismatch(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    finite = np.isfinite(m.real) & np.isfinite(m.imag) if np.iscomplexobj(m) else np.isfinite(m)
    if not np.all(finite):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def as_vectors(a, what: str) -> tuple[np.ndarray, float]:
    """Coerce to a non-empty float vector (or a stack of them) and return it with max |entry|, which is finite: NaN
    and Inf propagate into that maximum, so the one pass that sizes the entries also rejects them."""
    v = _numeric(a, float, what)
    if not v.ndim or not v.size:
        raise DimensionMismatch(f"{what} must be a non-empty vector or a stack of them, got shape {v.shape}")
    top = float(np.abs(v).max())
    if not math.isfinite(top):
        raise NonFinite(f"{what} contains NaN or Inf entries")
    return v, top


def as_pair(x, xname: str, y, yname: str) -> tuple[np.ndarray, float, np.ndarray, float]:
    """x and y read by as_vectors, each with its max |entry|, as a pair: their last axes equal and their leading
    (batch) axes broadcasting together, which a single vector does with any batch. Told from the shapes alone,
    before any arithmetic; otherwise one DimensionMismatch naming both shapes, whichever kernel reads the pair."""
    (a, atop), (b, btop) = as_vectors(x, xname), as_vectors(y, yname)
    if a.shape[-1] != b.shape[-1] or min(a.ndim, b.ndim) > 1 and not all(
            m == n or 1 in (m, n) for m, n in zip(a.shape[-2::-1], b.shape[-2::-1])):
        raise DimensionMismatch(f"vectors of shapes {a.shape} and {b.shape} do not pair: the last axes must be equal "
                                "and the batch axes broadcast")
    return a, atop, b, btop


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """A/2 + A^dag/2, exactly Hermitian and halved before adding, so it cannot overflow; leading axes are a batch."""
    return a / 2.0 + adjoint(a) / 2.0


def require_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The Hermitian part of a square matrix with max |A - A^dag| <= TOL * max |A| and 4 d max |A| finite: mean
    minus passive energy, each at most d max |A| in size, then cannot overflow. The one acceptance of a Hermitian
    operator: states, Hamiltonians and dense POVM elements keep what it returns."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {a.shape}")
    scale = max_abs(a)
    if 4 * len(a) * scale > np.finfo(float).max:
        raise NonFinite(f"{what} has entries up to {scale:.3e}: 4 d max |A| is not finite at d = {len(a)}")
    defect = max_abs(a - adjoint(a))
    if defect > TOL * scale:
        raise NotHermitian(f"{what} is not Hermitian: max |A - A^dag| = {defect:.3e} > {TOL * scale:.1e}")
    return hermitian_part(a)


def require_unitary(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a matrix and check it is square with max |A^dag A - I| <= TOL."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotUnitary(f"{what} must be square to be unitary, got {a.shape}")
    defect = max_abs(adjoint(a) @ a - np.eye(len(a)))
    if defect > TOL:
        raise NotUnitary(f"{what} is not unitary: max |A^dag A - I| = {defect:.3e} > {TOL:.0e}")
    return a


def diagonal_in_basis(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real part of the diagonal of B^dag A B: the populations of A in the
    columns of B, in O(d^3) with one product. Leading axes are a batch."""
    return np.real(np.sum(np.conj(basis) * (a @ basis), axis=-2))


def operator_in_basis(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """hermitian_part(B diag(values) B^dag), exactly Hermitian: the operator with eigenvectors the columns of B and
    eigenvalues ``values``, by the one rule that makes an operator from a basis. Leading axes broadcast as a batch."""
    return hermitian_part((basis * values[..., np.newaxis, :]) @ adjoint(basis))


def unchecked(cls, **fields):
    """Instance of a frozen dataclass with the given fields, skipping its
    ``__post_init__``. Only for objects the package computed itself from
    validated inputs, so that they are not validated (or eigensolved) again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj

