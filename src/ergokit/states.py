"""Density matrices, Hamiltonians, energy dephasing, and seeded sampling.

All randomness flows through :class:`RandomSource`, an explicit value that
callers pass in and may split per trial; nothing touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidRank, NoConvergence, PreconditionFailed
from .linalg import EigenDecomposition, adjoint, diagonal_in_basis, eig_hermitian, require_hermitian, unchecked

# Eigenvalues of a state may dip this far below zero before it is rejected.
PSD_TOL = -1e-10
TRACE_TOL = 1e-10
# Draws of the levels random_hamiltonian makes before giving up on min_gap;
# a gap near the feasible limit is met with vanishing probability.
MAX_GAP_DRAWS = 1000


class RandomSource:
    """Deterministic, splittable random stream.

    The same (seed, path of splits) yields the same samples on every
    platform. ``split(i)`` derives an independent child stream, so audits can
    hand stream i to trial i and get identical results whether the trials run
    serially or in parallel.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = _key
        seq = np.random.SeedSequence(self.seed, spawn_key=_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def split(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, self._key + (int(index),))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex Gaussian: independent N(0, 1/2) real and imaginary parts."""
        z = self._gen.standard_normal((2,) + tuple(np.atleast_1d(shape)))
        return (z[0] + 1j * z[1]) / np.sqrt(2.0)

    def uniform(self, shape=None) -> np.ndarray:
        return self._gen.uniform(size=shape)

    def exponential(self, shape=None) -> np.ndarray:
        return self._gen.standard_exponential(size=shape)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, key={self._key})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite operator; rejected at construction
    otherwise. The ascending eigenvalues that validation computes are kept."""

    op: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = require_hermitian(self.op, what="density matrix")
        mat = (mat + adjoint(mat)) / 2.0
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1 within {TRACE_TOL:.0e}")
        w = np.linalg.eigvalsh(mat)
        if float(w[0]) < PSD_TOL:
            raise ValueError(f"density matrix has eigenvalue {float(w[0]):.3e} below {PSD_TOL:.0e}")
        object.__setattr__(self, "op", mat)
        object.__setattr__(self, "eigenvalues", w)

    @classmethod
    def _in_basis(cls, basis: np.ndarray, spectrum: np.ndarray) -> "DensityMatrix":
        """basis diag(spectrum) basis^dag, for a unitary and a probability vector
        the package computed itself: neither validated nor eigensolved again."""
        return unchecked(cls, op=(basis * spectrum) @ adjoint(basis), eigenvalues=np.sort(spectrum))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, tiny negatives clipped to 0."""
        return np.clip(self.eigenvalues, 0.0, None)

    def eig(self) -> EigenDecomposition:
        return eig_hermitian(self.op)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian observable with a cached ascending eigendecomposition."""

    op: np.ndarray
    eig: EigenDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        mat = require_hermitian(self.op, what="Hamiltonian")
        object.__setattr__(self, "op", mat)
        object.__setattr__(self, "eig", eig_hermitian(mat))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @property
    def energies(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self.eig.eigenvalues

    @property
    def eigenbasis(self) -> np.ndarray:
        """Unitary whose column k is the eigenvector of the k-th smallest energy."""
        return self.eig.eigenvectors


def _check_same_dim(rho: DensityMatrix, h: Hamiltonian) -> None:
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state is {rho.dim}-dimensional but Hamiltonian is {h.dim}-dimensional")


def mean_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    _check_same_dim(rho, h)
    return float(np.trace(h.op @ rho.op).real)


def dephase(rho: DensityMatrix, h: Hamiltonian) -> DensityMatrix:
    """Drop all off-diagonal elements of rho in the energy eigenbasis.

    Uses the Hamiltonian's cached (tie-broken) rank-1 eigenbasis, so the
    result is deterministic even for degenerate spectra. Trace and average
    energy are preserved; the result's spectrum is rho's energy populations.
    """
    _check_same_dim(rho, h)
    v = h.eigenbasis
    return DensityMatrix._in_basis(v, diagonal_in_basis(rho.op, v))


def haar_unitary(d: int, rng: RandomSource) -> np.ndarray:
    """Haar-distributed d x d unitary (complex Ginibre, then QR with the
    R-diagonal phases absorbed into Q)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    z = rng.complex_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_density(d: int, rank: int, rng: RandomSource) -> DensityMatrix:
    """Hilbert-Schmidt-style random state: G G^dag / tr(G G^dag) with G a
    d x rank complex Gaussian matrix."""
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
    g = rng.complex_normal((d, rank))
    rho = g @ adjoint(g)
    return DensityMatrix(rho / np.trace(rho).real)


def random_hamiltonian(d: int, rng: RandomSource, min_gap: float = 0.0) -> Hamiltonian:
    """Random observable: sorted uniform [0,1] eigenvalues conjugated by a
    Haar unitary. With ``min_gap`` > 0, resamples until all level spacings
    exceed the gap (needed wherever non-degeneracy is assumed), at most
    MAX_GAP_DRAWS times."""
    if d >= 2 and min_gap > 1.0 / (d - 1):
        raise PreconditionFailed(f"{d} levels in [0, 1] cannot all be {min_gap!r} apart (at most {1.0 / (d - 1)!r})")
    for _ in range(MAX_GAP_DRAWS):
        levels = np.sort(rng.uniform(d))
        if min_gap <= 0.0 or d < 2 or float(np.min(np.diff(levels))) >= min_gap:
            break
    else:
        raise NoConvergence(f"no level spacing of {min_gap!r} in {MAX_GAP_DRAWS} draws of {d} levels")
    u = haar_unitary(d, rng)
    mat = (u * levels) @ adjoint(u)
    return Hamiltonian((mat + adjoint(mat)) / 2.0)


def pure_state(vec) -> DensityMatrix:
    """Rank-1 projector onto a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    v = v / norm
    return DensityMatrix(np.outer(v, np.conj(v)))


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d) / d)


def diagonal_hamiltonian(energies) -> Hamiltonian:
    return Hamiltonian(np.diag(np.asarray(energies, dtype=float)).astype(complex))


def diagonal_state(populations) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(populations, dtype=float)).astype(complex))


__all__ = [
    "DensityMatrix",
    "Hamiltonian",
    "RandomSource",
    "dephase",
    "diagonal_hamiltonian",
    "diagonal_state",
    "haar_unitary",
    "maximally_mixed",
    "mean_energy",
    "pure_state",
    "random_density",
    "random_hamiltonian",
]
