"""Density matrices, Hamiltonians, energy dephasing, and seeded sampling.

All randomness flows through :class:`RandomSource`, an explicit value that
callers pass in and may split per trial; nothing touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidRank, InvalidState, NoConvergence, PreconditionFailed
from .linalg import adjoint, diagonal_in_basis, eig_hermitian, hermitian_part, operator_in_basis, require_hermitian, unchecked

# Eigenvalues of a state may dip this far below zero before it is rejected.
PSD_TOL = -1e-10
TRACE_TOL = 1e-10
# Draws of the levels random_hamiltonian makes before giving up on min_gap;
# a gap near the feasible limit is met with vanishing probability.
MAX_GAP_DRAWS = 1000


class RandomSource:
    """Deterministic, splittable random stream.

    The same (seed, path of splits) yields the same samples on every
    platform. ``split(i)`` derives an independent child stream, so audits
    hand stream i to trial i and get identical results for any chunking of
    the trials.
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
        mat = hermitian_part(require_hermitian(self.op, what="density matrix"))
        object.__setattr__(self, "eigenvalues", state_spectrum(mat))
        object.__setattr__(self, "op", mat)

    @classmethod
    def _in_basis(cls, basis: np.ndarray, spectrum: np.ndarray) -> "DensityMatrix":
        """basis diag(spectrum) basis^dag, for a unitary and a probability vector
        the package computed itself: neither validated nor eigensolved again."""
        return unchecked(cls, op=operator_in_basis(basis, spectrum), eigenvalues=np.sort(spectrum))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, tiny negatives clipped to 0."""
        return np.clip(self.eigenvalues, 0.0, None)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and the matching eigenvectors as columns."""
        return eig_hermitian(self.op)


def state_spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (or each in a stack); InvalidState unless unit trace and PSD."""
    defect = float(np.max(np.abs(np.trace(mat, axis1=-2, axis2=-1).real - 1.0)))
    if defect > TRACE_TOL:
        raise InvalidState(f"density matrix trace deviates from 1 by {defect:.3e} > {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh(mat)
    if float(np.min(w[..., 0])) < PSD_TOL:
        raise InvalidState(f"density matrix has eigenvalue {float(np.min(w[..., 0])):.3e} below {PSD_TOL:.0e}")
    return w


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian observable. Construction validates it and keeps its energies
    (ascending) and eigenbasis (column k the eigenvector of energy k)."""

    op: np.ndarray
    energies: np.ndarray = field(init=False, repr=False)
    eigenbasis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = require_hermitian(self.op, what="Hamiltonian")
        energies, basis = eig_hermitian(hermitian_part(mat))
        object.__setattr__(self, "op", mat)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "eigenbasis", basis)

    @property
    def dim(self) -> int:
        return self.op.shape[0]


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
    """Haar-distributed d x d unitary from a complex Ginibre draw."""
    if d < 1:
        raise PreconditionFailed(f"dimension must be positive, got {d}")
    return haar_from_ginibre(rng.complex_normal((d, d)))


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with R's diagonal phases absorbed: Haar for a Ginibre z. Leading axes are a batch."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def ginibre_state(g: np.ndarray) -> np.ndarray:
    """Hermitian part of G G^dag / tr(G G^dag) for a d x rank matrix G, or each in a stack."""
    rho = g @ adjoint(g)
    return hermitian_part(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis])


def random_density(d: int, rank: int, rng: RandomSource) -> DensityMatrix:
    """Hilbert-Schmidt-style random state: ``ginibre_state`` of a d x rank complex Gaussian matrix."""
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
    return DensityMatrix(ginibre_state(rng.complex_normal((d, rank))))


def random_levels(d: int, rng: RandomSource, min_gap: float = 0.0) -> np.ndarray:
    """Sorted uniform [0,1] energy levels. With ``min_gap`` > 0, resamples until all spacings
    reach the gap (needed wherever non-degeneracy is assumed), at most MAX_GAP_DRAWS times."""
    if d >= 2 and min_gap > 1.0 / (d - 1):
        raise PreconditionFailed(f"{d} levels in [0, 1] cannot all be {min_gap!r} apart (at most {1.0 / (d - 1)!r})")
    for _ in range(MAX_GAP_DRAWS):
        levels = np.sort(rng.uniform(d))
        if min_gap <= 0.0 or d < 2 or float(np.min(np.diff(levels))) >= min_gap:
            return levels
    raise NoConvergence(f"no level spacing of {min_gap!r} in {MAX_GAP_DRAWS} draws of {d} levels")


def random_hamiltonian(d: int, rng: RandomSource, min_gap: float = 0.0) -> Hamiltonian:
    """Random observable: ``random_levels`` conjugated by a Haar unitary. It is
    built from the levels and basis it drew, neither validated nor eigensolved."""
    levels = random_levels(d, rng, min_gap)
    basis = haar_unitary(d, rng)
    return unchecked(Hamiltonian, op=hermitian_part(operator_in_basis(basis, levels)), energies=levels, eigenbasis=basis)


def pure_state(vec) -> DensityMatrix:
    """Rank-1 projector onto a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise InvalidState("cannot normalize the zero vector")
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
