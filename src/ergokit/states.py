"""Density matrices, Hamiltonians, energy dephasing, and seeded sampling.

All randomness flows through :class:`RandomSource`, an explicit value that
callers pass in and may split per trial; nothing touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidRank, InvalidState, PreconditionFailed
from .linalg import (TOL, adjoint, as_matrix, diagonal_in_basis, eig_hermitian, hermitian_part, operator_in_basis,
                     require_hermitian, unchecked)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its k-th step xors INIT·MULT^k and multiplies
# by INIT·MULT^(k+1) mod 2^32, whatever the data. fill's names map to the Generator methods that take out=.
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715
_FILL = {"normal": "standard_normal", "uniform": "random", "exponential": "standard_exponential"}


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float or a string, which would key another stream."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _philox_keys(seq: np.random.SeedSequence, trials: range) -> np.ndarray:
    """``SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (t,)).generate_state(2, np.uint64)`` for each t < 2^32
    in trials: seq.pool has mixed max(4, seed words) + spawn-key words, four hash steps per uint32 word; the
    steps of word t and of the output run over uint32 arrays (a row per pool word)."""
    words = [(max(n.bit_length(), 1) + 31) // 32 for n in (seq.entropy, *seq.spawn_key)]
    steps = 4 * (max(4, words[0]) + sum(words[1:]))
    a, b = (np.array([c * pow(m, k, 1 << 32) % (1 << 32) for k in ks], np.uint32)[:, np.newaxis]
            for c, m, ks in ((_INIT_A, _MULT_A, range(steps, steps + 5)), (_INIT_B, _MULT_B, range(5))))
    h = (np.arange(trials.start, trials.stop, trials.step, dtype=np.uint32) ^ a[:-1]) * a[1:]  # hashmix(t)
    h ^= h >> 16
    h = seq.pool[:, np.newaxis] * _MIX_L - h * _MIX_R  # mix(pool word, hashmix(t))
    h ^= h >> 16
    h = (h ^ b[:-1]) * b[1:]  # the output hash
    h = (h ^ h >> 16).astype(np.uint64)
    return np.stack([h[0] | h[1] << 32, h[2] | h[3] << 32], axis=-1)


class RandomSource:
    """Deterministic, splittable random stream.

    The same (seed, path of splits) yields the same samples on every
    platform. ``split(i)`` derives an independent child stream, so audits
    hand stream i to trial i and get identical results for any chunking of
    the trials. ``fill`` draws many children bitwise as ``split`` would, re-keying
    one generator per child with SeedSequence's hash vectorised over the indices.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        if not is_integer(seed) or seed < 0:
            raise PreconditionFailed(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._key = _key
        self._seq = np.random.SeedSequence(self.seed, spawn_key=_key)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, index: int) -> "RandomSource":
        if not is_integer(index) or index < 0:
            raise PreconditionFailed(f"split index must be a non-negative integer, got {index!r}")
        return RandomSource(self.seed, self._key + (int(index),))

    def fill(self, trials: range, plan) -> None:
        """For (name, out) pairs in plan order, set ``out[i]`` to ``getattr(self.split(t), name)(out.shape[1:])``
        for the i-th t of trials (0 <= t < 2^32), name one of "normal", "uniform", "exponential"."""
        if trials and not all(0 <= t < 1 << 32 for t in (trials[0], trials[-1])):
            raise PreconditionFailed(f"trial indices must lie in [0, 2^32), got {trials}")
        gen = np.random.Generator(np.random.Philox(key=0))
        draws = [(getattr(gen, _FILL[name]), out) for name, out in plan]
        for i, key in enumerate(_philox_keys(self._seq, trials).tolist()):
            gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            for draw, out in draws:
                draw(out=out[i])

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def complex_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """Standard complex Gaussian: independent N(0, 1/2) real and imaginary parts."""
        z = self._gen.standard_normal((2, *shape))
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
    if defect > TOL:
        raise InvalidState(f"density matrix trace deviates from 1 by {defect:.3e} > {TOL:.0e}")
    w = np.linalg.eigvalsh(mat)
    if float(np.min(w[..., 0])) < -TOL:
        raise InvalidState(f"density matrix has eigenvalue {float(np.min(w[..., 0])):.3e} below {-TOL:.0e}")
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


def random_hamiltonian(d: int, rng: RandomSource) -> Hamiltonian:
    """Random observable: sorted uniform [0, 1] levels conjugated by a Haar unitary. It
    is built from the levels and basis it drew, neither validated nor eigensolved."""
    levels = np.sort(rng.uniform(d))
    basis = haar_unitary(d, rng)
    return unchecked(Hamiltonian, op=hermitian_part(operator_in_basis(basis, levels)), energies=levels, eigenbasis=basis)


def pure_state(vec) -> DensityMatrix:
    """Rank-1 projector onto a state vector, divided by its largest part before its norm so that neither under- nor overflows."""
    v = as_matrix([vec])[0]  # DimensionMismatch unless a non-empty 1-D vector
    scale = max(np.abs(v.real).max(), np.abs(v.imag).max())
    if scale == 0.0:
        raise InvalidState("cannot normalize the zero vector")
    v = v / scale
    v = v / np.linalg.norm(v)
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
