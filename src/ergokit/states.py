"""Density matrices, Hamiltonians, energy dephasing, and seeded sampling.

All randomness flows through :class:`RandomSource`, an explicit value that
callers pass in and may split per trial; nothing touches global RNG state.
Constructors and audits alike build each random kind through
``RandomSource.sample`` from its one entry in ``recipes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidState, PreconditionFailed
from .linalg import (TOL, adjoint, diagonal_in_basis, hermitian_part, operator_in_basis, require_hermitian,
                     unchecked)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its k-th step xors INIT·MULT^k and multiplies
# by INIT·MULT^(k+1) mod 2^32, whatever the data. _FILL maps draw names to the Generator methods that take out=.
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715
_FILL = {"normal": "standard_normal", "uniform": "random", "exponential": "standard_exponential"}


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float or a string, which would key another stream."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(value, what: str, low: int, high: int | None = None) -> int:
    """int(value) for an integer (``is_integer``) with low <= value <= high, unbounded above if high is None (then
    low is 0 or 1); otherwise PreconditionFailed naming what and the range. The one check of every integer argument
    taken: a size, rank, seed or index out of range, an instance file's dimension included, is PreconditionFailed
    wherever it enters."""
    if is_integer(value) and low <= value and (high is None or value <= high):
        return int(value)
    bound = (f"an integer in [{low}, {high}]" if high is not None else
             "a positive integer" if low else "a non-negative integer")
    raise PreconditionFailed(f"{what} must be {bound}, got {value!r}")


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
    the trials. ``sample`` over a range of trials draws many children bitwise as
    ``split`` would, re-keying one generator per child with SeedSequence's hash
    vectorised over the indices.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = require_int(seed, "seed", 0)
        self._key = _key
        self._seq = np.random.SeedSequence(self.seed, spawn_key=_key)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, self._key + (require_int(index, "split index", 0),))

    def sample(self, kinds, d: int, n: int = 1, rank: int | None = None, trials: range | None = None) -> list:
        """The stacks ``recipes(d, n, rank)`` builds for ``kinds``, in order; rank None is full rank d. Trials None draws
        from this stream itself; a range (0 <= t < 2^32) draws row i from ``split(trials[i])``, which alone samples the
        same row bit for bit. Every argument is checked before the first draw, so a rejected call leaves the stream
        where it was."""
        table = recipes(d, n, d if rank is None else rank)
        for kind in kinds:
            if kind not in table:
                raise PreconditionFailed(f"unknown random kind {kind!r} (expected one of: {', '.join(table)})")
        ends = (trials[0], trials[-1]) if isinstance(trials, range) and trials else ()
        if trials is not None and not (isinstance(trials, range) and all(0 <= t < 1 << 32 for t in ends)):
            raise PreconditionFailed(f"trials must be None or a range within [0, 2^32), got {trials!r}")
        plan = [draw for kind in kinds for draw in table[kind][0]]
        if trials is None:
            draws = [getattr(self._gen, _FILL[name])(shape) for name, shape in plan]
        else:  # one generator re-keyed per trial, its draw methods bound once
            gen = np.random.Generator(np.random.Philox(key=0))
            draws = [np.empty((len(trials), *shape)) for _, shape in plan]
            bound = [(getattr(gen, _FILL[name]), out) for (name, _), out in zip(plan, draws)]
            for i, key in enumerate(_philox_keys(self._seq, trials).tolist()):
                gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                                           "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
                for draw, out in bound:
                    draw(out=out[i])
        draws = iter(draws)
        return [stack for kind in kinds for stack in table[kind][1](*(next(draws) for _ in table[kind][0]))]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, key={self._key})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite operator; rejected at construction otherwise. The ascending eigenvalues that
    validation computes are kept. Its operator is exactly Hermitian: validation keeps ``require_hermitian``'s result,
    ``random_density`` a Hermitian part, and every state the package derives is built by ``_in_basis``."""

    op: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = require_hermitian(self.op, what="density matrix")
        defect = abs(float(np.trace(mat).real) - 1.0)
        if defect > TOL:
            raise InvalidState(f"density matrix trace deviates from 1 by {defect:.3e} > {TOL:.0e}")
        w = np.linalg.eigvalsh(mat)
        if float(w[0]) < -TOL:
            raise InvalidState(f"density matrix has eigenvalue {float(w[0]):.3e} below {-TOL:.0e}")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "op", mat)

    @classmethod
    def _in_basis(cls, basis: np.ndarray, weights: np.ndarray) -> "DensityMatrix":
        """sum_j w_j v_j v_j^dag over basis's unit columns (operator_in_basis), not validated again: the one builder of
        derived states. Its eigenvalues are the sorted weights over a square (unitary) basis, else one eigvalsh."""
        op, square = operator_in_basis(basis, weights), basis.shape[0] == basis.shape[1]
        return unchecked(cls, op=op, eigenvalues=np.sort(weights) if square else np.linalg.eigvalsh(op))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept ascending eigenvalues and the matching eigenvectors as columns."""
        return self.eigenvalues, np.linalg.eigh(self.op)[1]


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian observable. Construction validates it and keeps its energies
    (ascending) and eigenbasis (column k the eigenvector of energy k)."""

    op: np.ndarray
    energies: np.ndarray = field(init=False, repr=False)
    eigenbasis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = require_hermitian(self.op, what="Hamiltonian")
        energies, basis = np.linalg.eigh(mat)
        object.__setattr__(self, "op", mat)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "eigenbasis", basis)

    @property
    def dim(self) -> int:
        return self.op.shape[0]


def _check_same_dim(rho: DensityMatrix, h: Hamiltonian) -> None:
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state is {rho.dim}-dimensional but Hamiltonian is {h.dim}-dimensional")


def energy_populations(rho: DensityMatrix, h: Hamiltonian) -> np.ndarray:
    """rho's populations p_k = <E_k|rho|E_k> in the Hamiltonian's (tie-broken) eigenbasis: tr(H rho) is sum_k E_k p_k."""
    _check_same_dim(rho, h)
    return diagonal_in_basis(rho.op, h.eigenbasis)


def dephase(rho: DensityMatrix, h: Hamiltonian) -> DensityMatrix:
    """Drop all off-diagonal elements of rho in the energy eigenbasis: the state diag(p) of ``energy_populations``,
    read in the Hamiltonian's cached (tie-broken) eigenbasis, so deterministic even for degenerate spectra. Trace
    and average energy are preserved."""
    return DensityMatrix._in_basis(h.eigenbasis, energy_populations(rho, h))


def _complex_pairs(z: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from real ones paired on axis -3: independent N(0, 1/2) real and imaginary parts."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with R's diagonal phases absorbed: Haar for a Ginibre z. Leading axes are a batch."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def ginibre_state(g: np.ndarray) -> np.ndarray:
    """Hermitian part of G G^dag / tr(G G^dag) for a d x rank matrix G, or each in a stack."""
    rho = g @ adjoint(g)
    return hermitian_part(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis])


def recipes(d: int, n: int, rank: int) -> dict:
    """Each random kind's one recipe at dimension d, n outcomes and state rank: kind -> (its draws in stream
    order as (draw name, shape), the builder of their stacks into a list; leading axes are a batch). "hamiltonian" builds
    its ascending levels and their Haar eigenbasis (no operator); "levels" makes the same draws but keeps the levels
    alone, so later kinds' draws do not move. What a builder returns holds as built and is not validated again."""
    d, n = require_int(d, "dimension", 1), require_int(n, "outcome count", 1)  # checked here, in this order
    rank = require_int(rank, "rank", 1, d)
    gaussians = ("normal", (2, d, d))
    hamiltonian = [("uniform", (d,)), gaussians]
    return {"state": ([("normal", (2, d, rank))], lambda z: [ginibre_state(_complex_pairs(z))]),
            "hamiltonian": (hamiltonian, lambda e, z: [np.sort(e, axis=-1), haar_from_ginibre(_complex_pairs(z))]),
            "levels": (hamiltonian, lambda e, z: [np.sort(e, axis=-1)]),
            "haar": ([gaussians], lambda z: [haar_from_ginibre(_complex_pairs(z))]),
            "post": ([("exponential", (n, d))], lambda x: [x / x.sum(axis=-2, keepdims=True)]),
            "simplex": ([("exponential", (d,))], lambda x: [x / x.sum(axis=-1, keepdims=True)])}


def haar_unitary(d: int, rng: RandomSource) -> np.ndarray:
    """Haar-distributed d x d unitary from a complex Ginibre draw."""
    return rng.sample(("haar",), d)[0]


def random_density(d: int, rank: int, rng: RandomSource) -> DensityMatrix:
    """Hilbert-Schmidt-style random state of the given rank (recipe "state"), exactly Hermitian, unit-trace and PSD
    by construction, so only its eigenvalues are computed."""
    op = rng.sample(("state",), d, rank=rank)[0]
    return unchecked(DensityMatrix, op=op, eigenvalues=np.linalg.eigvalsh(op))


def random_hamiltonian(d: int, rng: RandomSource) -> Hamiltonian:
    """Random observable: sorted uniform [0, 1] levels conjugated by a Haar unitary (recipe "hamiltonian"). It
    is built from the levels and basis it drew, neither validated nor eigensolved."""
    levels, basis = rng.sample(("hamiltonian",), d)
    return unchecked(Hamiltonian, op=operator_in_basis(basis, levels), energies=levels, eigenbasis=basis)


__all__ = [
    "DensityMatrix",
    "Hamiltonian",
    "RandomSource",
    "dephase",
    "energy_populations",
    "haar_unitary",
    "random_density",
    "random_hamiltonian",
    "recipes",
]
