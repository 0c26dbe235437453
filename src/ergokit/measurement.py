"""POVMs, classical post-processing, and coarse-grained state estimates.

A measurement here is a finite POVM. Fine-grained measurements (rank-1
projective) are the informationally sharpest ones; applying a
column-stochastic matrix to the outcomes coarsens them. The
coarse-grained state is the maximum-ignorance estimate of the input state
consistent with the observed outcome statistics. Every measurement is kept
as rank-1 projectors of volume 1 (a base of unit columns) and weights D, and
every estimate comes from one Lemma 1 formula over them; over a square
(unitary) base the estimate's spectrum is vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidPovm, NotStochastic
from .linalg import (LOOSE_TOL, TOL, as_matrix, diagonal_in_basis, energy_tol, max_abs, operator_in_basis,
                     require_hermitian, require_unitary, unchecked)
from .states import DensityMatrix, Hamiltonian, RandomSource, _check_same_dim, require_int


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Column-stochastic post-processing map: entry (i, j) is the probability
    of reporting outcome i given raw outcome j."""

    entries: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.entries, dtype=float)
        low, high = float(np.min(m)), float(np.max(m))
        if low < 0.0 or high > 1.0 + TOL:  # before summing, so that the column sums cannot overflow
            raise NotStochastic(f"stochastic matrix has entry {low if low < 0.0 else high:.3e} outside [0, 1]")
        col_defect = max_abs(m.sum(axis=0) - 1.0)
        if col_defect > TOL:
            raise NotStochastic(f"column sums deviate from 1 by {col_defect:.3e} > {TOL:.0e}")
        object.__setattr__(self, "entries", m)

    @property
    def n_in(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite POVM kept as rank-1 projectors and weights: element i is
    sum_j D[i, j] v_j v_j^dag over the unit columns v_j of ``base`` (d x K),
    with D = ``post`` nonnegative. Column j of D sums to v_j's weight in the
    identity, so D is column-stochastic only over a unitary base.

    ``Povm(U)`` takes a unitary U, the fine-grained measurement onto its
    columns, and sets D = I. ``Povm(stack)`` validates a dense (k, d, d)
    stack once, with one batched eigensolve, and keeps each element's
    eigenvectors of eigenvalue above the roundoff floor energy_tol(d, its
    largest), those eigenvalues as D's entries; a zero element, a valid
    effect, keeps none, and the estimate gives its outcome no weight.
    Element matrices are built only when ``elements`` is read; a dense stack
    seeds that cache with its validated Hermitian part.
    """

    base: np.ndarray
    post: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        base = as_matrix(self.base, stack=True)  # DimensionMismatch for an empty or ragged base
        if base.ndim == 2:
            base, post = require_unitary(base, what="basis"), np.eye(len(base))
        else:
            stack = np.stack([require_hermitian(e, f"POVM element {k}") for k, e in enumerate(base)])
            values, vectors = np.linalg.eigh(stack)
            k = int(np.argmin(values[:, 0]))
            if float(values[k, 0]) < -TOL:
                raise InvalidPovm(f"POVM element {k} has eigenvalue {float(values[k, 0]):.3e} below {-TOL:.0e}")
            defect = max_abs(stack.sum(axis=0) - np.eye(stack.shape[-1]))
            if defect > LOOSE_TOL:
                raise InvalidPovm(f"POVM elements sum to identity within {defect:.3e} > {LOOSE_TOL:.0e}")
            kept = values > energy_tol(stack.shape[-1], values[:, -1:])
            owner = np.nonzero(kept)[0]  # the element each kept eigenvector belongs to
            base = np.swapaxes(vectors, 1, 2)[kept].T
            post = np.where(owner == np.arange(len(stack))[:, np.newaxis], values[kept], 0.0)
            object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "post", post)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.post.shape[0]

    @property
    def volumes(self) -> np.ndarray:
        """tr N_i = sum_j D_ij of each element: the dimension-weight of its maximum-ignorance ensemble."""
        return self.post.sum(axis=-1)

    @cached_property
    def elements(self) -> np.ndarray:
        """Element matrices as one (k, d, d) array, built on first access."""
        return operator_in_basis(self.base, self.post)


def computational_basis(d: int) -> Povm:
    d = require_int(d, "dimension", 1)
    return unchecked(Povm, base=np.eye(d, dtype=complex), post=np.eye(d))


def random_column_stochastic(n_out: int, n_in: int, rng: RandomSource) -> StochasticMatrix:
    """Sample each column uniformly on the probability simplex (recipe "post"); column-stochastic by
    construction, so not validated again."""
    return unchecked(StochasticMatrix, entries=rng.sample(("post",), n_in, n_out)[0])


def post_process(p: Povm, d: StochasticMatrix) -> Povm:
    """Coarsen a measurement: output element i is sum_j D[i, j] * P_j, kept
    as the same base with post-processing D @ p.post, one row per row of D;
    no element is mixed. An outcome whose operator vanishes (an all-zero row
    of D) is kept, and the estimate gives it no weight. The result is not
    validated again: a column-stochastic D keeps positivity and completeness.
    """
    if d.n_in != p.n_outcomes:
        raise DimensionMismatch(f"post-processing expects {d.n_in} inputs but measurement has {p.n_outcomes} outcomes")
    return unchecked(Povm, base=p.base, post=d.entries @ p.post)


def energy_incoherent(h: Hamiltonian, q: StochasticMatrix) -> Povm:
    """Measurement diagonal in the energy eigenbasis: element i is
    sum_j q[i, j] |E_j><E_j| built from the Hamiltonian's tie-broken basis,
    one outcome per row of q, as in post_process."""
    if q.n_in != h.dim:
        raise DimensionMismatch(f"post-processing expects {q.n_in} energy levels but Hamiltonian has {h.dim}")
    return post_process(unchecked(Povm, base=h.eigenbasis, post=np.eye(h.dim)), q)


def _base_probabilities(rho: DensityMatrix, m: Povm) -> np.ndarray:
    """p_j = tr(rho v_j v_j^dag) = <v_j|rho|v_j> of the base projectors."""
    _check_same_dim(rho, m, "measurement")
    return diagonal_in_basis(rho.op, m.base)


def outcome_distribution(rho: DensityMatrix, m: Povm) -> np.ndarray:
    """Born probabilities tr(rho M_i) = (D p)_i, clipped of benign negative roundoff."""
    return np.clip(m.post @ _base_probabilities(rho, m), 0.0, None)


def estimate_spectrum(post: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Lemma 1: over base projectors M_j of volume 1, the coarse estimate sum_i q_i N_i / tr N_i,
    N_i = sum_j D_ij M_j, is sum_j w_j M_j with w = D^T (D p / D 1) for base probabilities p, the
    row sums D 1 being the volumes tr N_i and D p clipped of negative roundoff. The one rule for a
    dead outcome: one of volume below TOL gets weight 0, not q_i / tr N_i. Over a unitary base w is
    the estimate's spectrum. Leading axes of post and populations are a batch."""
    probs = np.clip((post @ populations[..., np.newaxis])[..., 0], 0.0, None)
    volumes = post.sum(axis=-1)
    weights = probs / np.where(volumes < TOL, np.inf, volumes)
    return (np.swapaxes(post, -1, -2) @ weights[..., np.newaxis])[..., 0]


def link_matrix(post) -> np.ndarray:
    """Lemma 1's link B, the kernel read off the unit populations (column k is estimate_spectrum(D, e_k)): B @ p is
    estimate_spectrum(D, p), so over a unitary base B maps the fine outcome distribution onto the coarse estimate's
    spectrum; bistochastic for D column-stochastic. Leading axes of post are a batch. A row of mass below TOL is an
    outcome of zero volume, which the kernel weighs 0; a negative weight (which the kernel's clip would hide) is
    InvalidPovm."""
    post = as_matrix(post, dtype=float, stack=True)
    if post.min() < 0.0:
        raise InvalidPovm(f"post-processing has a negative weight {post.min():.3e}")
    return np.swapaxes(estimate_spectrum(post[..., np.newaxis, :, :], np.eye(post.shape[-1])), -1, -2)


def coarse_grained_state(rho: DensityMatrix, m: Povm) -> DensityMatrix:
    """Maximum-ignorance estimate sum_i q_i N_i / tr N_i of rho given one round of outcome statistics q from m: sum_j
    w_j v_j v_j^dag over the base (estimate_spectrum), whose spectrum over a square (unitary) base is w, with no
    eigensolve. It is not validated again: a nonnegative mix of projectors of trace sum_i q_i."""
    return DensityMatrix._in_basis(m.base, estimate_spectrum(m.post, _base_probabilities(rho, m)))


def coarse_grained_spectrum(rho: DensityMatrix, m: Povm) -> np.ndarray:
    """Eigenvalues of coarse_grained_state(rho, m) in no set order; over a square base
    they are the kernel's w, and no operator is built."""
    if m.base.shape[0] == m.base.shape[1]:
        return estimate_spectrum(m.post, _base_probabilities(rho, m))
    return coarse_grained_state(rho, m).eigenvalues


__all__ = [
    "Povm",
    "StochasticMatrix",
    "coarse_grained_spectrum",
    "coarse_grained_state",
    "computational_basis",
    "energy_incoherent",
    "link_matrix",
    "outcome_distribution",
    "post_process",
    "random_column_stochastic",
]
