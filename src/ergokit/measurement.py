"""POVMs, classical post-processing, and coarse-grained state estimates.

A measurement here is a finite POVM. Fine-grained measurements (rank-1
projective) are the informationally sharpest ones; applying a
column-stochastic matrix to the outcomes coarsens them. The
coarse-grained state is the maximum-ignorance estimate of the input state
consistent with the observed outcome statistics. Every measurement is kept
as (base, post-processing D), the base a unitary or a dense element stack,
and every estimate comes from one Lemma 1 formula over the base; over a
unitary base the estimate's spectrum is vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneratePovm, DimensionMismatch, InvalidPovm, NotStochastic
from .linalg import (LOOSE_TOL, TOL, as_matrix, diagonal_in_basis, hermitian_part, max_abs, operator_in_basis,
                     require_hermitian, require_unitary, unchecked)
from .states import DensityMatrix, Hamiltonian, RandomSource, require_int


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
    """Finite POVM kept as a base and a post-processing: element i is
    sum_j D[i, j] M_j, with D = ``post`` column-stochastic and free of
    all-zero rows.

    The base is a unitary U, whose elements M_j = U e_j e_j^dag U^dag are
    rank-1 projectors of volume 1 (a fine-grained measurement onto U's
    columns), or a dense (k, d, d) stack of positive operators summing to the
    identity. ``Povm(base)`` validates either once, keeping a dense stack's
    Hermitian part, and sets D = I; zero elements are forbidden because
    coarse-grained states divide by each element's volume (trace). Element
    matrices are built only when ``elements`` is read.
    """

    base: np.ndarray
    post: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        base = as_matrix(self.base, stack=True)  # DimensionMismatch for an empty or ragged base
        if base.ndim == 2:
            base = require_unitary(base, what="basis")
        else:
            base = np.stack([require_hermitian(e, f"POVM element {k}") for k, e in enumerate(base)])
            lows = np.linalg.eigvalsh(base)[:, 0]
            k = int(np.argmin(lows))
            if float(lows[k]) < -TOL:
                raise InvalidPovm(f"POVM element {k} has eigenvalue {float(lows[k]):.3e} below {-TOL:.0e}")
            volumes = np.trace(base, axis1=1, axis2=2).real
            k = int(np.argmin(volumes))
            if float(volumes[k]) < TOL:
                raise DegeneratePovm(f"POVM element {k} is (numerically) the zero operator")
            defect = max_abs(base.sum(axis=0) - np.eye(base.shape[-1]))
            if defect > LOOSE_TOL:
                raise InvalidPovm(f"POVM elements sum to identity within {defect:.3e} > {LOOSE_TOL:.0e}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "post", np.eye(len(base)))

    @property
    def dim(self) -> int:
        return self.base.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return self.post.shape[0]

    @property
    def _base_volumes(self) -> np.ndarray | float:
        """V_j = tr M_j of the base elements: 1 for a unitary base."""
        return 1.0 if self.base.ndim == 2 else np.trace(self.base, axis1=1, axis2=2).real

    @property
    def volumes(self) -> np.ndarray:
        """Trace D V of each element: the dimension-weight of its maximum-ignorance ensemble."""
        return (self.post * self._base_volumes).sum(axis=-1)

    @cached_property
    def elements(self) -> np.ndarray:
        """Element matrices as one (k, d, d) array, built on first access."""
        if self.base.ndim == 2:
            return operator_in_basis(self.base, self.post)
        return (self.post @ self.base.reshape(len(self.base), -1)).reshape(-1, self.dim, self.dim)


def computational_basis(d: int) -> Povm:
    d = require_int(d, "dimension", 1, error=DimensionMismatch)
    return unchecked(Povm, base=np.eye(d, dtype=complex), post=np.eye(d))


def random_column_stochastic(n_out: int, n_in: int, rng: RandomSource) -> StochasticMatrix:
    """Sample each column uniformly on the probability simplex (recipe "post"); column-stochastic by
    construction, so not validated again."""
    return unchecked(StochasticMatrix, entries=rng.sample(("post",), n_in, n_out)[0])


def post_process(p: Povm, d: StochasticMatrix) -> Povm:
    """Coarsen a measurement: output element i is sum_j D[i, j] * P_j, kept
    as the same base with post-processing D @ p.post; no element is mixed.

    Outcomes whose operator vanishes (coarse mass below TOL, as for an
    all-zero row of D) are dropped, so the result's post holds only the
    surviving rows. The result is not validated again: a column-stochastic
    D keeps positivity and completeness.
    """
    if d.n_in != p.n_outcomes:
        raise DimensionMismatch(f"post-processing expects {d.n_in} inputs but measurement has {p.n_outcomes} outcomes")
    kept = np.flatnonzero(d.entries @ p.volumes >= TOL)
    return unchecked(Povm, base=p.base, post=(d.entries @ p.post)[kept])


def energy_incoherent(h: Hamiltonian, q: StochasticMatrix) -> Povm:
    """Measurement diagonal in the energy eigenbasis: element i is
    sum_j q[i, j] |E_j><E_j| built from the Hamiltonian's tie-broken basis.
    All-zero rows of q are dropped, as in post_process."""
    if q.n_in != h.dim:
        raise DimensionMismatch(f"post-processing expects {q.n_in} energy levels but Hamiltonian has {h.dim}")
    return post_process(unchecked(Povm, base=h.eigenbasis, post=np.eye(h.dim)), q)


def born_probabilities(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """tr(rho M_k), clipped of negative roundoff, for elements stacked as (..., k, d, d); leading axes are a batch."""
    flat = elements.reshape(*elements.shape[:-2], -1)
    return np.clip((flat @ np.swapaxes(rho, -1, -2).reshape(*flat.shape[:-2], -1, 1))[..., 0].real, 0.0, None)


def _base_probabilities(rho: DensityMatrix, m: Povm) -> np.ndarray:
    """p_j = tr(rho M_j) of the base elements: populations in a unitary base, Born's rule on a dense one."""
    if rho.dim != m.dim:
        raise DimensionMismatch(f"state is {rho.dim}-dimensional but measurement is {m.dim}-dimensional")
    return diagonal_in_basis(rho.op, m.base) if m.base.ndim == 2 else born_probabilities(rho.op, m.base)


def outcome_distribution(rho: DensityMatrix, m: Povm) -> np.ndarray:
    """Born probabilities tr(rho M_i) = (D p)_i, clipped of benign negative roundoff."""
    return np.clip(m.post @ _base_probabilities(rho, m), 0.0, None)


def estimate_spectrum(post: np.ndarray, populations: np.ndarray, volumes: np.ndarray | float) -> np.ndarray:
    """Lemma 1: the coarse estimate sum_i q_i N_i / tr N_i, N_i = sum_j D_ij M_j, is sum_j w_j M_j with
    w = D^T (D p / D V) for base probabilities p and volumes V, D p clipped of negative roundoff. Over a
    unitary base (V = 1) w is the estimate's spectrum. Leading axes of post and populations are a batch."""
    probs = np.clip((post @ populations[..., np.newaxis])[..., 0], 0.0, None)
    return (np.swapaxes(post, -1, -2) @ (probs / (post * volumes).sum(axis=-1))[..., np.newaxis])[..., 0]


def link_matrix(post: np.ndarray) -> np.ndarray:
    """Lemma 1's link B = (D / rowsum D)^T D over a unitary base: link_matrix(D) @ p is
    estimate_spectrum(D, p, 1.0) written as a matrix, so B maps the fine outcome distribution
    onto the coarse estimate's spectrum. Bistochastic for D column-stochastic without zero rows.
    Leading axes of post are a batch."""
    return np.swapaxes(post / post.sum(axis=-1, keepdims=True), -1, -2) @ post


def coarse_grained_state(rho: DensityMatrix, m: Povm) -> DensityMatrix:
    """Maximum-ignorance estimate sum_i q_i N_i / tr N_i of rho given one round
    of outcome statistics q from m: sum_j w_j M_j over the base (estimate_spectrum).
    Over a unitary base this is U diag(w) U^dag, whose spectrum needs no eigensolve. A dense
    estimate is not validated again: it is a nonnegative mix of PSD elements of trace sum_i q_i."""
    w = estimate_spectrum(m.post, _base_probabilities(rho, m), m._base_volumes)
    if m.base.ndim == 2:
        return DensityMatrix._in_basis(m.base, w)
    estimate = hermitian_part((w[np.newaxis, :] @ m.base.reshape(len(w), -1)).reshape(m.dim, m.dim))
    return unchecked(DensityMatrix, op=estimate, eigenvalues=np.linalg.eigvalsh(estimate))


def coarse_grained_spectrum(rho: DensityMatrix, m: Povm) -> np.ndarray:
    """Eigenvalues of coarse_grained_state(rho, m) in no set order; over a unitary base
    they are the kernel's w, and no operator is built."""
    if m.base.ndim == 2:
        return estimate_spectrum(m.post, _base_probabilities(rho, m), 1.0)
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
