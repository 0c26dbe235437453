"""POVMs, classical post-processing, and coarse-grained state estimates.

A measurement here is a finite POVM. Fine-grained measurements (rank-1
projective) are the informationally sharpest ones; applying a
column-stochastic matrix to the outcome labels coarsens them. The
coarse-grained state is the maximum-ignorance estimate of the input state
consistent with the observed outcome statistics. A coarsened basis
measurement is kept as (basis, post-processing), so its estimate's spectrum
is vector arithmetic (Lemma 1); a general POVM is kept as dense elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneratePovm, DimensionMismatch, InvalidPovm, NotStochastic, PreconditionFailed, ZeroMass
from .linalg import as_matrix, diagonal_in_basis, hermitian_part, max_abs, operator_in_basis, require_hermitian, require_unitary, unchecked
from .states import PSD_TOL, DensityMatrix, Hamiltonian, RandomSource

COMPLETENESS_TOL = 1e-9
ZERO_ELEMENT_TOL = 1e-12
COLUMN_SUM_TOL = 1e-12
ROW_SUM_TOL = 1e-10
# Max-entry distance from a rank-1 projector for an element to count as fine-grained.
FINE_GRAINED_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Column-stochastic post-processing map: entry (i, j) is the probability
    of reporting outcome i given raw outcome j. The bistochastic flag is set
    automatically when every row also sums to 1."""

    entries: np.ndarray
    bistochastic: bool = field(init=False)

    def __post_init__(self):
        m = as_matrix(self.entries, dtype=float)
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionMismatch(f"stochastic matrix must be at least 1x1, got {m.shape}")
        if float(np.min(m)) < 0.0:
            raise NotStochastic(f"stochastic matrix has negative entry {float(np.min(m)):.3e}")
        col_defect = max_abs(m.sum(axis=0) - 1.0)
        if col_defect > COLUMN_SUM_TOL:
            raise NotStochastic(f"column sums deviate from 1 by {col_defect:.3e} > {COLUMN_SUM_TOL:.0e}")
        row_defect = max_abs(m.sum(axis=1) - 1.0)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "bistochastic", bool(row_defect <= ROW_SUM_TOL))

    @property
    def n_in(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def identity(cls, n: int) -> "StochasticMatrix":
        return cls(np.eye(n))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity, stored as one (k, d, d) array.

    ``labels`` track outcome identity through relabelings: post-processing
    that drops all-zero outcomes records which of the original indices
    survive. Zero elements are forbidden because coarse-grained states divide
    by each element's volume (trace).
    """

    elements: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        if not len(self.elements):
            raise DegeneratePovm("a POVM needs at least one element")
        mats = as_matrix([require_hermitian(e, what=f"POVM element {k}") for k, e in enumerate(self.elements)], stack=True)
        lows = np.linalg.eigvalsh(hermitian_part(mats))[:, 0]
        k = int(np.argmin(lows))
        if float(lows[k]) < PSD_TOL:
            raise InvalidPovm(f"POVM element {k} has eigenvalue {float(lows[k]):.3e} below {PSD_TOL:.0e}")
        volumes = np.trace(mats, axis1=1, axis2=2).real
        k = int(np.argmin(volumes))
        if float(volumes[k]) < ZERO_ELEMENT_TOL:
            raise DegeneratePovm(f"POVM element {k} is (numerically) the zero operator")
        defect = max_abs(mats.sum(axis=0) - np.eye(mats.shape[-1]))
        if defect > COMPLETENESS_TOL:
            raise InvalidPovm(f"POVM elements sum to identity within {defect:.3e} > {COMPLETENESS_TOL:.0e}")
        labels = self.labels if self.labels is not None else tuple(range(1, len(mats) + 1))
        if len(labels) != len(mats):
            raise InvalidPovm(f"{len(labels)} labels for {len(mats)} elements")
        object.__setattr__(self, "elements", mats)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @property
    def volumes(self) -> np.ndarray:
        """Trace of each element: the dimension-weight of its maximum-ignorance ensemble."""
        return np.trace(self.elements, axis1=1, axis2=2).real

    def is_fine_grained(self) -> bool:
        """True when every element is (numerically) a rank-1 projector."""
        if self.n_outcomes != self.dim:
            return False
        w = np.linalg.eigvalsh(self.elements)
        return bool(max_abs(w[:, -1] - 1.0) <= FINE_GRAINED_TOL and max_abs(w[:, :-1]) <= FINE_GRAINED_TOL)


@dataclass(frozen=True, eq=False)
class BasisMeasurement:
    """Projective measurement in an orthonormal basis followed by classical
    post-processing: element i is U diag(post[i]) U^dag, with U = ``basis``
    and ``post`` column-stochastic with no all-zero row. Outcomes are
    labelled 1..n unless post-processing dropped some. Element matrices are
    built only when ``elements`` is read."""

    basis: np.ndarray
    post: np.ndarray
    labels: tuple = field(init=False)

    def __post_init__(self):
        basis = require_unitary(self.basis, what="basis")
        post = StochasticMatrix(self.post).entries
        if post.shape[1] != basis.shape[0]:
            raise DimensionMismatch(f"post-processing expects {post.shape[1]} inputs but the basis has {basis.shape[0]} vectors")
        volumes = post.sum(axis=1)
        if float(np.min(volumes)) < ZERO_ELEMENT_TOL:
            raise DegeneratePovm(f"post-processing row {int(np.argmin(volumes))} is (numerically) zero")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "labels", tuple(range(1, post.shape[0] + 1)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.post.shape[0]

    @property
    def volumes(self) -> np.ndarray:
        """Trace of each element: the row sums of the post-processing."""
        return self.post.sum(axis=1)

    @cached_property
    def elements(self) -> np.ndarray:
        """Element matrices as one (k, d, d) array, built on first access."""
        return operator_in_basis(self.basis, self.post)

    def is_fine_grained(self) -> bool:
        """True when every element is (numerically) a rank-1 projector: each row of post is a unit vector."""
        if self.n_outcomes != self.dim:
            return False
        rows = np.sort(self.post, axis=1)
        return bool(max_abs(rows[:, -1] - 1.0) <= FINE_GRAINED_TOL and max_abs(rows[:, :-1]) <= FINE_GRAINED_TOL)


class FineGrainedMeasurement(BasisMeasurement):
    """Rank-1 projective measurement onto the columns of an orthonormal
    basis: the basis with identity post-processing."""

    @classmethod
    def from_basis(cls, basis) -> "FineGrainedMeasurement":
        return cls(basis, np.eye(as_matrix(basis).shape[0]))


def computational_basis(d: int) -> FineGrainedMeasurement:
    return FineGrainedMeasurement.from_basis(np.eye(d))


def random_column_stochastic(n_out: int, n_in: int, rng: RandomSource) -> StochasticMatrix:
    """Sample each column uniformly on the probability simplex (normalized
    exponential variates)."""
    if n_out < 1 or n_in < 1:
        raise DimensionMismatch(f"stochastic matrix sizes must be positive, got {n_out}x{n_in}")
    cols = rng.exponential((n_out, n_in))
    return StochasticMatrix(cols / cols.sum(axis=0))


def post_process(p: Povm | BasisMeasurement, d: StochasticMatrix) -> Povm | BasisMeasurement:
    """Coarsen a measurement: output element i is sum_j D[i, j] * P_j.

    Outcomes whose operator vanishes (an all-zero row of D) are dropped; the
    surviving original outcome indices are recorded in the result's labels.
    The result is not validated again: a column-stochastic D keeps
    positivity and completeness. A basis measurement stays one.
    """
    if d.n_in != p.n_outcomes:
        raise DimensionMismatch(f"post-processing expects {d.n_in} inputs but measurement has {p.n_outcomes} outcomes")
    kept = np.flatnonzero(d.entries @ p.volumes >= ZERO_ELEMENT_TOL)
    labels = tuple(int(i) + 1 for i in kept)
    if isinstance(p, BasisMeasurement):
        return unchecked(BasisMeasurement, basis=p.basis, post=(d.entries @ p.post)[kept], labels=labels)
    mixed = (d.entries[kept] @ p.elements.reshape(p.n_outcomes, -1)).reshape(-1, p.dim, p.dim)
    return unchecked(Povm, elements=mixed, labels=labels)


def energy_incoherent(h: Hamiltonian, q: StochasticMatrix) -> BasisMeasurement:
    """Measurement diagonal in the energy eigenbasis: element i is
    sum_j q[i, j] |E_j><E_j| built from the Hamiltonian's tie-broken basis.
    All-zero rows of q are dropped, as in post_process."""
    if q.n_in != h.dim:
        raise DimensionMismatch(f"post-processing expects {q.n_in} energy levels but Hamiltonian has {h.dim}")
    return post_process(unchecked(BasisMeasurement, basis=h.eigenbasis, post=np.eye(h.dim)), q)


def outcome_distribution(rho: DensityMatrix, m: Povm | BasisMeasurement) -> np.ndarray:
    """Born probabilities p_i = tr(rho M_i), clipped of benign negative roundoff."""
    if rho.dim != m.dim:
        raise DimensionMismatch(f"state is {rho.dim}-dimensional but measurement is {m.dim}-dimensional")
    if isinstance(m, BasisMeasurement):
        return np.clip(m.post @ diagonal_in_basis(rho.op, m.basis), 0.0, None)
    return born_probabilities(rho.op, m.elements)


def born_probabilities(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """tr(rho M_k), clipped of negative roundoff, for elements stacked as (..., k, d, d); leading axes are a batch."""
    flat = elements.reshape(*elements.shape[:-2], -1)
    return np.clip((flat @ np.swapaxes(rho, -1, -2).reshape(*flat.shape[:-2], -1, 1))[..., 0].real, 0.0, None)


def estimate_spectrum(post: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Spectrum D^T (D p / D 1) of the estimate from a basis measurement (U, D) given
    p = diag(U^dag rho U), with D p clipped of negative roundoff (Lemma 1). Leading axes are a batch."""
    probs = np.clip((post @ populations[..., np.newaxis])[..., 0], 0.0, None)
    return (np.swapaxes(post, -1, -2) @ (probs / post.sum(axis=-1))[..., np.newaxis])[..., 0]


def dense_estimate(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i p_i M_i / tr M_i, p_i = tr(rho M_i), for elements (..., k, d, d); leading axes are a batch."""
    weights = born_probabilities(rho, elements) / np.trace(elements, axis1=-2, axis2=-1).real
    return hermitian_part((weights[..., np.newaxis, :] @ elements.reshape(*weights.shape, -1)).reshape(rho.shape))


def coarse_grained_state(rho: DensityMatrix, m: Povm | BasisMeasurement) -> DensityMatrix:
    """Maximum-ignorance estimate sum_i p_i M_i / V_i of rho given one round
    of outcome statistics from m. For a basis measurement (U, D) this is
    U diag(estimate_spectrum(D, p)) U^dag, whose spectrum needs no eigensolve. A dense
    estimate is not validated again: it is a nonnegative mix of PSD elements of trace sum_i p_i."""
    if rho.dim != m.dim:
        raise DimensionMismatch(f"state is {rho.dim}-dimensional but measurement is {m.dim}-dimensional")
    if isinstance(m, BasisMeasurement):
        return DensityMatrix._in_basis(m.basis, estimate_spectrum(m.post, diagonal_in_basis(rho.op, m.basis)))
    estimate = dense_estimate(rho.op, m.elements)
    return unchecked(DensityMatrix, op=estimate, eigenvalues=np.linalg.eigvalsh(estimate))


def refine_distribution(p: Povm | BasisMeasurement, d: StochasticMatrix) -> StochasticMatrix:
    """Conditional distribution of the raw outcome given the coarse one.

    Column i holds q(j|i) = D[i, j] V_j / sum_k D[i, k] V_k, the probability
    that coarse outcome i originated from raw outcome j. Requires a
    fine-grained parent measurement (all volumes 1).
    """
    if d.n_in != p.n_outcomes:
        raise DimensionMismatch(f"post-processing expects {d.n_in} inputs but measurement has {p.n_outcomes} outcomes")
    vols = p.volumes
    if max_abs(vols - 1.0) > 1e-9 or not p.is_fine_grained():
        raise PreconditionFailed("refinement is defined for fine-grained (rank-1 projective) measurements")
    weighted = d.entries * vols[np.newaxis, :]
    mass = weighted.sum(axis=1)
    if float(np.min(mass)) < 1e-15:
        bad = int(np.argmin(mass))
        raise ZeroMass(f"outcome {bad} has total mass {float(mass[bad]):.3e}; refinement undefined")
    return StochasticMatrix((weighted / mass[:, np.newaxis]).T)


__all__ = [
    "BasisMeasurement",
    "FineGrainedMeasurement",
    "Povm",
    "StochasticMatrix",
    "coarse_grained_state",
    "computational_basis",
    "energy_incoherent",
    "outcome_distribution",
    "post_process",
    "random_column_stochastic",
    "refine_distribution",
]
