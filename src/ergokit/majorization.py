"""Majorization order on probability vectors and bistochastic constructions.

x majorizes y when every descending partial sum of x dominates the matching
partial sum of y and the totals agree; equivalently y = Bx for some
bistochastic B. Passive energy reverses this order (it is Schur-concave),
which is what ties coarse-graining to lost work.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, NonFinite, NotStochastic, NotUnitary, PreconditionFailed
from .ergotropy import passive_energy_of_spectrum
from .linalg import LOOSE_TOL, TOL, as_matrix, energy_tol, require_unitary, unchecked
from .measurement import Povm, StochasticMatrix, link_matrix
from .states import Hamiltonian


def prob_vector(x) -> np.ndarray:
    """Validate a probability vector; entries down to -TOL are clipped to 0."""
    v = as_matrix(np.reshape(x, (1, -1)), dtype=float)[0]  # NonFinite for NaN or Inf entries
    if float(np.min(v, initial=0.0)) < -TOL:
        raise NotStochastic(f"probability vector has entry {float(np.min(v)):.3e} below {-TOL:.0e}")
    v = np.clip(v, 0.0, None)
    total = float(v.sum())
    if abs(total - 1.0) > TOL:
        raise NotStochastic(f"probability vector sums to {total!r}, expected 1")
    return v


def majorization_deficit(x, y) -> float | np.ndarray:
    """Largest amount by which a descending partial sum of y exceeds the
    matching partial sum of x (positive means x does not majorize y),
    including the total-sum disagreement. Leading axes are a batch; the
    last axes must have equal lengths."""
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xv.shape[-1] != yv.shape[-1]:
        raise LengthMismatch(f"vectors have lengths {xv.shape[-1]} and {yv.shape[-1]}")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise NonFinite("majorization is defined for vectors of finite entries")
    cx = np.cumsum(np.sort(xv, axis=-1)[..., ::-1], axis=-1)
    cy = np.cumsum(np.sort(yv, axis=-1)[..., ::-1], axis=-1)
    partial = np.max(cy[..., :-1] - cx[..., :-1], axis=-1, initial=0.0)  # the total term is >= 0 anyway
    return np.maximum(partial, np.abs(cx[..., -1] - cy[..., -1]))


def majorizes(x, y) -> bool:
    """True when x majorizes y: x's descending partial sums dominate y's
    within LOOSE_TOL and the totals agree within it."""
    return majorization_deficit(x, y) <= LOOSE_TOL


def bistochastic_from_unitary(v) -> StochasticMatrix:
    """Entrywise squared moduli |V_{k,i}|^2 of a unitary; always bistochastic."""
    b = StochasticMatrix(np.abs(require_unitary(v)) ** 2)
    if not b.bistochastic:
        raise NotUnitary("squared moduli failed the bistochastic row-sum check")
    return b


def refinement_bistochastic(m: Povm) -> StochasticMatrix:
    """Bistochastic matrix linking the outcome spectrum of m's unitary base to
    the spectrum of m's coarse-grained estimate (Lemma 1): link_matrix(m.post).

    A dense base has volumes other than 1, or elements that are not rank-1
    projectors, and then the link is not bistochastic or does not map the
    spectrum, so it is refused.
    """
    if m.base.ndim != 2:
        raise PreconditionFailed("the refinement link is defined over a unitary (rank-1 projective) base")
    return unchecked(StochasticMatrix, entries=link_matrix(m.post))


def schur_concavity_check(h: Hamiltonian, x, y) -> bool:
    """Verify that the more-mixed spectrum has the larger passive energy.

    Requires x to majorize y; then checks passive_energy(x) <= passive_energy(y)
    + energy_tol(d, max|E|), a roundoff tolerance that grows with the
    energies, so rescaling H -> cH does not turn roundoff into a violation.
    """
    xv = prob_vector(x)
    yv = prob_vector(y)
    if not majorizes(xv, yv):
        raise PreconditionFailed("x does not majorize y; Schur-concavity comparison undefined")
    tol = energy_tol(xv.size, float(np.max(np.abs(h.energies))))
    return passive_energy_of_spectrum(h.energies, xv) <= passive_energy_of_spectrum(h.energies, yv) + tol


__all__ = [
    "bistochastic_from_unitary",
    "majorization_deficit",
    "majorizes",
    "prob_vector",
    "refinement_bistochastic",
    "schur_concavity_check",
]
