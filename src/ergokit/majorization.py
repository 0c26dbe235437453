"""Majorization order on probability vectors and bistochastic constructions.

x majorizes y when every descending partial sum of x dominates the matching
partial sum of y and the totals agree; equivalently y = Bx for some
bistochastic B. Passive energy reverses this order (it is Schur-concave),
which is what ties coarse-graining to lost work.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, NotStochastic, NotUnitary, PreconditionFailed
from .ergotropy import passive_energy_of_spectrum
from .linalg import max_abs, require_unitary
from .measurement import ROW_SUM_TOL, BasisMeasurement, Povm, StochasticMatrix, refine_distribution
from .states import Hamiltonian

MAJORIZATION_TOL = 1e-9


def prob_vector(x) -> np.ndarray:
    """Validate a probability vector; entries down to -1e-12 are clipped to 0."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if float(np.min(v, initial=0.0)) < -1e-12:
        raise NotStochastic(f"probability vector has entry {float(np.min(v)):.3e} below -1e-12")
    v = np.clip(v, 0.0, None)
    total = float(v.sum())
    if abs(total - 1.0) > 1e-10:
        raise NotStochastic(f"probability vector sums to {total!r}, expected 1")
    return v


def _padded_pair(x: np.ndarray, y: np.ndarray, pad: bool) -> tuple[np.ndarray, np.ndarray]:
    if x.shape[-1] == y.shape[-1]:
        return x, y
    if not pad:
        raise LengthMismatch(f"vectors have lengths {x.shape[-1]} and {y.shape[-1]}; pass pad=True to zero-pad")
    n = max(x.shape[-1], y.shape[-1])
    return tuple(np.pad(v, [(0, 0)] * (v.ndim - 1) + [(0, n - v.shape[-1])]) for v in (x, y))


def majorization_deficit(x, y, pad: bool = False) -> float | np.ndarray:
    """Largest amount by which a descending partial sum of y exceeds the
    matching partial sum of x (positive means x does not majorize y),
    including the total-sum disagreement. Leading axes are a batch; with
    pad=True the shorter last axis is zero-padded."""
    xv, yv = _padded_pair(np.asarray(x, dtype=float), np.asarray(y, dtype=float), pad)
    cx = np.cumsum(np.sort(xv, axis=-1)[..., ::-1], axis=-1)
    cy = np.cumsum(np.sort(yv, axis=-1)[..., ::-1], axis=-1)
    partial = np.max(cy[..., :-1] - cx[..., :-1], axis=-1, initial=0.0)  # the total term is >= 0 anyway
    return np.maximum(partial, np.abs(cx[..., -1] - cy[..., -1]))


def majorizes(x, y, tol: float = MAJORIZATION_TOL, pad: bool = False) -> bool:
    """True when x majorizes y: x's descending partial sums dominate y's
    within tol and the totals agree within tol."""
    return majorization_deficit(x, y, pad=pad) <= tol


def bistochastic_from_unitary(v) -> StochasticMatrix:
    """Entrywise squared moduli |V_{k,i}|^2 of a unitary; always bistochastic."""
    b = StochasticMatrix(np.abs(require_unitary(v)) ** 2)
    if not b.bistochastic:
        raise NotUnitary("squared moduli failed the bistochastic row-sum check")
    return b


def refinement_bistochastic(p: Povm | BasisMeasurement, d: StochasticMatrix) -> StochasticMatrix:
    """Bistochastic matrix linking the outcome spectra of a fine-grained
    measurement and its post-processed coarsening.

    Composes the post-processing with its refinement: entry (j, m) is
    sum_i d[i, m] q(j|i). Applied to the fine outcome distribution it yields
    the coarse-grained state's spectrum.
    """
    q = refine_distribution(p, d)
    b = StochasticMatrix(q.entries @ d.entries)
    if not b.bistochastic:
        row_defect = max_abs(b.entries.sum(axis=1) - 1.0)
        raise NotStochastic(f"composed matrix has row-sum defect {row_defect:.3e} > {ROW_SUM_TOL:.0e}")
    return b


def schur_concavity_check(h: Hamiltonian, x, y, tol: float = 1e-10) -> bool:
    """Verify that the more-mixed spectrum has the larger passive energy.

    Requires x to majorize y; then checks
    passive_energy(x) <= passive_energy(y) + tol.
    """
    xv = prob_vector(x)
    yv = prob_vector(y)
    if not majorizes(xv, yv):
        raise PreconditionFailed("x does not majorize y; Schur-concavity comparison undefined")
    return passive_energy_of_spectrum(h, xv) <= passive_energy_of_spectrum(h, yv) + tol


__all__ = [
    "bistochastic_from_unitary",
    "majorization_deficit",
    "majorizes",
    "prob_vector",
    "refinement_bistochastic",
    "schur_concavity_check",
]
