"""Majorization order on probability vectors.

x majorizes y when every descending partial sum of x dominates the matching
partial sum of y and the totals agree; equivalently y = Bx for some
bistochastic B. Passive energy reverses this order (it is Schur-concave),
which is what ties coarse-graining to lost work.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, NonFinite
from .linalg import LOOSE_TOL, as_matrix, max_abs


def _vectors(v) -> np.ndarray:
    """Coerce to a float vector, or a stack of them, whose partial sums and their differences are finite."""
    a = as_matrix([v], dtype=float, stack=True)[0]  # DimensionMismatch for a scalar, empty or ragged input
    if 2 * a.shape[-1] * max_abs(a) > np.finfo(float).max:
        raise NonFinite(f"entries up to {max_abs(a):.3e}: partial sums of {a.shape[-1]} of them can overflow")
    return a


def majorization_deficit(x, y) -> float | np.ndarray:
    """Largest amount by which a descending partial sum of y exceeds the
    matching partial sum of x (positive means x does not majorize y),
    including the total-sum disagreement. Leading axes are a batch; the
    last axes must have equal lengths."""
    xv, yv = _vectors(x), _vectors(y)
    if xv.shape[-1] != yv.shape[-1]:
        raise LengthMismatch(f"vectors have lengths {xv.shape[-1]} and {yv.shape[-1]}")
    cx = np.cumsum(np.sort(xv, axis=-1)[..., ::-1], axis=-1)
    cy = np.cumsum(np.sort(yv, axis=-1)[..., ::-1], axis=-1)
    partial = np.max(cy[..., :-1] - cx[..., :-1], axis=-1, initial=0.0)  # the total term is >= 0 anyway
    return np.maximum(partial, np.abs(cx[..., -1] - cy[..., -1]))


def majorizes(x, y) -> bool:
    """True when x majorizes y: x's descending partial sums dominate y's
    within LOOSE_TOL and the totals agree within it."""
    return majorization_deficit(x, y) <= LOOSE_TOL


__all__ = [
    "majorization_deficit",
    "majorizes",
]
