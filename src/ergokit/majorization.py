"""Majorization order on probability vectors.

x majorizes y when every descending partial sum of x dominates the matching
partial sum of y and the totals agree; equivalently y = Bx for some
bistochastic B. Passive energy reverses this order (it is Schur-concave),
which is what ties coarse-graining to lost work.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite
from .linalg import LOOSE_TOL, as_pair


def majorization_deficit(x, y) -> float | np.ndarray:
    """Largest amount by which a descending partial sum of y exceeds the
    matching partial sum of x (positive means x does not majorize y),
    including the total-sum disagreement. x and y are read by as_pair, so
    leading axes are a batch; NonFinite when 2 d max|entry| is not finite."""
    xv, xtop, yv, ytop = as_pair(x, "x", y, "y")
    if 2 * xv.shape[-1] * (top := max(xtop, ytop)) > np.finfo(float).max:
        raise NonFinite(f"entries up to {top:.3e}: partial sums of {xv.shape[-1]} of them can overflow")
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
