"""Work quantities: passive energy, ergotropy, and their variants.

Ergotropy is the maximum work a cyclic unitary can extract from a state:
mean energy minus passive energy. The minimization over unitaries has a
closed form (ascending energies paired with descending populations), so no
optimizer appears here; a Monte-Carlo minimizer exists only in the tests as
an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentReport, NonFinite, PreconditionFailed
from .linalg import adjoint, as_pair, energy_tol
from .measurement import Povm, coarse_grained_spectrum
from .states import DensityMatrix, Hamiltonian, _check_same_dim, energy_populations

HALF_FLOAT_MAX = np.finfo(float).max / 2


@dataclass(frozen=True)
class WorkReport:
    """All work quantities for one (state, Hamiltonian, measurement) instance.

    ``ergotropy`` is the maximum unitarily extractable work: mean energy minus
    passive energy. ``incoherent`` is the ergotropy of the energy-dephased
    state, whose spectrum is rho's energy populations; dephasing keeps the mean
    energy, so this is the classical share of the total. ``coherent`` is the
    remainder, nonnegative. ``observational`` is the work extractable when the
    state is known only through one round of outcome statistics of the
    measurement: mean energy minus the passive energy of the coarse-grained
    estimate. It can be negative when the estimate misranks the populations,
    and is None when no measurement was supplied. Energies are in the
    Hamiltonian's units.
    """

    dimension: int
    mean_energy: float
    passive_energy: float
    ergotropy: float
    incoherent: float
    coherent: float
    observational: float | None = None


def _paired(energies, name: str, vector) -> tuple[np.ndarray, np.ndarray]:
    """Energies and a vector paired with them by as_pair, with max|E| times the vector's largest row sum of |entries|
    at most half the float maximum, so that a sum of their products, and the difference of two, is finite. The bound
    d max|E| max|v| settles that without a pass when it holds; otherwise the row sums are taken over v / max|v|, which
    cannot overflow."""
    e, scale, v, top = as_pair(energies, "energies", vector, name)
    bound = scale * top  # Python floats: past the float range they are inf, with no warning
    if bound * v.shape[-1] > HALF_FLOAT_MAX and bound * float(np.abs(v / top).sum(axis=-1).max()) > HALF_FLOAT_MAX:
        raise NonFinite(f"{name} up to {top:.3e} and energies up to {scale:.3e}: sums of their products can overflow")
    return e, v


def passive_energy_of_spectrum(energies, spectrum):
    """Minimal mean energy over all states with the given spectrum: the
    ascending ``energies`` (PreconditionFailed otherwise) paired with
    descending populations. Leading axes of the arrays are a batch."""
    e, x = _paired(energies, "spectrum", spectrum)
    if (e[..., 1:] < e[..., :-1]).any():  # ties are degenerate levels; a descending pair would be misread
        raise PreconditionFailed("energies must be in ascending order")
    out = (e[..., np.newaxis, :] @ -np.sort(-x, axis=-1)[..., np.newaxis])[..., 0, 0]
    return out if out.ndim else float(out)


def work(energies, populations, spectrum):
    """sum_k E_k p_k minus the passive energy of ``spectrum``, for a state's energy populations p: its ergotropy for its
    eigenvalues, its incoherent ergotropy for p, its observational ergotropy for an estimate's. Leading axes are a batch.
    Every argument is checked before any arithmetic: a NaN work would pass an audit's margin > tol."""
    e, p = _paired(energies, "populations", populations)
    spread = e if e.shape == p.shape else np.broadcast_to(e, np.broadcast_shapes(e.shape, p.shape))  # a view: no copy
    passive = passive_energy_of_spectrum(spread, spectrum)  # checks the spectrum against e's and p's batch axes first
    out = (e * p).sum(axis=-1) - passive
    return out if np.ndim(out) else float(out)


def passive_state(rho: DensityMatrix, h: Hamiltonian) -> tuple[DensityMatrix, np.ndarray]:
    """Passive state of rho and the unitary that reaches it.

    Returns (Pi, U) with Pi carrying rho's eigenvalues in descending order on
    the ascending energy levels, and U mapping rho's sorted eigenvectors onto
    the energy eigenvectors so that U rho U^dag = Pi. For degenerate spectra
    the tie-broken representative is returned (ties keep their ascending order).
    """
    _check_same_dim(rho, h)
    vectors = rho.eig()[1]  # paired with the kept eigenvalues, both ascending, so Pi has rho's spectrum bit for bit
    order = np.argsort(-rho.eigenvalues, kind="stable")
    w = h.eigenbasis
    return DensityMatrix._in_basis(w, rho.eigenvalues[order]), w @ adjoint(vectors[:, order])


def report(rho: DensityMatrix, h: Hamiltonian, m: Povm | None = None) -> WorkReport:
    """Bundle every work quantity for one instance, off one read of rho's energy populations."""
    p = energy_populations(rho, h)
    total, incoherent = work(h.energies, p, rho.eigenvalues), work(h.energies, p, p)
    tol = energy_tol(rho.dim, float(np.max(np.abs(h.energies))))
    if total < -tol:
        raise InconsistentReport(f"ergotropy is negative: {total!r} < -{tol:.1e}")
    return WorkReport(
        dimension=rho.dim,
        mean_energy=float(np.sum(h.energies * p)),
        passive_energy=passive_energy_of_spectrum(h.energies, rho.eigenvalues),
        ergotropy=total,
        incoherent=incoherent,
        coherent=total - incoherent,
        observational=None if m is None else work(h.energies, p, coarse_grained_spectrum(rho, m)),
    )


__all__ = [
    "WorkReport",
    "passive_energy_of_spectrum",
    "passive_state",
    "report",
    "work",
]
