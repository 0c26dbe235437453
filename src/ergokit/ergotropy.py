"""Work quantities: passive energy, ergotropy, and their variants.

Ergotropy is the maximum work a cyclic unitary can extract from a state:
mean energy minus passive energy. The minimization over unitaries has a
closed form (ascending energies paired with descending populations), so no
optimizer appears here; a Monte-Carlo minimizer exists only in the tests as
an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InconsistentReport
from .linalg import adjoint
from .measurement import BasisMeasurement, Povm, coarse_grained_state
from .states import DensityMatrix, Hamiltonian, _check_same_dim, dephase, mean_energy

# The identities WorkReport checks hold up to roundoff, which grows with the
# energy scale and the dimension: they are checked to within
# ROUNDOFF_ULPS * d * eps * max|E|, and never more tightly than ABSOLUTE_TOL.
ROUNDOFF_ULPS = 16.0
ABSOLUTE_TOL = 1e-10


@dataclass(frozen=True)
class WorkReport:
    """All work quantities for one (state, Hamiltonian, measurement) instance.

    ``observational`` is None when no measurement was supplied. Energies are
    in the Hamiltonian's units; ``energy_scale`` is max|E|, which sets the
    tolerance of the consistency checks.
    """

    dimension: int
    mean_energy: float
    passive_energy: float
    ergotropy: float
    incoherent: float
    coherent: float
    observational: float | None = None
    energy_scale: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self):
        tol = max(ABSOLUTE_TOL, ROUNDOFF_ULPS * self.dimension * np.finfo(float).eps * self.energy_scale)
        if abs(self.ergotropy - (self.mean_energy - self.passive_energy)) > tol:
            raise InconsistentReport(f"ergotropy must equal mean energy minus passive energy within {tol:.1e}")
        if abs(self.ergotropy - (self.incoherent + self.coherent)) > tol:
            raise InconsistentReport(f"ergotropy must split into incoherent plus coherent parts within {tol:.1e}")
        if self.ergotropy < -tol:
            raise InconsistentReport(f"ergotropy is negative: {self.ergotropy!r} < -{tol:.1e}")

    def to_json_dict(self) -> dict:
        return {
            "d": self.dimension,
            "mean": self.mean_energy,
            "passive": self.passive_energy,
            "ergotropy": self.ergotropy,
            "incoherent": self.incoherent,
            "coherent": self.coherent,
            "observational": self.observational,
        }

    CSV_HEADER = "d,mean,passive,ergotropy,incoherent,coherent,observational"

    def to_csv_row(self) -> str:
        fields = [str(self.dimension)]
        fields += [repr(float(x)) for x in (self.mean_energy, self.passive_energy, self.ergotropy,
                                            self.incoherent, self.coherent)]
        fields.append("" if self.observational is None else repr(float(self.observational)))
        return ",".join(fields)


def passive_energy_of_spectrum(h: Hamiltonian | np.ndarray, spectrum):
    """Minimal mean energy over all states with the given spectrum: ascending
    energies paired with descending populations. ``h`` is a Hamiltonian or
    its ascending energies; leading axes of the arrays are a batch."""
    energies = h.energies if isinstance(h, Hamiltonian) else h
    x = np.asarray(spectrum, dtype=float)
    if x.shape[-1:] != energies.shape[-1:]:
        raise DimensionMismatch(f"spectrum has shape {x.shape}, Hamiltonian dimension is {energies.shape[-1]}")
    out = (energies[..., np.newaxis, :] @ -np.sort(-x, axis=-1)[..., np.newaxis])[..., 0, 0]
    return out if out.ndim else float(out)


def passive_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    _check_same_dim(rho, h)
    return passive_energy_of_spectrum(h, rho.eigenvalues)


def passive_state(rho: DensityMatrix, h: Hamiltonian) -> tuple[DensityMatrix, np.ndarray]:
    """Passive state of rho and the unitary that reaches it.

    Returns (Pi, U) with Pi carrying rho's populations in descending order on
    the ascending energy levels, and U mapping rho's sorted eigenvectors onto
    the energy eigenvectors so that U rho U^dag = Pi. For degenerate spectra
    the tie-broken representative is returned (ties keep their ascending order).
    """
    _check_same_dim(rho, h)
    values, vectors = rho.eig()
    order = np.argsort(-values, kind="stable")
    w = h.eigenbasis
    return DensityMatrix._in_basis(w, values[order]), w @ adjoint(vectors[:, order])


def ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Maximum unitarily extractable work: mean energy minus passive energy."""
    return mean_energy(rho, h) - passive_energy(rho, h)


def observational_ergotropy(rho: DensityMatrix, h: Hamiltonian, m: Povm | BasisMeasurement) -> float:
    """Work extractable when the state is known only through one round of
    outcome statistics of m: mean energy of rho minus the passive energy of
    the coarse-grained estimate. Can be negative when the estimate misranks
    the populations."""
    estimate = coarse_grained_state(rho, m)
    return mean_energy(rho, h) - passive_energy(estimate, h)


def incoherent_ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Ergotropy of the energy-dephased state; dephasing keeps the mean
    energy, so this is the classical share of the total."""
    return ergotropy(dephase(rho, h), h)


def coherent_ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Remainder of ergotropy beyond the incoherent part; nonnegative."""
    return ergotropy(rho, h) - incoherent_ergotropy(rho, h)


def report(rho: DensityMatrix, h: Hamiltonian, m: Povm | BasisMeasurement | None = None) -> WorkReport:
    """Bundle every work quantity for one instance."""
    mean = mean_energy(rho, h)
    passive = passive_energy(rho, h)
    total = mean - passive
    incoherent = incoherent_ergotropy(rho, h)
    observational = None if m is None else observational_ergotropy(rho, h, m)
    return WorkReport(
        dimension=rho.dim,
        mean_energy=mean,
        passive_energy=passive,
        ergotropy=total,
        incoherent=incoherent,
        coherent=total - incoherent,
        observational=observational,
        energy_scale=float(np.max(np.abs(h.energies))),
    )


__all__ = [
    "WorkReport",
    "coherent_ergotropy",
    "ergotropy",
    "incoherent_ergotropy",
    "observational_ergotropy",
    "passive_energy",
    "passive_energy_of_spectrum",
    "passive_state",
    "report",
]
