"""Work extraction from finite-dimensional quantum states under
coarse-grained measurements: ergotropy, observational ergotropy, the
incoherent/coherent split, the majorization machinery behind them, and
seeded Monte-Carlo audits of the core inequalities."""

from .audits import AuditConfig, AuditResult, run_all, run_audit
from .ergotropy import (
    WorkReport,
    coherent_ergotropy,
    ergotropy,
    incoherent_ergotropy,
    observational_ergotropy,
    passive_energy,
    passive_state,
    report,
)
from .majorization import majorizes
from .measurement import (
    FineGrainedMeasurement,
    Povm,
    StochasticMatrix,
    coarse_grained_state,
    computational_basis,
    energy_incoherent,
    outcome_distribution,
    post_process,
    random_column_stochastic,
)
from .states import (
    DensityMatrix,
    Hamiltonian,
    RandomSource,
    dephase,
    haar_unitary,
    random_density,
    random_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig",
    "AuditResult",
    "DensityMatrix",
    "FineGrainedMeasurement",
    "Hamiltonian",
    "Povm",
    "RandomSource",
    "StochasticMatrix",
    "WorkReport",
    "coarse_grained_state",
    "coherent_ergotropy",
    "computational_basis",
    "dephase",
    "energy_incoherent",
    "ergotropy",
    "haar_unitary",
    "incoherent_ergotropy",
    "majorizes",
    "observational_ergotropy",
    "outcome_distribution",
    "passive_energy",
    "passive_state",
    "post_process",
    "random_column_stochastic",
    "random_density",
    "random_hamiltonian",
    "report",
    "run_all",
    "run_audit",
]
