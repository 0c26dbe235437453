"""Randomized audits of the package's core inequalities and identities.

Each audit draws seeded random instances, evaluates one claim per trial, and
reports the trial count, the number of tolerance violations, and the worst
signed margin (positive margins are violations). Results are pure functions
of the configuration, so re-running with the same seed reproduces them
exactly. Sampling provides evidence over random instances, not a proof over
all of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidClaim, InvalidConfig
from .ergotropy import ergotropy, incoherent_ergotropy, observational_ergotropy, passive_energy_of_spectrum
from .linalg import eig_hermitian, max_abs, unchecked
from .majorization import bistochastic_from_unitary, majorization_deficit, refinement_bistochastic
from .measurement import (
    FineGrainedMeasurement,
    Povm,
    coarse_grained_state,
    energy_incoherent,
    outcome_distribution,
    post_process,
    random_column_stochastic,
)
from .states import RandomSource, haar_unitary, random_density, random_hamiltonian

# Fixed tolerances for the exact linear-algebra identities inside the
# spectrum-majorization audit; the configurable tolerance governs the
# inequality checks.
IDENTITY_TOL = 1e-10
MIN_ENERGY_GAP = 1e-8


@dataclass(frozen=True)
class AuditConfig:
    dimension: int = 3
    outcomes: int = 4
    rank: int | None = None
    trials: int = 1000
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        d = self.dimension
        rank = self.rank if self.rank is not None else d
        if d < 1:
            raise InvalidConfig(f"dimension must be positive, got {d}")
        if self.outcomes < 1:
            raise InvalidConfig(f"outcome count must be positive, got {self.outcomes}")
        if not 1 <= rank <= d:
            raise InvalidConfig(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
        if self.trials < 1:
            raise InvalidConfig(f"trials must be at least 1, got {self.trials}")
        if not self.tolerance > 0.0:
            raise InvalidConfig(f"tolerance must be positive, got {self.tolerance}")

    @property
    def effective_rank(self) -> int:
        return self.rank if self.rank is not None else self.dimension


@dataclass(frozen=True)
class AuditResult:
    claim: str
    trials: int
    violations: int
    worst_margin: float
    wall_time_s: float
    details: dict = field(default_factory=dict)

    CSV_HEADER = "claim,trials,violations,worst_margin"

    def to_json_dict(self) -> dict:
        """Deterministic fields only; wall time is intentionally left out so
        identically seeded runs serialize byte-identically."""
        out = {
            "claim": self.claim,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "sampled": True,
        }
        out.update(self.details)
        return out

    def to_csv_row(self) -> str:
        return f"{self.claim},{self.trials},{self.violations},{repr(float(self.worst_margin))}"


def _simplex_uniform(n: int, rng: RandomSource) -> np.ndarray:
    x = rng.exponential(n)
    return x / x.sum()


def _run(claim: str, cfg: AuditConfig, trial, finish=None) -> AuditResult:
    """Drive one audit: stream i goes to trial i, so serial and parallel
    execution would count the same violations."""
    root = RandomSource(cfg.seed).split(_CLAIM_INDEX[claim])
    start = time.perf_counter()
    violations = 0
    worst = -np.inf
    state = {}
    for t in range(cfg.trials):
        margin, violated = trial(cfg, root.split(t), state)
        violations += int(violated)
        worst = max(worst, margin)
    details = finish(state) if finish is not None else {}
    return AuditResult(
        claim=claim,
        trials=cfg.trials,
        violations=violations,
        worst_margin=float(worst),
        wall_time_s=time.perf_counter() - start,
        details=details,
    )


def _monotonicity_trial(cfg: AuditConfig, rng: RandomSource, state: dict):
    """Coarsening a fine-grained measurement must not raise observational
    ergotropy."""
    d = cfg.dimension
    rho = random_density(d, cfg.effective_rank, rng)
    h = random_hamiltonian(d, rng)
    fine = FineGrainedMeasurement.from_basis(haar_unitary(d, rng))
    dmat = random_column_stochastic(cfg.outcomes, d, rng)
    coarse = post_process(fine, dmat)
    margin = observational_ergotropy(rho, h, coarse) - observational_ergotropy(rho, h, fine)
    return margin, margin > cfg.tolerance


def audit_postprocessing_monotonicity(cfg: AuditConfig) -> AuditResult:
    return _run("theorem1", cfg, _monotonicity_trial)


def _incoherent_limit_trial(cfg: AuditConfig, rng: RandomSource, state: dict):
    """The projective energy measurement attains exactly the incoherent
    ergotropy, and no energy-incoherent measurement beats it."""
    d = cfg.dimension
    h = random_hamiltonian(d, rng, min_gap=MIN_ENERGY_GAP)
    rho = random_density(d, cfg.effective_rank, rng)
    r_inc = incoherent_ergotropy(rho, h)
    energy_basis = FineGrainedMeasurement.from_basis(h.eigenbasis)
    equality_gap = abs(observational_ergotropy(rho, h, energy_basis) - r_inc)
    q = random_column_stochastic(cfg.outcomes, d, rng)
    bound_margin = observational_ergotropy(rho, h, energy_incoherent(h, q)) - r_inc
    margin = max(equality_gap, bound_margin)
    return margin, margin > cfg.tolerance


def audit_energy_incoherent_limit(cfg: AuditConfig) -> AuditResult:
    return _run("theorem2", cfg, _incoherent_limit_trial)


def _fine_grained_optimum_trial(cfg: AuditConfig, rng: RandomSource, state: dict):
    """Measuring in the state's own eigenbasis attains full ergotropy; no
    fine-grained measurement exceeds it."""
    d = cfg.dimension
    rho = random_density(d, cfg.effective_rank, rng)
    h = random_hamiltonian(d, rng)
    r_full = ergotropy(rho, h)
    own_basis = FineGrainedMeasurement.from_basis(eig_hermitian(rho.op).eigenvectors)
    equality_gap = abs(observational_ergotropy(rho, h, own_basis) - r_full)
    sampled = FineGrainedMeasurement.from_basis(haar_unitary(d, rng))
    r_sampled = observational_ergotropy(rho, h, sampled)
    bound_margin = r_sampled - r_full
    if r_full > 1e-12:
        state["max_sampled_ratio"] = max(state.get("max_sampled_ratio", -np.inf), r_sampled / r_full)
    margin = max(equality_gap, bound_margin)
    return margin, margin > cfg.tolerance


def _fine_grained_optimum_details(state: dict) -> dict:
    # Lower estimate of the supremum over measurements, relative to the target.
    if "max_sampled_ratio" not in state:
        return {}
    return {"max_sampled_ratio": float(state["max_sampled_ratio"])}


def audit_fine_grained_optimum(cfg: AuditConfig) -> AuditResult:
    return _run("theorem3", cfg, _fine_grained_optimum_trial, _fine_grained_optimum_details)


def _spectrum_majorization_trial(cfg: AuditConfig, rng: RandomSource, state: dict):
    """Coarse-graining only mixes the estimate's spectrum: the fine spectrum
    majorizes the coarse one, the linking matrix is bistochastic, and it maps
    the fine outcome distribution onto the coarse spectrum."""
    d = cfg.dimension
    rho = random_density(d, cfg.effective_rank, rng)
    fine = FineGrainedMeasurement.from_basis(haar_unitary(d, rng))
    dmat = random_column_stochastic(cfg.outcomes, d, rng)
    coarse = post_process(fine, dmat)
    spec_fine = coarse_grained_state(rho, fine).spectrum()
    # Checked against the element matrices' estimate, not the Lemma 1 kernel.
    dense = unchecked(Povm, elements=coarse.elements, labels=coarse.labels)
    spec_coarse = coarse_grained_state(rho, dense).spectrum()
    deficit = majorization_deficit(spec_fine, spec_coarse, pad=True)
    b = refinement_bistochastic(fine, dmat)
    bisto_residual = max(max_abs(b.entries.sum(axis=0) - 1.0), max_abs(b.entries.sum(axis=1) - 1.0))
    mu = np.sort(b.entries @ outcome_distribution(rho, fine))
    mapped_residual = max_abs(mu - np.sort(spec_coarse))
    margin = max(deficit, bisto_residual, mapped_residual)
    violated = deficit > cfg.tolerance or bisto_residual > IDENTITY_TOL or mapped_residual > IDENTITY_TOL
    return margin, violated


def audit_spectrum_majorization(cfg: AuditConfig) -> AuditResult:
    return _run("lemma1", cfg, _spectrum_majorization_trial)


def _schur_concavity_trial(cfg: AuditConfig, rng: RandomSource, state: dict):
    """Mixing a spectrum with a bistochastic matrix cannot lower its passive
    energy."""
    d = cfg.dimension
    h = random_hamiltonian(d, rng)
    x = _simplex_uniform(d, rng)
    b = bistochastic_from_unitary(haar_unitary(d, rng))
    y = b.entries @ x
    margin = passive_energy_of_spectrum(h, x) - passive_energy_of_spectrum(h, y)
    return margin, margin > cfg.tolerance


def audit_schur_concavity(cfg: AuditConfig) -> AuditResult:
    return _run("schur", cfg, _schur_concavity_trial)


# Claim selectors exposed by the CLI, in execution order for full-suite runs.
CLAIM_AUDITS = {
    "theorem1": audit_postprocessing_monotonicity,
    "theorem2": audit_energy_incoherent_limit,
    "theorem3": audit_fine_grained_optimum,
    "lemma1": audit_spectrum_majorization,
    "schur": audit_schur_concavity,
}
_CLAIM_INDEX = {name: i + 1 for i, name in enumerate(CLAIM_AUDITS)}


def run_audit(claim: str, cfg: AuditConfig) -> AuditResult:
    if claim not in CLAIM_AUDITS:
        known = ", ".join([*CLAIM_AUDITS, "all"])
        raise InvalidClaim(f"unknown claim {claim!r} (expected one of: {known})")
    return CLAIM_AUDITS[claim](cfg)


def run_all(cfg: AuditConfig) -> list[AuditResult]:
    """Run every audit with per-claim split seeds; order is fixed."""
    return [fn(cfg) for fn in CLAIM_AUDITS.values()]


__all__ = [
    "CLAIM_AUDITS",
    "AuditConfig",
    "AuditResult",
    "audit_energy_incoherent_limit",
    "audit_fine_grained_optimum",
    "audit_postprocessing_monotonicity",
    "audit_schur_concavity",
    "audit_spectrum_majorization",
    "run_all",
    "run_audit",
]
