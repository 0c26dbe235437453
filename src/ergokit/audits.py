"""Randomized audits of the package's core inequalities and identities.

Each audit draws seeded random instances, evaluates one claim per trial, and
reports the trial count, the number of tolerance violations, and the worst
signed margin (positive margins are violations) and the first trial with it.
Trials run in chunks: each draws from its own stream and the claim is
evaluated over the stacked draws with the library's kernels. Results are pure
functions of the configuration, whatever the chunking, so re-running with the
same seed reproduces them exactly. Sampling gives evidence, not a proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidClaim, InvalidConfig
from .ergotropy import passive_energy_of_spectrum
from .linalg import diagonal_in_basis, hermitian_part, operator_in_basis, require_unitary
from .majorization import majorization_deficit
from .measurement import born_probabilities, estimate_spectrum
from .states import RandomSource, ginibre_state, haar_from_ginibre, random_levels, state_spectrum

# Fixed tolerance for the exact linear-algebra identities inside the spectrum-
# majorization audit; the configurable tolerance governs the inequalities.
IDENTITY_TOL = 1e-10
MIN_ENERGY_GAP = 1e-8
# Bytes of stacked arrays one chunk of trials may hold, a trial counting as
# 16 d^2 (n + 8): its complex d x d stacks plus lemma1's n dense elements.
CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class AuditConfig:
    dimension: int = 3
    outcomes: int = 4
    rank: int | None = None
    trials: int = 1000
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        d, rank = self.dimension, self.effective_rank
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
    worst_trial: int = 0
    details: dict = field(default_factory=dict)

    CSV_HEADER = "claim,trials,violations,worst_margin"

    def to_json_dict(self) -> dict:
        """Deterministic fields only; wall time is intentionally left out so
        identically seeded runs serialize byte-identically."""
        return {
            "claim": self.claim,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "worst_trial": self.worst_trial,
            "sampled": True,
            **self.details,
        }

    def to_csv_row(self) -> str:
        return f"{self.claim},{self.trials},{self.violations},{repr(float(self.worst_margin))}"


def _sample(cfg: AuditConfig, rngs, kinds: tuple, min_gap: float = 0.0) -> list:
    """Draw each trial from its own stream in the order of ``kinds``; build one stack per kind: "state" (states,
    eigenvalues), "hamiltonian" (observables, levels, eigenbases: built from the drawn levels and Haar bases),
    "haar", "post" (n x d stochastic), "simplex"."""
    d, n = cfg.dimension, cfg.outcomes
    draws = {"state": lambda rng: [rng.complex_normal((d, cfg.effective_rank))],
             "hamiltonian": lambda rng: [random_levels(d, rng, min_gap), rng.complex_normal((d, d))],
             "haar": lambda rng: [rng.complex_normal((d, d))],
             "post": lambda rng: [rng.exponential((n, d))],
             "simplex": lambda rng: [rng.exponential(d)]}
    per_trial = [[x for kind in kinds for x in draws[kind](rng)] for rng in rngs]
    stacks, built = iter([np.stack(column) for column in zip(*per_trial)]), []
    for kind in kinds:
        x = next(stacks)
        if kind == "state":
            rho = ginibre_state(x)
            built.append((rho, state_spectrum(rho)))
        elif kind == "hamiltonian":
            basis = haar_from_ginibre(next(stacks))
            built.append((hermitian_part(operator_in_basis(basis, x)), x, basis))
        elif kind == "haar":
            built.append(require_unitary(haar_from_ginibre(x), what="Haar sample", stack=True))
        else:
            built.append(x / x.sum(axis=-2 if kind == "post" else -1, keepdims=True))
    return built


def _mean_energy(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.trace(h @ rho, axis1=-2, axis2=-1).real


def _observational(mean: np.ndarray, energies: np.ndarray, post: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Observational ergotropy of (U, post) from the populations diag(U^dag rho U)."""
    return mean - passive_energy_of_spectrum(energies, estimate_spectrum(post, populations))


def _monotonicity(cfg: AuditConfig, rngs):
    """Coarsening a fine-grained measurement must not raise observational
    ergotropy."""
    (rho, _), (h, energies, _), u, post = _sample(cfg, rngs, ("state", "hamiltonian", "haar", "post"))
    p, mean = diagonal_in_basis(rho, u), _mean_energy(h, rho)
    margin = _observational(mean, energies, post, p) - _observational(mean, energies, np.eye(cfg.dimension), p)
    return margin, margin > cfg.tolerance


def _incoherent_limit(cfg: AuditConfig, rngs):
    """The projective energy measurement attains exactly the incoherent
    ergotropy, and no energy-incoherent measurement beats it."""
    (h, energies, v), (rho, _), q = _sample(cfg, rngs, ("hamiltonian", "state", "post"), MIN_ENERGY_GAP)
    p, mean = diagonal_in_basis(rho, v), _mean_energy(h, rho)
    r_inc = _mean_energy(h, operator_in_basis(v, p)) - passive_energy_of_spectrum(energies, p)
    equality_gap = np.abs(_observational(mean, energies, np.eye(cfg.dimension), p) - r_inc)
    margin = np.maximum(equality_gap, _observational(mean, energies, q, p) - r_inc)
    return margin, margin > cfg.tolerance


def _fine_grained_optimum(cfg: AuditConfig, rngs):
    """Measuring in the state's own eigenbasis attains full ergotropy; no
    fine-grained measurement exceeds it. Also gives sampled / full ergotropy."""
    (rho, w), (h, energies, _), u = _sample(cfg, rngs, ("state", "hamiltonian", "haar"))
    eye, mean = np.eye(cfg.dimension), _mean_energy(h, rho)
    r_full = mean - passive_energy_of_spectrum(energies, w)
    equality_gap = np.abs(_observational(mean, energies, eye, diagonal_in_basis(rho, np.linalg.eigh(rho)[1])) - r_full)
    r_sampled = _observational(mean, energies, eye, diagonal_in_basis(rho, u))
    margin, positive = np.maximum(equality_gap, r_sampled - r_full), r_full > 1e-12
    return margin, margin > cfg.tolerance, r_sampled[positive] / r_full[positive]


def _spectrum_majorization(cfg: AuditConfig, rngs):
    """Coarse-graining only mixes the estimate's spectrum: the fine spectrum
    majorizes the coarse one, the linking matrix is bistochastic, and it maps
    the fine outcome distribution onto the coarse spectrum."""
    (rho, _), u, post = _sample(cfg, rngs, ("state", "haar", "post"))
    fine = estimate_spectrum(np.eye(cfg.dimension), diagonal_in_basis(rho, u))
    # Checked against the estimate built from the element matrices, not the kernel.
    elements = operator_in_basis(u[:, np.newaxis], post)
    weights = born_probabilities(rho, elements) / np.trace(elements, axis1=-2, axis2=-1).real
    estimate = (weights[:, np.newaxis, :] @ elements.reshape(*weights.shape, -1)).reshape(rho.shape)
    spec_coarse = np.clip(state_spectrum(hermitian_part(estimate)), 0.0, None)
    deficit = majorization_deficit(np.sort(fine), spec_coarse)
    link = np.swapaxes(post / post.sum(axis=-1, keepdims=True), -1, -2) @ post
    bisto_residual = np.maximum(np.abs(link.sum(axis=-2) - 1.0).max(axis=-1), np.abs(link.sum(axis=-1) - 1.0).max(axis=-1))
    mapped_residual = np.abs(np.sort((link @ fine[..., np.newaxis])[..., 0]) - np.sort(spec_coarse)).max(axis=-1)
    margin = np.maximum(deficit, np.maximum(bisto_residual, mapped_residual))
    violated = (deficit > cfg.tolerance) | (bisto_residual > IDENTITY_TOL) | (mapped_residual > IDENTITY_TOL)
    return margin, violated


def _schur_concavity(cfg: AuditConfig, rngs):
    """Mixing a spectrum with a bistochastic matrix cannot lower its passive
    energy."""
    (_, energies, _), x, u = _sample(cfg, rngs, ("hamiltonian", "simplex", "haar"))
    y = (np.abs(u) ** 2 @ x[..., np.newaxis])[..., 0]
    margin = passive_energy_of_spectrum(energies, x) - passive_energy_of_spectrum(energies, y)
    return margin, margin > cfg.tolerance


def _chunks(claim: str, cfg: AuditConfig, evaluate):
    """Yield (first trial index, *evaluate(cfg, streams)) per chunk of at most CHUNK_BYTES.
    Trial t draws from stream t in any chunk, so per-trial results do not depend on the chunking."""
    root = RandomSource(cfg.seed).split(list(CLAIM_AUDITS).index(claim) + 1)
    size = max(1, CHUNK_BYTES // (16 * cfg.dimension ** 2 * (cfg.outcomes + 8)))
    for first in range(0, cfg.trials, size):
        yield (first, *evaluate(cfg, map(root.split, range(first, min(first + size, cfg.trials)))))


def _run(claim: str, cfg: AuditConfig) -> AuditResult:
    """Reduce the chunks: violation count, worst margin and its first trial,
    and (theorem3) the largest sampled share of full ergotropy."""
    start = time.perf_counter()
    violations, worst, worst_trial, ratio = 0, -np.inf, 0, -np.inf
    for first, margins, violated, *ratios in _chunks(claim, cfg, CLAIM_AUDITS[claim]):
        violations += int(np.count_nonzero(violated))
        k = int(np.argmax(margins))
        if margins[k] > worst:
            worst, worst_trial = float(margins[k]), first + k
        ratio = max([ratio, *(float(np.max(r, initial=-np.inf)) for r in ratios)])
    return AuditResult(claim, cfg.trials, violations, worst, time.perf_counter() - start, worst_trial,
                       {"max_sampled_ratio": ratio} if ratio > -np.inf else {})


# Claim selectors exposed by the CLI and their evaluators, in execution order
# for full-suite runs; claim k (from 1) draws from stream k of the seed.
CLAIM_AUDITS = {
    "theorem1": _monotonicity,
    "theorem2": _incoherent_limit,
    "theorem3": _fine_grained_optimum,
    "lemma1": _spectrum_majorization,
    "schur": _schur_concavity,
}


def run_audit(claim: str, cfg: AuditConfig) -> AuditResult:
    if claim not in CLAIM_AUDITS:
        known = ", ".join([*CLAIM_AUDITS, "all"])
        raise InvalidClaim(f"unknown claim {claim!r} (expected one of: {known})")
    return _run(claim, cfg)


def run_all(cfg: AuditConfig) -> list[AuditResult]:
    """Run every audit with per-claim split seeds; order is fixed."""
    return [_run(claim, cfg) for claim in CLAIM_AUDITS]


__all__ = [
    "CLAIM_AUDITS",
    "AuditConfig",
    "AuditResult",
    "run_all",
    "run_audit",
]
