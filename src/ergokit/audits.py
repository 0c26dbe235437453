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
from .linalg import LOOSE_TOL, TOL, diagonal_in_basis, energy_tol, hermitian_part, operator_in_basis
from .majorization import majorization_deficit
from .measurement import born_probabilities, estimate_spectrum, link_matrix
from .states import RandomSource, ginibre_state, haar_from_ginibre, is_integer, state_spectrum

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
    tolerance: float = LOOSE_TOL

    def __post_init__(self):
        for name in ("dimension", "outcomes", "trials", "seed") + (("rank",) if self.rank is not None else ()):
            if not is_integer(getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        d, rank = self.dimension, self.effective_rank
        if d < 1:
            raise InvalidConfig(f"dimension must be positive, got {d}")
        if self.outcomes < 1:
            raise InvalidConfig(f"outcome count must be positive, got {self.outcomes}")
        if not 1 <= rank <= d:
            raise InvalidConfig(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
        if not 1 <= self.trials < 1 << 32:  # a trial index enters its stream's key as one uint32 word
            raise InvalidConfig(f"trials must lie in [1, 2^32), got {self.trials}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a non-negative integer, got {self.seed}")
        if not (isinstance(self.tolerance, (float, np.floating)) or is_integer(self.tolerance)) or not self.tolerance > 0:
            raise InvalidConfig(f"tolerance must be a positive number, got {self.tolerance!r}")

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


def _draw(cfg: AuditConfig, root: RandomSource, trials: range, kinds: tuple) -> list:
    """Row i of each stack is what root.split(trials[i]) draws alone in the order of ``kinds``: complex Gaussians for
    "state", "haar" and "hamiltonian" after its sorted uniform levels, standard exponentials for "post" and "simplex"."""
    d, n = cfg.dimension, cfg.outcomes
    draws = {"state": [("normal", (2, d, cfg.effective_rank))], "hamiltonian": [("uniform", (d,)), ("normal", (2, d, d))],
             "haar": [("normal", (2, d, d))], "post": [("exponential", (n, d))], "simplex": [("exponential", (d,))]}
    plan = [(name, np.empty((len(trials), *shape))) for kind in kinds for name, shape in draws[kind]]
    root.fill(trials, plan)
    for levels in (out for name, out in plan if name == "uniform"):
        levels.sort(axis=-1)
    return [(z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0) if name == "normal" else z for name, z in plan]


def _sample(cfg: AuditConfig, root: RandomSource, trials: range, kinds: tuple) -> list:
    """Build ``_draw``'s stacks, not checked again: "state", "hamiltonian" (ascending levels and the Haar basis of their
    eigenvectors; no operator is built), "haar", "post", "simplex"."""
    stacks, built = iter(_draw(cfg, root, trials, kinds)), []
    for kind in kinds:
        x = next(stacks)
        if kind == "state":
            built.append(ginibre_state(x))
        elif kind == "hamiltonian":
            built.append((x, haar_from_ginibre(next(stacks))))
        elif kind == "haar":
            built.append(haar_from_ginibre(x))
        else:
            built.append(x / x.sum(axis=-2 if kind == "post" else -1, keepdims=True))
    return built


def _observational(mean: np.ndarray, energies: np.ndarray, post: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Observational ergotropy of (U, post) from the populations diag(U^dag rho U) and the mean energy
    tr(H rho), which each claim reads as sum_k E_k p_k off rho's populations p in H's eigenbasis."""
    return mean - passive_energy_of_spectrum(energies, estimate_spectrum(post, populations, 1.0))


def _monotonicity(cfg: AuditConfig, root: RandomSource, trials: range):
    """Coarsening a fine-grained measurement must not raise observational
    ergotropy."""
    rho, (energies, v), u, post = _sample(cfg, root, trials, ("state", "hamiltonian", "haar", "post"))
    p, mean = diagonal_in_basis(rho, u), np.sum(energies * diagonal_in_basis(rho, v), axis=-1)
    margin = _observational(mean, energies, post, p) - _observational(mean, energies, np.eye(cfg.dimension), p)
    return margin, margin > cfg.tolerance


def _incoherent_limit(cfg: AuditConfig, root: RandomSource, trials: range):
    """The projective energy measurement attains exactly the incoherent
    ergotropy, and no energy-incoherent measurement beats it."""
    (energies, v), rho, q = _sample(cfg, root, trials, ("hamiltonian", "state", "post"))
    p = diagonal_in_basis(rho, v)
    mean = np.sum(energies * p, axis=-1)
    r_inc = mean - passive_energy_of_spectrum(energies, p)  # for p >= 0 the equality side is this same sum: gap 0
    equality_gap = np.abs(_observational(mean, energies, np.eye(cfg.dimension), p) - r_inc)
    margin = np.maximum(equality_gap, _observational(mean, energies, q, p) - r_inc)
    return margin, margin > cfg.tolerance


def _fine_grained_optimum(cfg: AuditConfig, root: RandomSource, trials: range):
    """Measuring in the state's own eigenbasis attains full ergotropy; no
    fine-grained measurement exceeds it. Also gives sampled / full ergotropy."""
    rho, (energies, v), u = _sample(cfg, root, trials, ("state", "hamiltonian", "haar"))
    mean, (w, vectors) = np.sum(energies * diagonal_in_basis(rho, v), axis=-1), np.linalg.eigh(rho)
    eye = np.eye(cfg.dimension)
    r_full = mean - passive_energy_of_spectrum(energies, w)
    equality_gap = np.abs(_observational(mean, energies, eye, diagonal_in_basis(rho, vectors)) - r_full)
    r_sampled = _observational(mean, energies, eye, diagonal_in_basis(rho, u))
    positive = r_full > energy_tol(cfg.dimension, np.abs(energies).max(axis=-1))  # ratios only where r_full is not roundoff
    margin = np.maximum(equality_gap, r_sampled - r_full)
    return margin, margin > cfg.tolerance, r_sampled[positive] / r_full[positive]


def _dense_estimate(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i p_i M_i / tr M_i, p_i = tr(rho M_i), for elements (..., k, d, d); leading axes are a batch."""
    weights = born_probabilities(rho, elements) / np.trace(elements, axis1=-2, axis2=-1).real
    return hermitian_part((weights[..., np.newaxis, :] @ elements.reshape(*weights.shape, -1)).reshape(rho.shape))


def _spectrum_majorization(cfg: AuditConfig, root: RandomSource, trials: range):
    """Coarse-graining only mixes the estimate's spectrum: the fine spectrum
    majorizes the coarse one (within cfg.tolerance), the linking matrix is bistochastic,
    and it maps the fine outcome distribution onto the coarse spectrum (within TOL)."""
    rho, u, post = _sample(cfg, root, trials, ("state", "haar", "post"))
    fine = estimate_spectrum(np.eye(cfg.dimension), diagonal_in_basis(rho, u), 1.0)
    # Checked against the estimate built from the element matrices, not the kernel.
    spec_coarse = np.clip(state_spectrum(_dense_estimate(rho, operator_in_basis(u[:, np.newaxis], post))), 0.0, None)
    deficit = majorization_deficit(np.sort(fine), spec_coarse)
    link = link_matrix(post)
    bisto_residual = np.maximum(np.abs(link.sum(axis=-2) - 1.0).max(axis=-1), np.abs(link.sum(axis=-1) - 1.0).max(axis=-1))
    mapped_residual = np.abs(np.sort((link @ fine[..., np.newaxis])[..., 0]) - np.sort(spec_coarse)).max(axis=-1)
    margin = np.maximum(deficit, np.maximum(bisto_residual, mapped_residual))
    violated = (deficit > cfg.tolerance) | (bisto_residual > TOL) | (mapped_residual > TOL)
    return margin, violated


def _schur_concavity(cfg: AuditConfig, root: RandomSource, trials: range):
    """Mixing a spectrum with a bistochastic matrix cannot lower its passive
    energy."""
    (energies, _), x, u = _sample(cfg, root, trials, ("hamiltonian", "simplex", "haar"))
    y = (np.abs(u) ** 2 @ x[..., np.newaxis])[..., 0]
    margin = passive_energy_of_spectrum(energies, x) - passive_energy_of_spectrum(energies, y)
    return margin, margin > cfg.tolerance


def _chunks(claim: str, cfg: AuditConfig, evaluate):
    """Yield (first trial index, *evaluate(cfg, root, trials)) per chunk of at most CHUNK_BYTES.
    Trial t draws from stream root.split(t) in any chunk, so per-trial results do not depend on the chunking."""
    root = RandomSource(cfg.seed).split(list(CLAIM_AUDITS).index(claim) + 1)
    size = max(1, CHUNK_BYTES // (16 * cfg.dimension ** 2 * (cfg.outcomes + 8)))
    for first in range(0, cfg.trials, size):
        yield (first, *evaluate(cfg, root, range(first, min(first + size, cfg.trials))))


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
