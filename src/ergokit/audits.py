"""Randomized audits of the package's core inequalities and identities.

Each audit draws seeded random instances, evaluates one claim per trial, and
reports the trial count, the number of tolerance violations, and the worst
signed margin (positive margins are violations) and the first trial with it.
``CLAIM_AUDITS`` declares the kinds each claim draws. Trials run in chunks:
``RandomSource.sample`` builds a chunk's stacks, row i from trial i's own
stream, so trial t replays alone as ``root.split(t).sample(kinds, ...)``, and
the claim's evaluator reads the stacks with the library's kernels. Results are
pure functions of the configuration, whatever the chunking, so re-running with
the same seed reproduces them exactly. Sampling gives evidence, not a proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidClaim, InvalidConfig
from .ergotropy import passive_energy_of_spectrum, work
from .linalg import LOOSE_TOL, TOL, diagonal_in_basis, energy_tol, hermitian_part, operator_in_basis
from .majorization import majorization_deficit
from .measurement import born_probabilities, estimate_spectrum, link_matrix
from .states import RandomSource, is_integer, require_int

# Bytes of stacked arrays one chunk of trials may hold, a trial counting as 16 d^2 (n + 8): its complex d x d
# stacks plus n matrices. lemma1 holds ELEMENT_BLOCK of its n elements at a time, so n over-counts it, but the
# count keeps a chunk at large d to one trial, which bounds the memory of every claim.
CHUNK_BYTES = 4 << 20
# Dense elements lemma1's cross-check builds at a time. A fixed length, not one taken from CHUNK_BYTES, so that
# its sums, and with them each trial's margin, do not depend on the chunking; a chunk then holds at most this many
# elements per trial whatever n is.
ELEMENT_BLOCK = 8


def _trial_bytes(d, n) -> int:
    """One trial's bytes as CHUNK_BYTES counts them, in Python integers so that numpy sizes cannot wrap."""
    return 16 * int(d) ** 2 * (int(n) + 8)


@dataclass(frozen=True)
class AuditConfig:
    dimension: int = 3
    outcomes: int = 4
    rank: int | None = None
    trials: int = 1000
    seed: int = 0
    tolerance: float = LOOSE_TOL

    def __post_init__(self):
        d = require_int(self.dimension, "dimension", 1, error=InvalidConfig)
        require_int(self.outcomes, "outcomes", 1, error=InvalidConfig)
        if self.rank is not None:  # None is full rank, which RandomSource.sample resolves
            require_int(self.rank, "rank", 1, d, InvalidConfig)
        require_int(self.trials, "trials", 1, (1 << 32) - 1, InvalidConfig)  # a trial index is one key word
        require_int(self.seed, "seed", 0, error=InvalidConfig)
        if _trial_bytes(d, self.outcomes) > np.iinfo(np.intp).max:  # past what any array can hold
            raise InvalidConfig(f"one trial at dimension {d} with {self.outcomes} outcomes counts "
                                f"{_trial_bytes(d, self.outcomes)} bytes, past the largest array size")
        tol = self.tolerance  # finite: inf would pass every margin, and an int past the float range cannot be compared
        if not (isinstance(tol, (float, np.floating)) or is_integer(tol)) or not 0 < tol <= np.finfo(float).max.item():
            raise InvalidConfig(f"tolerance must be a finite positive number, got {tol!r}")


@dataclass(frozen=True)
class AuditResult:
    claim: str
    trials: int
    violations: int
    worst_margin: float
    wall_time_s: float
    worst_trial: int = 0
    details: dict = field(default_factory=dict)


def _monotonicity(cfg: AuditConfig, rho, energies, v, u, post):
    """Coarsening a fine-grained measurement must not raise observational
    ergotropy."""
    p, fine = diagonal_in_basis(rho, v), diagonal_in_basis(rho, u)
    coarse_work = work(energies, p, estimate_spectrum(post, fine))
    margin = coarse_work - work(energies, p, estimate_spectrum(np.eye(cfg.dimension), fine))
    return margin, margin > cfg.tolerance


def _incoherent_limit(cfg: AuditConfig, energies, v, rho, q):
    """No energy-incoherent measurement beats the incoherent ergotropy. That the energy basis attains it is a
    kernel identity (over D = I the estimate is p itself) that no sampled margin can test, so tier-1 pins it."""
    p = diagonal_in_basis(rho, v)
    margin = work(energies, p, estimate_spectrum(q, p)) - work(energies, p, p)
    return margin, margin > cfg.tolerance


def _fine_grained_optimum(cfg: AuditConfig, rho, energies, v, u):
    """No fine-grained measurement exceeds full ergotropy; also gives sampled / full ergotropy. That the state's own
    eigenbasis attains it reads only the eigensolver's residual, which no sampled margin can test, so tier-1 pins it."""
    p = diagonal_in_basis(rho, v)
    r_full = work(energies, p, np.linalg.eigvalsh(rho))
    r_sampled = work(energies, p, estimate_spectrum(np.eye(cfg.dimension), diagonal_in_basis(rho, u)))
    positive = r_full > energy_tol(cfg.dimension, np.abs(energies).max(axis=-1))  # ratios only where r_full is not roundoff
    margin = r_sampled - r_full
    return margin, margin > cfg.tolerance, r_sampled[positive] / r_full[positive]


def _dense_estimate(rho: np.ndarray, basis: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i p_i M_i / tr M_i, p_i = tr(rho M_i), over the dense elements M_i = U diag(D_i) U^dag
    of basis U (..., d, d) and post D (..., n, d), built ELEMENT_BLOCK at a time; leading axes are a batch."""
    estimate = 0.0
    for start in range(0, post.shape[-2], ELEMENT_BLOCK):
        elements = operator_in_basis(basis[..., np.newaxis, :, :], post[..., start:start + ELEMENT_BLOCK, :])
        weights = born_probabilities(rho, elements) / np.trace(elements, axis1=-2, axis2=-1).real
        estimate = estimate + (weights[..., np.newaxis, :] @ elements.reshape(*weights.shape, -1)).reshape(rho.shape)
    return hermitian_part(estimate)


def _spectrum_majorization(cfg: AuditConfig, rho, u, post):
    """Coarse-graining only mixes the estimate's spectrum: the fine spectrum
    majorizes the coarse one (within cfg.tolerance), the linking matrix is bistochastic,
    and it maps the fine outcome distribution onto the coarse spectrum (within TOL)."""
    fine = estimate_spectrum(np.eye(cfg.dimension), diagonal_in_basis(rho, u))
    # Checked against the estimate built from the element matrices, not the kernel.
    spec_coarse = np.clip(np.linalg.eigvalsh(_dense_estimate(rho, u, post)), 0.0, None)
    deficit = majorization_deficit(fine, spec_coarse)
    link = link_matrix(post)
    bisto_residual = np.maximum(np.abs(link.sum(axis=-2) - 1.0).max(axis=-1), np.abs(link.sum(axis=-1) - 1.0).max(axis=-1))
    mapped_residual = np.abs(np.sort((link @ fine[..., np.newaxis])[..., 0]) - spec_coarse).max(axis=-1)
    margin = np.maximum(deficit, np.maximum(bisto_residual, mapped_residual))
    violated = (deficit > cfg.tolerance) | (bisto_residual > TOL) | (mapped_residual > TOL)
    return margin, violated


def _schur_concavity(cfg: AuditConfig, energies, x, u):
    """Mixing a spectrum with a bistochastic matrix cannot lower its passive
    energy."""
    y = (np.abs(u) ** 2 @ x[..., np.newaxis])[..., 0]
    margin = passive_energy_of_spectrum(energies, x) - passive_energy_of_spectrum(energies, y)
    return margin, margin > cfg.tolerance


def _chunks(claim: str, cfg: AuditConfig):
    """Yield (first trial index, *evaluate(cfg, *stacks)) per chunk of at most CHUNK_BYTES, its stacks sampled once from
    the claim's kinds. Trial t draws from stream root.split(t) in any chunk, so no result depends on the chunking."""
    kinds, evaluate = CLAIM_AUDITS[claim]
    root = RandomSource(cfg.seed).split(list(CLAIM_AUDITS).index(claim) + 1)
    size = max(1, CHUNK_BYTES // _trial_bytes(cfg.dimension, cfg.outcomes))
    for first in range(0, cfg.trials, size):
        trials = range(first, min(first + size, cfg.trials))
        yield (first, *evaluate(cfg, *root.sample(kinds, cfg.dimension, cfg.outcomes, cfg.rank, trials)))


def run_audit(claim: str, cfg: AuditConfig) -> AuditResult:
    """Check the claim's name, then reduce its chunks: violation count, worst margin and its first trial,
    and (theorem3) the largest sampled share of full ergotropy."""
    if claim not in CLAIM_AUDITS:
        known = ", ".join([*CLAIM_AUDITS, "all"])
        raise InvalidClaim(f"unknown claim {claim!r} (expected one of: {known})")
    start = time.perf_counter()
    violations, worst, worst_trial, ratio = 0, -np.inf, 0, -np.inf
    for first, margins, violated, *ratios in _chunks(claim, cfg):
        violations += int(np.count_nonzero(violated))
        k = int(np.argmax(margins))
        if margins[k] > worst:
            worst, worst_trial = float(margins[k]), first + k
        ratio = max([ratio, *(float(np.max(r, initial=-np.inf)) for r in ratios)])
    return AuditResult(claim, cfg.trials, violations, worst, time.perf_counter() - start, worst_trial,
                       {"max_sampled_ratio": ratio} if ratio > -np.inf else {})


# The claims the CLI exposes, in full-suite order: name -> (the draws one trial makes, in stream order; the evaluator
# of their built stacks). Claim k (from 1) draws from stream k of the seed, so entries are only ever appended.
CLAIM_AUDITS = {
    "theorem1": (("state", "hamiltonian", "haar", "post"), _monotonicity),
    "theorem2": (("hamiltonian", "state", "post"), _incoherent_limit),
    "theorem3": (("state", "hamiltonian", "haar"), _fine_grained_optimum),
    "lemma1": (("state", "haar", "post"), _spectrum_majorization),
    "schur": (("levels", "simplex", "haar"), _schur_concavity),
}


def run_all(cfg: AuditConfig) -> list[AuditResult]:
    """Run every audit with per-claim split seeds; order is fixed."""
    return [run_audit(claim, cfg) for claim in CLAIM_AUDITS]


__all__ = [
    "CLAIM_AUDITS",
    "AuditConfig",
    "AuditResult",
    "run_all",
    "run_audit",
]
