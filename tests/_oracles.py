"""Independent oracles used by the tests.

The minimum-energy oracle deliberately avoids the package's own code paths:
it minimizes over explicitly sampled unitaries instead of using the sorted
closed form. The per-trial audit oracles are the reference implementation
of each claim: one trial at a time through the public object API
(validated states, Hamiltonians and measurements), against which the
batched audit engine is checked trial by trial.
"""

import numpy as np

from ergokit.ergotropy import ergotropy, incoherent_ergotropy, observational_ergotropy, passive_energy_of_spectrum
from ergokit.linalg import TOL, eig_hermitian, energy_tol, max_abs, unchecked
from ergokit.majorization import majorization_deficit
from ergokit.measurement import (
    FineGrainedMeasurement,
    Povm,
    coarse_grained_state,
    energy_incoherent,
    outcome_distribution,
    post_process,
    random_column_stochastic,
)
from ergokit.states import haar_unitary, random_density, random_hamiltonian


def sampled_min_energy(rho_op, h_op, samples, seed, batch=2000):
    """Minimum of tr(H U rho U^dag) over `samples` Haar-random unitaries."""
    rho_op = np.asarray(rho_op, dtype=complex)
    h_op = np.asarray(h_op, dtype=complex)
    d = rho_op.shape[0]
    gen = np.random.default_rng(seed)
    best = np.inf
    left = samples
    while left > 0:
        count = min(batch, left)
        left -= count
        z = (gen.standard_normal((count, d, d)) + 1j * gen.standard_normal((count, d, d))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        u = q * (diag / np.abs(diag))[:, np.newaxis, :]
        energies = np.einsum("li,bij,jk,blk->b", h_op, u, rho_op, np.conj(u)).real
        best = min(best, float(np.min(energies)))
    return best


def qubit_sweep_closed_form(b):
    """Observational ergotropy of the diag(1/4, 3/4) / diag(0, 1) instance
    after folding the two computational outcomes together at rate b."""
    return ((3.0 + b) / 4.0) * (1.0 / (1.0 + b)) - 0.25


def trial_draws(cfg, rng, kinds):
    """One audit trial's raw draws from its own stream, one call per draw, in
    the order of ``kinds`` (the reference for the chunked sampler's rows)."""
    d, n = cfg.dimension, cfg.outcomes
    draws = {"state": lambda: [rng.complex_normal((d, cfg.effective_rank))],
             "hamiltonian": lambda: [np.sort(rng.uniform(d)), rng.complex_normal((d, d))],
             "haar": lambda: [rng.complex_normal((d, d))],
             "post": lambda: [rng.exponential((n, d))],
             "simplex": lambda: [rng.exponential(d)]}
    return [x for kind in kinds for x in draws[kind]()]


# --- per-trial audit oracles ----------------------------------------------
# Each takes the audit configuration and the trial's own random stream and
# returns (margin, violated, ratio); for theorem3 ratio is the pair (sampled
# share of full ergotropy, full ergotropy), None when undefined or for other claims.

def monotonicity_trial(cfg, rng):
    """Coarsening a fine-grained measurement must not raise observational
    ergotropy."""
    d = cfg.dimension
    rho = random_density(d, cfg.effective_rank, rng)
    h = random_hamiltonian(d, rng)
    fine = FineGrainedMeasurement.from_basis(haar_unitary(d, rng))
    dmat = random_column_stochastic(cfg.outcomes, d, rng)
    coarse = post_process(fine, dmat)
    margin = observational_ergotropy(rho, h, coarse) - observational_ergotropy(rho, h, fine)
    return margin, margin > cfg.tolerance, None


def incoherent_limit_trial(cfg, rng):
    """The projective energy measurement attains exactly the incoherent
    ergotropy, and no energy-incoherent measurement beats it."""
    d = cfg.dimension
    h = random_hamiltonian(d, rng)
    rho = random_density(d, cfg.effective_rank, rng)
    r_inc = incoherent_ergotropy(rho, h)
    energy_basis = FineGrainedMeasurement.from_basis(h.eigenbasis)
    equality_gap = abs(observational_ergotropy(rho, h, energy_basis) - r_inc)
    q = random_column_stochastic(cfg.outcomes, d, rng)
    bound_margin = observational_ergotropy(rho, h, energy_incoherent(h, q)) - r_inc
    margin = max(equality_gap, bound_margin)
    return margin, margin > cfg.tolerance, None


def fine_grained_optimum_trial(cfg, rng):
    """Measuring in the state's own eigenbasis attains full ergotropy; no
    fine-grained measurement exceeds it."""
    d = cfg.dimension
    rho = random_density(d, cfg.effective_rank, rng)
    h = random_hamiltonian(d, rng)
    r_full = ergotropy(rho, h)
    own_basis = FineGrainedMeasurement.from_basis(eig_hermitian(rho.op)[1])
    equality_gap = abs(observational_ergotropy(rho, h, own_basis) - r_full)
    sampled = FineGrainedMeasurement.from_basis(haar_unitary(d, rng))
    r_sampled = observational_ergotropy(rho, h, sampled)
    bound_margin = r_sampled - r_full
    ratio = (r_sampled / r_full, r_full) if r_full > energy_tol(d, max_abs(h.energies)) else None
    margin = max(equality_gap, bound_margin)
    return margin, margin > cfg.tolerance, ratio


def spectrum_majorization_trial(cfg, rng):
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
    dense = unchecked(Povm, base=coarse.elements, post=np.eye(coarse.n_outcomes))
    spec_coarse = coarse_grained_state(rho, dense).spectrum()
    deficit = majorization_deficit(spec_fine, spec_coarse)
    # The link from its definition, not the library's kernel: q(j|i) = D_ij V_j / sum_k D_ik V_k
    # is the chance that coarse outcome i came from fine outcome j, and B = q^T D.
    weighted = dmat.entries * fine.volumes[np.newaxis, :]
    q = weighted / weighted.sum(axis=1, keepdims=True)
    b = q.T @ dmat.entries
    bisto_residual = max(max_abs(b.sum(axis=0) - 1.0), max_abs(b.sum(axis=1) - 1.0))
    mu = np.sort(b @ outcome_distribution(rho, fine))
    mapped_residual = max_abs(mu - np.sort(spec_coarse))
    margin = max(deficit, bisto_residual, mapped_residual)
    violated = deficit > cfg.tolerance or bisto_residual > TOL or mapped_residual > TOL
    return margin, violated, None


def schur_concavity_trial(cfg, rng):
    """Mixing a spectrum with a bistochastic matrix cannot lower its passive
    energy."""
    d = cfg.dimension
    h = random_hamiltonian(d, rng)
    x = rng.exponential(d)
    x = x / x.sum()
    y = np.abs(haar_unitary(d, rng)) ** 2 @ x  # |U|^2 of a unitary is bistochastic
    margin = passive_energy_of_spectrum(h.energies, x) - passive_energy_of_spectrum(h.energies, y)
    return margin, margin > cfg.tolerance, None


TRIAL_ORACLES = {
    "theorem1": monotonicity_trial,
    "theorem2": incoherent_limit_trial,
    "theorem3": fine_grained_optimum_trial,
    "lemma1": spectrum_majorization_trial,
    "schur": schur_concavity_trial,
}
