"""Independent oracles used by the tests.

The minimum-energy oracle deliberately avoids the package's own code paths:
it minimizes over explicitly sampled unitaries instead of using the sorted
closed form. The per-trial audit oracles are the reference implementation
of each claim: one trial at a time through the public object API
(validated states, Hamiltonians and measurements), against which the
batched audit engine is checked trial by trial.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ergokit.ergotropy import passive_energy_of_spectrum, report
from ergokit.linalg import TOL, energy_tol, max_abs
from ergokit.majorization import majorization_deficit
from ergokit.measurement import (
    Povm,
    coarse_grained_state,
    energy_incoherent,
    outcome_distribution,
    post_process,
    random_column_stochastic,
)
from ergokit.states import ginibre_state, haar_from_ginibre, haar_unitary, random_density, random_hamiltonian


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


def bench_oracle():
    """The benchmark's plain-numpy oracle (bench/oracle.py), which does not import ergokit."""
    spec = importlib.util.spec_from_file_location("bench_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qubit_sweep_closed_form(b):
    """Observational ergotropy of the diag(1/4, 3/4) / diag(0, 1) instance
    after folding the two computational outcomes together at rate b."""
    return ((3.0 + b) / 4.0) * (1.0 / (1.0 + b)) - 0.25


def stream(seed, key=()):
    """The generator behind ``RandomSource(seed)`` split along ``key``, for draws one raw call at a time."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def complex_normal(gen, shape):
    """Standard complex Gaussians: independent N(0, 1/2) real and imaginary parts, the real parts drawn first."""
    z = gen.standard_normal((2, *shape))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def trial_draws(gen, kinds, d, n=1, rank=None):
    """What generator ``gen`` samples for ``kinds``, built from one raw draw call each, not from
    ``states.recipes``: the reference for the rows of ``RandomSource.sample``."""
    rank = d if rank is None else rank

    def normalised(x):  # a vector, or each column of a matrix, onto the simplex
        return x / x.sum(axis=0)

    def levels():
        energies = np.sort(gen.random(d))
        gen.standard_normal((2, d, d))  # the basis's Gaussians: drawn, so later draws stay put, and dropped
        return [energies]

    draws = {"state": lambda: [ginibre_state(complex_normal(gen, (d, rank)))],
             "hamiltonian": lambda: [np.sort(gen.random(d)), haar_from_ginibre(complex_normal(gen, (d, d)))],
             "levels": levels,
             "haar": lambda: [haar_from_ginibre(complex_normal(gen, (d, d)))],
             "post": lambda: [normalised(gen.standard_exponential((n, d)))],
             "simplex": lambda: [normalised(gen.standard_exponential(d))]}
    return [x for kind in kinds for x in draws[kind]()]


# --- per-trial audit oracles ----------------------------------------------
# Each takes the audit configuration and the trial's own random stream and
# returns (margin, violated, ratio); for theorem3 ratio is the pair (sampled
# share of full ergotropy, full ergotropy), None when undefined or for other claims.

def monotonicity_trial(cfg, rng):
    """Coarsening a fine-grained measurement must not raise observational
    ergotropy."""
    d = cfg.dimension
    rho = random_density(d, cfg.rank, rng)
    h = random_hamiltonian(d, rng)
    fine = Povm(haar_unitary(d, rng))
    dmat = random_column_stochastic(cfg.outcomes, d, rng)
    coarse = post_process(fine, dmat)
    margin = report(rho, h, coarse).observational - report(rho, h, fine).observational
    return margin, margin > cfg.tolerance, None


def incoherent_limit_trial(cfg, rng):
    """No energy-incoherent measurement beats the incoherent ergotropy."""
    d = cfg.dimension
    h = random_hamiltonian(d, rng)
    rho = random_density(d, cfg.rank, rng)
    q = random_column_stochastic(cfg.outcomes, d, rng)
    rep = report(rho, h, energy_incoherent(h, q))
    margin = rep.observational - rep.incoherent
    return margin, margin > cfg.tolerance, None


def fine_grained_optimum_trial(cfg, rng):
    """No fine-grained measurement exceeds full ergotropy."""
    d = cfg.dimension
    rho = random_density(d, cfg.rank, rng)
    h = random_hamiltonian(d, rng)
    rep = report(rho, h, Povm(haar_unitary(d, rng)))
    r_full, r_sampled = rep.ergotropy, rep.observational
    ratio = (r_sampled / r_full, r_full) if r_full > energy_tol(d, max_abs(h.energies)) else None
    margin = r_sampled - r_full
    return margin, margin > cfg.tolerance, ratio


def spectrum_majorization_trial(cfg, rng):
    """Coarse-graining only mixes the estimate's spectrum: the fine spectrum
    majorizes the coarse one, the linking matrix is bistochastic, and it maps
    the fine outcome distribution onto the coarse spectrum."""
    d = cfg.dimension
    rho = random_density(d, cfg.rank, rng)
    fine = Povm(haar_unitary(d, rng))
    dmat = random_column_stochastic(cfg.outcomes, d, rng)
    coarse = post_process(fine, dmat)
    spec_fine = np.clip(coarse_grained_state(rho, fine).eigenvalues, 0.0, None)
    # Checked against the estimate sum_i tr(rho N_i) N_i / tr N_i of the element matrices, not the Lemma 1 kernel.
    elements = coarse.elements
    weights = np.einsum("ij,kji->k", rho.op, elements).real / np.einsum("kii->k", elements).real
    spec_coarse = np.clip(np.linalg.eigvalsh(np.einsum("k,kij->ij", weights, elements)), 0.0, None)
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
    x = rng.sample(("simplex",), d)[0]
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
