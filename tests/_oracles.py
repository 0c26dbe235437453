"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: the minimum-energy
oracle minimizes over explicitly sampled unitaries instead of using the
sorted closed form.
"""

import numpy as np


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
