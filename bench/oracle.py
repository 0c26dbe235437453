"""Seeded instance generator and an independent plain-numpy oracle for the
numbers the ergokit CLI prints.

Nothing here imports ergokit: the oracle recomputes every reported quantity
from the definitions (mean energy, passive energy of a spectrum, energy
dephasing, the estimate sum_i p_i M_i / tr M_i), so a defect in the program's
own kernels cannot hide behind a shared helper.
"""

from __future__ import annotations

import numpy as np

# Energy levels of generated Hamiltonians are at least this far apart, so
# the energy eigenbasis (and with it the incoherent ergotropy) is unique.
MIN_LEVEL_GAP = 0.05
# Rank of each element A_i = G_i G_i^dag before normalisation; 2 keeps the
# POVM general (no element is a projector) without making elements full rank.
ELEMENT_RANK = 2
# Agreement required between program and oracle, in units of d * ||H||.
TOL_PER_D_NORM = 1e-13


def _ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, (d, d)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def make_instance(seed: int, index: int, d: int) -> dict:
    """Random full-rank state, non-degenerate H and a general POVM with 2d
    elements, normalised by S^{-1/2} with S the sum of the raw elements."""
    rng = np.random.default_rng([seed, index])
    g = _ginibre(rng, (d, d))
    rho = _hermitian_part(g @ np.conj(g.T))
    rho = rho / np.trace(rho).real
    levels = np.cumsum(MIN_LEVEL_GAP + rng.uniform(size=d))
    u = _haar_unitary(rng, d)
    h = _hermitian_part((u * levels) @ np.conj(u.T))
    gs = _ginibre(rng, (2 * d, d, ELEMENT_RANK))
    raw = gs @ np.conj(np.swapaxes(gs, -1, -2))
    w, v = np.linalg.eigh(raw.sum(axis=0))
    s_inv_half = (v / np.sqrt(w)) @ np.conj(v.T)
    povm = _hermitian_part(s_inv_half @ raw @ s_inv_half)
    return {"rho": rho, "h": h, "povm": povm}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def instance_document(inst: dict) -> dict:
    """The instance in ergokit's JSON schema; floats round-trip exactly."""
    return {
        "dimension": int(inst["rho"].shape[0]),
        "hamiltonian": _matrix_json(inst["h"]),
        "state": _matrix_json(inst["rho"]),
        "measurements": {"general": [_matrix_json(e) for e in inst["povm"]]},
    }


def instance_defects(inst: dict) -> dict:
    """Distances from the properties the generator promises (all should be
    far below 1e-9, except min_gap and projector_defect which should be
    large)."""
    rho, h, povm = inst["rho"], inst["h"], inst["povm"]
    d = rho.shape[0]
    element_eigs = np.linalg.eigvalsh(povm)
    return {
        "trace": abs(float(np.trace(rho).real) - 1.0),
        "rho_min_eig": float(np.linalg.eigvalsh(rho).min()),
        "min_gap": float(np.diff(np.linalg.eigvalsh(h)).min()),
        "completeness": float(np.abs(povm.sum(axis=0) - np.eye(d)).max()),
        "element_min_eig": float(element_eigs.min()),
        "projector_defect": float(np.abs(povm @ povm - povm).max(axis=(1, 2)).min()),
        "outcomes": int(povm.shape[0]),
    }


def tolerance(inst: dict) -> float:
    d = inst["rho"].shape[0]
    return TOL_PER_D_NORM * d * float(np.abs(np.linalg.eigvalsh(inst["h"])).max())


def _passive(energies_ascending: np.ndarray, spectrum: np.ndarray) -> float:
    return float(energies_ascending @ np.sort(spectrum)[::-1])


def observational(rho: np.ndarray, h: np.ndarray, elements: np.ndarray) -> float:
    """tr(H rho) minus the passive energy of sum_i p_i M_i / tr M_i."""
    p = np.einsum("ij,kji->k", rho, elements).real
    volumes = np.einsum("kii->k", elements).real
    estimate = _hermitian_part(np.einsum("k,kij->ij", p / volumes, elements))
    energies = np.linalg.eigvalsh(h)
    return float(np.trace(h @ rho).real) - _passive(energies, np.linalg.eigvalsh(estimate))


def report_values(inst: dict) -> dict:
    """Every field of ``ergokit report --measurement general``."""
    rho, h = inst["rho"], inst["h"]
    energies, basis = np.linalg.eigh(h)
    mean = float(np.trace(h @ rho).real)
    passive = _passive(energies, np.linalg.eigvalsh(rho))
    populations = np.einsum("ji,jk,ki->i", np.conj(basis), rho, basis).real
    incoherent = mean - _passive(energies, populations)
    return {
        "d": int(rho.shape[0]),
        "mean": mean,
        "passive": passive,
        "ergotropy": mean - passive,
        "incoherent": incoherent,
        "coherent": mean - passive - incoherent,
        "observational": observational(rho, h, inst["povm"]),
    }


def mix_sweep_values(inst: dict, grid) -> list:
    """Observational ergotropy of the general POVM blended with uniform
    relabeling, D(t) = (1 - t) I + t/n J, at each grid point."""
    povm = inst["povm"]
    n = povm.shape[0]
    out = []
    for t in grid:
        dmat = (1.0 - t) * np.eye(n) + t * np.full((n, n), 1.0 / n)
        coarse = np.einsum("ij,jkl->ikl", dmat, povm)
        out.append(observational(inst["rho"], inst["h"], coarse))
    return out
