"""Audits that can fail: one-line mutants of the kernels, and the checks that catch them.

Each mutant is its kernel with one line changed. It replaces the kernel in every ergokit module that binds it, as
an edit of the source would, and ``verify``'s audits must then report violations in the named claims.
"""

import importlib
import sys

import numpy as np
import pytest

from ergokit.audits import AuditConfig, run_all
from ergokit.ergotropy import passive_energy_of_spectrum
from ergokit.linalg import diagonal_in_basis
from ergokit.measurement import estimate_spectrum, link_matrix

CFG = AuditConfig(dimension=3, outcomes=4, trials=100, seed=0)


def ascending_passive_sort(energies, spectrum):
    x = np.asarray(spectrum, dtype=float)
    out = (energies[..., np.newaxis, :] @ np.sort(x, axis=-1)[..., np.newaxis])[..., 0, 0]  # was -np.sort(-x)
    return out if out.ndim else float(out)


def estimate_without_volumes(post, populations):
    probs = np.clip((post @ populations[..., np.newaxis])[..., 0], 0.0, None)
    return (np.swapaxes(post, -1, -2) @ probs[..., np.newaxis])[..., 0]  # was probs / post.sum(axis=-1)


def link_over_column_sums(post):
    return np.swapaxes(post / post.sum(axis=-2, keepdims=True), -1, -2) @ post  # was post.sum(axis=-1)


def populations_without_conjugate(a, basis):
    return np.real(np.sum(basis * (a @ basis), axis=-2))  # was np.conj(basis)


# (kernel, its mutant, the claims whose audits must report violations at CFG). The passive sort also runs inside
# `work`, so every claim but lemma1 sees it.
VERIFY_CATCHES = [
    (passive_energy_of_spectrum, ascending_passive_sort, {"theorem1", "theorem2", "theorem3", "schur"}),
    (estimate_spectrum, estimate_without_volumes, {"theorem1", "theorem2"}),
    (link_matrix, link_over_column_sums, {"lemma1"}),
    (diagonal_in_basis, populations_without_conjugate, {"theorem1", "theorem3", "lemma1"}),
]


def mutate(monkeypatch, kernel, mutant):
    """Bind ``mutant`` wherever an ergokit module binds ``kernel``."""
    modules = [module for name, module in sys.modules.items() if name == "ergokit" or name.startswith("ergokit.")]
    bound = [module for module in modules if getattr(module, kernel.__name__, None) is kernel]
    assert bound, kernel
    for module in bound:
        monkeypatch.setattr(module, kernel.__name__, mutant)


@pytest.mark.parametrize("kernel, mutant, claims", VERIFY_CATCHES, ids=[row[1].__name__ for row in VERIFY_CATCHES])
def test_verify_reports_each_mutant_in_its_claims(monkeypatch, kernel, mutant, claims):
    mutate(monkeypatch, kernel, mutant)
    flagged = {result.claim for result in run_all(CFG) if result.violations}
    assert flagged == claims


def test_tier1_catches_the_conjugate_mutant_in_theorem3s_equality(monkeypatch):
    # verify theorem3 audits the bound alone; the own-basis equality is tier-1's, and must fail on this mutant too
    equality = importlib.import_module("test_ergotropy").test_observational_ergotropy_eigenbasis_recovers_full
    mutate(monkeypatch, diagonal_in_basis, populations_without_conjugate)
    with pytest.raises(AssertionError):
        equality()
