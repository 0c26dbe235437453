"""Audits that can fail: one-line mutants of the kernels, and the checks that catch them.

Each mutant is its kernel with one line changed, but for ``estimate_sharpened_when_coarse``, which wraps the kernel:
it calls the correct one and sharpens its coarse estimates. A mutant replaces the kernel in every ergokit module that
binds it, as an edit of the source would. ``verify``'s audits must then report violations in the named claims at each
audit size, or, for a mutant they cannot see by design, flag nothing while the named tier-1 test fails.
"""

import importlib
import sys

import numpy as np
import pytest

from ergokit.audits import AuditConfig, run_all
from ergokit.ergotropy import passive_energy_of_spectrum, work
from ergokit.errors import InconsistentReport
from ergokit.linalg import diagonal_in_basis
from ergokit.measurement import estimate_spectrum, link_matrix
from ergokit.states import haar_from_ginibre

CFG = AuditConfig(dimension=3, outcomes=4, trials=100, seed=0)
CFG_LARGE = AuditConfig(dimension=8, outcomes=8, trials=100, seed=0)


def ascending_passive_sort(energies, spectrum):
    x = np.asarray(spectrum, dtype=float)
    out = (energies[..., np.newaxis, :] @ np.sort(x, axis=-1)[..., np.newaxis])[..., 0, 0]  # was -np.sort(-x)
    return out if out.ndim else float(out)


def estimate_without_volumes(post, populations):
    probs = np.clip((post @ populations[..., np.newaxis])[..., 0], 0.0, None)
    return (np.swapaxes(post, -1, -2) @ probs[..., np.newaxis])[..., 0]  # was probs / post.sum(axis=-1)


def estimate_sharpened_when_coarse(post, populations):
    w = estimate_spectrum(post, populations)
    if np.array_equal(post, np.eye(post.shape[-1])):  # the audits' fine side passes D = I unbatched
        return w
    sharp = np.clip(w, 0.0, None) ** (1 + 1e-6)  # ROADMAP item 19's coarse-only mutant: a slightly too pure estimate
    return sharp * (w.sum(axis=-1, keepdims=True) / sharp.sum(axis=-1, keepdims=True))


def link_over_column_sums(post):
    return np.swapaxes(post / post.sum(axis=-2, keepdims=True), -1, -2) @ post  # was post.sum(axis=-1)


def populations_without_conjugate(a, basis):
    return np.real(np.sum(basis * (a @ basis), axis=-2))  # was np.conj(basis)


def work_from_passive_mean(energies, populations, spectrum):
    mean = passive_energy_of_spectrum(energies, populations)  # was np.sum(energies * populations, axis=-1)
    out = mean - passive_energy_of_spectrum(energies, spectrum)
    return out if np.ndim(out) else float(out)


def haar_without_phases(z):
    return np.linalg.qr(z)[0]  # was q * (diag / np.abs(diag))[..., np.newaxis, :]


# (kernel, its mutant, the claims whose audits must report violations at CFG, and at CFG_LARGE). The passive sort also
# runs inside `work`, so every claim but lemma1 sees it; link_matrix is the estimate kernel's own matrix, so lemma1
# sees every estimate mutant.
VERIFY_CATCHES = [
    (passive_energy_of_spectrum, ascending_passive_sort, {"theorem1", "theorem2", "theorem3", "schur"},
     {"theorem1", "theorem2", "theorem3", "schur"}),
    (estimate_spectrum, estimate_without_volumes, {"theorem1", "theorem2", "lemma1"}, {"lemma1"}),
    (link_matrix, link_over_column_sums, {"lemma1"}, {"lemma1"}),
    (diagonal_in_basis, populations_without_conjugate, {"theorem1", "theorem3", "lemma1"},
     {"theorem1", "theorem3", "lemma1"}),
    (estimate_spectrum, estimate_sharpened_when_coarse, {"lemma1"}, {"lemma1"}),
]
# One case per row and size, the rows at CFG under the mutant's bare name.
VERIFY_CASES = [pytest.param(kernel, mutant, cfg, claims, id=mutant.__name__ + suffix)
                for kernel, mutant, *sets in VERIFY_CATCHES
                for (cfg, suffix), claims in zip([(CFG, ""), (CFG_LARGE, "-d8")], sets)]


# (kernel, its mutant, the tier-1 test as "module::name", the arguments it fails on). Every audit margin is a
# difference of two `work` calls on the same energy populations, so a wrong mean cancels in each; and every claim
# holds for every unitary, so a sampler whose unitaries are not Haar passes them all.
TIER1_CATCHES = [
    (work, work_from_passive_mean, "test_ergotropy::test_ergotropy_hand_values", [()]),
    (haar_from_ginibre, haar_without_phases, "test_states::test_haar_from_ginibre_matches_haar_moments",
     [(2,), (3,), (8,)]),
]


def mutate(monkeypatch, kernel, mutant):
    """Bind ``mutant`` wherever an ergokit module binds ``kernel``."""
    modules = [module for name, module in sys.modules.items() if name == "ergokit" or name.startswith("ergokit.")]
    bound = [module for module in modules if getattr(module, kernel.__name__, None) is kernel]
    assert bound, kernel
    for module in bound:
        monkeypatch.setattr(module, kernel.__name__, mutant)


@pytest.mark.parametrize("kernel, mutant, cfg, claims", VERIFY_CASES)
def test_verify_reports_each_mutant_in_its_claims(monkeypatch, kernel, mutant, cfg, claims):
    mutate(monkeypatch, kernel, mutant)
    flagged = {result.claim for result in run_all(cfg) if result.violations}
    assert flagged == claims


def test_tier1_catches_the_conjugate_mutant_in_theorem3s_equality(monkeypatch):
    # verify theorem3 audits the bound alone; the own-basis equality is tier-1's, and must fail on this mutant too
    equality = importlib.import_module("test_ergotropy").test_observational_ergotropy_eigenbasis_recovers_full
    mutate(monkeypatch, diagonal_in_basis, populations_without_conjugate)
    with pytest.raises((AssertionError, InconsistentReport)):  # report itself may reject the mutant's ergotropy first
        equality()


@pytest.mark.parametrize("kernel, mutant, test, cases", TIER1_CATCHES, ids=[row[1].__name__ for row in TIER1_CATCHES])
def test_tier1_catches_each_mutant_verify_cannot(monkeypatch, kernel, mutant, test, cases):
    module, name = test.split("::")
    caught = getattr(importlib.import_module(module), name)
    mutate(monkeypatch, kernel, mutant)
    assert [result.claim for result in run_all(CFG) if result.violations] == []
    for args in cases:
        with pytest.raises(AssertionError):
            caught(*args)
