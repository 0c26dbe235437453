"""The tolerance policy of ``ergokit.linalg``: TOL for objects normalised to 1
and for Hermiticity relative to max|A|, LOOSE_TOL for completeness,
majorization and audit verdicts, and energy_tol for energy identities. Its
verdicts must not depend on the units of H."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit.audits import AuditConfig
from ergokit.cli import build_parser
from ergokit import ergotropy
from ergokit.ergotropy import report
from ergokit.errors import InconsistentReport, NonFinite, NotHermitian
from ergokit.linalg import LOOSE_TOL, TOL, adjoint, energy_tol, hermitian_part, max_abs, require_hermitian, unchecked
from ergokit.measurement import (
    Povm,
    StochasticMatrix,
    coarse_grained_spectrum,
    computational_basis,
    estimate_spectrum,
    post_process,
    random_column_stochastic,
)
from ergokit.states import DensityMatrix, Hamiltonian, RandomSource, haar_unitary, random_density

KET0 = np.diag([1.0, 0.0]).astype(complex)
SCALES = (1e-200, 1e-20, 1.0, 1e20, 1e200)
FIELDS = ("mean_energy", "passive_energy", "ergotropy", "incoherent", "coherent", "observational")


def test_default_audit_tolerance_has_one_source():
    assert AuditConfig().tolerance == LOOSE_TOL
    assert build_parser().parse_args(["verify", "all"]).tol == LOOSE_TOL


def test_energy_tol_scales_without_an_absolute_floor():
    eps = np.finfo(float).eps
    assert energy_tol(4, 1e-12) == 64 * eps * 1e-12
    assert energy_tol(4, 0.0) == np.finfo(float).tiny  # H = 0: the identities must then hold exactly
    np.testing.assert_array_equal(energy_tol(3, np.array([0.0, 1.0, 1e200])),
                                  [np.finfo(float).tiny, 48 * eps, 48 * eps * 1e200])


def test_hermitian_part_halves_before_adding():
    a = np.full((2, 2), 1.7e308, dtype=complex)
    np.testing.assert_array_equal(hermitian_part(a), a)


@pytest.mark.parametrize("d", [1, 2, 16])
def test_entries_that_could_overflow_an_energy_are_non_finite(d):
    bound = np.finfo(float).max / (4 * d)
    np.testing.assert_array_equal(require_hermitian(np.full((d, d), 0.999 * bound)), np.full((d, d), 0.999 * bound))
    with pytest.raises(NonFinite, match="finite"):
        require_hermitian(np.full((d, d), 1.001 * bound))
    with pytest.raises(NonFinite, match="finite"):  # checked before A - A^dag, which would overflow here
        require_hermitian(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))


@pytest.mark.parametrize("d", [1, 2, 16])
def test_largest_accepted_hamiltonian_has_finite_work(d):
    # entries just under the bound above give an energy d times as large, 0.999 max / 4: work's overflow bound reads
    # the row sums of |p| and |x|, 1 for a state, and would refuse this Hamiltonian at d = 16 with d max|p| in their place
    h = Hamiltonian(np.full((d, d), 0.999 * np.finfo(float).max / (4 * d)))
    rep = report(random_density(d, d, RandomSource(d)), h, computational_basis(d))
    assert np.isfinite([getattr(rep, name) for name in FIELDS]).all()


def test_stochastic_matrix_rejects_entries_above_one_before_summing():
    with pytest.raises(ValueError, match="outside"):
        StochasticMatrix(np.full((2, 2), 1.7e308))


# --- inputs near TOL on either side, and identities at a small energy scale ----------

def test_tiny_non_hermitian_hamiltonian_is_rejected():
    # the asymmetry is max|A| itself, so the verdict must be the one at scale 1
    with pytest.raises(NotHermitian):
        Hamiltonian(1e-20 * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_work_report_at_small_energy_scale_is_checked_at_that_scale(monkeypatch):
    # report, whose every work call here returns the ergotropy below: -1e-25 at max|E| = 1e-12 is far past roundoff
    # at that scale (energy_tol ~ 7e-27), though it is within the tolerance at scale 1
    rho, h = DensityMatrix(np.diag([0.25, 0.75])), Hamiltonian(np.diag([0.0, 1e-12]))
    monkeypatch.setattr(ergotropy, "work", lambda *args: -1e-25)
    with pytest.raises(InconsistentReport, match=r"ergotropy is negative: -1e-25 < -7\.1e-27"):
        report(rho, h)
    monkeypatch.setattr(ergotropy, "work", lambda *args: -1e-27)
    assert report(rho, h).ergotropy == -1e-27


def test_povm_element_of_volume_below_tol_is_degenerate():
    # volume 1e-11 < TOL: the element is accepted, and keeps its eigenvector (1e-11 is above energy_tol(2, 1e-11)),
    # but its outcome is dead, so the estimate weighs it 0 and equals the estimate without it bit for bit
    m = Povm((1e-11 * KET0, np.eye(2) - 1e-11 * KET0))
    assert 0.0 < m.volumes[0] < TOL
    populations = np.array([0.25, 0.5, 0.25])
    assert estimate_spectrum(m.post, populations).tobytes() == estimate_spectrum(m.post[1:], populations).tobytes()


def test_column_sums_off_by_less_than_tol_are_accepted():
    # a column-sum defect of 5e-11 <= TOL
    m = StochasticMatrix(np.array([[0.5, 0.5], [0.5 + 5e-11, 0.5]]))
    assert m.entries[1, 0] == 0.5 + 5e-11


def test_post_process_keeps_rows_of_mass_below_tol():
    # the second coarse outcome has mass 1e-11 < TOL: it is kept, and the estimate weighs it 0, so the coarse
    # estimate is the one-row estimate bit for bit
    entries = np.array([[1.0, 1.0 - 1e-11], [0.0, 1e-11]])
    coarse = post_process(computational_basis(2), StochasticMatrix(entries))
    assert coarse.n_outcomes == 2
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    one_row = unchecked(Povm, base=coarse.base, post=entries[:1])
    assert coarse_grained_spectrum(rho, coarse).tobytes() == coarse_grained_spectrum(rho, one_row).tobytes()


# --- scale covariance -------------------------------------------------------------

@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 6), asymmetry=st.sampled_from([0.0, 1e-12, 1e-8]))
@settings(deadline=None, max_examples=150)
def test_verdicts_and_work_quantities_scale_with_the_hamiltonian(seed, d, asymmetry):
    """H -> cH: whether Hamiltonian(cH) is accepted does not depend on c, and every WorkReport field scales
    by c within 2 energy_tol(d, c max|E|), one roundoff budget per side. The levels are at least 0.2 apart:
    the incoherent part is read in H's eigenbasis, whose roundoff grows as max|E| / gap, and degenerate
    spectra make it depend on the choice of that basis."""
    rng = RandomSource(seed)
    u = haar_unitary(d, rng)
    levels = np.cumsum(0.2 + rng.sample(("levels",), d)[0])
    h = (u * (levels - levels.mean())) @ adjoint(u)  # not symmetrised: roundoff asymmetry stays in
    h[0, 1] += asymmetry * max_abs(h)
    rho = random_density(d, d, rng)
    m = post_process(Povm(haar_unitary(d, rng)), random_column_stochastic(d, d, rng))
    reports, scales = {}, {}
    for c in SCALES:
        try:
            hc = Hamiltonian(c * h)
        except NotHermitian:
            continue
        reports[c], scales[c] = report(rho, hc, m), np.abs(hc.energies).max()
    assert len(reports) in (0, len(SCALES))
    assert (len(reports) > 0) == (asymmetry < TOL)
    for c, rep in reports.items():
        tol = 2 * energy_tol(d, scales[c])
        for name in FIELDS:
            assert abs(getattr(rep, name) - c * getattr(reports[1.0], name)) <= tol, (c, name)
