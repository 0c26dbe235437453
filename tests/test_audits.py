import json

import numpy as np
import pytest

from ergokit import audits, states
from ergokit.audits import (
    CLAIM_AUDITS,
    AuditConfig,
    AuditResult,
    run_all,
    run_audit,
)
from ergokit.errors import InvalidClaim, InvalidConfig, InvalidState, NotUnitary
from ergokit.ergotropy import observational_ergotropy
from ergokit.measurement import StochasticMatrix, computational_basis, post_process
from ergokit.states import RandomSource, diagonal_hamiltonian, diagonal_state

from _oracles import TRIAL_ORACLES

CFG_SMALL = AuditConfig(dimension=3, outcomes=4, trials=100, seed=7)


class TestAuditConfig:
    def test_defaults_are_valid(self):
        cfg = AuditConfig()
        assert cfg.effective_rank == cfg.dimension

    @pytest.mark.parametrize("kwargs", [
        {"dimension": 0},
        {"trials": 0},
        {"tolerance": 0.0},
        {"rank": 5, "dimension": 3},
        {"rank": 0},
        {"outcomes": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            AuditConfig(**kwargs)


def test_monotonicity_margin_on_hand_instance():
    # the single-instance version of the post-processing monotonicity check
    rho = diagonal_state([0.25, 0.75])
    h = diagonal_hamiltonian([0.0, 1.0])
    fine = computational_basis(2)
    coarse = post_process(fine, StochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]])))
    r_fine = observational_ergotropy(rho, h, fine)
    r_coarse = observational_ergotropy(rho, h, coarse)
    assert r_fine == pytest.approx(0.5, abs=1e-12)
    assert r_coarse == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r_coarse - r_fine <= 0.0


def test_identity_post_processing_gives_zero_margin():
    rho = diagonal_state([0.25, 0.75])
    h = diagonal_hamiltonian([0.0, 1.0])
    fine = computational_basis(2)
    trivial = post_process(fine, StochasticMatrix.identity(2))
    gap = observational_ergotropy(rho, h, trivial) - observational_ergotropy(rho, h, fine)
    assert abs(gap) <= 1e-12


# The case ids name what each claim audits.
@pytest.mark.parametrize("claim", [
    pytest.param("theorem1", id="audit_postprocessing_monotonicity"),
    pytest.param("theorem2", id="audit_energy_incoherent_limit"),
    pytest.param("theorem3", id="audit_fine_grained_optimum"),
    pytest.param("lemma1", id="audit_spectrum_majorization"),
    pytest.param("schur", id="audit_schur_concavity"),
])
def test_audits_pass_on_random_instances(claim):
    result = run_audit(claim, CFG_SMALL)
    assert result.trials == 100
    assert result.violations == 0
    assert np.isfinite(result.worst_margin)


def test_audits_deterministic():
    a = run_audit("theorem1", CFG_SMALL)
    b = run_audit("theorem1", CFG_SMALL)
    assert (a.claim, a.trials, a.violations, a.worst_margin) == (b.claim, b.trials, b.violations, b.worst_margin)
    assert a.details == b.details


def test_audits_differ_across_seeds():
    a = run_audit("schur", AuditConfig(dimension=3, trials=10, seed=1))
    b = run_audit("schur", AuditConfig(dimension=3, trials=10, seed=2))
    assert a.worst_margin != b.worst_margin


def test_pure_state_rank_config():
    result = run_audit("theorem1", AuditConfig(dimension=3, outcomes=3, rank=1, trials=50, seed=3))
    assert result.violations == 0


def test_degenerate_one_dimensional_space():
    # everything is zero in a 1-dim space, but the audits still run cleanly
    cfg = AuditConfig(dimension=1, outcomes=2, trials=10, seed=19)
    for claim in CLAIM_AUDITS:
        assert run_audit(claim, cfg).violations == 0


def test_fine_grained_optimum_reports_sampled_ratio():
    result = run_audit("theorem3", CFG_SMALL)
    assert 0.0 < result.details["max_sampled_ratio"] <= 1.0 + 1e-9


def test_sampled_supremum_close_for_fixed_instance():
    # diagnostic, not the theorem: 10^3 Haar bases should come within a few
    # percent of the optimum for a generic qutrit instance (bound still holds)
    from ergokit.measurement import FineGrainedMeasurement
    from ergokit.states import RandomSource, haar_unitary, random_density, random_hamiltonian
    from ergokit.ergotropy import ergotropy

    rng = RandomSource(60)
    rho = random_density(3, 3, rng)
    h = random_hamiltonian(3, rng)
    target = ergotropy(rho, h)
    best = -np.inf
    for t in range(1000):
        m = FineGrainedMeasurement.from_basis(haar_unitary(3, rng.split(t)))
        best = max(best, observational_ergotropy(rho, h, m))
    assert best <= target + 1e-9
    assert best >= 0.95 * target


def test_impossible_tolerance_counts_violations():
    # equality checks carry ~1e-16 float error, so an absurd tolerance trips them
    cfg = AuditConfig(dimension=3, outcomes=4, trials=50, seed=11, tolerance=1e-300)
    result = run_audit("theorem2", cfg)
    assert result.violations > 0
    assert result.violations <= result.trials
    assert result.worst_margin > 0.0


def test_run_audit_by_claim_name():
    result = run_audit("schur", CFG_SMALL)
    assert result.claim == "schur"
    with pytest.raises(InvalidClaim):
        run_audit("bogus", CFG_SMALL)


def test_run_all_covers_every_claim_in_order():
    cfg = AuditConfig(dimension=2, outcomes=2, trials=20, seed=5)
    results = run_all(cfg)
    assert [r.claim for r in results] == list(CLAIM_AUDITS)
    assert all(r.violations == 0 for r in results)


def test_single_audit_matches_full_suite_entry():
    cfg = AuditConfig(dimension=2, outcomes=3, trials=30, seed=13)
    alone = run_audit("lemma1", cfg)
    within = next(r for r in run_all(cfg) if r.claim == "lemma1")
    assert alone.worst_margin == within.worst_margin
    assert alone.violations == within.violations


def test_result_serialization():
    result = AuditResult(claim="schur", trials=10, violations=0, worst_margin=-1.5e-3,
                         wall_time_s=0.123, details={"max_sampled_ratio": 0.9})
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["claim"] == "schur"
    assert doc["violations"] == 0
    assert doc["sampled"] is True
    assert doc["max_sampled_ratio"] == 0.9
    assert "wall_time_s" not in doc
    assert result.to_csv_row() == "schur,10,0,-0.0015"


# --- batched engine against the per-trial oracles ----------------------------

EPS = np.finfo(float).eps
# (d, rank, n): rank 1 and full rank, n below and above d (n = d = 1 at d = 1)
ENGINE_CASES = [(d, rank, n) for d in (1, 2, 3, 8) for rank in sorted({1, d})
                for n in sorted({max(1, d - 1), d + 2})]


def per_trial_bytes(cfg):
    """The engine's byte count of one trial (see audits.CHUNK_BYTES)."""
    return 16 * cfg.dimension ** 2 * (cfg.outcomes + 8)


def engine_trials(claim, cfg):
    """Chunk starts and per-trial margins, violation flags and extras."""
    chunks = list(audits._chunks(claim, cfg, CLAIM_AUDITS[claim]))
    columns = [np.concatenate(column) for column in zip(*(chunk[1:] for chunk in chunks))]
    return [chunk[0] for chunk in chunks], columns


def oracle_trials(claim, cfg, trials=None):
    root = RandomSource(cfg.seed).split(list(CLAIM_AUDITS).index(claim) + 1)
    return [TRIAL_ORACLES[claim](cfg, root.split(t)) for t in (trials if trials is not None else range(cfg.trials))]


@pytest.mark.parametrize("claim", list(CLAIM_AUDITS))
@pytest.mark.parametrize("d, rank, n", ENGINE_CASES)
def test_engine_matches_oracle_for_any_chunking(monkeypatch, claim, d, rank, n):
    cfg = AuditConfig(dimension=d, outcomes=n, rank=rank, trials=16, seed=100 * d + 10 * rank + n)
    runs = {}
    for size in (1, 7, cfg.trials):
        monkeypatch.setattr(audits, "CHUNK_BYTES", size * per_trial_bytes(cfg))
        starts, runs[size] = engine_trials(claim, cfg)
        assert starts == list(range(0, cfg.trials, size))
    for size in (7, cfg.trials):
        for column, reference in zip(runs[size], runs[1]):
            assert np.array_equal(column, reference)  # bitwise, whatever the chunking
    margins, violated, *extras = runs[1]
    expected = oracle_trials(claim, cfg)
    tol = 16 * d * EPS  # times max(1, max|E|), which is 1: random_levels lie in [0, 1]
    np.testing.assert_allclose(margins, [m for m, _, _ in expected], rtol=0.0, atol=tol)
    assert int(np.count_nonzero(violated)) == sum(bool(v) for _, v, _ in expected)
    if claim == "theorem3":
        ratios = [r for _, _, r in expected if r is not None]
        np.testing.assert_allclose(extras[0], ratios, rtol=tol, atol=0.0)


@pytest.mark.parametrize("claim", list(CLAIM_AUDITS))
def test_worst_trial_replays_through_the_oracle(claim):
    cfg = AuditConfig(dimension=3, outcomes=4, trials=60, seed=21)
    result = run_audit(claim, cfg)
    _, (margins, _, *_) = engine_trials(claim, cfg)
    assert result.worst_trial == int(np.argmax(margins))  # the first trial attaining the maximum
    (replayed, _, _), = oracle_trials(claim, cfg, [result.worst_trial])
    assert replayed == pytest.approx(result.worst_margin, rel=0.0, abs=16 * 3 * EPS)
    assert json.loads(json.dumps(result.to_json_dict()))["worst_trial"] == result.worst_trial


def test_large_dimension_runs_one_trial_per_chunk():
    cfg = AuditConfig(dimension=64, outcomes=64, trials=2, seed=0)
    starts, _ = engine_trials("theorem1", cfg)
    assert starts == [0, 1]


def test_sampled_states_are_validated(monkeypatch):
    monkeypatch.setattr(audits, "ginibre_state", lambda g: 2.0 * states.ginibre_state(g))
    with pytest.raises(InvalidState):
        run_audit("theorem1", CFG_SMALL)


def test_sampled_haar_stacks_are_checked(monkeypatch):
    monkeypatch.setattr(audits, "haar_from_ginibre", lambda z: 2.0 * states.haar_from_ginibre(z))
    with pytest.raises(NotUnitary):
        run_audit("lemma1", CFG_SMALL)
