import dataclasses
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit import audits, cli, states
from ergokit.audits import (
    CLAIM_AUDITS,
    AuditConfig,
    AuditResult,
    run_all,
    run_audit,
)
from ergokit.errors import PreconditionFailed
from ergokit.ergotropy import report
from ergokit.linalg import TOL, adjoint, diagonal_in_basis, energy_tol, operator_in_basis
from ergokit.measurement import StochasticMatrix, computational_basis, post_process
from ergokit.states import DensityMatrix, Hamiltonian, RandomSource

from _oracles import TRIAL_ORACLES, stream, trial_draws

CFG_SMALL = AuditConfig(dimension=3, outcomes=4, trials=100, seed=7)
# Each claim's stream of the seed, pinned: a claim keeps its stream, so its results do not move when claims are added
STREAMS = {"theorem1": 1, "theorem2": 2, "theorem3": 3, "lemma1": 4, "schur": 5}


class TestAuditConfig:
    def test_defaults_are_valid(self):
        cfg = AuditConfig()
        assert cfg.rank is None

    @pytest.mark.parametrize("kwargs", [
        {"dimension": 0},
        {"trials": 0},
        {"tolerance": 0.0},
        {"rank": 5, "dimension": 3},
        {"rank": 0},
        {"outcomes": 0},
        {"seed": -1},
        {"trials": 2 ** 32},
        {"tolerance": float("inf")},
        {"tolerance": 10 ** 400},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(PreconditionFailed):
            AuditConfig(**kwargs)


def test_monotonicity_margin_on_hand_instance():
    # the single-instance version of the post-processing monotonicity check
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    h = Hamiltonian(np.diag([0.0, 1.0]))
    fine = computational_basis(2)
    coarse = post_process(fine, StochasticMatrix(np.array([[0.5, 1.0], [0.5, 0.0]])))
    r_fine = report(rho, h, fine).observational
    r_coarse = report(rho, h, coarse).observational
    assert r_fine == pytest.approx(0.5, abs=1e-12)
    assert r_coarse == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r_coarse - r_fine <= 0.0


def test_identity_post_processing_gives_zero_margin():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    h = Hamiltonian(np.diag([0.0, 1.0]))
    fine = computational_basis(2)
    trivial = post_process(fine, StochasticMatrix(np.eye(2)))
    gap = report(rho, h, trivial).observational - report(rho, h, fine).observational
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


def test_rank_none_is_full_rank():
    full, default = (run_all(AuditConfig(dimension=3, outcomes=4, rank=rank, trials=30, seed=5)) for rank in (3, None))
    for a, b in zip(full, default, strict=True):
        assert dataclasses.replace(a, wall_time_s=0.0) == dataclasses.replace(b, wall_time_s=0.0)


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
    from ergokit.measurement import Povm
    from ergokit.states import RandomSource, haar_unitary, random_density, random_hamiltonian

    rng = RandomSource(60)
    rho = random_density(3, 3, rng)
    h = random_hamiltonian(3, rng)
    target = report(rho, h).ergotropy
    best = -np.inf
    for t in range(1000):
        m = Povm(haar_unitary(3, rng.split(t)))
        best = max(best, report(rho, h, m).observational)
    assert best <= target + 1e-9
    assert best >= 0.95 * target


def test_impossible_tolerance_counts_violations():
    # lemma1's majorization compares the traces of its fine and coarse spectra, equal only to ~1e-16
    cfg = AuditConfig(dimension=3, outcomes=4, trials=50, seed=11, tolerance=1e-300)
    result = run_audit("lemma1", cfg)
    assert result.violations > 0
    assert result.violations <= result.trials
    assert result.worst_margin > 0.0


def test_run_audit_by_claim_name():
    result = run_audit("schur", CFG_SMALL)
    assert result.claim == "schur"
    with pytest.raises(PreconditionFailed):
        run_audit("bogus", CFG_SMALL)


def test_run_all_covers_every_claim_in_order():
    cfg = AuditConfig(dimension=2, outcomes=2, trials=20, seed=5)
    results = run_all(cfg)
    assert [r.claim for r in results] == list(STREAMS)
    assert all(r.violations == 0 for r in results)


@pytest.mark.parametrize("claim", list(CLAIM_AUDITS))
def test_single_audit_matches_full_suite_entry(claim):
    cfg = AuditConfig(dimension=2, outcomes=3, trials=30, seed=13)
    deterministic = ("claim", "trials", "violations", "worst_margin", "worst_trial", "details")
    alone = run_audit(claim, cfg)
    within = next(r for r in run_all(cfg) if r.claim == claim)
    assert [getattr(alone, name) for name in deterministic] == [getattr(within, name) for name in deterministic]


def test_result_serialization(monkeypatch, capsys):
    """The CLI writes an AuditResult as one JSON line or a four-column CSV row."""
    result = AuditResult(claim="schur", trials=10, violations=0, worst_margin=-1.5e-3,
                         wall_time_s=0.123, details={"max_sampled_ratio": 0.9})
    monkeypatch.setattr(cli, "run_audit", lambda claim, cfg: result)
    assert cli.main(["verify", "schur"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["claim"] == "schur"
    assert doc["violations"] == 0
    assert doc["sampled"] is True
    assert doc["max_sampled_ratio"] == 0.9
    assert "worst_trial" in doc
    assert "wall_time_s" not in doc
    assert cli.main(["verify", "schur", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "claim,trials,violations,worst_margin\nschur,10,0,-0.0015\n"


# --- batched engine against the per-trial oracles ----------------------------

EPS = np.finfo(float).eps
# (d, rank, n): rank 1 and full rank, n below and above d (n = d = 1 at d = 1); n = 19 runs lemma1's
# cross-check, which builds one element at a time, over more elements than any other case
ENGINE_CASES = [(d, rank, n) for d in (1, 2, 3, 8) for rank in sorted({1, d})
                for n in sorted({max(1, d - 1), d + 2})] + [(4, 4, 19)]


def per_trial_bytes(cfg):
    """The engine's byte count of one trial (see audits.CHUNK_BYTES)."""
    return 16 * cfg.dimension ** 2 * (cfg.outcomes + 8)


def engine_trials(claim, cfg):
    """Chunk starts and per-trial margins, violation flags and extras."""
    chunks = list(audits._chunks(claim, cfg))
    columns = [np.concatenate(column) for column in zip(*(chunk[1:] for chunk in chunks))]
    return [chunk[0] for chunk in chunks], columns


def oracle_trials(claim, cfg, trials=None):
    root = RandomSource(cfg.seed).split(STREAMS[claim])
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
    tol = 16 * d * EPS  # times max(1, max|E|), which is 1: the drawn levels lie in [0, 1]
    np.testing.assert_allclose(margins, [m for m, _, _ in expected], rtol=0.0, atol=tol)
    assert int(np.count_nonzero(violated)) == sum(bool(v) for _, v, _ in expected)
    if claim == "theorem3":
        # r_sampled and r_full each carry up to tol of roundoff, so their ratio carries tol (1 + |ratio|) / r_full
        ratios, r_full = np.array([r for _, _, r in expected if r is not None]).reshape(-1, 2).T
        assert np.all(np.abs(extras[0] - ratios) <= tol * (1.0 + np.abs(ratios)) / r_full)


@pytest.mark.parametrize("claim", list(CLAIM_AUDITS))
def test_worst_trial_replays_through_the_oracle(claim, capsys):
    cfg = AuditConfig(dimension=3, outcomes=4, trials=60, seed=21)
    result = run_audit(claim, cfg)
    _, (margins, _, *_) = engine_trials(claim, cfg)
    assert result.worst_trial == int(np.argmax(margins))  # the first trial attaining the maximum
    (replayed, _, _), = oracle_trials(claim, cfg, [result.worst_trial])
    assert replayed == pytest.approx(result.worst_margin, rel=0.0, abs=16 * 3 * EPS)
    assert cli.main(["verify", claim, "--d", "3", "--n", "4", "--trials", "60", "--seed", "21"]) == 0
    assert json.loads(capsys.readouterr().out)["worst_trial"] == result.worst_trial


def test_large_dimension_runs_one_trial_per_chunk():
    cfg = AuditConfig(dimension=64, outcomes=64, trials=2, seed=0)
    starts, _ = engine_trials("theorem1", cfg)
    assert starts == [0, 1]


def test_theorem2_holds_on_tied_levels(monkeypatch):
    # levels rounded onto {0, 0.5, 1}: most trials carry exactly equal energies
    sample, levels = RandomSource.sample, []

    def rounded(self, kinds, *args):
        built = sample(self, kinds, *args)
        energies = built[kinds.index("hamiltonian")]  # theorem2 draws its Hamiltonian first: levels, basis
        np.round(2.0 * energies, out=energies)  # rounding keeps the sorted levels sorted
        energies /= 2.0
        levels.append(energies)
        return built

    monkeypatch.setattr(RandomSource, "sample", rounded)
    cfg = AuditConfig(dimension=3, outcomes=4, trials=500, seed=3)
    result = run_audit("theorem2", cfg)
    tied = np.count_nonzero((np.diff(np.concatenate(levels), axis=-1) == 0.0).any(axis=-1))
    assert tied > cfg.trials // 2  # the evaluator sees the ties as drawn
    assert result.violations == 0


# --- what the engine builds and how often it eigensolves ---------------------


def assert_sample_is_valid(d, rank, seed, first):
    """Every object ``RandomSource.sample`` builds holds as built: unit-trace PSD states, ascending levels, unitary
    bases, stochastic columns."""
    trials = range(first, first + 3)
    rho, levels, basis, u, post, x = RandomSource(seed).sample(DRAW_KINDS, d, 4, rank, trials)
    assert np.all(np.diff(levels, axis=-1) >= 0.0)
    assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() <= TOL
    assert np.linalg.eigvalsh(rho).min() >= -TOL
    for v in (basis, u):
        assert np.abs(adjoint(v) @ v - np.eye(d)).max() <= TOL
    assert np.abs(post.sum(axis=-2) - 1.0).max() <= TOL and np.abs(x.sum(axis=-1) - 1.0).max() <= TOL


@pytest.mark.parametrize("d", [1, 3, 8, 64])
@pytest.mark.parametrize("full_rank", [False, True])
@given(seed=st.integers(0, 2 ** 64), first=st.integers(0, 2 ** 32 - 4))
@settings(deadline=None, max_examples=10)
def test_sampled_objects_need_no_check(d, full_rank, seed, first):
    assert_sample_is_valid(d, d if full_rank else 1, seed, first)


@pytest.mark.parametrize("d", [1, 3, 8, 64])
def test_energy_from_populations_is_the_trace(d):
    # the audits read tr(H rho) as sum_k E_k p_k off rho's populations p in H's eigenbasis
    rho, levels, basis = RandomSource(d).sample(("state", "hamiltonian"), d, 4, trials=range(5))
    mean = np.sum(levels * diagonal_in_basis(rho, basis), axis=-1)
    trace = np.trace(operator_in_basis(basis, levels) @ rho, axis1=-2, axis2=-1).real
    assert np.all(np.abs(mean - trace) <= energy_tol(d, np.abs(levels).max(axis=-1)))


def test_lemma1_counts_a_faulty_dense_estimate_as_violations(monkeypatch, capsys):
    # the cross-check estimate is the audit's own, so a fault in it is a violation (exit 1), not a rejected state
    monkeypatch.setattr(audits, "_dense_estimate", lambda *a, _f=audits._dense_estimate: (1 + 1e-6) * _f(*a))
    assert cli.main(["verify", "lemma1", "--trials", "20"]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == 20


@pytest.mark.parametrize("builder", ["ginibre_state", "haar_from_ginibre"])
def test_sample_property_catches_a_doubled_builder(monkeypatch, builder):
    monkeypatch.setattr(states, builder, lambda z, _f=getattr(states, builder): 2.0 * _f(z))
    with pytest.raises(AssertionError):
        assert_sample_is_valid(3, 3, 0, 0)


@pytest.mark.parametrize("claim, solves", [("theorem1", ["qr", "qr"]), ("theorem2", ["qr"]),
                                           ("theorem3", ["qr", "qr", "eigvalsh"]), ("lemma1", ["qr", "eigvalsh"]),
                                           ("schur", ["qr"])])
def test_audits_eigensolve_only_what_the_claim_needs(monkeypatch, claim, solves):
    # one QR per Haar basis a claim reads (schur reads its Hamiltonian's levels alone); theorem3 takes r_full from
    # one eigvalsh; lemma1's eigvalsh is the dense cross-check
    monkeypatch.setattr(audits, "CHUNK_BYTES", 7 * per_trial_bytes(CFG_SMALL))
    calls = []
    for name in ("qr", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    run_audit(claim, CFG_SMALL)
    assert calls == solves * -(-CFG_SMALL.trials // 7)


def lemma1_traced_peak(d, n, trials):
    """Traced peak bytes of lemma1's chunks; tracemalloc counts numpy's buffers."""
    cfg = AuditConfig(dimension=d, outcomes=n, trials=trials, seed=0)
    tracemalloc.start()
    try:
        for _ in audits._chunks("lemma1", cfg):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lemma1_memory_does_not_grow_with_outcomes():
    # the dense cross-check builds one element per trial at a time, not all n of a chunk
    assert lemma1_traced_peak(32, 256, 4) <= 1.5 * lemma1_traced_peak(32, 8, 4)


def test_lemma1_memory_stays_bounded_at_large_dimension():
    # one trial's 128 elements would take 32 MiB; built one at a time they take 256 KiB each, and the chunk's
    # stacks, the element, its temporaries and the estimate stay near theorem3's 2.4 MiB
    assert lemma1_traced_peak(128, 128, 1) <= 4 << 20


# Run with `python -c`. A child's ru_maxrss starts at the RSS of the process it is forked from, and pytest has
# imported numpy, so the audits run under this launcher, which has not; `python -c pass` is the control.
RSS_LAUNCHER = """
import json, os, subprocess, sys

def run(*argv):
    with subprocess.Popen([sys.executable, "-W", "error::RuntimeWarning", *argv], stdout=subprocess.PIPE) as child:
        out = child.stdout.read().decode()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return {"code": child.returncode, "out": out, "mib": usage.ru_maxrss / 1024}

runs = {"control": run("-c", "pass")}
for claim in ("lemma1", "theorem3"):
    runs[claim] = run("-m", "ergokit", "verify", claim, "--d", "128", "--n", "128", "--trials", "2")
print(json.dumps({"numpy": "numpy" in sys.modules, "runs": runs}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB from os.wait4")
def test_lemma1_peak_rss_stays_within_2_mib_of_theorem3():
    launched = json.loads(subprocess.run([sys.executable, "-c", RSS_LAUNCHER], capture_output=True, check=True).stdout)
    runs = launched["runs"]
    peaks = {name: run["mib"] for name, run in runs.items()}
    assert not launched["numpy"] and peaks["control"] < 25, peaks
    for claim in ("lemma1", "theorem3"):
        assert runs[claim]["code"] == 0 and json.loads(runs[claim]["out"])["violations"] == 0, runs[claim]
    assert peaks["lemma1"] <= peaks["theorem3"] + 2, peaks


# --- chunk draws against one stream per trial ---------------------------------

DRAW_KINDS = ("state", "hamiltonian", "haar", "post", "simplex")


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kinds", [(kind,) for kind in DRAW_KINDS] + [DRAW_KINDS, ("hamiltonian", "state", "post"),
                                                                      ("levels", "simplex", "haar")])
@pytest.mark.parametrize("first, size", [(0, 1), (0, 7), (0, 16), (5, 1), (5, 7), (5, 16)])
def test_chunk_draws_equal_per_trial_streams(kinds, first, size):
    # a two-word seed; trial t of any chunk builds what root.split(t)'s generator draws, one raw call at a time
    d, n, rank, seed = 3, 4, 2, 2 ** 32 + 3
    root = RandomSource(seed).split(3)
    trials = range(first, min(first + size, 16))
    stacks = root.sample(kinds, d, n, rank, trials)
    for i, t in enumerate(trials):
        expected = trial_draws(stream(seed, (3, t)), kinds, d, n, rank)
        assert len(stacks) == len(expected)
        for stack, reference in zip(stacks, expected):
            assert_bitwise(stack[i], reference)


@pytest.mark.parametrize("after", [(), ("haar",), ("simplex", "haar")])
def test_levels_kind_keeps_its_gaussians_real(after):
    # schur reads only the levels of its Hamiltonian draw: "levels" makes the same draws, builds nothing from its
    # Gaussian pairs, and leaves every later kind's draws where "hamiltonian" leaves them
    root, trials = RandomSource(5).split(5), range(3, 10)
    assert states.recipes(3, 4, 3)["levels"][0] == states.recipes(3, 4, 3)["hamiltonian"][0]
    levels, *rest = root.sample(("levels", *after), 3, 4, trials=trials)
    energies, _, *expected = root.sample(("hamiltonian", *after), 3, 4, trials=trials)
    assert_bitwise(levels, energies)
    for stack, reference in zip(rest, expected, strict=True):
        assert_bitwise(stack, reference)
