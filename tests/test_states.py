import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergokit import audits, states
from ergokit.errors import DimensionMismatch, ErgokitError, NotHermitian, PreconditionFailed
from ergokit.linalg import TOL, adjoint, max_abs, require_unitary
from ergokit.measurement import random_column_stochastic
from ergokit.states import (
    DensityMatrix,
    Hamiltonian,
    RandomSource,
    dephase,
    haar_unitary,
    random_density,
    random_hamiltonian,
)

from _oracles import stream, trial_draws

H01 = Hamiltonian(np.diag([0.0, 1.0]))
PLUS = DensityMatrix(np.full((2, 2), 0.5))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 64])
    def test_eig_pairs_the_kept_eigenvalues_with_eigenvectors(self, d):
        # one spectrum per state: eig() returns the eigenvalues validation kept, not a second eigensolve's
        for rank in (1, d):
            for seed in range(4):
                rho = random_density(d, rank, RandomSource(seed))
                w, v = rho.eig()
                assert w.tobytes() == rho.eigenvalues.tobytes()
                assert max_abs((v * w) @ adjoint(v) - rho.op) <= TOL

    def test_spectrum_clips_roundoff(self):
        rho = random_density(4, 4, RandomSource(0))
        spectrum = np.clip(rho.eigenvalues, 0.0, None)
        assert float(np.min(spectrum)) >= 0.0
        assert float(np.sum(spectrum)) == pytest.approx(1.0, abs=1e-10)


class TestHamiltonian:
    def test_energies_ascending(self):
        h = random_hamiltonian(6, RandomSource(4))
        assert np.all(np.diff(h.energies) >= 0.0)

    def test_eigenbasis_diagonalizes(self):
        h = random_hamiltonian(5, RandomSource(8))
        v = h.eigenbasis
        rebuilt = (v * h.energies) @ adjoint(v)
        assert max_abs(rebuilt - h.op) <= 1e-10

    def test_random_hamiltonian_makes_no_eigensolve(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        random_hamiltonian(8, RandomSource(9))
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_random_hamiltonian_keeps_the_decomposition_it_drew(self, d):
        h = random_hamiltonian(d, RandomSource(d))
        tol = 16 * d * np.finfo(float).eps * float(np.max(np.abs(h.energies)))
        np.testing.assert_allclose(h.energies, Hamiltonian(h.op).energies, rtol=0.0, atol=tol)
        v = require_unitary(h.eigenbasis)
        assert max_abs(adjoint(v) @ h.op @ v - np.diag(h.energies)) <= tol

    def test_keeps_the_operator_it_eigensolved(self):
        # within TOL of Hermitian, so accepted; the operator kept is the Hermitian part the energies come from
        h = Hamiltonian([[0, 1 + 1e-12], [1, 1]])
        assert np.array_equal(h.op, adjoint(h.op))
        assert np.array_equal(np.linalg.eigvalsh(h.op), h.energies)


def test_dephase_plus_state():
    # populations of |+><+| in the energy basis are both 1/2
    out = dephase(PLUS, H01)
    np.testing.assert_allclose(out.op, np.eye(2) / 2.0, atol=1e-12)


def test_dephase_leaves_diagonal_state():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    out = dephase(rho, H01)
    assert max_abs(out.op - rho.op) <= 1e-14


def test_dephase_preserves_energy():
    rng = RandomSource(23)
    for t in range(20):
        sub = rng.split(t)
        rho = random_density(4, 4, sub)
        h = random_hamiltonian(4, sub)
        assert abs(np.trace(h.op @ dephase(rho, h).op).real - np.trace(h.op @ rho.op).real) <= 1e-10


def test_dephase_idempotent():
    rng = RandomSource(29)
    rho = random_density(5, 5, rng)
    h = random_hamiltonian(5, rng)
    once = dephase(rho, h)
    twice = dephase(once, h)
    assert max_abs(twice.op - once.op) <= 1e-12


def test_dephase_commutes_with_hamiltonian():
    rng = RandomSource(31)
    rho = random_density(4, 4, rng)
    h = random_hamiltonian(4, rng)
    delta = dephase(rho, h).op
    assert max_abs(delta @ h.op - h.op @ delta) <= 1e-10


def test_dephase_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dephase(DensityMatrix(np.eye(3) / 3), H01)


def test_haar_unitary_scalar_case():
    u = haar_unitary(1, RandomSource(2))
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_is_unitary():
    u = haar_unitary(4, RandomSource(3))
    assert max_abs(adjoint(u) @ u - np.eye(4)) <= 1e-10


def test_haar_unitary_deterministic():
    a = haar_unitary(5, RandomSource(77))
    b = haar_unitary(5, RandomSource(77))
    assert np.array_equal(a, b)


def test_haar_conjugation_preserves_spectrum():
    rng = RandomSource(41)
    rho = random_density(4, 4, rng)
    before = np.sort(np.clip(rho.eigenvalues, 0.0, None))
    for t in range(10):
        u = haar_unitary(4, rng.split(t))
        rotated = DensityMatrix(u @ rho.op @ adjoint(u))
        np.testing.assert_allclose(np.sort(np.clip(rotated.eigenvalues, 0.0, None)), before, atol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_haar_from_ginibre_matches_haar_moments(d):
    # E[U_11] = 0, E|U_11|^2 = 1/d and E|tr U|^2 = 1 over Haar, each within 5 standard errors of 4,000 seeded draws;
    # a QR that leaves R's diagonal phases in is not Haar, and misses the first and the last by tens of errors
    u, = RandomSource(d).sample(("haar",), d, trials=range(4000))
    moments = [(u[:, 0, 0].real, 0.0), (u[:, 0, 0].imag, 0.0), (np.abs(u[:, 0, 0]) ** 2, 1.0 / d),
               (np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2, 1.0)]
    for sample, expected in moments:
        assert abs(sample.mean() - expected) <= 5.0 * sample.std() / np.sqrt(len(sample))


def test_random_density_rank_one_is_pure():
    rho = random_density(2, 1, RandomSource(5))
    np.testing.assert_allclose(np.sort(np.clip(rho.eigenvalues, 0.0, None)), [0.0, 1.0], atol=1e-10)


def test_random_density_full_rank():
    rho = random_density(4, 4, RandomSource(6))
    assert float(np.trace(rho.op).real) == pytest.approx(1.0, abs=1e-12)
    assert float(np.min(np.clip(rho.eigenvalues, 0.0, None))) > 1e-6


def test_random_density_rank_deficient():
    rho = random_density(5, 2, RandomSource(7))
    spectrum = np.sort(np.clip(rho.eigenvalues, 0.0, None))
    assert max_abs(spectrum[:3]) < 1e-10
    assert spectrum[3] > 1e-10


def test_random_density_reproducible():
    a = random_density(4, 3, RandomSource(9))
    b = random_density(4, 3, RandomSource(9))
    assert np.array_equal(a.op, b.op)


def test_random_density_invalid_rank():
    with pytest.raises(PreconditionFailed):
        random_density(3, 4, RandomSource(0))
    with pytest.raises(PreconditionFailed):
        random_density(3, 0, RandomSource(0))


def test_random_source_split_streams():
    root = RandomSource(123)
    a = root.split(4).sample(("simplex",), 8)[0]
    b = RandomSource(123).split(4).sample(("simplex",), 8)[0]
    c = RandomSource(123).split(5).sample(("simplex",), 8)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert repr(RandomSource(3).split(1)) == "RandomSource(seed=3, key=(1,))"


@given(seed=st.integers(0, 2 ** 128),
       key=st.sampled_from([(), (1,), (2,), (3,), (4,), (5,), (2 ** 33 + 5,), (3, 7)]),
       first=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 4))
@example(seed=0, key=(1,), first=0, count=4)
@example(seed=2 ** 32, key=(5,), first=2 ** 32 - 3, count=4)
@example(seed=2 ** 64 + 1, key=(2 ** 33 + 5,), first=7, count=2)
@example(seed=2 ** 100 + 17, key=(1,), first=2 ** 32 - 1, count=1)
@example(seed=2 ** 128, key=(3,), first=123, count=3)
@settings(deadline=None, max_examples=300)
def test_vectorised_keys_equal_seed_sequence(seed, key, first, count):
    trials = range(first, min(first + count, 2 ** 32))
    expected = [np.random.SeedSequence(seed, spawn_key=key + (t,)).generate_state(2, np.uint64) for t in trials]
    keys = states._philox_keys(np.random.SeedSequence(seed, spawn_key=key), trials)
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(expected))


@pytest.mark.parametrize("seed", [0, 9, 2 ** 32, 2 ** 64 + 1])
def test_fill_equals_split_draws(seed):
    # sample over a range fills row i of each uniform, normal and exponential draw from split(trials[i]), keyed
    # through _philox_keys (multi-word entropy for the last two seeds): the per-draw reference on that stream. Ranges
    # may step and decrease, up to the last trial index below 2^32
    root, kinds = RandomSource(seed).split(4), ("hamiltonian", "state", "post")
    for trials in (range(2, 7), range(5, 0, -1), range(0, 10, 3), range(9, 2, -3), range(2 ** 32 - 1, 2 ** 32 - 6, -2)):
        stacks = root.sample(kinds, 3, 4, 2, trials)
        for i, t in enumerate(trials):
            expected = trial_draws(stream(seed, (4, t)), kinds, 3, 4, 2)
            assert [stack[i].tobytes() for stack in stacks] == [x.tobytes() for x in expected], (trials, t)


def test_complex_normal_pairs_two_real_draws():
    z = stream(11).standard_normal((2, 3, 2))
    expected = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    assert states._complex_pairs(z).tobytes() == expected.tobytes()


# One kind at a time, then each claim's kinds: trial t of a claim is root.split(t).sample(kinds, ...)
REPLAY_KINDS = [(kind,) for kind in states.recipes(1, 1, 1)] + [kinds for kinds, _ in audits.CLAIM_AUDITS.values()]


@pytest.mark.parametrize("kinds", REPLAY_KINDS, ids="-".join)
@pytest.mark.parametrize("d, n, rank", [(1, 2, 1), (3, 4, 2), (8, 3, 8), (16, 19, 3)])
def test_a_trial_replays_alone(kinds, d, n, rank):
    root, trials = RandomSource(2 ** 32 + 9).split(4), range(3, 9)
    stacks = root.sample(kinds, d, n, rank, trials)
    for i, t in enumerate(trials):
        alone = root.split(t).sample(kinds, d, n, rank)
        assert len(alone) == len(stacks)
        for stack, row in zip(stacks, alone):
            assert (stack[i].dtype, stack[i].shape, stack[i].tobytes()) == (row.dtype, row.shape, row.tobytes())


@pytest.mark.parametrize("d", [1, 3, 8, 16])
def test_constructors_build_what_one_call_per_draw_builds(d):
    # the four public constructors on one stream, against the per-draw reference of their kinds in the same order
    rng = RandomSource(d)
    h = random_hamiltonian(d, rng)
    built = [h.energies, h.eigenbasis, random_density(d, 1, rng).op, haar_unitary(d, rng),
             random_column_stochastic(5, d, rng).entries]
    expected = trial_draws(stream(d), ("hamiltonian", "state", "haar", "post"), d, 5, 1)
    assert [(x.dtype, x.shape, x.tobytes()) for x in built] == [(x.dtype, x.shape, x.tobytes()) for x in expected]


REJECTED_CALLS = {
    "unknown kind": lambda rng: rng.sample(("bogus",), 3),
    "negative dimension": lambda rng: rng.sample(("haar",), -1),
    "list of trials": lambda rng: rng.sample(("haar",), 2, trials=[0, 1]),
    "zero outcomes": lambda rng: rng.sample(("post",), 3, 0),
    "rank past the dimension": lambda rng: rng.sample(("state",), 3, 1, 5),
    "trial index past 2^32": lambda rng: rng.sample(("haar",), 2, trials=range(2 ** 32, 2 ** 32 + 1)),
    "haar unitary of dimension 0": lambda rng: haar_unitary(0, rng),
    "random density of rank 4 > 3": lambda rng: random_density(3, 4, rng),
    "random hamiltonian of float dimension": lambda rng: random_hamiltonian(1.5, rng),
    "random stochastic matrix of 0 outcomes": lambda rng: random_column_stochastic(0, 3, rng),
}


@pytest.mark.parametrize("name", list(REJECTED_CALLS))
def test_a_rejected_call_leaves_the_stream_where_it_was(name):
    rng = RandomSource(7)
    with pytest.raises(ErgokitError):
        REJECTED_CALLS[name](rng)
    fresh = RandomSource(7)
    for build in (lambda r: haar_unitary(3, r), lambda r: random_density(3, 2, r).op,
                  lambda r: random_hamiltonian(3, r).op, lambda r: random_column_stochastic(4, 3, r).entries):
        assert build(rng).tobytes() == build(fresh).tobytes()
