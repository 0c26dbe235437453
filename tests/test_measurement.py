import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit import linalg, measurement, states
from ergokit.ergotropy import passive_state, report
from ergokit.errors import DimensionMismatch
from ergokit.linalg import LOOSE_TOL, TOL, adjoint, energy_tol, max_abs
from ergokit.measurement import (
    Povm,
    StochasticMatrix,
    coarse_grained_state,
    computational_basis,
    energy_incoherent,
    link_matrix,
    outcome_distribution,
    post_process,
    random_column_stochastic,
)
from ergokit.states import (
    DensityMatrix,
    Hamiltonian,
    RandomSource,
    dephase,
    haar_unitary,
    random_density,
    random_hamiltonian,
)

from _oracles import bench_oracle, complex_normal, stream

RHO = DensityMatrix(np.diag([0.25, 0.75]))
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def merge_matrix(b):
    return StochasticMatrix(np.array([[b, 1.0], [1.0 - b, 0.0]]))


class TestStochasticMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[1.2], [-0.2]]))

    def test_rejects_bad_column_sums(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.5], [0.4]]))


class TestPovm:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm((KET0, 0.5 * KET1))

    def test_rejects_zero_element(self):
        with pytest.raises(ValueError):
            Povm((KET0 + KET1, np.zeros((2, 2), dtype=complex)))

    def test_rejects_non_positive_element(self):
        bump = np.array([[1.2, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            Povm((bump, np.eye(2) - bump))

    def test_dense_base_keeps_the_hermitian_part(self):
        # Haar-rotated elements carry roundoff asymmetry, and one more 1e-12 within TOL: the base is their Hermitian
        # part bit for bit, as a state or Hamiltonian keeps, so its elements are exactly Hermitian
        u = haar_unitary(3, RandomSource(7))
        stack = np.stack([(u * w) @ adjoint(u) for w in ([0.2, 0.5, 0.7], [0.8, 0.5, 0.3])])
        stack[0, 0, 1] += 1e-12
        stack[1, 0, 1] -= 1e-12
        assert max_abs(stack - adjoint(stack)) > 0.0
        elements = Povm(stack).elements
        assert elements.tobytes() == linalg.hermitian_part(stack).tobytes()
        assert np.array_equal(elements, adjoint(elements))

    def test_volumes(self):
        p = Povm((0.5 * np.eye(2), 0.5 * np.eye(2)))
        np.testing.assert_allclose(p.volumes, [1.0, 1.0])

    def test_dense_stack_keeps_each_elements_eigenvectors(self):
        # the bench instance's 32 elements have rank 2: each keeps two unit columns, whose weights (the column
        # sums of D) complete the identity
        p = Povm(bench_oracle().make_instance(0, 0, 16)["povm"])
        assert p.base.shape == (16, 64)
        np.testing.assert_array_equal(np.count_nonzero(p.post, axis=1), np.full(32, 2))
        assert max_abs(np.linalg.norm(p.base, axis=0) - 1.0) <= TOL
        assert max_abs((p.base * p.post.sum(axis=0)) @ adjoint(p.base) - np.eye(16)) <= LOOSE_TOL

    def test_tiny_element_keeps_its_eigenvectors(self):
        # 0.6e-10 I has trace 1.2e-10 >= TOL, so it is not a zero element; a floor of TOL on its eigenvalues would
        # drop both of its columns and divide 0 by 0, the floor energy_tol(d, its largest eigenvalue) keeps them
        tiny = 0.6e-10 * np.eye(2)
        m = Povm((tiny, np.eye(2) - tiny))
        assert m.base.shape == (2, 4)
        work = report(DensityMatrix(np.diag([0.3, 0.7])), Hamiltonian(np.diag([0.0, 1.0])), m).observational
        assert work == pytest.approx(0.2, abs=1e-12)


class TestFineGrained:
    def test_from_computational_basis(self):
        p = computational_basis(2)
        np.testing.assert_allclose(p.elements[0], KET0, atol=0.0)
        np.testing.assert_allclose(p.elements[1], KET1, atol=0.0)

    def test_projector_relations(self):
        p = Povm(haar_unitary(4, RandomSource(10)))
        for i, ei in enumerate(p.elements):
            assert abs(float(np.trace(ei).real) - 1.0) <= 1e-12
            for j, ej in enumerate(p.elements):
                expected = ei if i == j else np.zeros((4, 4))
                assert max_abs(ei @ ej - expected) <= 1e-10

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError):
            Povm(np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestRandomColumnStochastic:
    def test_column_sums(self):
        d = random_column_stochastic(6, 4, RandomSource(1))
        assert max_abs(d.entries.sum(axis=0) - 1.0) <= 1e-12

    def test_shape_and_positivity(self):
        d = random_column_stochastic(3, 5, RandomSource(2))
        assert d.entries.shape == (3, 5)
        assert d.entries.size == 15
        assert float(np.min(d.entries)) >= 0.0
        # direct summation oracle, one column at a time
        for j in range(5):
            assert abs(sum(d.entries[i, j] for i in range(3)) - 1.0) <= 1e-12

    def test_deterministic(self):
        a = random_column_stochastic(4, 4, RandomSource(3))
        b = random_column_stochastic(4, 4, RandomSource(3))
        assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("d", [1, 3, 8, 64])
@pytest.mark.parametrize("rank", ["one", "full"])
def test_random_constructors_equal_the_validated_construction(d, rank, monkeypatch):
    # both are valid by construction, so neither is validated again; the unchecked objects equal the validated ones
    rank = 1 if rank == "one" else d
    root = RandomSource(d).split(rank)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} validated again")

    with monkeypatch.context() as patched:
        patched.setattr(DensityMatrix, "__post_init__", refuse)
        patched.setattr(StochasticMatrix, "__post_init__", refuse)
        rho = random_density(d, rank, root.split(0))
        post = random_column_stochastic(rank, d, root.split(1))
    validated = DensityMatrix(states.ginibre_state(complex_normal(stream(d, (rank, 0)), (d, rank))))
    cols = stream(d, (rank, 1)).standard_exponential((rank, d))
    validated_post = StochasticMatrix(cols / cols.sum(axis=0))
    for actual, expected in ((rho.op, validated.op), (rho.eigenvalues, validated.eigenvalues),
                             (post.entries, validated_post.entries)):
        assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()
    assert abs(np.trace(rho.op).real - 1.0) <= TOL
    assert rho.eigenvalues[0] >= -TOL
    assert float(np.min(post.entries)) >= 0.0 and max_abs(post.entries.sum(axis=0) - 1.0) <= TOL


class TestPostProcess:
    def test_identity_is_trivial(self):
        p = computational_basis(2)
        q = post_process(p, StochasticMatrix(np.eye(2)))
        for a, b in zip(q.elements, p.elements):
            assert max_abs(a - b) <= 1e-15
        assert q.n_outcomes == 2

    def test_qubit_merge_elements(self):
        b = 0.3
        q = post_process(computational_basis(2), merge_matrix(b))
        np.testing.assert_allclose(q.elements[0], b * KET0 + KET1, atol=1e-15)
        np.testing.assert_allclose(q.elements[1], (1.0 - b) * KET0, atol=1e-15)

    def test_total_merge_gives_identity_povm(self):
        ones = StochasticMatrix(np.ones((1, 3)))
        q = post_process(computational_basis(3), ones)
        assert q.n_outcomes == 1
        assert max_abs(q.elements[0] - np.eye(3)) <= 1e-12

    def test_drops_zero_outcomes(self):
        q = post_process(computational_basis(2), merge_matrix(1.0))
        assert q.n_outcomes == 1

    def test_preserves_completeness(self):
        rng = RandomSource(12)
        p = Povm(haar_unitary(4, rng))
        d = random_column_stochastic(7, 4, rng)
        q = post_process(p, d)
        total = sum(q.elements)
        assert max_abs(total - np.eye(4)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            post_process(computational_basis(3), merge_matrix(0.5))


class TestEnergyIncoherent:
    def test_identity_gives_projective_energy_measurement(self):
        h = random_hamiltonian(3, RandomSource(14))
        n = energy_incoherent(h, StochasticMatrix(np.eye(3)))
        v = h.eigenbasis
        for k in range(3):
            proj = np.outer(v[:, k], np.conj(v[:, k]))
            assert max_abs(n.elements[k] - proj) <= 1e-12

    def test_elements_diagonal_in_eigenbasis(self):
        rng = RandomSource(15)
        h = random_hamiltonian(3, rng)
        q = random_column_stochastic(5, 3, rng)
        n = energy_incoherent(h, q)
        v = h.eigenbasis
        for e in n.elements:
            rotated = adjoint(v) @ e @ v
            off = rotated - np.diag(np.diag(rotated))
            assert max_abs(off) <= 1e-9

    def test_merging_bins_have_bin_size_volumes(self):
        h = random_hamiltonian(4, RandomSource(16))
        bins = StochasticMatrix(np.array([
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
        ]))
        n = energy_incoherent(h, bins)
        np.testing.assert_allclose(n.volumes, [2.0, 2.0], atol=1e-12)

    def test_dimension_mismatch(self):
        h = random_hamiltonian(3, RandomSource(17))
        with pytest.raises(DimensionMismatch):
            energy_incoherent(h, StochasticMatrix(np.eye(2)))


class TestCoarseGrainedState:
    def test_own_eigenbasis_reconstructs_state(self):
        rng = RandomSource(18)
        rho = random_density(4, 4, rng)
        basis = Povm(rho.eig()[1])
        assert max_abs(coarse_grained_state(rho, basis).op - rho.op) <= 1e-12

    def test_qubit_merge_half(self):
        q = post_process(computational_basis(2), merge_matrix(0.5))
        out = coarse_grained_state(RHO, q)
        np.testing.assert_allclose(out.op, np.diag([5.0 / 12.0, 7.0 / 12.0]), atol=1e-12)

    @pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 0.75])
    def test_qubit_merge_excited_weight(self, b):
        q = post_process(computational_basis(2), merge_matrix(b))
        out = coarse_grained_state(RHO, q)
        expected = ((3.0 + b) / 4.0) * (1.0 / (1.0 + b))
        assert out.op[1, 1].real == pytest.approx(expected, abs=1e-12)

    def test_trivial_measurement_gives_maximally_mixed(self):
        trivial = Povm((np.eye(3, dtype=complex),))
        rho = random_density(3, 3, RandomSource(19))
        assert max_abs(coarse_grained_state(rho, trivial).op - np.eye(3) / 3.0) <= 1e-12


def test_fine_grained_spectrum_equals_outcome_distribution():
    rng = RandomSource(61)
    rho = random_density(4, 4, rng)
    p = Povm(haar_unitary(4, rng))
    spectrum = np.sort(np.clip(coarse_grained_state(rho, p).eigenvalues, 0.0, None))
    probabilities = np.sort(outcome_distribution(rho, p))
    assert max_abs(spectrum - probabilities) <= 1e-12


class TestOutcomeDistribution:
    def test_maximally_mixed_gives_volume_fractions(self):
        q = post_process(computational_basis(2), merge_matrix(0.4))
        p = outcome_distribution(DensityMatrix(np.eye(2) / 2), q)
        np.testing.assert_allclose(p, q.volumes / 2.0, atol=1e-12)

    def test_eigenstate(self):
        p = outcome_distribution(DensityMatrix(np.diag([0.0, 1.0])), computational_basis(2))
        np.testing.assert_allclose(p, [0.0, 1.0], atol=1e-14)

    def test_qubit_merge_half(self):
        q = post_process(computational_basis(2), merge_matrix(0.5))
        np.testing.assert_allclose(outcome_distribution(RHO, q), [7.0 / 8.0, 1.0 / 8.0], atol=1e-12)

    def test_sums_to_one(self):
        rng = RandomSource(20)
        rho = random_density(5, 3, rng)
        m = post_process(Povm(haar_unitary(5, rng)),
                         random_column_stochastic(7, 5, rng))
        assert float(outcome_distribution(rho, m).sum()) == pytest.approx(1.0, abs=1e-10)


# --- the Lemma 1 kernel of basis measurements against dense elements ----------

def _kernel_instance(d, n_rel, seed, rank_frac, zero_rows, degenerate):
    rng = RandomSource(seed)
    rank = max(1, int(round(rank_frac * d)))
    rho = random_density(d, rank, rng)
    if degenerate:
        u = haar_unitary(d, rng)
        levels = 1.0 + np.floor(3.0 * rng.sample(("levels",), d)[0]) / 2.0  # at most three distinct energies
        h = Hamiltonian(u @ np.diag(levels) @ adjoint(u))
    else:
        h = random_hamiltonian(d, rng)
    n = {"fewer": max(1, d - 1), "equal": d, "more": d + 2}[n_rel]
    entries = random_column_stochastic(n, d, rng).entries
    if zero_rows and n > 1:
        entries[: (n + 1) // 2] = 0.0
        entries /= entries.sum(axis=0)
    return rho, h, Povm(haar_unitary(d, rng)), StochasticMatrix(entries)


@given(d=st.sampled_from([1, 2, 3, 8]), n_rel=st.sampled_from(["fewer", "equal", "more"]),
       seed=st.integers(0, 2**31 - 1), rank_frac=st.floats(0.0, 1.0), zero_rows=st.booleans(),
       degenerate=st.booleans())
@settings(deadline=None, max_examples=80)
def test_kernel_matches_dense_elements(d, n_rel, seed, rank_frac, zero_rows, degenerate):
    rho, h, fine, dmat = _kernel_instance(d, n_rel, seed, rank_frac, zero_rows, degenerate)
    scale = float(np.max(np.abs(h.energies)))
    # A general (non-projective) dense base coarsened by D, against its explicitly mixed elements.
    general = Povm(post_process(fine, random_column_stochastic(d, d, RandomSource(seed).split(1))).elements)
    coarse = post_process(general, dmat)
    mixed = np.tensordot(dmat.entries, general.elements, axes=1)[np.flatnonzero(dmat.entries @ general.volumes >= TOL)]
    cases = [(m, m.elements) for m in (fine, post_process(fine, dmat), energy_incoherent(h, dmat))]
    for structured, elements in [*cases, (coarse, mixed)]:
        dense = Povm(elements)
        kernel_value = report(rho, h, structured).observational
        assert abs(kernel_value - report(rho, h, dense).observational) <= 1e-12 * scale
        assert max_abs(coarse_grained_state(rho, structured).op - coarse_grained_state(rho, dense).op) <= 1e-12
        np.testing.assert_allclose(outcome_distribution(rho, structured), outcome_distribution(rho, dense), atol=1e-12)
    assert "elements" not in coarse.__dict__  # coarsening a dense base mixes no element matrices


def test_post_processing_drops_zero_rows_of_basis_measurements():
    dead_rows = StochasticMatrix(np.array([[0.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0]]))
    coarse = post_process(computational_basis(3), dead_rows)
    np.testing.assert_array_equal(coarse.post, dead_rows.entries[[1, 3]])
    np.testing.assert_allclose(coarse.volumes, [1.5, 1.5], atol=0.0)
    n = energy_incoherent(random_hamiltonian(3, RandomSource(70)), dead_rows)
    np.testing.assert_array_equal(n.post, dead_rows.entries[[1, 3]])


@pytest.mark.parametrize("d", [1, 3, 8])
def test_dense_projectors_take_the_square_path(d):
    # U e_j e_j^dag U^dag as a dense stack keeps one column each, a square base, and agrees with Povm(U) under any
    # coarsening, one that drops an all-zero row among them
    rng = RandomSource(74 + d)
    rho, h, u = random_density(d, d, rng), random_hamiltonian(d, rng), haar_unitary(d, rng)
    dense = Povm(np.stack([np.outer(u[:, j], np.conj(u[:, j])) for j in range(d)]))
    assert dense.base.shape == (d, d)
    dead_row = np.vstack([random_column_stochastic(2, d, rng).entries, np.zeros(d)])
    for post in (np.eye(d), random_column_stochastic(d + 2, d, rng).entries, dead_row, np.ones((1, d))):
        dmat = StochasticMatrix(post)
        by_stack, by_basis = (report(rho, h, post_process(m, dmat)).observational for m in (dense, Povm(u)))
        assert abs(by_stack - by_basis) <= energy_tol(d, max_abs(h.energies))


@pytest.mark.parametrize("d, n", [(1, 2), (3, 4), (8, 5), (8, 1), (64, 64)])
def test_link_matrix_is_the_kernel_as_a_matrix(d, n):
    rng = RandomSource(73 + d + n)
    posts = np.stack([random_column_stochastic(n, d, rng).entries for _ in range(3)])
    links = link_matrix(posts)
    for post, link in zip(posts, links):
        closed_form = (post / post.sum(axis=1, keepdims=True)).T @ post  # Lemma 1's B = (D / D1)^T D
        assert max_abs(link - closed_form) <= linalg.TOL
        assert max(max_abs(link.sum(axis=0) - 1.0), max_abs(link.sum(axis=1) - 1.0)) <= linalg.TOL  # bistochastic
        assert link.tobytes() == link_matrix(post).tobytes()
    assert link_matrix(posts.tolist()).tobytes() == links.tobytes()  # nested lists are read as the array


def test_basis_measurement_kernel_makes_no_eigensolve(monkeypatch):
    rng = RandomSource(71)
    rho = random_density(5, 5, rng)
    h = random_hamiltonian(5, rng)
    fine = Povm(haar_unitary(5, rng))
    dmat = random_column_stochastic(7, 5, rng)
    projectors = Povm(fine.elements)  # rank-1 dense elements: a square base
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    for module in (linalg, measurement, states):  # the estimate operator U diag(w) U^dag is not built either
        original = module.operator_in_basis
        monkeypatch.setattr(module, "operator_in_basis", lambda *a, _f=original, **k: calls.append("operator_in_basis") or _f(*a, **k))
    q = random_column_stochastic(3, 5, rng)
    for m in (fine, post_process(fine, dmat), energy_incoherent(h, q), post_process(projectors, dmat)):
        report(rho, h, m)
    assert calls == []


def test_dense_estimate_makes_one_eigensolve_and_no_validation(monkeypatch):
    rng = RandomSource(72)
    rho = random_density(4, 4, rng)
    fine = Povm(haar_unitary(4, rng))
    dense = Povm(post_process(fine, random_column_stochastic(6, 4, rng)).elements)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: calls.append("DensityMatrix.__post_init__"))
    estimate = coarse_grained_state(rho, dense)
    assert calls == ["eigvalsh"]
    np.testing.assert_allclose(estimate.eigenvalues, np.linalg.eigvalsh(estimate.op), atol=0.0)


# Each operator the package builds, as a function of (rho, h, a Haar fine-grained Povm, a stochastic D, a dense Povm).
BUILT_OPERATORS = {
    "dephased state": lambda rho, h, fine, dmat, dense: dephase(rho, h).op,
    "passive state": lambda rho, h, fine, dmat, dense: passive_state(rho, h)[0].op,
    "coarse state over a unitary base":
        lambda rho, h, fine, dmat, dense: coarse_grained_state(rho, post_process(fine, dmat)).op,
    "fine-grained elements": lambda rho, h, fine, dmat, dense: fine.elements,
    "post-processed elements": lambda rho, h, fine, dmat, dense: post_process(fine, dmat).elements,
    "energy-incoherent elements": lambda rho, h, fine, dmat, dense: energy_incoherent(h, dmat).elements,
    "random density": lambda rho, h, fine, dmat, dense: rho.op,
    "random hamiltonian": lambda rho, h, fine, dmat, dense: h.op,
    "dense elements": lambda rho, h, fine, dmat, dense: dense.elements,
    "coarse state over a dense base": lambda rho, h, fine, dmat, dense: coarse_grained_state(rho, dense).op,
    "coarse state over an energy-incoherent measurement":
        lambda rho, h, fine, dmat, dense: coarse_grained_state(rho, energy_incoherent(h, dmat)).op,
}


@pytest.mark.parametrize("name", list(BUILT_OPERATORS))
def test_every_built_operator_is_exactly_hermitian(name):
    # one rule makes an operator from a basis (its Hermitian part), so each equals its adjoint bit for bit
    d = 7
    for seed in range(10):
        rng = RandomSource(seed)
        rho, h, fine = random_density(d, d, rng), random_hamiltonian(d, rng), Povm(haar_unitary(d, rng))
        dmat = random_column_stochastic(d + 2, d, rng)
        dense = Povm(post_process(fine, random_column_stochastic(2 * d, d, rng)).elements)
        op = BUILT_OPERATORS[name](rho, h, fine, dmat, dense)
        assert np.array_equal(op, adjoint(op)), f"seed {seed}"
