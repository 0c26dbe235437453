"""Every domain failure raises an ErgokitError (still a ValueError), so the
CLI reports it with exit code 2."""

import itertools
import json

import numpy as np
import pytest

from ergokit.audits import AuditConfig
from ergokit.ergotropy import passive_energy_of_spectrum, report, work
from ergokit.errors import (DimensionMismatch, ErgokitError, InvalidPovm, NonFinite, NotHermitian, NotUnitary,
                            PreconditionFailed)
from ergokit.instances import family_matrices, instance_from_dict
from ergokit.linalg import as_matrix
from ergokit.majorization import majorization_deficit, majorizes
from ergokit.measurement import (Povm, StochasticMatrix, computational_basis, link_matrix, outcome_distribution,
                                 random_column_stochastic)
from ergokit.states import (DensityMatrix, Hamiltonian, RandomSource, haar_unitary, random_density,
                            random_hamiltonian, recipes)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
BUMP = np.array([[1.2, 0.0], [0.0, 1.0]], dtype=complex)

BAD_INPUTS = {
    "state trace": lambda: DensityMatrix(np.diag([0.5, 0.6]).astype(complex)),
    "state not PSD": lambda: DensityMatrix(np.diag([1.2, -0.2]).astype(complex)),
    "stochastic negative entry": lambda: StochasticMatrix(np.array([[1.2], [-0.2]])),
    "stochastic column sum": lambda: StochasticMatrix(np.array([[0.5], [0.4]])),
    "povm not positive": lambda: Povm((BUMP, np.eye(2) - BUMP)),
    "povm incomplete": lambda: Povm((KET0, 0.5 * KET1)),
    "matrix with NaN": lambda: as_matrix([[np.nan, 0.0], [0.0, 1.0]]),
    "matrix with Inf": lambda: as_matrix([[np.inf, 0.0], [0.0, 1.0]]),
    "ragged state rows": lambda: DensityMatrix([[1, 0], [0]]),
    "ragged stochastic rows": lambda: StochasticMatrix([[1.0], [0.0, 1.0]]),
    "non-numeric state entries": lambda: DensityMatrix([["a", "b"], ["c", "d"]]),
    "state entry past the float range": lambda: DensityMatrix([[10 ** 400, 0], [0, 1]]),
    "stochastic entry past the float range": lambda: StochasticMatrix([[10 ** 400]]),
    "hamiltonian entry past the float range": lambda: Hamiltonian([[10 ** 400]]),
    "instance cell read as inf": lambda: instance_from_dict(json.loads('{"dimension": 1, "hamiltonian": [[0]], "state": [[1e400]]}')),
    "povm of 2x2 and 3x3 elements": lambda: Povm((np.eye(2), np.eye(3))),
    "haar dimension": lambda: haar_unitary(0, RandomSource(0)),
    "negative seed": lambda: RandomSource(-1),
    "negative split index": lambda: RandomSource(0).split(-1),
    "trial index past 2^32": lambda: RandomSource(0).sample(("haar",), 2, trials=range(2 ** 32 - 1, 2 ** 32 + 1)),
    "sample of an unknown kind": lambda: RandomSource(0).sample(("bogus",), 3),
    "sample of negative dimension": lambda: RandomSource(0).sample(("haar",), -1),
    "sample over a list of trials": lambda: RandomSource(0).sample(("haar",), 2, trials=[0, 1]),
    "sample of zero outcomes": lambda: RandomSource(0).sample(("post",), 3, 0),
    "sample of rank past the dimension": lambda: RandomSource(0).sample(("state",), 3, 1, 5),
    "sample of dimension 0": lambda: RandomSource(0).sample(("haar",), 0),
    "audit dimension 0": lambda: AuditConfig(dimension=0),
    "audit rank past the dimension": lambda: AuditConfig(dimension=3, rank=5),
    "negative audit seed": lambda: AuditConfig(seed=-1),
    "float seed": lambda: RandomSource(1.5),
    "string seed": lambda: RandomSource("3"),
    "bool seed": lambda: RandomSource(True),
    "float split index": lambda: RandomSource(0).split(1.5),
    "float audit seed": lambda: AuditConfig(seed=1.5),
    "float audit dimension": lambda: AuditConfig(dimension=3.5),
    "bool audit dimension": lambda: AuditConfig(dimension=True),
    "float audit outcomes": lambda: AuditConfig(outcomes=2.0),
    "float audit rank": lambda: AuditConfig(rank=1.5),
    "float audit trials": lambda: AuditConfig(trials=2.5),
    "string audit tolerance": lambda: AuditConfig(tolerance="a"),
    "audit outcomes past the largest array": lambda: AuditConfig(dimension=2, outcomes=2 ** 62),
    "audit dimension past the largest array": lambda: AuditConfig(dimension=2 ** 32),
    "majorizes with NaN": lambda: majorizes([np.nan], [1.0]),
    "majorization deficit with Inf": lambda: majorization_deficit([np.inf, 0.0], [1.0, 0.0]),
    "empty hamiltonian": lambda: Hamiltonian(np.zeros((0, 0))),
    "empty state": lambda: DensityMatrix(np.zeros((0, 0))),
    "empty basis": lambda: Povm(np.eye(0)),
    "non-unitary basis": lambda: Povm(np.array([[1.0, 1.0], [0.0, 0.0]])),
    "computational basis of dimension 0": lambda: computational_basis(0),
    "empty stochastic matrix": lambda: StochasticMatrix(np.zeros((0, 3))),
    "majorizes ragged vectors": lambda: majorizes([[1, 0], [0]], [1, 0]),
    "majorizes non-numeric entries": lambda: majorizes(["a"], [1.0]),
    "majorizes empty vectors": lambda: majorizes([], []),
    "majorizes scalars": lambda: majorizes(1.0, 1.0),
    "majorization deficit whose partial sums overflow": lambda: majorization_deficit([1e308, 1e308], [1, 0]),
    "computational basis of negative dimension": lambda: computational_basis(-1),
    "random hamiltonian of negative dimension": lambda: random_hamiltonian(-1, RandomSource(0)),
    "computational basis of float dimension": lambda: computational_basis(2.5),
    "haar unitary of float dimension": lambda: haar_unitary(2.5, RandomSource(0)),
    "random density of float dimension": lambda: random_density(2.5, 1, RandomSource(0)),
    "random stochastic matrix of float size": lambda: random_column_stochastic(2.5, 2, RandomSource(0)),
    "random density of float rank": lambda: random_density(3, 1.5, RandomSource(0)),
    "state given a stack": lambda: DensityMatrix(np.stack([KET0, KET1, KET0])),
    "hamiltonian given a stack": lambda: Hamiltonian(np.zeros((3, 2, 2))),
    "non-square state": lambda: DensityMatrix(np.full((2, 3), 0.5)),
    "non-square hamiltonian": lambda: Hamiltonian(np.zeros((2, 3))),
    "outcome distribution of a 3-dim state under a 2-dim povm":
        lambda: outcome_distribution(DensityMatrix(np.eye(3) / 3), computational_basis(2)),
    "observational ergotropy of a 3-dim state under a 2-dim povm":
        lambda: report(DensityMatrix(np.eye(3) / 3), Hamiltonian(np.diag([0.0, 1.0, 2.0])), computational_basis(2)),
    "povm second element not Hermitian": lambda: Povm((KET0, KET1 + np.array([[0.0, 0.5], [0.0, 0.0]]))),
    "povm second element near float max": lambda: Povm((KET0, np.full((2, 2), 1.7e308))),
    "work of one population for three levels": lambda: work(np.array([0.0, 1.0, 2.0]), [1.0], [1.0, 0.0, 0.0]),
    "work of two populations for three levels": lambda: work(np.array([0.0, 1.0, 2.0]), [0.5, 0.5], [1.0, 0.0, 0.0]),
    "work of a NaN population": lambda: work(np.array([0.0, 1.0]), [0.5, np.nan], [0.5, 0.5]),
    "work of an infinite spectrum entry": lambda: work(np.array([0.0, 1.0]), [0.5, 0.5], [np.inf, 0.5]),
    "work of scalars": lambda: work(1.0, 1.0, 1.0),
    "passive energy of scalars": lambda: passive_energy_of_spectrum(1.0, 1.0),
    "work of a string population": lambda: work([0.0, 1.0], "ab", [0.5, 0.5]),
    "passive energy of a ragged spectrum": lambda: passive_energy_of_spectrum([0.0, 1.0], [[0.5, 0.5], [1.0]]),
    "work of complex populations": lambda: work([0.0, 1.0], [0.5j, 0.5], [0.5, 0.5]),
    "work of empty vectors": lambda: work([], [], []),
    "passive energy of a NaN spectrum": lambda: passive_energy_of_spectrum([0.0, 1.0], [np.nan, 1.0]),
    "work whose mean energy overflows": lambda: work([1e308, 1e308], [1.0, 1.0], [1.0, 1.0]),
    "passive energy that overflows": lambda: passive_energy_of_spectrum([1e308, 1e308], [1.0, 1.0]),
    "work whose products overflow": lambda: work([1e200, 1e200], [1e200, 0.0], [1.0, 0.0]),
    "stochastic matrix of a complex array": lambda: StochasticMatrix(np.array([[1 + 1j, 0], [0, 1]])),
    "work of a complex population array": lambda: work([0, 1], np.array([0.25 + 1j, 0.75]), [0.5, 0.5]),
    "majorization deficit of a complex array": lambda: majorization_deficit(np.array([0.5 + 1j, 0.5]), [0.5, 0.5]),
    "work of batches that do not broadcast": lambda: work(np.zeros(3), np.zeros((2, 3)), np.zeros((4, 3))),
    "passive energy of batches that do not broadcast":
        lambda: passive_energy_of_spectrum(np.zeros((2, 3)), np.zeros((4, 3))),
    "majorization deficit of batches that do not broadcast":
        lambda: majorization_deficit(np.zeros((2, 3)), np.zeros((4, 3))),
    "link matrix of ragged rows": lambda: link_matrix([[1.0, 0.0], [0.0]]),
    "link matrix with a negative weight": lambda: link_matrix([[-1.0, 2.0]]),
    "link matrix of columns summing to 1 with a negative weight": lambda: link_matrix([[0.5, -0.25], [0.5, 1.25]]),
    "work of descending energies": lambda: work([1.0, 0.0], [1.0, 0.0], [1.0, 0.0]),
    "passive energy of descending energies": lambda: passive_energy_of_spectrum([1.0, 0.0], [1.0, 0.0]),
    "passive energy of a batch with one descending row":
        lambda: passive_energy_of_spectrum([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
    "state of numeric strings": lambda: DensityMatrix([["0.5", "0"], ["0", "0.5"]]),
    "povm of numeric strings": lambda: Povm([["1", "0"], ["0", "1"]]),
    "stochastic matrix of numeric strings": lambda: StochasticMatrix([["1", "0"], ["0", "1"]]),
    "link matrix of numeric strings": lambda: link_matrix([["1", "0"], ["0", "1"]]),
    "boolean hamiltonian": lambda: Hamiltonian([[True, False], [False, True]]),
    "work of numeric-string populations": lambda: work([0.0, 1.0], ["0.5", "0.5"], [0.5, 0.5]),
    "majorizes numeric strings": lambda: majorizes(["1", "0"], [0.5, 0.5]),
    "work of an object array holding a string":
        lambda: work([0.0, 1.0], np.array([0.5, "0.5"], dtype=object), [0.5, 0.5]),
    "family matrix of 0 outcomes": lambda: family_matrices("mix", [0.5], 0),
    "family matrix of -1 outcomes": lambda: family_matrices("mix", [0.5], -1),
    "family matrix of 2.5 outcomes": lambda: family_matrices("mix", [0.5], 2.5),
    "family matrix of True outcomes": lambda: family_matrices("mix", [0.5], True),
    "recipes of float dimension": lambda: recipes(2.5, 1, 1),
    "recipes of rank past the dimension": lambda: recipes(3, 1, 5),
    "family parameter given as a string": lambda: family_matrices("mix", ["0.5"], 2),
    "family parameter given as None": lambda: family_matrices("merge", [None], 2),
    "family parameter given as a complex number": lambda: family_matrices("mix", [0.5 + 0j], 2),
    "family parameter given as an array": lambda: family_matrices("mix", [np.array([0.5, 0.2])], 2),
    "family parameter given as True": lambda: family_matrices("mix", [True], 2),
    "family parameter given as numpy True": lambda: family_matrices("mix", [np.True_], 2),
}


# Entries whose error class is pinned; the others need only raise some ErgokitError.
ERROR_CLASSES = {
    "ragged state rows": DimensionMismatch,
    "ragged stochastic rows": DimensionMismatch,
    "non-numeric state entries": DimensionMismatch,
    "state entry past the float range": NonFinite,
    "stochastic entry past the float range": NonFinite,
    "hamiltonian entry past the float range": NonFinite,
    "instance cell read as inf": NonFinite,
    "float seed": PreconditionFailed,
    "string seed": PreconditionFailed,
    "bool seed": PreconditionFailed,
    "float split index": PreconditionFailed,
    "trial index past 2^32": PreconditionFailed,
    "sample of an unknown kind": PreconditionFailed,
    "sample of negative dimension": PreconditionFailed,
    "sample over a list of trials": PreconditionFailed,
    "sample of zero outcomes": PreconditionFailed,
    "sample of rank past the dimension": PreconditionFailed,
    "haar dimension": PreconditionFailed,
    "negative seed": PreconditionFailed,
    "sample of dimension 0": PreconditionFailed,
    "audit dimension 0": PreconditionFailed,
    "audit rank past the dimension": PreconditionFailed,
    "negative audit seed": PreconditionFailed,
    "float audit seed": PreconditionFailed,
    "float audit dimension": PreconditionFailed,
    "bool audit dimension": PreconditionFailed,
    "float audit outcomes": PreconditionFailed,
    "float audit rank": PreconditionFailed,
    "float audit trials": PreconditionFailed,
    "string audit tolerance": PreconditionFailed,
    "audit outcomes past the largest array": PreconditionFailed,
    "audit dimension past the largest array": PreconditionFailed,
    "majorizes with NaN": NonFinite,
    "majorization deficit with Inf": NonFinite,
    "empty hamiltonian": DimensionMismatch,
    "empty state": DimensionMismatch,
    "empty basis": DimensionMismatch,
    "non-unitary basis": NotUnitary,
    "computational basis of dimension 0": PreconditionFailed,
    "empty stochastic matrix": DimensionMismatch,
    "majorizes ragged vectors": DimensionMismatch,
    "majorizes non-numeric entries": DimensionMismatch,
    "majorizes empty vectors": DimensionMismatch,
    "majorizes scalars": DimensionMismatch,
    "majorization deficit whose partial sums overflow": NonFinite,
    "computational basis of negative dimension": PreconditionFailed,
    "random hamiltonian of negative dimension": PreconditionFailed,
    "computational basis of float dimension": PreconditionFailed,
    "haar unitary of float dimension": PreconditionFailed,
    "random density of float dimension": PreconditionFailed,
    "random stochastic matrix of float size": PreconditionFailed,
    "random density of float rank": PreconditionFailed,
    "state given a stack": DimensionMismatch,
    "hamiltonian given a stack": DimensionMismatch,
    "non-square state": DimensionMismatch,
    "non-square hamiltonian": DimensionMismatch,
    "outcome distribution of a 3-dim state under a 2-dim povm": DimensionMismatch,
    "observational ergotropy of a 3-dim state under a 2-dim povm": DimensionMismatch,
    "povm not positive": InvalidPovm,
    "povm incomplete": InvalidPovm,
    "povm second element not Hermitian": NotHermitian,
    "povm second element near float max": NonFinite,
    "work of one population for three levels": DimensionMismatch,
    "work of two populations for three levels": DimensionMismatch,
    "work of a NaN population": NonFinite,
    "work of an infinite spectrum entry": NonFinite,
    "work of scalars": DimensionMismatch,
    "passive energy of scalars": DimensionMismatch,
    "work of a string population": DimensionMismatch,
    "passive energy of a ragged spectrum": DimensionMismatch,
    "work of complex populations": DimensionMismatch,
    "work of empty vectors": DimensionMismatch,
    "passive energy of a NaN spectrum": NonFinite,
    "work whose mean energy overflows": NonFinite,
    "passive energy that overflows": NonFinite,
    "work whose products overflow": NonFinite,
    "stochastic matrix of a complex array": DimensionMismatch,
    "work of a complex population array": DimensionMismatch,
    "majorization deficit of a complex array": DimensionMismatch,
    "work of batches that do not broadcast": DimensionMismatch,
    "passive energy of batches that do not broadcast": DimensionMismatch,
    "majorization deficit of batches that do not broadcast": DimensionMismatch,
    "link matrix of ragged rows": DimensionMismatch,
    "link matrix with a negative weight": InvalidPovm,
    "link matrix of columns summing to 1 with a negative weight": InvalidPovm,
    "work of descending energies": PreconditionFailed,
    "passive energy of descending energies": PreconditionFailed,
    "passive energy of a batch with one descending row": PreconditionFailed,
    "state of numeric strings": DimensionMismatch,
    "povm of numeric strings": DimensionMismatch,
    "stochastic matrix of numeric strings": DimensionMismatch,
    "link matrix of numeric strings": DimensionMismatch,
    "boolean hamiltonian": DimensionMismatch,
    "work of numeric-string populations": DimensionMismatch,
    "majorizes numeric strings": DimensionMismatch,
    "work of an object array holding a string": DimensionMismatch,
    "family matrix of 0 outcomes": PreconditionFailed,
    "family matrix of -1 outcomes": PreconditionFailed,
    "family matrix of 2.5 outcomes": PreconditionFailed,
    "family matrix of True outcomes": PreconditionFailed,
    "recipes of float dimension": PreconditionFailed,
    "recipes of rank past the dimension": PreconditionFailed,
    "family parameter given as a string": PreconditionFailed,
    "family parameter given as None": PreconditionFailed,
    "family parameter given as a complex number": PreconditionFailed,
    "family parameter given as an array": PreconditionFailed,
    "family parameter given as True": PreconditionFailed,
    "family parameter given as numpy True": PreconditionFailed,
}

# Entries whose message must name the offending part. One fault gives one message whichever call it enters through.
ERROR_MESSAGES = {
    "haar dimension": "dimension must be a positive integer, got 0",
    "computational basis of dimension 0": "dimension must be a positive integer, got 0",
    "sample of dimension 0": "dimension must be a positive integer, got 0",
    "audit dimension 0": "dimension must be a positive integer, got 0",
    "sample of rank past the dimension": "rank must be an integer in [1, 3], got 5",
    "audit rank past the dimension": "rank must be an integer in [1, 3], got 5",
    "negative seed": "seed must be a non-negative integer, got -1",
    "negative audit seed": "seed must be a non-negative integer, got -1",
    "povm second element not Hermitian": "POVM element 1",
    "povm second element near float max": "POVM element 1",
    "non-square state": "must be square",
    "non-square hamiltonian": "must be square",
    "outcome distribution of a 3-dim state under a 2-dim povm": "measurement is 2-dimensional",
    "observational ergotropy of a 3-dim state under a 2-dim povm": "measurement is 2-dimensional",
    "majorizes scalars": "must be a non-empty vector or a stack of them, got shape ()",
    "work of scalars": "must be a non-empty vector or a stack of them, got shape ()",
    "passive energy of scalars": "must be a non-empty vector or a stack of them, got shape ()",
    "work of empty vectors": "must be a non-empty vector or a stack of them, got shape (0,)",
    "family matrix of 0 outcomes": "outcome count must be a positive integer, got 0",
    "recipes of float dimension": "dimension must be a positive integer, got 2.5",
    "recipes of rank past the dimension": "rank must be an integer in [1, 3], got 5",
}


# Outcomes of zero volume are not faults: the estimate gives them weight 0. Each call with the value it returns.
DEAD_OUTCOMES = {
    "povm zero element": (lambda: Povm((KET0 + KET1, np.zeros((2, 2), dtype=complex))).volumes, [2.0, 0.0]),
    "link matrix with a zero row": (lambda: link_matrix(np.array([[1.0, 1.0], [0.0, 0.0]])), [[0.5, 0.5], [0.5, 0.5]]),
}


@pytest.mark.parametrize("name", list(DEAD_OUTCOMES))
def test_dead_outcomes_are_not_errors(name):
    call, expected = DEAD_OUTCOMES[name]
    np.testing.assert_array_equal(call(), expected)


def test_every_pin_names_a_bad_input():
    # a pin left behind by a deleted row would otherwise sit unused, since the test below reads the tables with .get
    assert [name for name in [*ERROR_CLASSES, *ERROR_MESSAGES] if name not in BAD_INPUTS] == []


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_domain_failures_raise_ergokit_errors(name):
    with pytest.raises(ERROR_CLASSES.get(name, ErgokitError)) as info:
        BAD_INPUTS[name]()
    assert isinstance(info.value, ValueError)
    assert ERROR_MESSAGES.get(name, "") in str(info.value)



def test_family_parameters_of_integer_and_numpy_float_types_stay_accepted():
    # a Python or numpy integer or float is a parameter, reads as the float it equals, and so builds a matrix that
    # StochasticMatrix accepts (a float32 0.1 once made 1 - t in float32, with column sums off by 2.2e-8)
    for name, param in itertools.product(["merge", "mix"], [0, 1, np.int64(0), np.float32(0.5), np.float32(0.1)]):
        entries = next(family_matrices(name, [param], 2)).entries
        assert entries.tobytes() == next(family_matrices(name, [float(param)], 2)).entries.tobytes()
        StochasticMatrix(entries)


@pytest.mark.parametrize("shapes", [((3,), (4,)), ((2, 3), (4, 3))])
def test_the_vector_kernels_share_one_pairing_message(shapes):
    # one rule pairs two vectors, so each kernel names the same fault in the same words
    a, b = np.zeros(shapes[0]), np.zeros(shapes[1])
    messages = set()
    for kernel in (lambda: work(a, b, a), lambda: passive_energy_of_spectrum(a, b), lambda: majorization_deficit(a, b)):
        with pytest.raises(DimensionMismatch) as info:
            kernel()
        messages.add(str(info.value))
    assert len(messages) == 1
    assert f"{shapes[0]} and {shapes[1]}" in messages.pop()
