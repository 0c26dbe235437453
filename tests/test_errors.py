"""Every domain failure raises an ErgokitError (still a ValueError), so the
CLI reports it with exit code 2."""

import json

import numpy as np
import pytest

from ergokit.audits import AuditConfig
from ergokit.errors import DimensionMismatch, ErgokitError, InvalidConfig, NonFinite, PreconditionFailed
from ergokit.instances import instance_from_dict
from ergokit.linalg import as_matrix
from ergokit.majorization import majorization_deficit, majorizes
from ergokit.measurement import FineGrainedMeasurement, Povm, StochasticMatrix, computational_basis
from ergokit.states import DensityMatrix, Hamiltonian, RandomSource, haar_unitary, pure_state

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
BUMP = np.array([[1.2, 0.0], [0.0, 1.0]], dtype=complex)

BAD_INPUTS = {
    "state trace": lambda: DensityMatrix(np.diag([0.5, 0.6]).astype(complex)),
    "state not PSD": lambda: DensityMatrix(np.diag([1.2, -0.2]).astype(complex)),
    "stochastic negative entry": lambda: StochasticMatrix(np.array([[1.2], [-0.2]])),
    "stochastic column sum": lambda: StochasticMatrix(np.array([[0.5], [0.4]])),
    "povm not positive": lambda: Povm((BUMP, np.eye(2) - BUMP)),
    "povm zero element": lambda: Povm((KET0 + KET1, np.zeros((2, 2), dtype=complex))),
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
    "trial index past 2^32": lambda: RandomSource(0).fill(range(2 ** 32 - 1, 2 ** 32 + 1), []),
    "pure zero vector": lambda: pure_state([0.0, 0.0]),
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
    "majorizes with NaN": lambda: majorizes([np.nan], [1.0]),
    "majorization deficit with Inf": lambda: majorization_deficit([np.inf, 0.0], [1.0, 0.0]),
    "pure state with NaN": lambda: pure_state([np.nan, 1.0]),
    "empty hamiltonian": lambda: Hamiltonian(np.zeros((0, 0))),
    "empty state": lambda: DensityMatrix(np.zeros((0, 0))),
    "empty basis": lambda: FineGrainedMeasurement.from_basis(np.eye(0)),
    "computational basis of dimension 0": lambda: computational_basis(0),
    "empty stochastic matrix": lambda: StochasticMatrix(np.zeros((0, 3))),
    "ragged pure state vector": lambda: pure_state([[1, 0], [0]]),
    "majorizes ragged vectors": lambda: majorizes([[1, 0], [0]], [1, 0]),
    "majorizes non-numeric entries": lambda: majorizes(["a"], [1.0]),
    "majorizes empty vectors": lambda: majorizes([], []),
    "majorizes scalars": lambda: majorizes(1.0, 1.0),
    "majorization deficit whose partial sums overflow": lambda: majorization_deficit([1e308, 1e308], [1, 0]),
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
    "float audit seed": InvalidConfig,
    "float audit dimension": InvalidConfig,
    "bool audit dimension": InvalidConfig,
    "float audit outcomes": InvalidConfig,
    "float audit rank": InvalidConfig,
    "float audit trials": InvalidConfig,
    "string audit tolerance": InvalidConfig,
    "majorizes with NaN": NonFinite,
    "majorization deficit with Inf": NonFinite,
    "pure state with NaN": NonFinite,
    "empty hamiltonian": DimensionMismatch,
    "empty state": DimensionMismatch,
    "empty basis": DimensionMismatch,
    "computational basis of dimension 0": DimensionMismatch,
    "empty stochastic matrix": DimensionMismatch,
    "ragged pure state vector": DimensionMismatch,
    "majorizes ragged vectors": DimensionMismatch,
    "majorizes non-numeric entries": DimensionMismatch,
    "majorizes empty vectors": DimensionMismatch,
    "majorizes scalars": DimensionMismatch,
    "majorization deficit whose partial sums overflow": NonFinite,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a failure is the error alone, not a warning on the way
@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_domain_failures_raise_ergokit_errors(name):
    with pytest.raises(ERROR_CLASSES.get(name, ErgokitError)) as info:
        BAD_INPUTS[name]()
    assert isinstance(info.value, ValueError)
