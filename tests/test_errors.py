"""Every domain failure raises an ErgokitError (still a ValueError), so the
CLI reports it with exit code 2."""

import json

import numpy as np
import pytest

from ergokit.errors import DimensionMismatch, ErgokitError, NonFinite
from ergokit.instances import instance_from_dict
from ergokit.linalg import as_matrix
from ergokit.majorization import prob_vector
from ergokit.measurement import Povm, StochasticMatrix
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
    "probability vector negative": lambda: prob_vector([1.1, -0.1]),
    "probability vector sum": lambda: prob_vector([0.9, 0.2]),
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
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_domain_failures_raise_ergokit_errors(name):
    with pytest.raises(ERROR_CLASSES.get(name, ErgokitError)) as info:
        BAD_INPUTS[name]()
    assert isinstance(info.value, ValueError)
