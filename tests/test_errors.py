"""Every domain failure raises an ErgokitError (still a ValueError), so the
CLI reports it with exit code 2."""

import numpy as np
import pytest

from ergokit import majorization
from ergokit.errors import ErgokitError
from ergokit.linalg import as_matrix
from ergokit.majorization import prob_vector, refinement_bistochastic
from ergokit.measurement import Povm, StochasticMatrix, computational_basis
from ergokit.states import DensityMatrix, RandomSource, haar_unitary, pure_state

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
BUMP = np.array([[1.2, 0.0], [0.0, 1.0]], dtype=complex)

BAD_INPUTS = {
    "state trace": lambda: DensityMatrix(np.diag([0.5, 0.6]).astype(complex)),
    "state not PSD": lambda: DensityMatrix(np.diag([1.2, -0.2]).astype(complex)),
    "stochastic negative entry": lambda: StochasticMatrix(np.array([[1.2], [-0.2]])),
    "stochastic column sum": lambda: StochasticMatrix(np.array([[0.5], [0.4]])),
    "povm not positive": lambda: Povm(elements=(BUMP, np.eye(2) - BUMP)),
    "povm zero element": lambda: Povm(elements=(KET0 + KET1, np.zeros((2, 2), dtype=complex))),
    "povm incomplete": lambda: Povm(elements=(KET0, 0.5 * KET1)),
    "povm labels": lambda: Povm(elements=(KET0, KET1), labels=(1,)),
    "matrix with NaN": lambda: as_matrix([[np.nan, 0.0], [0.0, 1.0]]),
    "matrix with Inf": lambda: as_matrix([[np.inf, 0.0], [0.0, 1.0]]),
    "haar dimension": lambda: haar_unitary(0, RandomSource(0)),
    "pure zero vector": lambda: pure_state([0.0, 0.0]),
    "probability vector negative": lambda: prob_vector([1.1, -0.1]),
    "probability vector sum": lambda: prob_vector([0.9, 0.2]),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_domain_failures_raise_ergokit_errors(name):
    with pytest.raises(ErgokitError) as info:
        BAD_INPUTS[name]()
    assert isinstance(info.value, ValueError)


def test_refinement_row_sum_failure_raises_ergokit_error(monkeypatch):
    # the composed matrix is bistochastic in exact arithmetic, so only a
    # broken refinement can trip the row-sum check
    lopsided = StochasticMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    monkeypatch.setattr(majorization, "refine_distribution", lambda p, d: lopsided)
    with pytest.raises(ErgokitError):
        refinement_bistochastic(computational_basis(2), StochasticMatrix(np.eye(2)))
