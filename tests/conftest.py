import math

import numpy as np
import pytest

from gaplab import gline
from gaplab.instances import InstanceSpec, generate

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sparse_row(row, rhs):
    """A dense coefficient row and its right-hand side as a (cols, vals, rhs)
    row of lp_solver.SparseLp."""
    row = np.asarray(row, dtype=float)
    cols = np.flatnonzero(row)
    return cols, row[cols], float(rhs)


def gline_instance(n: int, d: float, p: float = 2):
    return generate(InstanceSpec(n=n, d=d, p=p))


def full_enumeration_optimum(n: int, d: float) -> tuple[int, float]:
    """Reference for gline.optimal_zvector: argmin over every balanced even
    k = 2..n (ties to the smaller k), then the comparison with k = 1."""
    ks = np.arange(2, n + 1, 2)
    vals = gline._even_k_values(n, d, ks)
    i = int(np.argmin(vals))
    v1 = gline.zvector_tour_value(n, 1, d, 0.0)
    if v1 <= vals[i]:
        return 1, v1
    return int(ks[i]), float(vals[i])
