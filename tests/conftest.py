import math

import numpy as np
import pytest

from horoflow.manifold import EUCLIDEAN, HYPERBOLIC, ModelSpace, Point


@pytest.fixture
def h2():
    return ModelSpace(HYPERBOLIC, 2)


@pytest.fixture
def h3():
    return ModelSpace(HYPERBOLIC, 3)


@pytest.fixture
def e3():
    return ModelSpace(EUCLIDEAN, 3)


@pytest.fixture
def base3(h3):
    return Point(h3, [0.0, 0.0, 1.0])


def exact_euclidean_integral(bump) -> float:
    """Closed-form integral over E^n of the polynomial bump (1 - (r/R)^2)^3."""
    n = bump.model.dim
    return bump.radius ** n * math.pi ** (n / 2.0) * 6.0 / math.gamma(n / 2.0 + 4.0)


def sweep_cells(table) -> list:
    """The s-table of ``verify.sweep_rows`` expanded to one tuple per (s, t)
    cell, s-major, in the column order of ``verify.SWEEP_COLUMNS``."""
    ts, rows = table
    return [(row[0], t) + row[1:] for row in rows for t in ts]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
