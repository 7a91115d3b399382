import functools

import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import cli


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


# named full-dimensional test bodies shared by the parity tests
BODIES = {
    "cube": B.cube,
    "simplex": B.simplex,
    **{f"ball@{k}": functools.partial(B.approximate_ball, k) for k in range(4)},
    "trunc:0.1": functools.partial(cli.parse_body, "trunc:0.1"),
    "shear:0.3": functools.partial(cli.parse_body, "shear:0.3"),
    **{f"rand10s{s}": functools.partial(B.random_hull, 10, s) for s in range(20)},
}


@functools.cache
def body(name):
    return BODIES[name]()


@pytest.fixture
def unit_cube():
    return B.cube()


@pytest.fixture
def std_simplex():
    return B.simplex()


@pytest.fixture
def unit_square():
    return B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                           dtype=float), name="square")


@pytest.fixture
def unit_segment():
    return B.segment([0, 0, 0], [1, 0, 0])
