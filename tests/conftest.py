import functools

import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import cli
from mixedvol.errors import QuadratureFailure


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


def assert_same_polytope(p, q):
    assert np.array_equal(p.vertices, q.vertices)
    for a, b in ((p.facets, q.facets), (p.edges, q.edges)):
        for field in a.__dataclass_fields__:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


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


# adaptive composite Gauss-Legendre: a quadrature that knows nothing of the
# closed-form arc integrals it checks
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def adaptive_gauss(fun, t0: float, t1: float, tol: float, max_depth: int = 30) -> float:
    """Adaptive bisected 16-point Gauss-Legendre for a vectorized integrand."""

    def gl(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * float(_GL_WEIGHTS @ fun(mid + half * _GL_NODES))

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = gl(lo, mid), gl(mid, hi)
        if abs(left + right - whole) <= tol * max(1.0, abs(left + right)):
            return left + right
        if depth >= max_depth:
            raise QuadratureFailure(
                f"adaptive quadrature exceeded depth {max_depth} without "
                f"meeting tolerance {tol:g}")
        return (recurse(lo, mid, left, depth + 1)
                + recurse(mid, hi, right, depth + 1))

    if t1 <= t0:
        return 0.0
    return recurse(t0, t1, gl(t0, t1), 0)


def integrate_with_breakpoints(fun, breakpoints: list[float], t0: float, t1: float,
                               tol: float) -> float:
    """Adaptive Gauss-Legendre split at the given interior breakpoints."""
    cuts = [t0] + [b for b in sorted(breakpoints) if t0 < b < t1] + [t1]
    return sum(adaptive_gauss(fun, lo, hi, tol) for lo, hi in zip(cuts[:-1], cuts[1:]))
