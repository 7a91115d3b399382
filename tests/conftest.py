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


# The per-arc active-vertex loop that found breakpoints before the normal-fan
# crossings did; the batch in mixedvol.quadrature is checked against it.

def _envelope_breakpoints(alpha: np.ndarray, beta: np.ndarray, l: float) -> list[float]:
    """Switch points of argmax_i(alpha_i cos t + beta_i sin t) on (0, l)."""
    m = len(alpha)
    if m <= 1:
        return []
    vals0 = alpha
    top = vals0.max()
    cand = np.flatnonzero(vals0 >= top - 1e-13 * max(1.0, abs(top)))
    i = int(cand[np.argmax(beta[cand])])
    bps: list[float] = []
    t = 0.0
    for _ in range(8 * m + 16):
        big_a = alpha[i] - alpha
        big_b = beta[i] - beta
        # zeros of big_a cos t + big_b sin t, normalized into (t, t + pi]
        tstar = np.arctan2(-big_a, big_b)
        tstar = np.where(tstar <= t + 1e-12, tstar + np.pi, tstar)
        tstar = np.where(tstar <= t + 1e-12, tstar + np.pi, tstar)
        tstar[i] = np.inf
        tstar = np.where(tstar < l - 1e-12, tstar, np.inf)
        j = int(np.argmin(tstar))
        tn = float(tstar[j])
        if not np.isfinite(tn):
            break
        t = tn
        eps = min(1e-9, (l - t) / 2)
        vals = alpha * np.cos(t + eps) + beta * np.sin(t + eps)
        ni = int(np.argmax(vals))
        if ni != i:
            bps.append(t)
            i = ni
    return bps


def loop_breakpoints(f: B.SupportEvaluator, frame) -> list[float]:
    """Interior arc parameters where some polytope term switches active
    vertex, by walking the active-vertex envelope of each term."""
    bps: list[float] = []
    for _, body in f.terms:
        if isinstance(body, B.Polytope) and len(body.vertices) > 1:
            alpha = body.vertices @ frame.start
            beta = body.vertices @ frame.tangent
            bps += _envelope_breakpoints(alpha, beta, frame.length)
    return sorted(set(bps))


def loop_restriction(f: B.SupportEvaluator, frame, cuts=None):
    """(cuts, coef): f on one arc as A cos t + B sin t + C with (A, B, C) =
    coef[i] on [cuts[i], cuts[i + 1]], cut at loop_breakpoints unless cuts
    are given."""
    if cuts is None:
        cuts = np.array([0.0, *loop_breakpoints(f, frame), frame.length])
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    trig = np.array([np.cos(mid), np.sin(mid)])
    plane = np.array([frame.start, frame.tangent])
    coef = np.zeros((len(mid), 3))
    coef[:, :2] = plane @ f.shift
    for c, b in f.terms:
        if isinstance(b, B.Ball):
            coef += c * np.array([*(plane @ b.center), b.radius])
        else:
            ab = b.vertices @ plane.T
            coef[:, :2] += c * ab[np.argmax(ab @ trig, axis=0)]
    return cuts, coef
