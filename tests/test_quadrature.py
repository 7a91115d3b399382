import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import quadrature as quad
from mixedvol.errors import QuadratureFailure

from conftest import adaptive_gauss, integrate_with_breakpoints, rel_err


def test_arc_between_basic():
    fr = quad.arc_between(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    assert fr.length == pytest.approx(np.pi / 2)
    assert np.allclose(fr.point(0.0), [1, 0, 0])
    assert np.allclose(fr.point(fr.length), [0, 1, 0])
    # points stay on the unit sphere
    t = np.linspace(0, fr.length, 7)
    assert np.allclose(np.linalg.norm(fr.point(t), axis=1), 1.0)


def test_arc_between_rejects_degenerate():
    e1 = np.array([1.0, 0, 0])
    with pytest.raises(QuadratureFailure):
        quad.arc_between(e1, e1)
    with pytest.raises(QuadratureFailure):
        quad.arc_between(e1, -e1)


def test_breakpoints_cube_quarter_arc():
    # h_cube on the arc from e1 to e2 switches active vertex where the
    # maximizing corner changes; the max itself (cos t + sin t) is smooth,
    # so there are no breakpoints for the envelope value switch
    cube = B.cube()
    fr = quad.arc_between(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    f = B.SupportEvaluator.of(cube)
    bps = quad.evaluator_breakpoints(f, fr)
    # h(t) = cos t + sin t with the same active vertex (1,1,1) throughout
    assert bps == []


def test_breakpoints_shifted_cube():
    # centered cube: active vertex switches at t = pi/4 on the e1->e2 arc
    c = B.cube().translate([-0.5, -0.5, -0.5])
    fr = quad.arc_between(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    bps = quad.evaluator_breakpoints(B.SupportEvaluator.of(c), fr)
    assert len(bps) == 0  # (±.5,±.5,.5) both active: h = .5cos+.5sin both sides
    fr2 = quad.arc_between(np.array([1.0, 0, 0]), np.array([-0.6, 0.8, 0]))
    bps2 = quad.evaluator_breakpoints(B.SupportEvaluator.of(c), fr2)
    assert len(bps2) >= 1


def test_integrate_evaluator_exactness():
    # int over the quarter arc of (cos t + sin t) dt = 2
    f = B.SupportEvaluator.of(B.cube())
    fr = quad.arc_between(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    assert quad.integrate_evaluator(f, fr) == pytest.approx(2.0, abs=1e-14)


def test_integrate_pair_derivative():
    # f = g = cos t on [0, pi/2]: int f g = pi/4, int f' g' = pi/4
    f = B.SupportEvaluator.linear([1.0, 0.0, 0.0])
    fr = quad.arc_between(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    ifg, idfdg = quad.integrate_pair(f, f, fr)
    assert ifg == pytest.approx(np.pi / 4, abs=1e-14)
    assert idfdg == pytest.approx(np.pi / 4, abs=1e-14)


def _sphere_hull(n: int, seed: int) -> B.Polytope:
    p = np.random.default_rng(seed).standard_normal((n, 3))
    return B.hull(p / np.linalg.norm(p, axis=1)[:, None])


def _arc_derivative(ev: B.SupportEvaluator, fr: quad.ArcFrame):
    """t -> d/dt ev(u(t)), from the active vertex of each polytope term at t."""
    def fun(t):
        u = fr.point(t)
        du = (np.multiply.outer(-np.sin(t), fr.start)
              + np.multiply.outer(np.cos(t), fr.tangent))
        out = du @ ev.shift
        for c, body in ev.terms:
            if isinstance(body, B.Ball):
                out = out + c * (du @ body.center)
            else:
                v = body.vertices[np.argmax(u @ body.vertices.T, axis=-1)]
                out = out + c * np.sum(v * du, axis=-1)
        return out
    return fun


PAIRS = {
    "10pt-hulls": lambda: (B.SupportEvaluator.of(B.random_hull(10, 5)),
                               B.SupportEvaluator.of(B.random_hull(10, 6))),
    "300pt-sphere-hulls": lambda: (B.SupportEvaluator.of(_sphere_hull(300, 1)),
                                       B.SupportEvaluator.of(_sphere_hull(300, 2))),
    "ball-plus-linear-shift": lambda: (
        B.SupportEvaluator.of(B.Ball([0.2, -0.1, 0.3], 0.7))
        + B.SupportEvaluator.of(B.random_hull(10, 5), -0.5)
        + B.SupportEvaluator.linear([0.3, -1.2, 0.4]),
        B.SupportEvaluator.of(B.random_hull(10, 6))
        + B.SupportEvaluator.linear([-0.5, 0.1, 0.2])),
}


@pytest.mark.parametrize("case", PAIRS)
def test_integrate_pair_matches_adaptive_gauss(case):
    f, g = PAIRS[case]()
    a = np.array([1.0, 0, 0])
    b = np.array([0.3, 0.9, np.sqrt(1 - 0.09 - 0.81)])
    fr = quad.arc_between(a, b)
    exact = quad.integrate_pair(f, g, fr)[0]
    numeric = adaptive_gauss(
        lambda t: np.asarray(f(fr.point(t))) * np.asarray(g(fr.point(t))),
        0.0, fr.length, 1e-12)
    assert rel_err(exact, numeric) < 1e-10
    # the same function twice shares one restriction
    exact_ff = quad.integrate_pair(f, f, fr)[0]
    numeric_ff = adaptive_gauss(
        lambda t: np.asarray(f(fr.point(t))) ** 2, 0.0, fr.length, 1e-12)
    assert rel_err(exact_ff, numeric_ff) < 1e-10
    # single integrals
    assert rel_err(quad.integrate_evaluator(f, fr), adaptive_gauss(
        lambda t: np.asarray(f(fr.point(t))), 0.0, fr.length, 1e-12)) < 1e-10
    # derivative products jump at the breakpoints: split the adaptive rule there
    bps = sorted(set(quad.evaluator_breakpoints(f, fr))
                 | set(quad.evaluator_breakpoints(g, fr)))
    df, dg = _arc_derivative(f, fr), _arc_derivative(g, fr)
    numeric_d = integrate_with_breakpoints(
        lambda t: df(t) * dg(t), bps, 0.0, fr.length, 1e-12)
    assert rel_err(quad.integrate_pair(f, g, fr)[1], numeric_d) < 1e-10


def test_restriction_on_merged_cuts_of_large_sphere_hulls():
    fr = quad.arc_between(np.array([1.0, 0, 0]),
                          np.array([0.3, 0.9, np.sqrt(1 - 0.09 - 0.81)]))
    arcs = quad.Arcs.of(fr)
    f = B.SupportEvaluator.of(_sphere_hull(300, 1))
    g = B.SupportEvaluator.of(_sphere_hull(300, 2))
    nf, ng = (len(quad.breakpoints(arcs, h)[1]) for h in (f, g))
    assert nf >= 4 and ng >= 4
    # f and g are cut at the union of their breakpoints and share segments
    rf, rg = quad.restrict(arcs, f, g)
    assert rf.t0 is rg.t0 and len(rf.coef) == nf + ng + 1
    # the coefficients reproduce each function at every segment midpoint
    mid = 0.5 * (rf.t0 + rf.t1)
    trig = np.column_stack([np.cos(mid), np.sin(mid), np.ones_like(mid)])
    for r, h in ((rf, f), (rg, g)):
        vals = np.sum(r.coef * trig, axis=1)
        assert np.abs(vals - h(fr.point(mid))).max() < 1e-14


def test_product_integral_polynomial_identity():
    # (2cos+3sin+1)(cos-sin+2) integrated on [0.2, 1.4] vs dense sampling
    p, q = (2.0, 3.0, 1.0), (1.0, -1.0, 2.0)
    t = np.linspace(0.2, 1.4, 200001)
    vals = (p[0] * np.cos(t) + p[1] * np.sin(t) + p[2]) * \
           (q[0] * np.cos(t) + q[1] * np.sin(t) + q[2])
    assert quad.product_integral(p, q, 0.2, 1.4) == pytest.approx(
        np.trapezoid(vals, t), abs=1e-9)


def test_adaptive_gauss_known_integral():
    val = adaptive_gauss(np.sin, 0.0, np.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_adaptive_gauss_depth_failure():
    with pytest.raises(QuadratureFailure):
        adaptive_gauss(lambda t: np.sign(np.sin(1.0 / (t + 1e-12))),
                       0.0, 1.0, 1e-15, max_depth=4)


def test_integrate_with_breakpoints_kink():
    # |t - 0.5| on [0, 1]: exact 0.25, breakpoint at the kink
    val = integrate_with_breakpoints(lambda t: np.abs(t - 0.5), [0.5],
                                     0.0, 1.0, 1e-12)
    assert val == pytest.approx(0.25, abs=1e-12)


def test_arc_sample_nodes_cover_endpoints():
    fr = quad.arc_between(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    nodes = quad.arc_sample_nodes(fr, B.SupportEvaluator.of(B.cube()))
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(fr.length)
