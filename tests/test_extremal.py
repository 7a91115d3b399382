import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mixedvol import bodies as B
from mixedvol import extremal as X
from mixedvol import graph as G
from mixedvol import measures as MS
from mixedvol.errors import DegenerateInput, ZeroDenominator

from conftest import ref_mu_masses, rel_err, sup_on_arcs


def test_stability_witness_identical_bodies(unit_cube, std_simplex):
    w = X.stability_witness(unit_cube, unit_cube, std_simplex)
    assert w.a == pytest.approx(1.0)
    assert np.linalg.norm(w.v) < 1e-12
    assert w.residual < 1e-24


def test_stability_witness_translate(unit_cube, std_simplex):
    t = 0.7
    k = unit_cube.translate([t, 0, 0])
    w = X.stability_witness(k, unit_cube, std_simplex)
    assert w.a == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w.v, [t, 0, 0], atol=1e-12)
    assert w.residual < 1e-24


def test_stability_witness_truncated_cube(unit_cube):
    # corner truncation leaves the support values at the six facet normals
    # of the cube unchanged, so the weighted residual vanishes
    k = B.truncate_vertex(unit_cube, 0, 0.2)
    w = X.stability_witness(k, unit_cube, unit_cube)
    assert w.residual < 1e-24


def test_stability_witness_g_matrix(unit_cube):
    w = X.stability_witness(unit_cube, unit_cube, unit_cube)
    # centered cube: G_M = sum (1/0.5) n n^T = 4 I
    assert np.allclose(w.g_matrix, 4.0 * np.eye(3), atol=1e-12)
    assert w.r == pytest.approx(0.5)
    assert w.big_r == pytest.approx(np.sqrt(3) / 2)
    assert w.c_m == pytest.approx(0.5 ** 2 / (18 * 0.75))


def test_stability_witness_least_squares_optimality(unit_cube, std_simplex):
    k = B.random_hull(10, 3)
    wit = X.stability_witness(k, unit_cube, std_simplex)
    # the offsets are held about the simplex's vertex centroid
    normals = std_simplex.facets.normals
    weights = std_simplex.facets.areas / std_simplex.facets.offsets
    delta = k.support(normals) - wit.a * unit_cube.support(normals)

    def resid(v):
        return float(np.sum(weights * (delta - normals @ v) ** 2))

    rng = np.random.default_rng(0)
    for _ in range(20):
        pert = wit.v + 1e-3 * rng.standard_normal(3)
        assert resid(pert) >= wit.residual - 1e-15


def test_stability_zero_denominator(unit_cube):
    point = B.hull(np.zeros((1, 3)))
    with pytest.raises(ZeroDenominator):
        X.stability_witness(unit_cube, point, unit_cube)


def test_stability_requires_full_dim(unit_cube, unit_square):
    with pytest.raises(DegenerateInput):
        X.stability_witness(unit_cube, unit_cube, unit_square)


def test_weak_stability_random_suite():
    for seed in range(15):
        k = B.random_hull(10, seed)
        l = B.random_hull(10, seed + 500)
        m = B.random_hull(10, seed + 900)
        m = m.translate(-m.origin)
        rep = X.weak_stability_check(k, l, m)
        assert rep.holds, f"seed {seed}: margin {rep.margin}"


def test_weak_stability_inscribed_ball_strict(unit_cube):
    # a ball-like body inside the cube, in a generic rotation: the deficit
    # strictly dominates the correction term
    ball = B.approximate_ball(2).scaled(0.5)
    turn = Rotation.from_euler("xyz", [1.0, 0.4, 0.2]).as_matrix()
    k = B.hull(ball.vertices @ turn.T + 0.5)
    rep = X.weak_stability_check(k, unit_cube, unit_cube)
    assert rep.holds
    assert rep.deficit.deficit > rep.witness.c_m * rep.deficit.v_ll \
        * rep.witness.residual > 0
    assert rep.witness.residual > 1e-6
    # axis-aligned, this K has width 1 along every facet normal of the cube,
    # so the exact witness is a = 1, v = 0 with residual 0
    rep = X.weak_stability_check(ball.translate([0.5, 0.5, 0.5]),
                                 unit_cube, unit_cube)
    assert rep.witness.residual <= 1e-25
    assert rep.deficit.deficit > 0


def test_certify_homothety_equality():
    rng = np.random.default_rng(5)
    for seed in range(5):
        l = B.random_hull(10, seed)
        m = B.random_hull(10, seed + 70)
        a = float(rng.uniform(0.5, 2.0))
        v = rng.standard_normal(3)
        k = B.hull(a * l.vertices + v)
        cert = X.certify_equality_fulldim(k, l, m)
        assert cert.verdict == "equality"
        assert cert.a == pytest.approx(a, rel=1e-9)
        assert np.allclose(cert.v, v, atol=1e-7 * max(1, np.linalg.norm(v)))


def test_certify_truncated_cube_equality(unit_cube):
    k = B.truncate_vertex(unit_cube, 0, 0.1)
    cert = X.certify_equality_fulldim(k, unit_cube, unit_cube)
    assert cert.verdict == "equality"
    assert cert.deficit_report.deficit <= 1e-10 * cert.deficit_report.scale
    assert cert.sup_residual <= 1e-8 * cert.diameter


def test_certify_deep_truncation_strict(unit_cube):
    k = B.truncate_vertex(unit_cube, 0, 0.8)
    cert = X.certify_equality_fulldim(k, unit_cube, unit_cube)
    assert cert.verdict == "strict"
    assert cert.deficit_report.deficit > 1e-6 * cert.deficit_report.scale
    assert cert.sup_residual > 1e-4 * cert.diameter


def test_certify_random_strict():
    for seed in range(10):
        k = B.random_hull(10, seed)
        l = B.random_hull(10, seed + 40)
        m = B.random_hull(10, seed + 80)
        cert = X.certify_equality_fulldim(k, l, m)
        dr = cert.deficit_report
        assert (cert.verdict == "equality") == (dr.deficit <= 1e-9 * dr.scale)
        assert cert.verdict != "inconclusive"


def test_certify_scaling_equivariance(unit_cube):
    k = B.truncate_vertex(unit_cube, 0, 0.1)
    c1 = X.certify_equality_fulldim(k, unit_cube, unit_cube)
    c2 = X.certify_equality_fulldim(k, unit_cube.scaled(2.0), unit_cube)
    assert c2.a == pytest.approx(c1.a / 2.0, rel=1e-12)
    assert c2.verdict == c1.verdict


def test_certify_zero_denominator(unit_cube, unit_segment):
    with pytest.raises(ZeroDenominator):
        X.certify_equality_fulldim(unit_cube, unit_segment, unit_cube)


def test_rigidity_equal_bodies(unit_cube, std_simplex):
    rep = X.rigidity_check(unit_cube, unit_cube, std_simplex)
    assert rep.sbm_integral == pytest.approx(0.0, abs=1e-20)
    assert rep.mu_integral == pytest.approx(0.0, abs=1e-20)
    assert rep.holds


def test_rigidity_truncated_cube_mechanism(unit_cube):
    # h_K - h_cube vanishes on the support arcs and at the facet normals:
    # both correction integrals vanish although K != cube
    k = B.truncate_vertex(unit_cube, 0, 0.2)
    rep = X.rigidity_check(k, unit_cube, unit_cube)
    assert rep.sbm_integral < 1e-20
    assert rep.mu_integral < 1e-20
    assert abs(rep.deficit.deficit) < 1e-12
    assert rep.holds


def test_rigidity_random_suite():
    for seed in range(15):
        k = B.random_hull(10, seed + 5)
        l = B.random_hull(10, seed + 600)
        m = B.random_hull(10, seed + 1200)
        m = m.translate(-m.origin)
        rep = X.rigidity_check(k, l, m)
        assert rep.holds, f"seed {seed}: margin {rep.margin}"


@pytest.mark.parametrize("seed", range(4))
def test_rigidity_mu_integral_matches_a_vertex_loop(seed):
    # int (h_K - h_L)^2 dmu_M, summed vertex by vertex over the metric graph
    # of M with the loop masses of mu_M
    k, l, m = (B.random_hull(10, seed + c) for c in (40, 140, 240))
    g = G.build_graph(m)
    ref = sum(mass * (max(k.vertices @ n) - max(l.vertices @ n)) ** 2
              for mass, n in zip(ref_mu_masses(g), g.normals))
    assert rel_err(X.rigidity_check(k, l, m).mu_integral, ref) <= 1e-12


def test_rigidity_dominance_on_equality_instances(unit_cube):
    # rearranged with deficit = 0: the arc integral is controlled by the
    # vertex integral
    rng = np.random.default_rng(9)
    for seed in range(5):
        l = B.random_hull(10, seed)
        m = B.random_hull(10, seed + 33)
        m = m.translate(-m.origin)
        k = B.hull(l.vertices + rng.standard_normal(3))
        rep = X.rigidity_check(k, l, m)
        bound = (8 * rep.big_r ** 4 / rep.r ** 4) * rep.mu_integral + 1e-9
        assert rep.sbm_integral <= bound


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("s", [1e-4, 1e-6])
def test_certify_small_homothetic_copy(seed, s):
    # L = s K + t: equality at every scale s
    k, m = B.random_hull(10, seed), B.random_hull(10, seed + 10)
    l = B.hull(s * k.vertices + np.array([0.3, -0.2, 0.1]))
    dr = MS.quadratic_deficit(k, l, m)
    assert abs(dr.deficit) <= 1e-10 * dr.scale
    assert X.certify_equality_fulldim(k, l, m).verdict == "equality"


CERT_TRIPLES = [
    lambda: (B.truncate_vertex(B.cube(), 0, 0.1), B.cube(), B.cube()),
    lambda: (B.truncate_vertex(B.cube(), 0, 0.8), B.cube(), B.cube()),
    lambda: (B.shear(B.cube(), [1, 0, 0], [0, 0, 1], 1e-8), B.cube(), B.simplex()),
    lambda: (B.approximate_ball(2), B.cube(), B.approximate_ball(1)),
    *[(lambda s=s: tuple(B.random_hull(n, s + i) for i, n in
                         enumerate((30, 30, 12)))) for s in range(6)],
]


@pytest.mark.parametrize("make", CERT_TRIPLES)
def test_certify_finds_the_cuts_once(monkeypatch, make):
    k, l, m = make()
    calls = []
    breakpoints = X.quad.breakpoints

    def counted(*args):
        calls.append(args)
        return breakpoints(*args)

    monkeypatch.setattr(X.quad, "breakpoints", counted)
    cert = X.certify_equality_fulldim(k, l, m)
    assert len(calls) == 1
    # the residual's sup over the fit's segments against a scan of the
    # residual itself, which finds its own cuts
    g = X.build_graph(m)
    resid = (B.SupportEvaluator.of(k) + B.SupportEvaluator.of(l, -cert.a)
             + B.SupportEvaluator([], shift=-cert.v))
    ref = sup_on_arcs(resid, g.arcs)
    assert abs(cert.sup_residual - ref) <= 1e-12 * cert.diameter
    dr = cert.deficit_report
    assert cert.verdict == X._verdict(dr.deficit, dr.scale, ref, cert.diameter)
