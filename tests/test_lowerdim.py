import dataclasses

import numpy as np
import pytest
import scipy.linalg

from mixedvol import bodies as B
from mixedvol import cli
from mixedvol import extremal as X
from mixedvol import lowerdim as LD
from mixedvol import measures as MS
from mixedvol import quadrature as quad
from mixedvol.bodies import SupportEvaluator
from mixedvol.errors import (BadMesh, BadParam, DimensionError,
                             InsufficientSpectrum, NumericalFailure,
                             ZeroDenominator)
from mixedvol.graph import build_graph, kernel_analysis, spectrum

from conftest import (NEAR_TOP, TILT, adaptive_gauss, arc_integral,
                      cylinder_graphs, cylinder_integrals, decay_ratios,
                      rel_err, sup_on_arcs)

W = np.array([0.0, 0.0, 1.0])


def hexagon(side: float = 1.0) -> B.Polytope:
    ang = np.arange(6) * np.pi / 3
    pts = side * np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
    return B.hull(pts, name="hexagon")


def test_setup_square_atoms(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    assert g.areas.tolist() == pytest.approx([1.0, 1.0])
    assert len(g.edges) == 4
    dirs = sorted(tuple(np.round(z, 9)) for z in g.arcs.tangents)
    assert dirs == [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                    (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    assert all(mass == pytest.approx(1.0) for mass in g.weights)
    assert g.vertex_balance_residuals().max() < 1e-12 * g.total_weight()


def test_setup_segment_atoms(unit_segment):
    g = LD.lowerdim_setup(unit_segment, W)
    assert g.areas.tolist() == [0.0, 0.0]
    assert len(g.edges) == 2
    for z, mass in zip(g.arcs.tangents, g.weights):
        assert abs(abs(z[1]) - 1.0) < 1e-12   # +-e2, perpendicular to e1
        assert mass == pytest.approx(1.0)


def test_setup_hexagon_atoms():
    s = 0.8
    g = LD.lowerdim_setup(hexagon(s), W)
    assert len(g.edges) == 6
    assert all(mass == pytest.approx(s, rel=1e-12) for mass in g.weights)
    assert g.vertex_balance_residuals().max() < 1e-12 * g.total_weight()


def test_setup_rejects_bad_inputs(unit_cube, unit_square):
    with pytest.raises(DimensionError):
        LD.lowerdim_setup(unit_cube, W)           # full-dimensional
    with pytest.raises(DimensionError):
        LD.lowerdim_setup(unit_square, [1, 0, 0])  # not in w-perp
    point = B.hull(np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        LD.lowerdim_setup(point, W)


def test_setup_allows_translated_plane():
    sq = B.hull(np.array([[0, 0, 5], [1, 0, 5], [0, 1, 5], [1, 1, 5]],
                         dtype=float))
    g = LD.lowerdim_setup(sq, W)
    assert len(g.edges) == 4


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e8])
def test_setup_containment_is_relative_to_the_extent_of_m(unit_square, shift):
    # the unit square tilted by z = 1e-4 x is 1e-4 out of every translate of
    # e3-perp wherever it sits; the flat square is in one wherever it sits
    tilted = unit_square.vertices + 1e-4 * unit_square.vertices[:, :1] * W
    with pytest.raises(DimensionError):
        LD.lowerdim_setup(B.hull(tilted + [shift, 0, 0]), W)
    g = LD.lowerdim_setup(B.hull(unit_square.vertices + [shift, 0, 0]), W)
    assert len(g.edges) == 4


def test_sbm_mass_square(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    assert g.sbm_mass() == pytest.approx(2 * np.pi, rel=1e-12)


def test_sbm_odd_function_vanishes(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    f = SupportEvaluator([], shift=W)   # cos(theta) integrates to zero
    assert abs(arc_integral(f, g)) < 1e-12


def test_sbm_callable_matches_evaluator(unit_square, unit_cube):
    g = LD.lowerdim_setup(unit_square, W)
    ev = SupportEvaluator.of(unit_cube)
    exact = arc_integral(ev, g)
    arcs = g.arcs
    numeric = sum(w * adaptive_gauss(lambda t: np.asarray(ev(arcs.points(i, t))),
                                     0.0, arcs.lengths[i], 1e-11)
                  for i, w in enumerate(g.sbm_weights))
    assert rel_err(exact, numeric) < 1e-9


def test_assemble_dof_count(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(g, np.pi / 100)
    assert form.size == 4 * 99 + 2
    with pytest.raises(BadMesh):
        LD.assemble_lowerdim(g, -1.0)
    # a half circle no longer than h gets 2 elements
    assert LD.assemble_lowerdim(g, 4.0).size == 4 * 1 + 2


def test_constant_rayleigh_quotient(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(g, np.pi / 50)
    ones = np.ones(form.size)
    num = ones @ form.e_matrix @ ones
    den = ones @ form.mass @ ones
    assert num / den == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_cos_theta_is_kernel_mode(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(g, np.pi / 100)
    f = form.node_points @ W      # cos(theta) at every node
    num = f @ form.e_matrix @ f
    den = f @ form.mass @ f
    assert abs(num / den) < 1e-3  # Rayleigh quotient -> 0 as O(h^2)


def test_spectrum_square(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    rep = LD.verify_spectrum(g, 2, np.pi / 200, 5e-3)
    assert rep.ok
    sizes = [len(c.observed) for c in rep.clusters]
    assert sizes == [1, 4, 4]
    preds = [c.predicted for c in rep.clusters]
    assert preds == pytest.approx([1 / 3, 0.0, -1.0])


def test_spectrum_segment(unit_segment):
    g = LD.lowerdim_setup(unit_segment, W)
    rep = LD.verify_spectrum(g, 2, np.pi / 200, 5e-3)
    assert rep.ok
    assert [len(c.observed) for c in rep.clusters] == [1, 2, 2]


def test_spectrum_hexagon():
    g = LD.lowerdim_setup(hexagon(), W)
    rep = LD.verify_spectrum(g, 2, np.pi / 200, 5e-3)
    assert rep.ok
    assert [len(c.observed) for c in rep.clusters] == [1, 6, 6]


def regular_polygon(k: int) -> B.Polytope:
    ang = np.arange(k) * 2 * np.pi / k
    return B.hull(np.column_stack([np.cos(ang), np.sin(ang), np.zeros(k)]))


def irregular_polygon(k: int, seed: int) -> B.Polytope:
    """A k-gon in e3-perp with unequal edges: each vertex of the regular
    k-gon turned by up to a quarter of its angle step and moved to a radius
    in [0.6, 1.4], seeded."""
    rng = np.random.default_rng(seed)
    ang = (np.arange(k) + rng.uniform(-0.25, 0.25, k)) * 2 * np.pi / k
    r = rng.uniform(0.6, 1.4, k)
    return B.hull(np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                   np.zeros(k)]))


LOWER_BODIES = {
    "square": lambda: B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                       [1, 1, 0]], dtype=float)),
    "segment": lambda: B.segment([0, 0, 0], [1, 0, 0]),
    "hexagon": lambda: regular_polygon(6),
    "12-gon": lambda: regular_polygon(12),
    "hexagon~0": lambda: irregular_polygon(6, 0),
    "hexagon~1": lambda: irregular_polygon(6, 1),
    "5-gon~2": lambda: irregular_polygon(5, 2),
}
# bodies whose edge weights (lengths) all differ, at an odd (41) and an even
# (60) number of elements per half circle
WEIGHTED_CASES = [(name, kmax, n)
                  for name in ("hexagon~0", "hexagon~1", "5-gon~2")
                  for kmax in (1, 2, 3) for n in (41, 60)]


# (body, kmax, n) with h = pi/n where asking ARPACK for exactly the predicted
# number of pairs missed one copy of the last multiple eigenvalue
@pytest.mark.parametrize("name,kmax,n", [
    ("square", 2, 24), ("square", 2, 40), ("square", 2, 76), ("square", 2, 116),
    ("hexagon", 2, 36), ("hexagon", 2, 40), ("hexagon", 3, 28),
    ("hexagon", 3, 36), ("hexagon", 3, 48), ("hexagon", 3, 56),
    ("12-gon", 2, 20), ("12-gon", 3, 48), ("12-gon", 3, 80),
    ("12-gon", 3, 116), ("segment", 3, 40), *WEIGHTED_CASES,
])
def test_spectrum_matches_dense_eigh(name, kmax, n):
    g = LD.lowerdim_setup(LOWER_BODIES[name](), W)
    h = np.pi / n
    if "~" in name:
        assert np.ptp(g.weights) > 0.1 * g.weights.max()
        assert LD.assemble_lowerdim(g, h).max_element == np.pi / n
    rep = LD.verify_spectrum(g, kmax, h, 1.0)
    observed = np.concatenate([c.observed for c in rep.clusters])
    form = LD.assemble_lowerdim(g, h)
    dense = scipy.linalg.eigh(form.e_matrix.toarray(), form.mass.toarray(),
                              eigvals_only=True)[::-1]
    assert np.abs(observed - dense[:len(observed)]).max() <= 1e-9


def test_spectrum_insufficient(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    with pytest.raises(InsufficientSpectrum):
        LD.verify_spectrum(g, 10, np.pi / 2.1, 5e-3)


def perturbed_form(g, h: float, i: int, j: int, factor: float):
    """The bouquet's form with E[i, j] and its mirror E[j, i] scaled."""
    form = LD.assemble_lowerdim(g, h)
    e = form.e_matrix.copy()
    row = e.indices[e.indptr[i]:e.indptr[i + 1]]
    col = e.indices[e.indptr[j]:e.indptr[j + 1]]
    e.data[e.indptr[i] + np.flatnonzero(row == j)] *= factor
    e.data[e.indptr[j] + np.flatnonzero(col == i)] *= factor
    return dataclasses.replace(form, e_matrix=e)


@pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-6])
def test_spectrum_certificate_catches_a_wrong_assembly(monkeypatch, capsys,
                                                       unit_square, factor):
    # one coupling of the first half circle's chain, off by 1e-6 relative:
    # no closed-form pair solves the assembled pencil any more
    g = LD.lowerdim_setup(unit_square, W)
    form = perturbed_form(g, np.pi / 100, 10, 11, factor)
    monkeypatch.setattr(LD, "assemble_lowerdim", lambda graph, h: form)
    code = cli.run_command(["lower-spectrum", "--M", "square"])
    _, err = capsys.readouterr()
    if factor == 1.0:
        assert LD.verify_spectrum(g, 2, np.pi / 100).eigen_residual_max < 1e-12
        assert code == 0
    else:
        with pytest.raises(NumericalFailure):
            LD.verify_spectrum(g, 2, np.pi / 100)
        assert code == 2
        assert err.startswith("error: NumericalFailure")


def test_spectrum_refuses_a_graph_that_is_not_a_bouquet(unit_cube):
    with pytest.raises(BadParam):
        LD.verify_spectrum(build_graph(unit_cube), 1, np.pi / 40)


def test_spectrum_h_convergence_square(unit_square):
    # the worst cluster deviation falls as O(h^2): a factor 4 per halving,
    # up to N = 6398 DOFs at h = pi/1600
    g = LD.lowerdim_setup(unit_square, W)
    devs = [LD.verify_spectrum(g, 3, np.pi / d, 1.0).worst_deviation
            for d in (400, 800, 1600)]
    for coarse, fine in zip(devs, devs[1:]):
        assert 3.9 <= coarse / fine <= 4.1


def test_explicit_spectrum_values():
    entries = LD.explicit_spectrum(3, 5)
    assert entries[0] == (pytest.approx(1 / 3), 1)
    assert entries[1] == (pytest.approx(0.0), 5)
    assert entries[2] == (pytest.approx(-1.0), 5)
    assert entries[3] == (pytest.approx(-8 / 3), 5)


def test_kernel_contains_coordinates(unit_square):
    # the near-zero eigenspace contains all three coordinate restrictions
    g = LD.lowerdim_setup(unit_square, W)
    h = np.pi / 100
    form = LD.assemble_lowerdim(g, h)
    spec = spectrum(form, 9)
    rep = kernel_analysis(spec, 10 * h * h)
    assert rep.dimension == 4        # m = 4 kernel modes
    assert rep.principal_angle_residual < 1e-3


def test_pole_values_shared(unit_square):
    g = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(g, np.pi / 40)
    # the poles are one DOF each, coupled to themselves and to the end of
    # every half circle, so functions agree at the poles across atoms
    for matrix in (form.mass, form.e_matrix):
        assert np.array_equal(np.diff(matrix.indptr)[:2], [1 + len(g.edges)] * 2)
    assert np.allclose(form.node_points[0], W)
    assert np.allclose(form.node_points[1], -W)


def test_certify_translation_equality(unit_square, unit_cube):
    k = unit_cube.translate([0.4, -0.7, 2.0])
    cert = LD.certify_equality_lowerdim(k, unit_cube, unit_square, W)
    assert cert.verdict == "equality"
    assert cert.sup_residual <= 1e-8


def test_certify_shear_equality(unit_segment, unit_cube):
    # non-homothetic equality pair: shearing along w does not change the
    # support restriction to the arcs over the segment's normals
    l = B.shear(unit_cube, [1, 0, 0], [0, 0, 1], 0.3)
    cert = LD.certify_equality_lowerdim(unit_cube, l, unit_segment, W)
    assert cert.verdict == "equality"
    assert cert.deficit_report.deficit <= 1e-10 * cert.deficit_report.scale
    assert cert.sup_residual <= 1e-8
    assert cert.a == pytest.approx(1.0, rel=1e-9)


def test_certify_corner_truncation_equality(unit_square, unit_cube):
    vid = int(np.argmin(np.linalg.norm(unit_cube.vertices - 1.0, axis=1)))
    k = B.truncate_vertex(unit_cube, vid, 0.25)
    cert = LD.certify_equality_lowerdim(k, unit_cube, unit_square, W)
    assert cert.verdict == "equality"


def test_certify_segment_sum_counterexample(unit_segment, unit_cube):
    # L = K + N with N a segment in w-perp not parallel to M:
    # deficit = V(K,N,M)^2 > 0 and the criterion is violated
    n = B.segment([0, 0, 0], [0, 1, 0])
    l = B.minkowski_sum(unit_cube, n)
    cert = LD.certify_equality_lowerdim(unit_cube, l, unit_segment, W)
    assert cert.verdict == "strict"
    assert cert.a != pytest.approx(1.0)
    b = MS.mixed_volume(unit_cube, n, unit_segment)
    assert rel_err(cert.deficit_report.deficit, b * b) < 1e-8


def test_certify_parallel_segment_is_equality(unit_segment, unit_cube):
    # N parallel to M gives V(K,N,M) = 0: a genuine equality pair
    l = B.minkowski_sum(unit_cube, unit_segment)
    cert = LD.certify_equality_lowerdim(unit_cube, l, unit_segment, W)
    assert cert.verdict == "equality"


def _suite_lower_triple(seed: int):
    """(K, L, M) as randtest --suite lower draws them."""
    rng = np.random.default_rng(seed)
    npts = int(rng.integers(4, 9))
    m = B.hull(np.column_stack([rng.standard_normal((npts, 2)), np.zeros(npts)]))
    return cli._rand_poly(seed + 1), cli._rand_poly(seed + 2), m


CERT_TRIPLES = [
    *[(lambda s=s: _suite_lower_triple(s)) for s in range(20)],
    lambda: (B.cube().translate([0.4, -0.7, 2.0]), B.cube(), B.hull(
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float))),
    lambda: (B.cube(), B.shear(B.cube(), [1, 0, 0], [0, 0, 1], 0.3),
             B.segment([0, 0, 0], [1, 0, 0])),
    lambda: (B.cube(), B.minkowski_sum(B.cube(), B.segment([0, 0, 0], [0, 1, 0])),
             B.segment([0, 0, 0], [1, 0, 0])),
]


@pytest.mark.parametrize("make", CERT_TRIPLES)
def test_certify_finds_the_cuts_once(monkeypatch, make):
    k, l, m = make()
    calls = []
    breakpoints = quad.breakpoints

    def counted(*args):
        calls.append(args)
        return breakpoints(*args)

    monkeypatch.setattr(quad, "breakpoints", counted)
    cert = LD.certify_equality_lowerdim(k, l, m, W)
    assert len(calls) == 1
    monkeypatch.undo()
    # the sup over the residual's segments against a scan of the residual
    # itself at the same nodes
    lt = l.scaled(cert.a)
    resid = (SupportEvaluator.of(k) + SupportEvaluator.of(lt.face(W))
             + SupportEvaluator.of(lt, -1.0) + SupportEvaluator.of(k.face(W), -1.0))
    ref = sup_on_arcs(resid, LD.lowerdim_setup(m, W).arcs)
    assert abs(cert.sup_residual - ref) <= 1e-12 * cert.diameter
    dr = cert.deficit_report
    assert cert.verdict == X._verdict(dr.deficit, dr.scale, ref, cert.diameter)


@pytest.mark.parametrize("shift", [1e3, 1e4, 1e6])
def test_certify_translation_far_from_the_origin(unit_square, shift):
    # the face of K at w must not gain a vertex 1e-9 below the top just
    # because K sits far from the origin
    p = B.hull(NEAR_TOP)
    cert = LD.certify_equality_lowerdim(p.translate([shift, 0, 0]), p,
                                        unit_square, W)
    assert cert.verdict == "equality"
    assert cert.sup_residual <= 1e-12 * cert.diameter


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e4, 1e5, 1e6])
def test_certify_rotated_translation_far_from_the_origin(unit_cube, unit_square,
                                                         shift):
    # cube, square and w rotated together, K moved along x: w has an x
    # component, so the face of K at w must keep the vertices that rounding
    # the moved coordinates lowers, or the certificate misses the equality
    cube = B.hull(unit_cube.vertices @ TILT.T)
    k = cube.translate([shift, 0.0, 0.0])
    w = TILT[:, 2]
    assert len(k.face(w).vertices) == 4
    cert = LD.certify_equality_lowerdim(
        k, cube, B.hull(unit_square.vertices @ TILT.T), w)
    assert cert.verdict == "equality"


def test_certify_zero_denominator(unit_square):
    with pytest.raises(ZeroDenominator):
        LD.certify_equality_lowerdim(unit_square, unit_square, unit_square, W)


CYLINDER_EPS = [0.2, 0.1, 0.05, 0.025]


def test_cylinder_limit_mass(unit_square):
    limit = LD.lowerdim_setup(unit_square, W).sbm_mass()
    values = [g.sbm_mass()
              for g in cylinder_graphs(unit_square, W, CYLINDER_EPS)]
    assert limit == pytest.approx(2 * np.pi, rel=1e-12)
    # graph mass of the cylinder is 2*pi + eps*pi for the unit square
    for eps, val in zip(CYLINDER_EPS, values):
        assert val == pytest.approx(2 * np.pi + eps * np.pi, rel=1e-10)
    for ratio in decay_ratios(values, limit):
        assert 1.7 <= ratio <= 2.3


def test_cylinder_limit_support_function(unit_square, unit_cube):
    f = SupportEvaluator.of(unit_cube)
    limit = arc_integral(f, LD.lowerdim_setup(unit_square, W))
    values = cylinder_integrals(unit_square, W, f, CYLINDER_EPS)
    for ratio in decay_ratios(values, limit):
        assert 1.7 <= ratio <= 2.3


def test_sbm_consistency_with_mixed_volume(unit_square, unit_cube):
    # int h_K dS_{B,M} = 3 V(B, K, M): compare against the cylinder
    # extrapolation of the full-dimensional graph values
    g = LD.lowerdim_setup(unit_square, W)
    f = SupportEvaluator.of(unit_cube)
    direct = arc_integral(f, g)
    values = cylinder_integrals(unit_square, W, f, [0.02, 0.01])
    extrapolated = (2 * values[1] - values[0])
    assert rel_err(direct, extrapolated) < 1e-4
