import numpy as np
import pytest
import scipy.linalg

from mixedvol import bodies as B
from mixedvol import lowerdim as LD
from mixedvol import measures as MS
from mixedvol import quadrature as quad
from mixedvol.bodies import SupportEvaluator
from mixedvol.errors import (BadMesh, DimensionError, InsufficientSpectrum,
                             ZeroDenominator)
from mixedvol.graph import kernel_analysis, spectrum

from conftest import adaptive_gauss, rel_err

W = np.array([0.0, 0.0, 1.0])


def hexagon(side: float = 1.0) -> B.Polytope:
    ang = np.arange(6) * np.pi / 3
    pts = side * np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
    return B.hull(pts, name="hexagon")


def test_setup_square_atoms(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    assert p.dim_m == 2
    assert p.multiplicity == 4
    dirs = sorted(tuple(np.round(z, 9)) for z in p.directions)
    assert dirs == [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                    (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    assert all(mass == pytest.approx(1.0) for mass in p.masses)
    assert p.balance_residual() < 1e-12 * p.total_mass()


def test_setup_segment_atoms(unit_segment):
    p = LD.lowerdim_setup(unit_segment, W)
    assert p.dim_m == 1
    assert p.multiplicity == 2
    for z, mass in zip(p.directions, p.masses):
        assert abs(abs(z[1]) - 1.0) < 1e-12   # +-e2, perpendicular to e1
        assert mass == pytest.approx(1.0)


def test_setup_hexagon_atoms():
    s = 0.8
    p = LD.lowerdim_setup(hexagon(s), W)
    assert p.multiplicity == 6
    assert all(mass == pytest.approx(s, rel=1e-12) for mass in p.masses)
    assert p.balance_residual() < 1e-12 * p.total_mass()


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
    p = LD.lowerdim_setup(sq, W)
    assert p.multiplicity == 4


def test_sbm_mass_square(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    one = SupportEvaluator.constant_one()
    assert LD.sbm_lowerdim(p, one) == pytest.approx(2 * np.pi, rel=1e-12)


def test_sbm_odd_function_vanishes(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    f = SupportEvaluator.linear(W)   # cos(theta) integrates to zero
    assert abs(LD.sbm_lowerdim(p, f)) < 1e-12


def test_sbm_callable_matches_evaluator(unit_square, unit_cube):
    p = LD.lowerdim_setup(unit_square, W)
    ev = SupportEvaluator.of(unit_cube)
    exact = LD.sbm_lowerdim(p, ev)
    arcs = p.sbm.arcs
    numeric = sum(w * adaptive_gauss(lambda t: np.asarray(ev(fr.point(t))),
                                     0.0, fr.length, 1e-11)
                  for fr, w in zip(map(quad.ArcFrame, arcs.starts, arcs.tangents,
                                       arcs.lengths), p.sbm.weights))
    assert rel_err(exact, numeric) < 1e-9


def test_assemble_dof_count(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(p, np.pi / 100)
    assert form.size == 4 * 99 + 2
    with pytest.raises(BadMesh):
        LD.assemble_lowerdim(p, -1.0)
    with pytest.raises(BadMesh):
        LD.assemble_lowerdim(p, 4.0)


def test_constant_rayleigh_quotient(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(p, np.pi / 50)
    ones = np.ones(form.size)
    num = ones @ form.e_matrix @ ones
    den = ones @ form.mass @ ones
    assert num / den == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_cos_theta_is_kernel_mode(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(p, np.pi / 100)
    f = form.node_points @ W      # cos(theta) at every node
    num = f @ form.e_matrix @ f
    den = f @ form.mass @ f
    assert abs(num / den) < 1e-3  # Rayleigh quotient -> 0 as O(h^2)


def test_spectrum_square(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    rep = LD.verify_spectrum(p, 2, np.pi / 200, 5e-3)
    assert rep.ok
    sizes = [len(c.observed) for c in rep.clusters]
    assert sizes == [1, 4, 4]
    preds = [c.predicted for c in rep.clusters]
    assert preds == pytest.approx([1 / 3, 0.0, -1.0])


def test_spectrum_segment(unit_segment):
    p = LD.lowerdim_setup(unit_segment, W)
    rep = LD.verify_spectrum(p, 2, np.pi / 200, 5e-3)
    assert rep.ok
    assert [len(c.observed) for c in rep.clusters] == [1, 2, 2]


def test_spectrum_hexagon():
    p = LD.lowerdim_setup(hexagon(), W)
    rep = LD.verify_spectrum(p, 2, np.pi / 200, 5e-3)
    assert rep.ok
    assert [len(c.observed) for c in rep.clusters] == [1, 6, 6]


def regular_polygon(k: int) -> B.Polytope:
    ang = np.arange(k) * 2 * np.pi / k
    return B.hull(np.column_stack([np.cos(ang), np.sin(ang), np.zeros(k)]))


LOWER_BODIES = {
    "square": lambda: B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                       [1, 1, 0]], dtype=float)),
    "segment": lambda: B.segment([0, 0, 0], [1, 0, 0]),
    "hexagon": lambda: regular_polygon(6),
    "12-gon": lambda: regular_polygon(12),
}


# (body, kmax, n) with h = pi/n where asking ARPACK for exactly the predicted
# number of pairs missed one copy of the last multiple eigenvalue
@pytest.mark.parametrize("name,kmax,n", [
    ("square", 2, 24), ("square", 2, 40), ("square", 2, 76), ("square", 2, 116),
    ("hexagon", 2, 36), ("hexagon", 2, 40), ("hexagon", 3, 28),
    ("hexagon", 3, 36), ("hexagon", 3, 48), ("hexagon", 3, 56),
    ("12-gon", 2, 20), ("12-gon", 3, 48), ("12-gon", 3, 80),
    ("12-gon", 3, 116), ("segment", 3, 40),
])
def test_spectrum_matches_dense_eigh(name, kmax, n):
    p = LD.lowerdim_setup(LOWER_BODIES[name](), W)
    h = np.pi / n
    rep = LD.verify_spectrum(p, kmax, h, 1.0)
    observed = np.concatenate([c.observed for c in rep.clusters])
    form = LD.assemble_lowerdim(p, h)
    dense = scipy.linalg.eigh(form.e_matrix.toarray(), form.mass.toarray(),
                              eigvals_only=True)[::-1]
    assert np.abs(observed - dense[:len(observed)]).max() <= 1e-9


def test_spectrum_insufficient(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    with pytest.raises(InsufficientSpectrum):
        LD.verify_spectrum(p, 10, np.pi / 2.1, 5e-3)


def test_spectrum_h_convergence_square(unit_square):
    # the worst cluster deviation falls as O(h^2): a factor 4 per halving,
    # up to N = 6398 DOFs at h = pi/1600
    p = LD.lowerdim_setup(unit_square, W)
    devs = [LD.verify_spectrum(p, 3, np.pi / d, 1.0).worst_deviation
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
    p = LD.lowerdim_setup(unit_square, W)
    h = np.pi / 100
    form = LD.assemble_lowerdim(p, h)
    spec = spectrum(form, 9)
    rep = kernel_analysis(spec, 10 * h * h)
    assert rep.dimension == 4        # m = 4 kernel modes
    assert rep.principal_angle_residual < 1e-3


def test_pole_values_shared(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    form = LD.assemble_lowerdim(p, np.pi / 40)
    spec = spectrum(form, 5)
    for chain in form.edge_dofs:
        assert chain[0] == 0 and chain[-1] == 1
    # eigenvectors automatically agree at the poles across atoms
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
    assert cert.deficit_report.deficit <= 1e-10 * cert.scale
    assert cert.sup_residual <= 1e-8
    assert cert.c == pytest.approx(1.0, rel=1e-9)


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
    assert cert.c != pytest.approx(1.0)
    b = MS.mixed_volume(unit_cube, n, unit_segment)
    assert rel_err(cert.deficit_report.deficit, b * b) < 1e-8


def test_certify_parallel_segment_is_equality(unit_segment, unit_cube):
    # N parallel to M gives V(K,N,M) = 0: a genuine equality pair
    l = B.minkowski_sum(unit_cube, unit_segment)
    cert = LD.certify_equality_lowerdim(unit_cube, l, unit_segment, W)
    assert cert.verdict == "equality"


def test_certify_zero_denominator(unit_square):
    with pytest.raises(ZeroDenominator):
        LD.certify_equality_lowerdim(unit_square, unit_square, unit_square, W)


def test_cylinder_limit_mass(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    one = SupportEvaluator.constant_one()
    rep = LD.cylinder_limit_check(p, one, [0.2, 0.1, 0.05, 0.025])
    assert rep.limit_value == pytest.approx(2 * np.pi, rel=1e-12)
    # graph mass of the cylinder is 2*pi + eps*pi for the unit square
    for eps, val in zip(rep.eps, rep.full_dim_values):
        assert val == pytest.approx(2 * np.pi + eps * np.pi, rel=1e-10)
    for ratio in rep.ratios:
        assert 1.7 <= ratio <= 2.3


def test_cylinder_limit_support_function(unit_square, unit_cube):
    p = LD.lowerdim_setup(unit_square, W)
    rep = LD.cylinder_limit_check(p, SupportEvaluator.of(unit_cube),
                                  [0.2, 0.1, 0.05, 0.025])
    for ratio in rep.ratios:
        assert 1.7 <= ratio <= 2.3


def test_cylinder_limit_guards(unit_square):
    p = LD.lowerdim_setup(unit_square, W)
    one = SupportEvaluator.constant_one()
    with pytest.raises(DimensionError):
        LD.cylinder_limit_check(p, one, [0.1, 0.0])


def test_sbm_consistency_with_mixed_volume(unit_square, unit_cube):
    # int h_K dS_{B,M} = 3 V(B, K, M): compare against the cylinder
    # extrapolation of the full-dimensional graph values
    p = LD.lowerdim_setup(unit_square, W)
    f = SupportEvaluator.of(unit_cube)
    direct = LD.sbm_lowerdim(p, f)
    rep = LD.cylinder_limit_check(p, f, [0.02, 0.01])
    extrapolated = (2 * rep.full_dim_values[1] - rep.full_dim_values[0])
    assert rel_err(direct, extrapolated) < 1e-4
