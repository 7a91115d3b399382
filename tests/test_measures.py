import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import measures as MS
from mixedvol.bodies import SupportEvaluator
from mixedvol.errors import DegenerateInput

from conftest import rel_err


def test_mixed_volume_diagonal_is_volume(unit_cube, std_simplex):
    assert MS.mixed_volume(unit_cube, unit_cube, unit_cube) == pytest.approx(1.0)
    assert MS.mixed_volume(std_simplex, std_simplex, std_simplex) == \
        pytest.approx(1.0 / 6.0)


def test_mixed_volume_symmetry():
    k = B.random_hull(8, 1)
    l = B.random_hull(8, 2)
    m = B.random_hull(8, 3)
    vals = [MS.mixed_volume(a, b, c) for a, b, c in
            [(k, l, m), (l, k, m), (m, l, k), (k, m, l)]]
    for v in vals[1:]:
        assert rel_err(vals[0], v) < 1e-12


def test_mixed_volume_multilinearity():
    k = B.random_hull(8, 4)
    l = B.random_hull(8, 5)
    m = B.random_hull(8, 6)
    s = B.minkowski_sum(k, l)
    lhs = MS.mixed_volume(s, s, m)
    rhs = (MS.mixed_volume(k, k, m) + 2 * MS.mixed_volume(k, l, m)
           + MS.mixed_volume(l, l, m))
    assert rel_err(lhs, rhs) < 1e-11


def test_mixed_volume_translation_invariance():
    k = B.random_hull(8, 7)
    l = B.random_hull(8, 8)
    m = B.random_hull(8, 9)
    v1 = MS.mixed_volume(k, l, m)
    v2 = MS.mixed_volume(k.translate([3, -1, 2]), l, m.translate([0, 5, 0]))
    assert rel_err(v1, v2) < 1e-10


def test_cube_segment_mixed_volume(unit_cube, unit_segment):
    # V(C, C, S) = (1/3) * (area of the shadow of C along e1) = 1/3
    assert MS.mixed_volume(unit_cube, unit_cube, unit_segment) == \
        pytest.approx(1.0 / 3.0, abs=1e-12)


def test_area_measure_cube(unit_cube):
    mu = MS.area_measure(unit_cube)
    assert len(mu.masses) == 6
    assert mu.total_mass() == pytest.approx(6.0)
    assert mu.barycenter_residual() < 1e-12


def test_area_measure_rejects_lower_dim(unit_square):
    with pytest.raises(DegenerateInput):
        MS.area_measure(unit_square)


def test_mixed_area_measure_cube_segment(unit_cube, unit_segment):
    s = MS.mixed_area_measure(unit_cube, unit_segment)
    # atoms at +-e2, +-e3 with mass 1/2 each
    assert len(s.masses) == 4
    assert s.total_mass() == pytest.approx(2.0)
    for u, mass in zip(s.directions, s.masses):
        assert abs(u[0]) < 1e-12
        assert mass == pytest.approx(0.5)


def test_mixed_area_measure_barycenter():
    for seed in range(5):
        l = B.random_hull(10, seed)
        m = B.random_hull(10, seed + 100)
        s = MS.mixed_area_measure(l, m)
        assert s.barycenter_residual() < 1e-9 * s.total_mass()


def test_representation_formula_vs_polarization():
    # V(K, L, M) = (1/3) int h_K dS_{L,M}
    for seed in range(10):
        k = B.random_hull(10, seed)
        l = B.random_hull(10, seed + 50)
        m = B.random_hull(10, seed + 150)
        v1 = MS.mixed_volume(k, l, m)
        v2 = MS.mixed_volume_via_measure(k, l, m)
        assert rel_err(v1, v2) < 1e-10


def test_mv3_ball_slots(unit_cube):
    ball = B.unit_ball()
    # V(B, C, C) = surface/3 = 2; V(B, B, C) = pi via the arc measure
    assert MS.mv3(ball, unit_cube, unit_cube) == pytest.approx(2.0, abs=1e-12)
    assert MS.mv3(ball, ball, unit_cube) == pytest.approx(np.pi, rel=1e-12)
    # radius scaling
    b2 = B.Ball(np.array([1.0, 2.0, 3.0]), 0.5)
    assert MS.mv3(b2, unit_cube, unit_cube) == pytest.approx(1.0, abs=1e-12)


def test_quadratic_deficit_nonnegative_random():
    for seed in range(20):
        k = B.random_hull(8, seed)
        l = B.random_hull(8, seed + 1000)
        m = B.random_hull(8, seed + 2000)
        dr = MS.quadratic_deficit(k, l, m)
        assert dr.deficit >= -1e-9 * dr.scale


def test_quadratic_deficit_zero_for_homothety():
    l = B.random_hull(10, 11)
    k = B.hull(2.0 * l.vertices + np.array([1.0, -1.0, 0.5]))
    m = B.random_hull(10, 12)
    dr = MS.quadratic_deficit(k, l, m)
    assert abs(dr.deficit) < 1e-10 * dr.scale


def test_classical_functionals_cube(unit_cube):
    vol, s, w = MS.classical_functionals(unit_cube)
    assert vol == pytest.approx(1.0)
    assert s == pytest.approx(6.0, abs=1e-12)
    assert w == pytest.approx(1.5, abs=1e-12)   # mean width of the unit cube


def test_vbbm_conewise_cube_and_simplex(unit_cube, std_simplex):
    # total normal-cone solid angles tile the sphere; h integrates exactly
    assert MS.vbbm_conewise(unit_cube) == pytest.approx(np.pi, rel=1e-12)
    v1 = MS.vbbm_conewise(std_simplex)
    v2 = MS.mv3(B.unit_ball(), B.unit_ball(), std_simplex)
    assert rel_err(v1, v2) < 1e-10


def test_integrate_constant_against_sbm(unit_cube):
    from mixedvol.graph import build_graph, sbm_and_mu
    sbm, _ = sbm_and_mu(build_graph(unit_cube))
    one = SupportEvaluator.constant_one()
    val = MS.integrate_against_measure(one, sbm)
    assert val == pytest.approx(3 * np.pi, rel=1e-12)


def test_merge_atoms():
    e1 = np.array([1.0, 0, 0])
    dirs, masses = MS.merge_atoms(np.array([e1, e1 + 1e-12, [0, 1.0, 0]]),
                                  np.array([1.0, 2.0, 3.0]))
    assert len(dirs) == len(masses) == 2
    assert sorted(masses) == pytest.approx([3.0, 3.0])


def _merge_atoms_reference(raw):
    """The double loop merge_atoms must reproduce: each atom joins the first
    earlier representative within ATOM_MERGE_ANGLE or becomes one."""
    dirs, masses = [], []
    for u, m in raw:
        for i, d in enumerate(dirs):
            if np.linalg.norm(u - d) <= MS.ATOM_MERGE_ANGLE:
                masses[i] += m
                break
        else:
            dirs.append(np.asarray(u, dtype=float))
            masses.append(m)
    return list(zip(dirs, masses))


def _raw_mixed_atoms(l, m):
    """The unmerged atoms of S_{L,M} = (1/2)[S(L+M) - S(L) - S(M)]."""
    return ([(u, 0.5 * a) for u, a in zip(*MS._surface_atoms_any(B.minkowski_sum(l, m)))]
            + [(u, -0.5 * a) for u, a in zip(*MS._surface_atoms_any(l))]
            + [(u, -0.5 * a) for u, a in zip(*MS._surface_atoms_any(m))])


def _chain_atoms():
    # a ~ b and b ~ c but not a ~ c: a claims b, and c starts its own atom
    a = np.array([0.0, 0.0, 1.0])
    step = np.array([0.6e-9, 0.0, 0.0])
    return [(a, 1.0), (a + step, 2.0), (a + 2 * step, 4.0)]


def _arc_chain_atoms():
    # unit directions 0.9 ATOM_MERGE_ANGLE apart along a great circle
    theta = 0.9 * MS.ATOM_MERGE_ANGLE * np.arange(3)
    dirs = np.column_stack([np.sin(theta), np.zeros(3), np.cos(theta)])
    return list(zip(dirs, [1.0, 2.0, 4.0]))


def _jittered_atoms():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((40, 3))
    dirs = base[rng.integers(0, 40, 400)]
    dirs = dirs + rng.uniform(-1e-9, 1e-9, dirs.shape)
    return [(u, float(m)) for u, m in zip(dirs, rng.standard_normal(400))]


MERGE_CASES = {
    "chain": _chain_atoms,
    "chain-0.9": _arc_chain_atoms,
    "jittered": _jittered_atoms,
    "rand20-ball1": lambda: _raw_mixed_atoms(B.random_hull(20, 3), B.approximate_ball(1)),
    "trunc-shear": lambda: _raw_mixed_atoms(
        B.truncate_vertex(B.cube(), 0, 0.3),
        B.shear(B.cube(), [1, 0, 0], [0, 0, 1], 0.3)),
    "empty": lambda: [],
}


@pytest.mark.parametrize("name", list(MERGE_CASES))
def test_merge_atoms_matches_reference_loop(name):
    raw = MERGE_CASES[name]()
    dirs, masses = MS.merge_atoms(
        np.array([u for u, _ in raw], dtype=float).reshape(-1, 3),
        np.array([m for _, m in raw], dtype=float))
    ref = _merge_atoms_reference(raw)
    assert len(dirs) == len(masses) == len(ref)
    for u, m, (v, n) in zip(dirs, masses.tolist(), ref):
        assert np.array_equal(u, v) and m == n
    if name.startswith("chain"):
        assert masses.tolist() == [3.0, 4.0]


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
def test_mixed_volume_homogeneous_under_one_body_rescaled(c):
    k, l, m = B.random_hull(10, 1), B.random_hull(10, 2), B.random_hull(10, 3)
    v = MS.mixed_volume(k, l, m)
    assert abs(MS.mixed_volume(k, l, m.scaled(c)) / c - v) <= 1e-14 * abs(v)


def test_mixed_area_measure_small_summand_within_floor():
    # S(L+M) - S(L) cancels to about 1e-7 of the masses involved; rounding
    # in those masses must not count as negative mass
    k, l, m = B.random_hull(10, 1), B.random_hull(10, 2), B.random_hull(10, 3)
    v = MS.mixed_volume(k, l, m)
    got = MS.mixed_volume_via_measure(k, l, m.scaled(1e-7))
    assert rel_err(got / 1e-7, v) <= 1e-8


@pytest.mark.parametrize("slot", ["L", "M"])
@pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-4, 1e4, 1e6, 1e8])
def test_mixed_volume_via_measure_homogeneous_under_one_body_rescaled(slot, c):
    # S(L+M) - S(L) - S(M) cancels to the size of the smaller body; taken
    # between bodies of unit diameter it keeps its digits
    k, l, m = B.random_hull(10, 1), B.random_hull(10, 2), B.random_hull(10, 3)
    v = MS.mixed_volume(k, l, m)
    if slot == "L":
        got = MS.mixed_volume_via_measure(k, l.scaled(c), m)
    else:
        got = MS.mixed_volume_via_measure(k, l, m.scaled(c))
    assert rel_err(got / c, v) <= 1e-12


def test_mixed_area_measure_of_a_point_is_zero():
    point = B.hull(np.array([[0.5, -1.0, 2.0]]))
    assert len(MS.mixed_area_measure(point, B.cube()).masses) == 0
    assert len(MS.mixed_area_measure(B.cube(), point).masses) == 0


class _Counted:
    """Wraps a callable and records the first argument of each call."""

    def __init__(self, fn):
        self.fn, self.args = fn, []

    def __call__(self, *args, **kwargs):
        self.args.append(args[0])
        return self.fn(*args, **kwargs)


def test_quadratic_deficit_polarizes_once(monkeypatch):
    k, l, m = B.random_hull(10, 4), B.random_hull(12, 5), B.random_hull(9, 6)
    qhull = _Counted(MS.ConvexHull)
    monkeypatch.setattr(MS, "ConvexHull", qhull)
    MS.quadratic_deficit(k, l, m)
    # K+L, K+L+M, K+M, L+M
    assert len(qhull.args) == 4
    n_kl = len(B.minkowski_sum(k, l).vertices)
    assert max(len(pts) for pts in qhull.args) <= n_kl * len(m.vertices)


def test_classical_functionals_builds_no_minkowski_sum(monkeypatch):
    summed = _Counted(B.minkowski_sum)
    qhull = _Counted(MS.ConvexHull)
    for mod in (B, MS):
        monkeypatch.setattr(mod, "minkowski_sum", summed)
    monkeypatch.setattr(MS, "ConvexHull", qhull)
    MS.classical_functionals(B.random_hull(30, 7))
    assert summed.args == [] and qhull.args == []
