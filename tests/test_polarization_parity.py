"""Facet sums and the reduced, normalized polarization against the all-sums
polarization of hull volumes, which is kept here as the reference: it hands
Qhull every sum of one vertex from each body, unscaled, the way V(K,L,M),
V(K,K,M) and V(X,M,M) were all computed before. The surface area is checked
against the mass of the mixed area measure S_{K,K} of merged atoms. Both
sides round differently, so they must agree to TOL, not exactly."""

import functools
import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from mixedvol import bodies as B
from mixedvol import measures as MS

from conftest import BODIES, rel_err, sum_vertices

TOL = 1e-13


# -- reference -----------------------------------------------------------------

def ref_sum_volume(bodies):
    pts = sum_vertices(bodies)
    return float(ConvexHull(pts).volume) if B.affine_dim(pts) == 3 else 0.0


def ref_mixed_volume(k, l, m):
    v = (ref_sum_volume([k, l, m]) - ref_sum_volume([k, l])
         - ref_sum_volume([k, m]) - ref_sum_volume([l, m])
         + k.volume + l.volume + m.volume)
    return v / 6.0


# -- cases -----------------------------------------------------------------------

def _sphere_hull(count, seed):
    p = np.random.default_rng(seed).standard_normal((count, 3))
    return B.hull(p / np.linalg.norm(p, axis=1)[:, None], name=f"sphere{count}")


def _planar_hexagon():
    t = np.linspace(0.0, 2.0 * np.pi, 7)[:-1] + 0.2
    return B.hull(np.column_stack([np.cos(t), 0.7 * np.sin(t), np.full(6, 0.3)]))


CASES = {
    **BODIES,
    "sphere100": functools.partial(_sphere_hull, 100, 1),
    "sphere300": functools.partial(_sphere_hull, 300, 2),
    "planar": _planar_hexagon,
}


@functools.cache
def case(name):
    return CASES[name]()


@functools.cache
def partners():
    return B.random_hull(10, 100), B.random_hull(10, 200)


# -- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("name", list(CASES))
def test_mixed_volume_matches_all_sums(name, unit_square, unit_segment):
    # mixed_volume hulls the two bodies with the fewest vertices, so every
    # order of each trio is checked, to reach every choice of the hulled pair
    x = case(name)
    l, m = partners()
    for trio in ((x, l, m), (x, unit_square, unit_segment), (x, unit_segment, m)):
        ref = ref_mixed_volume(*trio)
        for k3 in itertools.permutations(trio):
            assert rel_err(MS.mixed_volume(*k3), ref) <= TOL


def test_mixed_volume_matches_all_sums_on_random_triples():
    # suite-mix's inputs: three random 10-point hulls
    for seed in range(100):
        k3 = [B.random_hull(10, 3 * seed + i) for i in range(3)]
        assert rel_err(MS.mixed_volume(*k3), ref_mixed_volume(*k3)) <= TOL


@pytest.mark.parametrize("name", list(CASES))
def test_deficit_terms_match_all_sums(name):
    # M is the simplex, so that the reference's |K|^2 |M| sums stay small
    k, m = case(name), B.simplex()
    l, _ = partners()
    dr = MS.quadratic_deficit(k, l, m)
    assert rel_err(dr.v_kl, ref_mixed_volume(k, l, m)) <= TOL
    assert rel_err(dr.v_kk, ref_mixed_volume(k, k, m)) <= TOL
    assert rel_err(dr.v_ll, ref_mixed_volume(l, l, m)) <= TOL


@pytest.mark.parametrize("name", list(CASES))
def test_v_xmm_matches_all_sums(name):
    x = case(name)
    _, m = partners()
    assert rel_err(MS.mixed_volume_xpp(x, m), ref_mixed_volume(x, m, m)) <= TOL


@pytest.mark.parametrize("name", list(CASES))
def test_surface_area_matches_mixed_area_measure(name):
    x = case(name)
    area = sum(MS.mixed_area_measure(x, x)[1].tolist())
    assert rel_err(sum(x.facets.areas.tolist()), area) <= TOL
    if x.dim == 3:
        assert rel_err(MS.classical_functionals(x)[1], area) <= TOL


def test_lower_dimensional_sums_match_all_sums(unit_square, unit_segment):
    # flat pairs: their atoms come from the planar hull of their sums
    hexagon = case("planar")
    _, m = partners()
    seg = B.segment([0.1, 0.2, 0.0], [0.4, -0.3, 0.5])
    for k3 in ((unit_square, unit_square, m), (unit_square, hexagon, m),
               (unit_segment, seg, m), (unit_segment, unit_square, seg),
               (hexagon, hexagon, seg)):
        v = MS.mixed_volume(*k3)
        assert v > 0.0 and rel_err(v, ref_mixed_volume(*k3)) <= TOL
    assert MS.mixed_volume(unit_segment, unit_square, hexagon) == 0.0
    point = B.hull(np.array([[0.3, 0.1, -0.2]]))
    assert MS.mixed_volume(point, m, m) == 0.0
    assert abs(ref_mixed_volume(point, m, m)) <= TOL * m.volume
