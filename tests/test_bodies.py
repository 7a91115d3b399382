import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import scipy.sparse
from scipy.sparse.csgraph import connected_components

from mixedvol import bodies as B
from mixedvol.errors import BadSpec, NumericalFailure

from conftest import (NEAR_TOP, TILT, assert_same_polytope, facet_vertices,
                      reference_ball_points, reference_hull, rel_err, scale,
                      sum_vertices)

# the facet merge tolerance of the reference builders below
MERGE_TOL = 1e-9


def test_cube_combinatorics(unit_cube):
    assert len(unit_cube.vertices) == 8
    assert len(unit_cube.facets) == 6
    assert len(unit_cube.edges) == 12
    assert unit_cube.dim == 3
    assert abs(unit_cube.volume - 1.0) < 1e-14


def test_simplex_facet_areas(std_simplex):
    areas = sorted(std_simplex.facets.areas)
    expected = sorted([0.5, 0.5, 0.5, np.sqrt(3) / 2])
    assert np.allclose(areas, expected, atol=1e-12)
    assert abs(std_simplex.volume - 1.0 / 6.0) < 1e-14


def test_euler_formula_random_hulls():
    for seed in range(20):
        p = B.random_hull(12, seed)
        v, e, f = len(p.vertices), len(p.edges), len(p.facets)
        assert v - e + f == 2


def test_facet_planes_contain_cycles():
    p = B.random_hull(15, 3)
    for vs, normal, offset in zip(facet_vertices(p), p.facets.normals,
                                  p.facets.offsets):
        assert np.abs(p.local[vs] @ normal - offset).max() < 1e-9 * scale(p)


def test_coplanar_facets_merged():
    # a box has exactly 6 facets even though the hull code triangulates
    box = B.hull(np.array([[x, y, z] for x in (0, 2) for y in (0, 1)
                           for z in (0, 3)], dtype=float))
    assert len(box.facets) == 6
    assert abs(box.volume - 6.0) < 1e-12


def _grid(nx, ny, nz):
    return np.array([[x, y, z] for x in range(nx) for y in range(ny)
                     for z in range(nz)], dtype=float)


def _check_hull(p, pts, slack=0.0):
    """Combinatorial and metric invariants of a full-dimensional hull.

    slack bounds how far the polytope's boundary may lie from the exact hull
    of pts. That moves the volume by at most slack * area, and the area by
    at most 2 * slack * (total edge length)."""
    ref = ConvexHull(pts)
    area = sum(p.facets.areas)
    assert len(p.vertices) - len(p.edges) + len(p.facets) == 2
    assert rel_err(area, ref.area) < 1e-12 + 2 * slack * p.edges.lengths.sum() / ref.area
    assert rel_err(p.volume, ref.volume) < 1e-12 + slack * area / ref.volume
    tol = 1e-9 * scale(p)
    normals, offsets = p.facets.normals, p.facets.offsets
    for f, vs in enumerate(facet_vertices(p)):
        assert len(vs) >= 3
        assert np.abs(p.local[vs] @ normals[f] - offsets[f]).max() < tol
    for facets, vertices in zip(p.edges.facets, p.edges.vertices):
        for fi in facets:
            assert np.abs(p.local[vertices] @ normals[fi]
                          - offsets[fi]).max() < tol
    ends = p.edges.vertices.ravel()
    assert np.bincount(ends, minlength=len(p.vertices)).min() >= 3


def _prism(k):
    t = 2 * np.pi * np.arange(k) / k
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    return np.vstack([np.c_[ring, np.zeros(k)], np.c_[ring, np.ones(k)]])


def _sphere_points(n):
    x = np.random.default_rng(0).standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1)[:, None]


HULL_INPUTS = {
    "grid-3x3x3": lambda: _grid(3, 3, 3),
    "grid-4x2x3": lambda: _grid(4, 2, 3),
    "cube+sheared-cube": lambda: sum_vertices(
        [B.cube(), B.shear(B.cube(), [1, 0, 0], [0, 0, 1], 0.3)]),
    **{f"ball@{k}": (lambda k=k: B.approximate_ball(k).vertices) for k in range(4)},
    "deep-truncation": lambda: B.truncate_vertex(B.cube(), 0, 0.9).vertices,
    # each cap is a fan of 48 triangles
    "prism-50": lambda: _prism(50),
    "sphere1000": lambda: _sphere_points(1000),
}


@pytest.mark.parametrize("name", list(HULL_INPUTS))
def test_hull_invariants(name):
    pts = HULL_INPUTS[name]()
    _check_hull(B.hull(pts), pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 60), st.integers(0, 10**6))
def test_hull_invariants_gaussian(count, seed):
    pts = np.random.default_rng(seed).standard_normal((count, 3))
    _check_hull(B.hull(pts), pts)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["grid-3x3x3", "grid-4x2x3"]), st.floats(-17, -12),
       st.integers(0, 10**6))
def test_near_coplanar_hull_holds(name, log_size, seed):
    # grid points moved by at most size = 1e-12 * scale: Qhull merges the
    # facets that are coplanar within its merge distance, so the polytope
    # lies within size + merge of the exact hull, and below 1e-13 it is the
    # box. At 1e-12 some draws keep sliver facets wider than the merge
    # distance.
    pts = HULL_INPUTS[name]()
    size = 10.0 ** log_size * np.abs(pts).max()
    pts = pts + np.random.default_rng(seed).uniform(-size, size, pts.shape)
    p = B.hull(pts)
    merge = 1e-12 * np.abs(pts - pts.mean(axis=0)).max()
    _check_hull(p, pts, size + merge)
    if log_size <= -13:
        assert (len(p.vertices), len(p.facets)) == (8, 6)


def _reference_combinatorics(pts):
    """Facets and edges by the per-triangle loops the vectorized hull
    replaced: BFS over coplanar neighbours, a vertex-set intersection per
    adjacent facet pair, and the collinear extreme pair of that set."""
    qh = ConvexHull(pts)
    tri, eqs, nb = qh.simplices, qh.equations, qh.neighbors
    facet_of = np.full(len(tri), -1)
    groups = []
    for t0 in range(len(tri)):
        if facet_of[t0] >= 0:
            continue
        facet_of[t0] = len(groups)
        stack, members = [t0], [t0]
        while stack:
            for t in nb[stack.pop()]:
                if (facet_of[t] < 0
                        and np.linalg.norm(eqs[t, :3] - eqs[t0, :3]) <= MERGE_TOL):
                    facet_of[t] = len(groups)
                    stack.append(t)
                    members.append(t)
        groups.append(members)
    old2new = {int(o): i for i, o in enumerate(qh.vertices)}
    verts = pts[qh.vertices]
    local = verts - verts.mean(axis=0)     # offsets about the vertex centroid
    vsets = [{old2new[int(v)] for m in g for v in tri[m]} for g in groups]
    normals = [B.unit(np.mean(eqs[g, :3], axis=0)) for g in groups]
    offsets = [np.mean(local[sorted(vs)] @ n) for vs, n in zip(vsets, normals)]
    edges, seen = [], set()
    for s in range(len(tri)):
        for t in nb[s]:
            key = tuple(sorted((facet_of[s], facet_of[t])))
            if key[0] == key[1] or key in seen:
                continue
            seen.add(key)
            shared = sorted(vsets[key[0]] & vsets[key[1]])
            proj = verts[shared] @ (verts[shared[-1]] - verts[shared[0]])
            ends = {shared[int(np.argmin(proj))], shared[int(np.argmax(proj))]}
            a, b = sorted(ends)
            edges.append((key, ends, np.linalg.norm(verts[a] - verts[b])))
    return vsets, normals, offsets, edges


PARITY_INPUTS = {
    **{name: make for name, make in HULL_INPUTS.items() if name != "ball@3"},
    **{f"rand10s{s}": (lambda s=s: B.random_hull(10, s).vertices) for s in range(10)},
    "sphere300": lambda: _sphere_points(300),
}


def _assert_same_hull(p, vsets, normals, offsets, edges, areas=None):
    """p has the reference's facets up to their numbering: the same vertex
    set for each facet, and for each edge the same facet pair, ends and
    length. Qhull's merged planes give the normals, and the offsets to
    5e-13 * scale, of the reference's averages; areas are summed over
    other triangles, so they agree to 1e-15 of the total area."""
    ref_of = {frozenset(v): f for f, v in enumerate(vsets)}
    perm = np.array([ref_of[frozenset(v)] for v in facet_vertices(p)])
    assert sorted(perm.tolist()) == list(range(len(vsets)))
    assert np.abs(p.facets.normals - np.asarray(normals)[perm]).max() <= 5e-13
    assert (np.abs(p.facets.offsets - np.asarray(offsets)[perm]).max()
            <= 5e-13 * scale(p))
    if areas is not None:
        assert (np.abs(p.facets.areas - np.asarray(areas)[perm]).max()
                <= 1e-15 * sum(areas))
    e = p.edges
    assert (sorted((tuple(sorted(perm[ij].tolist())), tuple(sorted(v)), ln)
                   for ij, v, ln in zip(e.facets, e.vertices.tolist(),
                                        e.lengths.tolist()))
            == sorted((tuple(ij), tuple(sorted(v)), ln) for ij, v, ln in edges))


@pytest.mark.parametrize("name", list(PARITY_INPUTS))
def test_hull_matches_reference_loops(name):
    pts = PARITY_INPUTS[name]()
    _assert_same_hull(B.hull(pts), *_reference_combinatorics(pts))


def _sparse_merge_hull(pts):
    """The hull as built before label propagation: facets are the connected
    components of a scipy.sparse graph of close neighbouring triangles, and
    the edges come from np.cross, np.tile/np.stack ridge tables and a
    unique/argsort relabelling."""
    qh = ConvexHull(pts)
    eqs = qh.equations
    nt, nv = len(qh.simplices), len(qh.vertices)
    old2new = np.empty(len(pts), dtype=np.intp)
    old2new[qh.vertices] = np.arange(nv)
    verts = pts[qh.vertices]
    tri = old2new[qh.simplices]
    s = np.repeat(np.arange(nt), 3)
    t = qh.neighbors.ravel()
    close = np.linalg.norm(eqs[s, :3] - eqs[t, :3], axis=1) <= MERGE_TOL
    nf, facet_of = connected_components(
        scipy.sparse.coo_array((np.ones(close.sum()), (s[close], t[close])),
                               shape=(nt, nt)), directed=False)
    normals = np.zeros((nf, 3))
    np.add.at(normals, facet_of, eqs[:, :3])
    normals /= np.bincount(facet_of, minlength=nf)[:, None]
    normals /= B._row_norms(normals)[:, None]
    a, b, c = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]
    tri_areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    areas = np.bincount(facet_of, tri_areas, nf)
    fv = np.unique(facet_of[:, None] * nv + tri)
    fid, vid = np.divmod(fv, nv)
    o = verts.mean(axis=0)      # the frame: offsets about the vertex centroid
    offsets = (np.bincount(fid, np.einsum("ij,ij->i", verts[vid] - o, normals[fid]),
                           nf)
               / np.bincount(fid, minlength=nf))
    facets = B.Facets(normals, offsets, areas)
    fs, ft = facet_of[s], facet_of[t]
    ridge = fs != ft
    pair = np.minimum(fs, ft)[ridge] * nf + np.maximum(fs, ft)[ridge]
    keys, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    order = np.argsort(first)
    edge_of = np.argsort(order)[inverse]
    k = np.tile(np.arange(3), nt)
    ends = np.stack([tri[s, (k + 1) % 3], tri[s, (k + 2) % 3]], axis=1)[ridge]
    once = (fs < ft)[ridge]
    ev, count = np.unique(edge_of[once][:, None] * nv + ends[once],
                          return_counts=True)
    tips = ev[count == 1]
    assert np.array_equal(np.bincount(tips // nv, minlength=len(keys)),
                          np.full(len(keys), 2))
    tips = (tips % nv).reshape(-1, 2)
    edges = B.Edges(np.stack(np.divmod(keys[order], nf), axis=1), tips,
                    B._row_norms(verts[tips[:, 0]] - verts[tips[:, 1]]))
    assert nv - len(edges) + nf == 2
    return B.Polytope(o, verts - o, facets, edges, 3)


SPARSE_PARITY_INPUTS = {
    **HULL_INPUTS,
    **{f"gauss10s{s}": (lambda s=s: np.random.default_rng(s).standard_normal((10, 3)))
       for s in range(100)},
}


def _jittered_grid(size):
    pts = _grid(4, 4, 4)
    return pts + np.random.default_rng(0).uniform(-size, size, pts.shape)


def _cube_near_top(size):
    # five points of the top face moved off it by up to size, either way
    rng = np.random.default_rng(1)
    top = np.c_[rng.uniform(0, 1, (5, 2)), 1 + size * rng.uniform(-1, 1, 5)]
    return np.vstack([_grid(2, 2, 2), top])


def _squashed(thickness, seed):
    pts = np.random.default_rng(seed).standard_normal((30, 3))
    pts[:, 2] *= thickness
    return pts


def _far_cloud(scale):
    pts = scale * np.random.default_rng(3).standard_normal((12, 3))
    return pts + 1e8 * np.array([1.0, 0.3, 0.0])


# inputs where Qhull's merging decides the facets, or where the merge
# distance meets the input's own rounding; the sparse graph merge cannot
# take them (it merges Qhull's unmerged triangles by normal alone)
NEAR_DEGENERATE_INPUTS = {
    **{f"grid-4x4x4~{j:g}": (lambda j=j: _jittered_grid(j))
       for j in (0.0, 1e-13, 1e-12, 1e-11)},
    **{f"cube+near-top{d:g}": (lambda d=d: _cube_near_top(d))
       for d in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10)},
    **{f"gauss30s{s}-squashed{t:g}": (lambda t=t, s=s: _squashed(t, s))
       for t in (1e-9, 1e-7) for s in range(4)},
    **{f"gauss12x{c:g}+1e8": (lambda c=c: _far_cloud(c)) for c in (1e-8, 1e8)},
}


@pytest.mark.parametrize("name", list(SPARSE_PARITY_INPUTS))
def test_hull_matches_sparse_graph_merge(name):
    # the gauss10 inputs are the points of random_hull(10, s), interior ones
    # too
    pts = SPARSE_PARITY_INPUTS[name]()
    p, q = B.hull(pts), _sparse_merge_hull(pts)
    assert np.array_equal(p.vertices, q.vertices)
    _assert_same_hull(p, facet_vertices(q), q.facets.normals, q.facets.offsets,
                      zip(q.edges.facets.tolist(), q.edges.vertices.tolist(),
                          q.edges.lengths.tolist()), q.facets.areas)


@pytest.mark.parametrize("name", list(SPARSE_PARITY_INPUTS))
def test_hull_matches_reference_front_end(name):
    pts = SPARSE_PARITY_INPUTS[name]()
    assert_same_polytope(B.hull(pts), reference_hull(pts))


@pytest.mark.parametrize("name", list(NEAR_DEGENERATE_INPUTS))
def test_hull_matches_reference_near_degenerate(monkeypatch, name):
    # the reference's Qhull options give the same tables, flat ones
    # included; the reference's SVD front end calls some of the squashed
    # clouds 3-dimensional that 2V/S calls flat, so the full reference is
    # compared on the 3-polytopes
    pts = NEAR_DEGENERATE_INPUTS[name]()
    p = B.hull(pts)
    if p.dim == 3:
        assert_same_polytope(p, reference_hull(pts))
    monkeypatch.setattr(B, "QHULL_OPTIONS", "Qc C-1e-12")
    assert_same_polytope(p, B.hull(pts))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 60), st.integers(0, 10**6))
def test_hull_matches_reference_front_end_gaussian(count, seed):
    pts = np.random.default_rng(seed).standard_normal((count, 3))
    assert_same_polytope(B.hull(pts), reference_hull(pts))


def test_full_dimensional_hull_makes_no_svd_and_no_unique(monkeypatch):
    clouds = [SPARSE_PARITY_INPUTS[f"gauss10s{s}"]() for s in range(100)]
    clouds += [B.approximate_ball(k).vertices for k in range(4)]

    def refuse(*args, **kwargs):
        raise AssertionError("called on the full-dimensional path")
    for module, fn in ((B, "affine_dim"), (np.linalg, "svd"), (np, "unique")):
        monkeypatch.setattr(module, fn, refuse)
    for pts in clouds:
        assert B.hull(pts).dim == 3


def test_vertex_inside_an_edge_is_kept(unit_cube):
    # an edge midpoint pushed out by 1e-11 is farther out than the merge
    # distance: it stays a vertex, and its four triangles stay facets
    pts = np.vstack([unit_cube.vertices, [[1 + 1e-11, 1 + 1e-11, 0.5]]])
    p = B.hull(pts)
    assert (len(p.vertices), len(p.edges), len(p.facets)) == (9, 17, 10)
    _check_hull(p, pts)


def _permuted_qhull(order, rows):
    """A ConvexHull stand-in that returns Qhull's real output with its
    triangles taken in the given order (and neighbours renumbered to match),
    triangle t carrying the equation row of triangle rows[t]."""
    real = ConvexHull

    def fake(points, **kwargs):
        assert kwargs == {"qhull_options": B.QHULL_OPTIONS}
        qh = real(points, **kwargs)
        return SimpleNamespace(simplices=qh.simplices[order],
                               neighbors=np.argsort(order)[qh.neighbors[order]],
                               equations=qh.equations[rows][order])
    return fake


def test_facet_split_into_two_runs_is_refused(monkeypatch, unit_cube):
    # the cube's first face has triangles 0 and 1; with triangle 2 between
    # them the face's plane comes as two runs, which would read 7 facets
    order = np.r_[0, 2, 1, 3:12]
    monkeypatch.setattr(B, "ConvexHull", _permuted_qhull(order, np.arange(12)))
    with pytest.raises(NumericalFailure, match="two runs"):
        B.hull(unit_cube.vertices)


def test_ridge_chain_is_refused(monkeypatch, unit_cube):
    # the edge midpoint of test_vertex_inside_an_edge_is_kept, with its four
    # triangles given the rows of the x = 1 and y = 1 faces: the two faces
    # then share the ridges 6-8 and 8-7, a chain through vertex 8, which is
    # an end of 2 edges only (V - E + F = 9 - 13 + 6 passes Euler)
    pts = np.vstack([unit_cube.vertices, [[1 + 1e-11, 1 + 1e-11, 0.5]]])
    u = pts - pts.mean(axis=0)
    qh = ConvexHull(u / np.abs(u).max(), qhull_options=B.QHULL_OPTIONS)
    assert (qh.simplices[:6] == [[4, 5, 8], [3, 2, 8], [6, 2, 8], [6, 4, 8],
                                 [7, 5, 8], [7, 3, 8]]).all()
    monkeypatch.setattr(B, "ConvexHull", _permuted_qhull(
        np.r_[0, 3, 4, 1, 2, 5, 6:14], np.r_[0, 1, 1, 0, 0, 1, 6:14]))
    with pytest.raises(NumericalFailure, match="fewer than 3 edges"):
        B.hull(pts)


def test_support_function_cube(unit_cube):
    assert unit_cube.support([1, 0, 0]) == pytest.approx(1.0)
    assert unit_cube.support([-1, 0, 0]) == pytest.approx(0.0)
    u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    assert unit_cube.support(u) == pytest.approx(np.sqrt(3))


def test_support_vectorized(unit_cube):
    us = np.random.default_rng(0).standard_normal((50, 3))
    vals = unit_cube.support(us)
    singles = np.array([unit_cube.support(u) for u in us])
    assert np.allclose(vals, singles)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_support_additivity_under_minkowski_sum(s1, s2):
    p = B.random_hull(8, s1)
    q = B.random_hull(8, s2)
    s = B.minkowski_sum(p, q)
    us = np.random.default_rng(s1 ^ s2).standard_normal((10, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    assert np.allclose(s.support(us), p.support(us) + q.support(us),
                       atol=1e-9)


def test_face_of_cube_top_is_square(unit_cube):
    face = unit_cube.face([0, 0, 1])
    assert len(face.vertices) == 4
    assert np.allclose(face.vertices[:, 2], 1.0)


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e4, 1e6, 1e8])
def test_face_does_not_depend_on_where_the_body_sits(shift):
    # a vertex 1e-9 below the top stays off the face of a body moved across u
    top = B.hull(NEAR_TOP).translate([shift, 0.0, 0.0]).face([0, 0, 1])
    assert np.array_equal(top.vertices, [[shift, 0.0, 1.0]])


@pytest.mark.parametrize("shift", [0.0, 1e6, pytest.param(1e8, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: _height_tol's rounding term reads "
    "|vertices|, which an exact translate makes 8.3e-8 at 1e8"))])
def test_tilted_face_does_not_depend_on_where_the_body_sits(shift):
    # the near-top body rotated, so that the move along x enters the
    # heights along the rotated top direction
    top = B.hull(NEAR_TOP @ TILT.T).translate([shift, 0.0, 0.0]).face(TILT[:, 2])
    assert len(top.vertices) == 1


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e4, 1e5, 1e6])
def test_face_along_the_move_keeps_its_vertices(unit_cube, shift):
    # a rotated cube moved along x, queried along a facet normal with an x
    # component: the rounding of the moved coordinates enters the heights,
    # and the face must keep all four of its vertices
    cube = B.hull(unit_cube.vertices @ TILT.T).translate([shift, 0.0, 0.0])
    for u in TILT.T:
        assert len(cube.face(u).vertices) == 4
        assert len(cube.face(-u).vertices) == 4


@pytest.mark.parametrize("shift", [1e7, 1e8])
def test_flat_points_affine_dim_calls_3d_get_the_planar_hull(shift):
    # far from the origin affine_dim calls the four points of a face of the
    # rotated cube 3-dimensional, and Qhull finds them flat
    cube = B.hull((B.cube().vertices - 0.5) @ TILT.T + [shift, 0.0, 0.0])
    for n in cube.facets.normals:
        face = cube.face(n)
        assert face.dim == 2 and len(face.vertices) == 4
        assert B.hull(face.vertices).dim == 2


def test_lower_dimensional_hulls(unit_square, unit_segment):
    assert unit_square.dim == 2
    assert unit_segment.dim == 1
    pt = B.hull(np.array([[1.0, 2.0, 3.0]] * 3))
    assert pt.dim == 0


def _rotated_cube_face(shift):
    cube = B.hull((B.cube().vertices - 0.5) @ TILT.T + [shift, 0.0, 0.0])
    return cube.face(cube.facets.normals[0])


GON7 = np.random.default_rng(7).uniform(0, 2 * np.pi, 7)
PLANAR = {
    "square": lambda: B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                       [1, 1, 0]], dtype=float)),
    "hexagon": lambda: B.hull(np.column_stack([
        np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3),
        np.zeros(6)])),
    # seven points of an ellipse in a tilted plane, all of them vertices
    "7-gon": lambda: B.hull(np.column_stack([
        2.0 * np.cos(GON7), np.sin(GON7), np.zeros(7)]) @ TILT.T
        + [0.3, -1.0, 2.0]),
    "rotated cube face at 1e6": lambda: _rotated_cube_face(1e6),
}


def _assert_same_planar_tables(p, q):
    """p and q hold the same vertices, sides and boundary ring, to the
    rounding of their coordinates, whichever vertex each ring starts at and
    whichever way it runs."""
    assert p.dim == q.dim == 2
    assert len(p.vertices) == len(q.vertices) == len(p.edges)
    size = max(scale(p), scale(q))
    rel = 1e-13 * size / p.diameter
    # q's vertex of each of p's vertices
    at = np.argmin(np.linalg.norm(p.vertices[:, None] - q.vertices, axis=2), axis=1)
    assert sorted(at.tolist()) == list(range(len(at)))
    assert np.allclose(p.vertices, q.vertices[at], rtol=0, atol=rel * p.diameter)
    # q's side of each of p's sides
    side = [0, 1] if p.facets.normals[0] @ q.facets.normals[0] > 0 else [1, 0]
    assert np.allclose(p.facets.normals, q.facets.normals[side], rtol=0, atol=rel)
    # the sides' heights over the origin of space: p and q hold their
    # offsets about their own origins
    hp, hq = (b.facets.offsets + B._row_dots(b.facets.normals, b.origin)
              for b in (p, q))
    assert np.allclose(hp, hq[side], rtol=0, atol=rel * size)
    assert np.allclose(p.facets.areas, q.facets.areas, rtol=rel, atol=0)
    ring = {frozenset(e): l for e, l in zip(at[p.edges.vertices].tolist(),
                                            p.edges.lengths)}
    theirs = {frozenset(e): l for e, l in zip(q.edges.vertices.tolist(),
                                             q.edges.lengths)}
    assert ring.keys() == theirs.keys()
    assert all(abs(ring[e] - theirs[e]) <= rel * p.diameter for e in ring)


@pytest.mark.parametrize("name", list(PLANAR))
def test_planar_hull_holds_its_two_sides_and_its_boundary(name):
    p = PLANAR[name]()
    f, e, nv = p.facets, p.edges, len(p.vertices)
    assert p.dim == 2
    assert len(f) == 2 and len(e) == nv
    assert nv - len(e) + len(f) == 2
    assert np.array_equal(e.facets, np.tile([0, 1], (nv, 1)))
    assert np.array_equal(e.vertices, np.column_stack(
        [np.arange(nv), np.roll(np.arange(nv), -1)]))
    assert np.array_equal(f.normals[1], -f.normals[0])
    c = p.vertices.mean(axis=0)
    assert np.allclose(f.offsets, np.max(p.local @ f.normals.T, axis=0), rtol=0,
                       atol=1e-14 * scale(p))
    # the polygon in coordinates of its plane, for 2-D Qhull: there volume
    # is the area and area the perimeter
    basis = np.linalg.svd(p.vertices - c)[2][:2]
    ref = ConvexHull((p.vertices - c) @ basis.T)
    assert np.all(np.abs(f.areas - ref.volume) <= 1e-13 * ref.volume)
    assert abs(sum(e.lengths.tolist()) - ref.area) <= 1e-13 * ref.area
    out = p.fan[:nv, 1]
    for end in (0, 1):
        assert np.all(B._row_dots(out, p.vertices[e.vertices[:, end]] - c) > 0)
    for v in ([3.0, -2.0, 1e3], -p.origin):
        _assert_same_planar_tables(p.translate(v), B.hull(p.vertices + v))
    for k in (2.5, 1e-3):
        _assert_same_planar_tables(p.scaled(k), B.hull(k * p.vertices))


def test_segment_and_point_keep_tables_of_zero_rows(unit_segment):
    for p in (unit_segment, B.hull(np.array([[1.0, 2.0, 3.0]] * 3))):
        assert len(p.facets) == len(p.edges) == 0
        assert p.facets.normals.shape == (0, 3)
        assert p.edges.vertices.shape == (0, 2)


def _slab(t: float, count: int = 30, seed: int = 0) -> np.ndarray:
    """Gaussian points squashed to thickness t in z."""
    pts = np.random.default_rng(seed).standard_normal((count, 3))
    pts[:, 2] *= t
    return pts


SLABS = [(count, seed) for count in (10, 30) for seed in range(4)]


@pytest.mark.parametrize("t", [1e-6, 1e-7, 1e-8])
def test_thin_slab_is_full_dimensional(t):
    p = B.hull(_slab(t))
    assert (p.dim, len(p.vertices), len(p.facets)) == (3, 16, 28)


@pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 0.0])
def test_thinner_slab_is_planar(t):
    # 2V/S of Qhull's facets decides here: Qhull returns a sliver for
    # 1e-14 <= t <= 1e-9 and refuses only t = 0
    assert B.hull(_slab(t)).dim == 2


@pytest.mark.parametrize("count, seed", SLABS)
@pytest.mark.parametrize("t", [1e-6, 1e-7, 1e-8])
def test_thin_slabs_of_each_size_are_full_dimensional(t, count, seed):
    assert B.hull(_slab(t, count, seed)).dim == 3


@pytest.mark.parametrize("count, seed", SLABS)
@pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-12, 1e-14, 0.0])
def test_thinner_slabs_of_each_size_are_planar(t, count, seed):
    assert B.hull(_slab(t, count, seed)).dim == 2


@pytest.mark.parametrize("count, seed", SLABS)
@pytest.mark.parametrize("t", [1e-9, 2e-9, 5e-9, 1e-8])
def test_classify_trivial_reads_the_hull_dimension(t, count, seed):
    # the 10-point seed-2 slab at t = 2e-9 hulls to a planar polytope whose
    # vertices an SVD at 1e-9 calls 3-dimensional
    p = B.hull(_slab(t, count, seed))
    assert B._sum_dim([p]) == B._sum_dim([p, p]) == B._sum_dim([p, p, p]) == p.dim
    assert B.v_llm_zero(p, p) == (p.dim < 3)


def _needle():
    pts = np.random.default_rng(0).standard_normal((30, 3))
    pts[:, 1:] *= 1e-12
    return pts


FLAT_INPUTS = {
    "needle": (_needle, 1),
    "pyramid-1e-12": (lambda: np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                                        [0.5, 0.5, 1e-12]]), 2),
    "one-point": (lambda: np.array([[1.0, 2.0, 3.0]]), 0),
    "two-points": (lambda: np.array([[0, 0, 0], [1, 2, 3]], float), 1),
    "three-points": (lambda: np.eye(3), 2),
    "four-equal-points": (lambda: np.full((4, 3), 0.7), 0),
}


@pytest.mark.parametrize("name", list(FLAT_INPUTS))
def test_flat_inputs_get_lower_dimensional_hulls(name):
    make, dim = FLAT_INPUTS[name]
    assert B.hull(make()).dim == dim


def test_affine_dim():
    assert B.affine_dim(np.zeros((4, 3))) == 0
    assert B.affine_dim(np.array([[0, 0, 0], [1, 0, 0]], float)) == 1
    assert B.affine_dim(np.eye(3)) == 2
    assert B.affine_dim(np.vstack([np.zeros(3), np.eye(3)])) == 3


def test_translate_scale_support(unit_cube):
    t = unit_cube.translate([1.0, -2.0, 0.5])
    u = np.array([0.0, 0.0, 1.0])
    assert t.support(u) == pytest.approx(unit_cube.support(u) + 0.5)
    s = unit_cube.scaled(2.5)
    assert s.support(u) == pytest.approx(2.5)
    assert abs(s.volume - 2.5 ** 3) < 1e-12


def test_support_evaluator_combination(unit_cube, std_simplex):
    f = (B.SupportEvaluator.of(unit_cube)
         + B.SupportEvaluator.of(std_simplex, -0.5)
         + B.SupportEvaluator([], shift=[1.0, 2.0, 3.0]))
    us = np.random.default_rng(1).standard_normal((20, 3))
    expected = (unit_cube.support(us) - 0.5 * std_simplex.support(us)
                + us @ np.array([1.0, 2.0, 3.0]))
    assert np.allclose(f(us), expected)


def test_truncate_vertex_small_cut(unit_cube):
    t = B.truncate_vertex(unit_cube, 0, 0.1)
    assert len(t.facets) == 7
    assert t.volume < unit_cube.volume
    # support at the six axis directions is unchanged
    for u in np.vstack([np.eye(3), -np.eye(3)]):
        assert t.support(u) == pytest.approx(unit_cube.support(u))


def test_truncate_vertex_guards(unit_cube):
    with pytest.raises(BadSpec):
        B.truncate_vertex(unit_cube, 0, -1.0)
    with pytest.raises(BadSpec):
        B.truncate_vertex(unit_cube, 0, 1e-15)   # does not separate
    # a deep cut removes neighboring vertices too
    deep = B.truncate_vertex(unit_cube, 0, 0.9)
    assert deep.volume < unit_cube.volume


def test_shear_preserves_volume(unit_cube):
    sh = B.shear(unit_cube, [1, 0, 0], [0, 0, 1], 0.3)
    assert abs(sh.volume - 1.0) < 1e-12


def test_approximate_ball_converges_to_sphere():
    for level, tol in ((1, 0.15), (3, 0.01)):
        b = B.approximate_ball(level)
        assert abs(b.volume - 4 * np.pi / 3) < tol * 4 * np.pi / 3
        assert np.allclose(np.linalg.norm(b.vertices, axis=1), 1.0,
                           atol=1e-12)


@pytest.mark.parametrize("level", range(5))
def test_approximate_ball_matches_midpoint_loop(level):
    pts = reference_ball_points(level)
    b = B.approximate_ball(level)
    # every point is a vertex, in point order, held about their centroid
    assert np.array_equal(b.origin, pts.mean(axis=0))
    assert np.array_equal(b.local, pts - b.origin)
    assert_same_polytope(b, B.hull(pts))


def test_random_hull_deterministic():
    p1 = B.random_hull(12, 42)
    p2 = B.random_hull(12, 42)
    assert np.array_equal(p1.vertices, p2.vertices)


def test_enclosing_radii_cube(unit_cube):
    r, big_r = B.enclosing_radii(unit_cube)
    assert r == pytest.approx(0.5)
    assert big_r == pytest.approx(np.sqrt(3) / 2)


def test_enclosing_radii_interior(unit_cube):
    for seed in range(10):
        p = B.random_hull(10, seed)
        r, big_r = B.enclosing_radii(p)
        assert 0 < r <= big_r


def test_classify_trivial_dimension_rules(unit_cube, unit_segment):
    point = B.hull(np.zeros((1, 3)))
    assert B.v_llm_zero(unit_segment, unit_cube)       # dim L = 1
    assert B.v_llm_zero(unit_cube, point)              # dim M = 0
    assert not B.v_llm_zero(unit_cube, unit_cube)
    assert not B.v_llm_zero(unit_cube, unit_segment)
    # parallel segments
    assert B._sum_dim([unit_segment, unit_segment.translate([0, 1, 0])]) == 1


def test_classify_trivial_sum_dims_do_not_depend_on_summand_size(unit_cube):
    # each summand's span counts at unit size, however small it is
    k, l = unit_cube.scaled(1e-8), B.segment([0, 0, 0], [1e8, 0, 0])
    assert B._sum_dim([k, l]) == 3
    k, l = B.segment([0, 0, 0], [1e-8, 0, 0]), B.segment([0, 0, 0], [0, 1e8, 0])
    assert B._sum_dim([k, l]) == 2
    assert B._sum_dim([k, l, unit_cube]) == 3


def test_classify_trivial_planar_sum(unit_square):
    assert B.v_llm_zero(unit_square, unit_square)      # dim(L+M) = 2
    assert B._sum_dim([unit_square] * 3) == 2


def test_minkowski_sum_cube_segment(unit_cube, unit_segment):
    s = B.minkowski_sum(unit_cube, unit_segment)
    assert abs(s.volume - 2.0) < 1e-12   # 2x1x1 box
    assert len(s.facets) == 6


def _diameter_reference(p):
    """The all-pairs formula Polytope.diameter is checked against: it
    builds an (n, n, 3) array of vertex differences."""
    v = p.local
    if len(v) == 1:
        return 0.0
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.max()))


DIAMETER_INPUTS = {
    **{name: (lambda make=make: B.hull(make())) for name, make in HULL_INPUTS.items()},
    **{f"rand{n}s{s}": (lambda n=n, s=s: B.random_hull(n, s))
       for n in (4, 10, 60) for s in range(5)},
    "square": lambda: B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                       [1, 1, 0]], dtype=float)),
    "segment": lambda: B.segment(np.zeros(3), np.array([1.0, 2.0, 3.0])),
    "point": lambda: B.hull(np.array([[0.5, -1.0, 2.0]])),
}


@pytest.mark.parametrize("name", list(DIAMETER_INPUTS))
def test_diameter_matches_all_pairs_reference(name):
    p = DIAMETER_INPUTS[name]()
    assert p.diameter == _diameter_reference(p)


def test_diameter_memory_is_one_float_per_pair():
    # 1000 vertices: 499500 pair distances take 4 MB; an (n, n, 3) array of
    # differences takes 24 MB
    p = B.hull(_sphere_points(1000))
    assert len(p.vertices) == 1000
    tracemalloc.start()
    try:
        p.diameter
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
