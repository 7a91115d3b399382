"""The array forms of the polytope and metric-graph computations against
per-row Python loops, which are kept here as the reference: each loop takes
one facet or edge at a time, the way these computations were first written,
and the array forms must agree with it exactly."""

import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import graph as G
from mixedvol import measures as MS
from mixedvol.errors import BadSpec

from conftest import BODIES, assert_same_polytope, body


# -- reference loops -----------------------------------------------------------

def ref_volume(p):
    return sum(float(o) * float(a)
               for o, a in zip(p.facets.offsets, p.facets.areas)) / 3.0


def ref_translate_offsets(p, v):
    return [float(o) + float(n @ v)
            for n, o in zip(p.facets.normals, p.facets.offsets)]


def ref_enclosing_radii(p):
    c = p.centroid
    r = min(float(o) - float(n @ c)
            for n, o in zip(p.facets.normals, p.facets.offsets))
    return r, float(np.linalg.norm(p.vertices - c, axis=1).max())


def ref_truncate_points(p, vertex_id, depth):
    ends = [tuple(e) for e in p.edges.vertices.tolist()]
    v0 = p.vertices[vertex_id]
    dirs = []
    for a, b in ends:
        if vertex_id in (a, b):
            other = a if b == vertex_id else b
            dirs.append(B.unit(v0 - p.vertices[other]))
    u = B.unit(np.sum(dirs, axis=0))
    c = float(p.support(u)) - depth
    tol = (B.FACE_TOL * np.abs(p.vertices - p.centroid).max()
           + 4 * np.finfo(float).eps * (np.abs(p.vertices) @ np.abs(u)).max())
    vals = p.vertices @ u
    if vals[vertex_id] <= c + tol:
        raise BadSpec("truncation depth too small to separate the vertex")
    cuts = []
    for a, b in ends:
        va, vb = vals[a], vals[b]
        if (va > c + tol) != (vb > c + tol):
            t = (c - va) / (vb - va)
            cuts.append(p.vertices[a] + t * (p.vertices[b] - p.vertices[a]))
    return np.vstack([p.vertices[vals <= c + tol]]
                     + ([np.array(cuts)] if cuts else []))


def ref_arc(a, b):
    c = float(np.clip(a @ b, -1.0, 1.0))
    e = b - c * a
    s = np.linalg.norm(e)
    return e / s, float(np.arctan2(s, c))


def ref_mu_masses(g):
    mass = np.zeros(len(g.normals))
    for (i, j), l, w in zip(g.edges.tolist(), g.arcs.lengths.tolist(),
                            g.weights.tolist()):
        mass[i] += w * l / 2.0
        mass[j] += w * l / 2.0
    return mass.tolist()


def ref_structural(g, r, big_r, tol):
    violations, length_margins, balance_margins = [], [], []
    for (i, j), l in zip(g.edges.tolist(), g.arcs.lengths.tolist()):
        margin = big_r / r + tol - np.tan(l / 2.0)
        length_margins.append(margin)
        if margin < 0:
            violations.append(f"edge {(i, j)}: tan(l/2) exceeds R/r by {-margin:g}")
    wsum = sum(w for w in g.weights.tolist())
    for f, res in enumerate(g.vertex_balance_residuals()):
        margin = tol * wsum - res
        balance_margins.append(margin)
        if margin < 0:
            violations.append(f"vertex {f}: balance residual {res:g}")
    return (float(min(length_margins)), float(min(balance_margins)),
            tuple(violations))


def ref_vbbm(p):
    edges = list(zip(p.edges.vertices.tolist(), p.edges.facets.tolist()))
    total = 0.0
    for vid in range(len(p.vertices)):
        adj = {}
        for a, b in (facets for ends, facets in edges if vid in ends):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        start = min(adj)
        cycle, prev, cur = [start], None, start
        while True:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            if nxt == start:
                break
            cycle.append(nxt)
            prev, cur = cur, nxt
        normals = [p.facets.normals[fi] for fi in cycle]
        s = np.zeros(3)
        for i in range(len(normals)):
            a, b = normals[i], normals[(i + 1) % len(normals)]
            theta = float(np.arccos(np.clip(a @ b, -1.0, 1.0)))
            axis = np.cross(a, b)
            nrm = np.linalg.norm(axis)
            if nrm > 1e-14:
                s += theta * axis / nrm
        s *= 0.5
        if s @ np.mean(normals, axis=0) < 0:
            s = -s
        total += float(p.vertices[vid] @ s)
    return total / 3.0


# -- parity ------------------------------------------------------------------

@pytest.mark.parametrize("name", list(BODIES))
def test_polytope_transforms_match_row_loops(name):
    p = body(name)
    assert p.volume == ref_volume(p)
    v = np.array([0.3, -1.7, 2.1])
    t = p.translate(v)
    assert t.facets.offsets.tolist() == ref_translate_offsets(p, v)
    assert np.array_equal(t.vertices, p.vertices + v)
    centered = p.centered()
    assert (centered.facets.offsets.tolist()
            == ref_translate_offsets(p, -p.centroid))
    c = 2.7
    s = p.scaled(c)
    assert s.facets.offsets.tolist() == [c * o for o in p.facets.offsets.tolist()]
    assert s.facets.areas.tolist() == [c * c * a for a in p.facets.areas.tolist()]
    assert s.edges.lengths.tolist() == [c * l for l in p.edges.lengths.tolist()]
    for q in (t, centered, s):
        assert np.array_equal(q.facets.normals, p.facets.normals)
        assert np.array_equal(q.edges.facets, p.edges.facets)
        assert np.array_equal(q.edges.vertices, p.edges.vertices)
    assert B.enclosing_radii(p) == ref_enclosing_radii(p)


@pytest.mark.parametrize("name", list(BODIES))
def test_truncate_vertex_matches_row_loops(name):
    p = body(name)
    depth = 1e-3 * p.diameter
    try:
        expected = B.hull(ref_truncate_points(p, 0, depth))
    except BadSpec:
        with pytest.raises(BadSpec):
            B.truncate_vertex(p, 0, depth, vertex_only=False)
        return
    assert_same_polytope(B.truncate_vertex(p, 0, depth, vertex_only=False),
                         expected)


@pytest.mark.parametrize("name", list(BODIES))
def test_graph_matches_row_loops(name):
    p = body(name)
    g = G.build_graph(p)
    assert np.array_equal(g.normals, p.facets.normals)
    assert np.array_equal(g.areas, p.facets.areas)
    assert np.array_equal(g.edges, p.edges.facets)
    assert np.array_equal(g.weights, p.edges.lengths)
    for (i, j), start, tangent, length in zip(g.edges, g.arcs.starts,
                                              g.arcs.tangents,
                                              g.arcs.lengths.tolist()):
        e, l = ref_arc(p.facets.normals[i], p.facets.normals[j])
        assert np.array_equal(start, p.facets.normals[i])
        assert np.array_equal(tangent, e)
        assert length == l
    sbm, mu = G.sbm_and_mu(g)
    assert sbm.weights.tolist() == [w / 2.0 for w in g.weights.tolist()]
    assert mu.masses.tolist() == ref_mu_masses(g)
    assert g.total_weight() == sum(w for w in g.weights.tolist())
    r, big_r = B.enclosing_radii(p)
    # the defaults pass; the other two settings make every check fail, so
    # each violation message is compared
    for rr, tol in ((r, 1e-9), (100.0 * big_r, 1e-9), (r, -1.0)):
        rep = G.structural_checks(g, rr, big_r, tol)
        assert ((rep.worst_length_margin, rep.worst_balance_margin,
                 rep.violations) == ref_structural(g, rr, big_r, tol))
    assert MS.vbbm_conewise(p) == ref_vbbm(p)
