"""The batch arc restriction against the per-arc loop it replaced.

Breakpoints come from the crossings of each arc with the normal fan of each
polytope term (``Polytope.fan``), for all arcs of a table at once; the loop
(``conftest.loop_breakpoints``) walks the active-vertex envelope of one term
on one arc. Where an arc runs along a fan arc, as when K = M, the loop can cut
once at a rounding tie between two vertices that are active along the whole
arc; the batch has no cut there, and the two functions agree."""

import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import extremal as X
from mixedvol import graph as G
from mixedvol import lowerdim as LD
from mixedvol import quadrature as quad

from conftest import (arc_integral, body, loop_breakpoints, loop_restriction,
                      reference_fan_crossings, scale)

W = np.array([0.0, 0.0, 1.0])


def _sphere_hull(n: int, seed: int) -> B.Polytope:
    p = np.random.default_rng(seed).standard_normal((n, 3))
    return B.hull(p / np.linalg.norm(p, axis=1)[:, None])


def _tilted_polygon(n: int, seed: int) -> B.Polytope:
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.standard_normal((n, 2)), np.zeros(n)])
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return B.hull(pts @ q.T + rng.standard_normal(3))


def _plane_polygon(n: int, seed: int) -> B.Polytope:
    pts = np.random.default_rng(seed).standard_normal((n, 2))
    return B.hull(np.column_stack([pts, np.zeros(n)]))


TERMS = {
    **{f"rand10s{s}": (lambda s=s: body(f"rand10s{s}")) for s in range(4)},
    **{f"sphere{n}": (lambda n=n: _sphere_hull(n, n)) for n in (30, 100, 600)},
    **{f"ball@{k}": (lambda k=k: body(f"ball@{k}")) for k in range(4)},
    "cube": lambda: body("cube"),
    "shifted-cube": lambda: B.cube().translate([-0.5, -0.5, -0.5]),
    "simplex": lambda: body("simplex"),
    "square": lambda: B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                                      dtype=float)),
    "polygon5": lambda: _tilted_polygon(5, 1),
    "polygon8": lambda: _tilted_polygon(8, 2),
    "segment": lambda: B.segment([0, 0, 0], [1, 2, 3]),
    "segment-z": lambda: B.segment([0, 0, 0], [0, 0, 1]),
    "point": lambda: B.hull(np.array([[1.0, 2.0, 3.0]])),
}

ARC_SETS = {
    **{f"graph:{n}": (lambda n=n: G.build_graph(body(n)).arcs)
       for n in ("rand10s0", "rand10s1", "cube", "simplex", "ball@1", "ball@2")},
    "graph:sphere30": lambda: G.build_graph(_sphere_hull(30, 30)).arcs,
    # half circles of length pi through the poles +-w
    "bouquet:square": lambda: LD.lowerdim_setup(TERMS["square"](), W).arcs,
    "bouquet:polygon6": lambda: LD.lowerdim_setup(_plane_polygon(6, 3), W).arcs,
}


def _frames(arcs: quad.Arcs) -> list[quad.Arcs]:
    """The arcs as one-row tables, for the per-arc loop."""
    return [arcs[i:i + 1] for i in range(len(arcs))]


def _runs_along_an_edge_normal(k: B.Polytope, arcs: quad.Arcs) -> np.ndarray:
    """Arcs whose plane is perpendicular to an edge of K: the edge's two
    vertices tie along the whole great circle."""
    if k.dim < 3:
        return np.zeros(len(arcs), dtype=bool)
    d = k.vertices[k.edges.vertices[:, 0]] - k.vertices[k.edges.vertices[:, 1]]
    d /= np.linalg.norm(d, axis=1)[:, None]
    cross = np.linalg.norm(np.cross(d[:, None], arcs.poles[None]), axis=2)
    return (cross <= 1e-12).any(axis=0)


def _is_a_tie(k: B.Polytope, fr: quad.Arcs, t: float) -> bool:
    """The active vertices just before and just after t have the same
    coefficients on the arc, so a cut at t changes nothing."""
    before, after = (k.vertices[np.argmax(k.vertices @ fr.points(0, s))]
                     for s in (t - 1e-7, t + 1e-7))
    d = before - after
    return (max(abs(d @ fr.starts[0]), abs(d @ fr.tangents[0]))
            <= 1e-12 * max(1.0, scale(k)))


def _assert_loop_parity(k: B.Polytope, arcs: quad.Arcs, where) -> None:
    """Each arc's batch cuts are the loop's within 1e-11. On an arc along an
    edge normal of K the loop may have one more cut, at a tie."""
    f = B.SupportEvaluator.of(k)
    arc, t = quad.breakpoints(arcs, f)
    assert np.all(np.diff(arc) >= 0) and np.all(np.diff(t)[np.diff(arc) == 0] > 0)
    tie = _runs_along_an_edge_normal(k, arcs)
    for i, fr in enumerate(_frames(arcs)):
        ref, got = np.array(loop_breakpoints(f, fr)), t[arc == i]
        if len(got) == len(ref):
            assert np.all(np.abs(got - ref) <= 1e-11), (where, i, ref, got)
            continue
        assert tie[i] and len(ref) == len(got) + 1, (where, i, ref, got)
        matched = [np.abs(ref - c).min() <= 1e-11 for c in got]
        assert all(matched), (where, i, ref, got)
        missing = [c for c in ref if len(got) == 0 or np.abs(got - c).min() > 1e-11]
        assert len(missing) == 1 and _is_a_tie(k, fr, missing[0]), (where, i)


@pytest.mark.parametrize("term", list(TERMS))
def test_breakpoints_match_the_loop(term):
    k = TERMS[term]()
    for name, make in ARC_SETS.items():
        _assert_loop_parity(k, make(), name)


@pytest.mark.parametrize("term", list(TERMS))
def test_fan_arcs_are_where_the_maximizing_vertex_is_not_unique(term):
    k = TERMS[term]()
    fan = k.fan
    assert fan.shape[1:] == (2, 3)
    assert np.allclose(np.linalg.norm(fan, axis=2), 1.0, atol=1e-14)
    # shorter than pi, so the crossing |s1| n0 + |s0| n1 is well defined
    assert np.all(np.sum(fan[:, 0] * fan[:, 1], axis=1) > -1.0 + 1e-9)
    for s in (0.25, 0.5, 0.75):
        u = (1 - s) * fan[:, 0] + s * fan[:, 1]
        vals = np.sort(u @ k.vertices.T, axis=1)
        if len(k.vertices) > 1:
            assert np.all(vals[:, -1] - vals[:, -2] <= 1e-12 * max(1.0, scale(k)))
    expected = {3: len(k.edges), 2: 2 * len(k.vertices), 1: 4, 0: 0}
    assert len(fan) == expected[k.dim]


def test_cube_has_no_cuts_on_its_own_graph():
    g = G.build_graph(B.cube())
    arc, _ = quad.breakpoints(g.arcs, B.SupportEvaluator.of(B.cube()))
    assert len(arc) == 0


@pytest.mark.parametrize("name", ["rand10s1", "ball@1", "simplex"])
def test_k_equal_m_runs_along_the_fan_and_integrates_exactly(name):
    m = body(name)
    g = G.build_graph(m)
    f = B.SupportEvaluator.of(m)
    arc, _ = quad.breakpoints(g.arcs, f)
    assert len(arc) == 0
    # V(M, M, M) = Vol(M)
    assert abs(G.form_value(g, f, f) - m.volume) <= 1e-13 * m.volume


@pytest.mark.parametrize("k, m", [("ball@2", "ball@1"), ("ball@1", "ball@2"),
                                  ("ball@2", "ball@2"), ("cube", "cube")])
def test_refined_balls_and_the_cube_match_the_loop(k, m):
    _assert_loop_parity(body(k), G.build_graph(body(m)).arcs, m)


@pytest.mark.parametrize("k, pole", [
    # the centered cube's facet normal e1, where four fan arcs meet
    (lambda: B.cube().translate([-0.5, -0.5, -0.5]), [1.0, 0.0, 0.0]),
    # a square's plane normal, where all of its half circles meet
    (lambda: B.hull(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
                             dtype=float)), [0.0, 0.0, 1.0]),
])
def test_an_arc_through_a_fan_vertex_is_cut_once(k, pole):
    pole = np.array(pole)
    side = np.cross(pole, [0.3, 0.5, 0.7])
    side /= np.linalg.norm(side)
    fr = quad.Arcs.between(np.cos(0.4) * pole - np.sin(0.4) * side,
                          np.cos(0.4) * pole + np.sin(0.4) * side)
    f = B.SupportEvaluator.of(k())
    got = quad.evaluator_breakpoints(f, fr)
    assert len(got) == 1 and abs(got[0] - 0.4) <= 1e-12
    assert np.allclose(got, loop_breakpoints(f, fr), rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# Integrals against the per-arc loop
# ---------------------------------------------------------------------------

def _loop_pair(f, g, fr):
    cuts = np.array([0.0, *sorted(set(loop_breakpoints(f, fr))
                                  | set(loop_breakpoints(g, fr))), fr.lengths[0]])
    (_, p), (_, q) = loop_restriction(f, fr, cuts), loop_restriction(g, fr, cuts)
    ifg, idfdg = quad.product_integral(np.stack([p, p @ quad._DERIVATIVE]),
                                       np.stack([q, q @ quad._DERIVATIVE]),
                                       cuts[:-1], cuts[1:]).sum(axis=-1)
    return float(ifg), float(idfdg)


def _loop_integral(f, fr):
    cuts, coef = loop_restriction(f, fr)
    a, b = coef.T
    return float((a * (np.sin(cuts[1:]) - np.sin(cuts[:-1]))
                  + b * (np.cos(cuts[:-1]) - np.cos(cuts[1:]))).sum())


def _close(a, b):
    return abs(a - b) <= 1e-13 * max(1.0, abs(b))


TRIPLES = [("rand10s1", "rand10s2", "rand10s3"), ("cube", "simplex", "ball@1"),
           ("shear:0.3", "trunc:0.1", "rand10s4"), ("ball@2", "cube", "simplex")]


@pytest.mark.parametrize("names", TRIPLES)
def test_form_and_rigidity_integrals_match_the_loop(names):
    k, l, m = map(body, names)
    g = G.build_graph(m)
    fk, fl = B.SupportEvaluator.of(k), B.SupportEvaluator.of(l)
    frames = _frames(g.arcs)
    ref = sum(w * (ifg - idfdg) for w, (ifg, idfdg) in
              zip(g.weights.tolist(), (_loop_pair(fk, fl, fr) for fr in frames))) / 6
    assert _close(G.form_value(g, fk, fl), ref)
    # rigidity_check integrates (h_K - h_L)^2 over S_{B,M}
    d = fk + B.SupportEvaluator.of(l, -1.0)
    ref = sum(0.5 * w * _loop_pair(d, d, fr)[0]
              for w, fr in zip(g.weights.tolist(), frames))
    assert _close(X.rigidity_check(k, l, m).sbm_integral, ref)


@pytest.mark.parametrize("names", TRIPLES)
def test_linear_fit_matches_the_loop(names):
    k, l, m = map(body, names)
    g = G.build_graph(m)
    delta = B.SupportEvaluator.of(k) + B.SupportEvaluator.of(l, -0.7)
    a_mat, b_vec = np.zeros((3, 3)), np.zeros(3)
    for w, fr in zip((g.weights / 2).tolist(), _frames(g.arcs)):
        coords = np.column_stack([fr.starts[0], fr.tangents[0]])
        a_mat += w * quad.product_integral(coords[:, None], coords[None], 0.0,
                                           fr.lengths[0])
        cuts, coef = loop_restriction(delta, fr)
        b_vec += w * quad.product_integral(coef[:, None], coords[None],
                                           cuts[:-1, None], cuts[1:, None]).sum(axis=0)
    ref = np.linalg.solve(a_mat, b_vec)
    v, _ = X.fit_linear_on_sbm(g, delta)
    assert np.abs(v - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("seed", range(6))
def test_lowerdim_certificate_matches_the_loop(seed):
    m = _plane_polygon(4 + seed % 4, seed)
    k, l = B.random_hull(10, seed + 1), B.random_hull(10, seed + 2)
    cert = LD.certify_equality_lowerdim(k, l, m, W)
    g = LD.lowerdim_setup(m, W)
    lt = l.scaled(cert.a)
    resid = (B.SupportEvaluator.of(k) + B.SupportEvaluator.of(lt.face(W))
             + B.SupportEvaluator.of(lt, -1.0) + B.SupportEvaluator.of(k.face(W), -1.0))
    ref = 0.0
    for fr in _frames(g.arcs):
        cuts = np.array([0.0, *loop_breakpoints(resid, fr), fr.lengths[0]])
        t = np.linspace(cuts[:-1], cuts[1:], quad.NODES_PER_SEGMENT)
        ref = max(ref, float(np.abs(resid(fr.points(0, t))).max()))
    assert _close(cert.sup_residual, ref)
    # S_{B,M} integrals over the half circles
    fk = B.SupportEvaluator.of(k)
    ref = sum(0.5 * mass * _loop_integral(fk, fr)
              for mass, fr in zip(g.weights.tolist(), _frames(g.arcs)))
    assert _close(arc_integral(fk, g), ref)


PARITY_FANS = ("sphere600", "sphere100", "ball@2", "rand10s0", "square",
               "segment", "point")
PARITY_ARCS = {
    "graph:rand10s0": ARC_SETS["graph:rand10s0"],
    "graph:sphere30": ARC_SETS["graph:sphere30"],
    "bouquet:square": ARC_SETS["bouquet:square"],
    "none": lambda: quad.Arcs(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0)),
}


@pytest.mark.parametrize("term", PARITY_FANS)
def test_fan_crossings_match_the_float_product_bit_for_bit(term):
    """One flat product and two sign tables cut where the broadcast product
    with its distances zeroed and multiplied did, at the same bits."""
    fan = TERMS[term]().fan
    if term == "point":
        assert fan.shape == (0, 2, 3)
    for name, make in PARITY_ARCS.items():
        arcs = make()
        got, ref = quad._fan_crossings(fan, arcs), reference_fan_crossings(fan, arcs)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and np.array_equal(g, r), (term, name)


def test_integrals_over_no_arcs_are_empty():
    arcs = quad.Arcs(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    (r,) = quad.restrict(arcs, B.SupportEvaluator.of(B.cube()))
    assert r.integral().shape == (0,)
    assert X.sup_on_sbm(r) == 0.0
    g = G.MetricGraph(np.zeros((0, 3)), np.zeros(0),
                      np.zeros((0, 2), dtype=np.intp), np.zeros(0), arcs)
    assert g.sbm_mass() == 0.0


def test_arcs_taken_in_blocks_give_the_same_restriction(monkeypatch):
    f = B.SupportEvaluator.of(body("ball@2")) + B.SupportEvaluator.of(
        B.random_hull(12, 3), -0.7)
    g = B.SupportEvaluator.of(B.cube()) + B.SupportEvaluator.of(
        body("ball@1").scaled(0.5).translate([0.1, 0.0, -0.2]), 0.2)
    arcs = G.build_graph(body("ball@1")).arcs
    whole = quad.restrict(arcs, f, g)
    sup = X.sup_on_sbm(whole[0])
    monkeypatch.setattr(quad, "BLOCK_ENTRIES", 1)          # one arc a block
    assert len(list(quad._segment_blocks(arcs, [f, g]))) == len(arcs)
    blocks = quad.restrict(arcs, f, g)
    assert np.array_equal(whole[0].arc, blocks[0].arc)
    for name in ("t0", "t1"):
        assert np.abs(getattr(whole[0], name) - getattr(blocks[0], name)).max() <= 1e-15
    for w, b in zip(whole, blocks):
        assert np.abs(w.coef - b.coef).max() <= 1e-15
    for w, b in zip(whole[0].pair(whole[1]), blocks[0].pair(blocks[1])):
        assert np.abs(w - b).max() <= 1e-15
    assert abs(X.sup_on_sbm(blocks[0]) - sup) <= 1e-15


def test_restriction_memory_does_not_grow_with_arcs_times_vertices():
    """One pass over the 480 arcs of ball@2 against the 642 vertices of
    ball@3 would hold about 30 MB of midpoint argmax; blocks of arcs hold
    about 8 MB per smooth segment of an arc, and the sup scan of the
    restriction holds a few node tables per segment, whatever the vertex
    count."""
    import tracemalloc
    k = body("ball@3")
    f = B.SupportEvaluator.of(k) + B.SupportEvaluator.of(body("ball@1"), -1.0)
    arcs = G.build_graph(body("ball@2")).arcs
    for run in (lambda: quad.restrict(arcs, f),
                lambda: X.sup_on_sbm(quad.restrict(arcs, f)[0])):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20
