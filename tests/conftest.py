import functools

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.spatial import ConvexHull, QhullError

from mixedvol import bodies as B
from mixedvol import cli
from mixedvol import graph as G
from mixedvol import quadrature as quad
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


# a top vertex and a second one 1e-9 lower in z, 1 apart sideways
NEAR_TOP = np.array([[0, 0, 1], [1, 0, 1 - 1e-9], [0, 1, 0], [1, 1, 0],
                     [0.5, 0.5, -1], [0.2, -0.7, 0.1]])

# a fixed rotation with no axis-aligned column, so that a body moved along
# x and queried along a rotated axis has the move enter its heights
TILT = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]


def assert_same_polytope(p, q):
    assert p.dim == q.dim
    assert np.array_equal(p.vertices, q.vertices)
    for a, b in ((p.facets, q.facets), (p.edges, q.edges)):
        for field in a.__dataclass_fields__:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def reference_hull(points) -> B.Polytope:
    """bodies.hull as it was when an affine_dim SVD decided the dimension
    before Qhull ran, np.unique numbered the vertices and the plane-split
    guard compared every triangle with each of its neighbours. The library's
    hull must give the same tables bit for bit."""
    pts = np.asarray(points, dtype=float)
    dim = B.affine_dim(pts)
    if dim == 3:
        try:
            return _reference_full_dim_hull(pts)
        except QhullError:
            dim = 2
    return B._lower_dim_hull(pts, dim, "")


def _reference_triangle_areas(corners: np.ndarray) -> np.ndarray:
    """|(b - a) x (c - a)| / 2 for each (a, b, c) of an (n, 3, 3) array of
    corners, the products and differences in np.cross's order."""
    (x1, y1, z1), (x2, y2, z2) = (corners[:, 1:]
                                  - corners[:, :1]).transpose(1, 2, 0)
    cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def _reference_full_dim_hull(pts: np.ndarray) -> B.Polytope:
    c = pts.mean(axis=0)
    s = np.abs(pts - c).max()
    # the options the hull was first built with, kept literally and not read
    # from bodies.QHULL_OPTIONS: the parity tests then pin that the library's
    # options give the same tables bit for bit
    qh = ConvexHull((pts - c) / s, qhull_options="Qc C-1e-12")
    eqs, nb = qh.equations, qh.neighbors   # slot k of nb[t]: across from tri[t, k]
    vid, tri = np.unique(qh.simplices, return_inverse=True)
    tri = tri.reshape(-1, 3)
    verts, nv = pts[vid], len(vid)
    first = np.ones(len(eqs), dtype=bool)
    first[1:] = (eqs[1:] != eqs[:-1]).any(axis=1)
    facet_of = np.cumsum(first) - 1
    normals = eqs[first, :3] + 0.0
    o = verts.mean(axis=0)      # the frame: offsets about the vertex centroid
    facets = B.Facets(normals, s * -eqs[first, 3] - B._row_dots(normals, o - c),
                      np.bincount(facet_of, _reference_triangle_areas(verts[tri])))
    fs, ft = facet_of[:, None], facet_of[nb]
    assert not ((fs != ft) & (eqs[:, None] == eqs[nb]).all(axis=2)).any()
    t, k = np.nonzero(fs < ft)
    ends = tri[t[:, None], B.RIDGE_ENDS[k]]
    edges = B.Edges(np.stack([facet_of[t], ft[t, k]], axis=1), ends,
                    B._row_norms(verts[ends[:, 0]] - verts[ends[:, 1]]))
    assert np.bincount(ends.ravel(), minlength=nv).min() >= 3
    assert nv - len(edges) + len(normals) == 2
    return B.Polytope(o, verts - o, facets, edges, 3)


def reference_ball_points(level: int) -> np.ndarray:
    """The points bodies.approximate_ball hulls, made by the loop it used
    before it took each level's midpoints in one pass: one midpoint at a
    time, kept in a dict keyed on its rounded coordinates."""
    phi = (1 + np.sqrt(5)) / 2
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    v /= np.linalg.norm(v[0])
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(x) for x in v]
    index = {x: i for i, x in enumerate(verts)}

    def midpoint(i, j):
        m = B.unit(np.array(verts[i]) + np.array(verts[j]))
        key = tuple(np.round(m, 14))
        if key not in index:
            index[key] = len(verts)
            verts.append(tuple(m))
        return index[key]

    for _ in range(level):
        new_faces = []
        for (i, j, k) in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, ij, ki), (ij, j, jk), (jk, k, ki), (ij, jk, ki)]
        faces = new_faces
    return np.array([B.unit(np.array(x)) for x in verts])


def facet_vertices(p) -> list[list[int]]:
    """The sorted vertex indices of each facet of a 3-polytope: the ends of
    the facet's edges."""
    out = [set() for _ in range(len(p.facets))]
    for pair, ends in zip(p.edges.facets.tolist(), p.edges.vertices.tolist()):
        for f in pair:
            out[f].update(ends)
    return [sorted(v) for v in out]


def sum_vertices(bodies) -> np.ndarray:
    """All sums of one vertex from each polytope (with repeats), taken on
    the absolute vertex rows."""
    pts = bodies[0].vertices
    for b in bodies[1:]:
        pts = B._pair_sums(pts, b.vertices)
    return pts


def barycenter_residual(directions: np.ndarray, masses: np.ndarray) -> float:
    """|int u ds| for a measure of atoms, which vanishes for the area
    measures of closed bodies."""
    return float(np.linalg.norm(masses @ directions))


def cylinder_graphs(m, w, eps_seq) -> list[G.MetricGraph]:
    """The metric graph of each thin cylinder M + eps[0, w] over the polygon
    M; as eps -> 0 the masses and integrals of their S_{B,M} tend at first
    order in eps to those of the half-circle measure on M of the
    lower-dimensional pipeline."""
    w = B.as_unit_vector(w)
    return [G.build_graph(B.minkowski_sum(m, B.segment(np.zeros(3), eps * w)))
            for eps in eps_seq]


def arc_integral(f: B.SupportEvaluator, g: G.MetricGraph) -> float:
    """int f dS_{B,M} on a metric graph: the arcs' S_{B,M} weights times the
    exact per-arc integrals."""
    (r,) = quad.restrict(g.arcs, f)
    return sum((g.sbm_weights * r.integral()).tolist())


def ref_mu_masses(g: G.MetricGraph) -> list[float]:
    """mu_M by a loop over the edges, in edge order: each edge gives w l / 2
    to both of its vertices."""
    mass = np.zeros(len(g.normals))
    for (i, j), l, w in zip(g.edges.tolist(), g.arcs.lengths.tolist(),
                            g.weights.tolist()):
        mass[i] += w * l / 2.0
        mass[j] += w * l / 2.0
    return mass.tolist()


def scale(p: B.Polytope) -> float:
    """The largest absolute vertex coordinate of p, at least 1e-30: the size
    of the rounding in its absolute vertex rows."""
    return max(float(np.abs(p.vertices).max()), 1e-30)


def cylinder_integrals(m, w, f: B.SupportEvaluator, eps_seq) -> list[float]:
    """int f dS_{B, M + eps[0, w]} over the cylinder_graphs."""
    return [arc_integral(f, g) for g in cylinder_graphs(m, w, eps_seq)]


def decay_ratios(values, limit: float) -> list[float]:
    """The decay factors error_i / error_{i+1} of values against a limit."""
    errors = [abs(v - limit) for v in values]
    return [a / b for a, b in zip(errors, errors[1:])]


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


def mode3_eigenvalues(form, k: int) -> np.ndarray:
    """Reference top-k eigenvalues, descending: ARPACK's generalized
    shift-invert mode about graph.SHIFT, with the mass matrix passed as M
    (M-products besides every solve), from graph.spectrum's start vector."""
    v0 = np.random.default_rng(0).standard_normal(form.size)
    vals = scipy.sparse.linalg.eigsh(form.e_matrix, k, M=form.mass,
                                     sigma=G.SHIFT, v0=v0,
                                     return_eigenvectors=False)
    return np.sort(vals)[::-1]


def reference_elements(g: G.MetricGraph, h: float):
    """(n_dofs, left, right, terms) of graph.assemble's elements: element i
    joins DOFs left[i] and right[i], and terms holds the (diagonal,
    off-diagonal) element values of E, then of M. The element counts follow
    assemble's rule: this is the reference for the layout and the values,
    not for the count."""
    lengths, weights = g.arcs.lengths, g.weights
    heads, tails = g.edges.T
    q = lengths / h
    counts = np.maximum(np.ceil(q - 8 * np.finfo(float).eps * q).astype(np.intp), 2)
    nv = len(g.normals)
    edge_h = lengths / counts
    n_int = counts - 1
    first = nv + np.cumsum(n_int) - n_int
    n_dofs = nv + int(n_int.sum())
    el_edge = np.repeat(np.arange(len(lengths)), counts)
    k = np.arange(len(el_edge)) - np.repeat(np.cumsum(counts) - counts, counts)
    left = np.where(k == 0, heads[el_edge], first[el_edge] + k - 1)
    right = np.where(k == counts[el_edge] - 1, tails[el_edge], first[el_edge] + k)
    he = edge_h[el_edge]
    w = weights[el_edge]
    m_off = he / 6.0
    m_diag = m_off * 2.0
    stiff = 1.0 / he
    e_diag, e_off = w / 6.0 * (m_diag - stiff), w / 6.0 * (m_off + stiff)
    mm_diag, mm_off = w / 2.0 * m_diag, w / 2.0 * m_off
    return n_dofs, left, right, ((e_diag, e_off), (mm_diag, mm_off))


def reference_matrices(g: G.MetricGraph, h: float):
    """(E, M) of graph.assemble built the way it was before the shared
    pattern: each matrix from its element triplets through scipy's COO to
    CSR conversion, which sums the duplicates of each row in input order.
    The library's matrices must have the same arrays, dtypes included."""
    n_dofs, left, right, terms = reference_elements(g, h)
    rows = np.concatenate([left, right, left, right])
    cols = np.concatenate([left, right, right, left])
    shape = (n_dofs, n_dofs)
    return tuple(scipy.sparse.csr_array((np.concatenate([d, d, o, o]), (rows, cols)),
                                        shape=shape)
                 for d, o in terms)


def reference_mass_factor(mass) -> scipy.sparse.csr_array:
    """R with M = R R^T as graph._mass_factor built it before it read R off
    the arrays of SuperLU's L: L diag(sqrt d) through COO to CSR, then the
    rows taken in perm_c order."""
    lu = scipy.sparse.linalg.splu(
        mass.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True})
    d = lu.U.diagonal()
    return lu.L.multiply(np.sqrt(d)).tocsr()[lu.perm_c]


def reference_fan_crossings(fan: np.ndarray, arcs: quad.Arcs
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(arc, t) of the crossings of the fan arcs with the interiors of the
    arcs, as quadrature._fan_crossings found them before it took one flat
    product and two sign tables: a broadcast product per fan arc, every
    distance within PLANE_TOL zeroed, then s0 s1 <= 0 with not both ends 0."""
    s = fan @ arcs.poles.T                        # (E, 2, arcs)
    s[np.abs(s) <= quad.PLANE_TOL] = 0.0
    s0, s1 = s[:, 0], s[:, 1]
    fi, ai = np.nonzero((s0 * s1 <= 0.0) & ((s0 != 0.0) | (s1 != 0.0)))
    x = (np.abs(s1[fi, ai])[:, None] * fan[fi, 0]
         + np.abs(s0[fi, ai])[:, None] * fan[fi, 1])
    t = np.arctan2(B._row_dots(x, arcs.tangents[ai]),
                   B._row_dots(x, arcs.starts[ai]))
    inside = (t > quad.CUT_TOL) & (t < arcs.lengths[ai] - quad.CUT_TOL)
    return ai[inside], t[inside]


def sup_on_arcs(f: B.SupportEvaluator, arcs: quad.Arcs) -> float:
    """Sup of |f| over quadrature.NODES_PER_SEGMENT nodes of each smooth segment
    of f on the arcs, endpoints included, found by evaluating f itself at
    the nodes: the scan extremal.sup_on_sbm replaced, which evaluates the
    segment coefficients of a restriction instead."""
    sup = 0.0
    for _, block, (arc, t0, t1) in quad._segment_blocks(arcs, [f]):
        t = np.linspace(t0, t1, quad.NODES_PER_SEGMENT, axis=1)         # (S, nodes)
        sup = max(sup, float(np.abs(f(block.points(arc[:, None], t)))
                             .max(initial=0.0)))
    return sup


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


def loop_breakpoints(f: B.SupportEvaluator, arc: quad.Arcs) -> list[float]:
    """Interior parameters of a one-row arc table where some polytope term
    switches active vertex, by walking the active-vertex envelope of each
    term."""
    bps: list[float] = []
    for _, body in f.terms:
        if len(body.vertices) > 1:
            alpha = body.vertices @ arc.starts[0]
            beta = body.vertices @ arc.tangents[0]
            bps += _envelope_breakpoints(alpha, beta, arc.lengths[0])
    return sorted(set(bps))


def loop_restriction(f: B.SupportEvaluator, arc: quad.Arcs, cuts=None):
    """(cuts, coef): f on a one-row arc table as A cos t + B sin t with
    (A, B) = coef[i] on [cuts[i], cuts[i + 1]], cut at loop_breakpoints
    unless cuts are given."""
    if cuts is None:
        cuts = np.array([0.0, *loop_breakpoints(f, arc), arc.lengths[0]])
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    trig = np.array([np.cos(mid), np.sin(mid)])
    plane = np.array([arc.starts[0], arc.tangents[0]])
    coef = np.tile(plane @ f.shift, (len(mid), 1))
    for c, b in f.terms:
        ab = b.local @ plane.T
        coef += c * ab[np.argmax(ab @ trig, axis=0)]
    return cuts, coef
