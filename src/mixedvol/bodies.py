"""3D convex bodies: polytopes with full facet/edge combinatorics, balls,
support evaluation, Minkowski sums, and constructors for test bodies.

A full-dimensional hull is read off Qhull's output in one pass: Qhull merges
coplanar triangles (Barber, Dobkin and Huhdanpaa, ACM TOMS 1996, centrum
pre-merge C-n), and the triangles of a merged facet share its plane row.
Flatness is read off the same facets: V <= width * S / 2 for a convex body,
so points whose merged facets give 2V/S below FLAT_WIDTH, at unit max-abs
size, are flat, and only those take an SVD (affine_dim) for their dimension.

All geometry is IEEE-754 binary64; equalities are tolerance checks. Polytopes
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .errors import BadSpec, DegenerateInput, NumericalFailure

# Relative tolerance for "vertex attains the support value" decisions.
FACE_TOL = 1e-12
# The two ends of the ridge across from corner k of a triangle, k = 0, 1, 2.
RIDGE_ENDS = np.array([[1, 2], [2, 0], [0, 1]])
# Points whose hull has 2V/S below this, centered and scaled to unit max-abs,
# are flat. On 10 and 30 Gaussian points squashed to thickness t in one axis,
# 2V/S reads at least 2.18e-9 at t = 1e-8 and at most 8.77e-10 at t = 1e-9.
FLAT_WIDTH = 1.4e-9
# A singular value of centered points at unit max-abs counts toward their
# affine dimension above this times max(1, the largest).
RANK_TOL = 1e-9


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector, rejecting near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise BadSpec("cannot normalize a (near-)zero vector")
    return v / n


def as_unit_vector(u) -> np.ndarray:
    """Validate that u is a 3-vector of unit Euclidean norm (tol 1e-12)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise BadSpec(f"expected a 3-vector, got shape {u.shape}")
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise BadSpec("direction is not a unit vector")
    return u


@dataclass(frozen=True)
class Facets:
    """A polytope's facets, one row each."""
    normals: np.ndarray     # (F, 3) outward unit normals
    offsets: np.ndarray     # (F,) support values h(normal)
    areas: np.ndarray       # (F,)

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class Edges:
    """A polytope's edges, one row each."""
    facets: np.ndarray      # (E, 2) indices into the facets, ascending
    vertices: np.ndarray    # (E, 2) indices into Polytope.vertices
    lengths: np.ndarray     # (E,)

    def __len__(self) -> int:
        return len(self.lengths)


NO_FACETS = Facets(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
NO_EDGES = Edges(np.zeros((0, 2), dtype=np.intp), np.zeros((0, 2), dtype=np.intp),
                 np.zeros(0))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of a with b (one vector, or one row each).

    The stacked matrix product rounds each row's dot product the way the dot
    product of two vectors does, and the summed-row forms (a @ b, einsum,
    (a * b).sum(1)) do not. That last bit matters: an arc between two facet
    normals can end on a breakpoint of a support function, and there rounding
    decides whether the breakpoint falls inside the arc."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of x, each equal to np.linalg.norm(row)."""
    return np.sqrt(_row_dots(x, x))


def _triangle_areas(corners: np.ndarray) -> np.ndarray:
    """|(b - a) x (c - a)| / 2 for each (a, b, c) of an (n, 3, 3) array, the
    products and differences in np.cross's order."""
    (x1, y1, z1), (x2, y2, z2) = (corners[:, 1:]
                                  - corners[:, :1]).transpose(1, 2, 0)
    cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


class Polytope:
    """Convex polytope given by its extreme points and its facet and edge
    tables; the facet rows are the atoms of its surface area measure S_P.

    A polygon holds the tables of a degenerate 3-polytope: its two sides
    +-n as facets, each of its area, and its boundary ring as edges between
    facets 0 and 1, so V - E + F = 2. A segment or a point holds none.
    """

    def __init__(self, vertices: np.ndarray, facets: Facets, edges: Edges,
                 dim: int, name: str = ""):
        self.vertices = np.asarray(vertices, dtype=float)
        self.vertices.setflags(write=False)
        self.facets = facets
        self.edges = edges
        self.dim = int(dim)
        self.name = name

    # -- basic queries ----------------------------------------------------

    @cached_property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @cached_property
    def diameter(self) -> float:
        v = self.vertices
        if len(v) == 1:
            return 0.0
        return float(pdist(v).max())

    @cached_property
    def scale(self) -> float:
        return max(float(np.abs(self.vertices).max()), 1e-30)

    @cached_property
    def volume(self) -> float:
        # divergence theorem: (1/3) sum_F h_F * area_F, summed in facet order;
        # a polygon's two sides cancel exactly
        return sum((self.facets.offsets * self.facets.areas).tolist()) / 3.0

    @cached_property
    def fan(self) -> np.ndarray:
        """(E', 2, 3) end normals of the arcs of the normal fan, where the
        maximizing vertex is not unique (Ziegler, Lectures on Polytopes,
        7.1); every arc is shorter than pi.

        dim 3: the facet normals of each edge. dim 2: the quarter circles
        (n_P, o_i) in edge order, then the (o_i, -n_P), with n_P =
        facets.normals[0], about which the vertices run counterclockwise, and
        o_i edge i's outward normal in the plane. dim 1: four quarter circles
        of the great circle perpendicular to the segment. dim 0: none."""
        if self.dim == 3:
            return self.facets.normals[self.edges.facets]
        if self.dim == 0:
            return np.zeros((0, 2, 3))
        # centered and at unit size, so that unit()'s absolute floor is far
        v = self.vertices - self.centroid
        v = v / np.abs(v).max()
        if self.dim == 2:
            d = np.roll(v, -1, axis=0) - v
            pole = self.facets.normals[0]
            out = np.cross(d, pole)
            out /= _row_norms(out)[:, None]
            poles = np.broadcast_to(pole, out.shape)
            return np.concatenate([np.stack([poles, out], axis=1),
                                   np.stack([out, -poles], axis=1)])
        d = unit(v[1] - v[0])
        p = unit(np.cross(d, np.eye(3)[int(np.argmin(np.abs(d)))]))
        ring = np.array([p, np.cross(d, p), -p, -np.cross(d, p)])
        return np.stack([ring, np.roll(ring, -1, axis=0)], axis=1)

    def support(self, u) -> Union[float, np.ndarray]:
        """h_K(u) = max over vertices of <v, u>; u may be (..., 3)."""
        u = np.asarray(u, dtype=float)
        vals = u @ self.vertices.T
        out = vals.max(axis=-1)
        return float(out) if out.ndim == 0 else out

    def face(self, u) -> "Polytope":
        """F(K, u): the sub-polytope of maximizers of <., u>, to within
        FACE_TOL times the body's extent, plus the rounding of the vertex
        coordinates along u. Heights are taken about the centroid, so a
        body far from the origin gains no vertices below its face."""
        u = np.asarray(u, dtype=float)
        vals = (self.vertices - self.centroid) @ u
        return hull(self.vertices[vals >= vals.max() - self._height_tol(u)])

    def _height_tol(self, u: np.ndarray) -> float:
        """FACE_TOL times the extent about the centroid, plus the rounding of
        the vertex coordinates along u: a height tolerance that does not
        depend on where the body sits."""
        return (FACE_TOL * np.abs(self.vertices - self.centroid).max()
                + 4 * np.finfo(float).eps * (np.abs(self.vertices) @ np.abs(u)).max())

    # -- transforms --------------------------------------------------------

    def translate(self, v) -> "Polytope":
        v = np.asarray(v, dtype=float)
        f = self.facets
        facets = replace(f, offsets=f.offsets + _row_dots(f.normals, v))
        return Polytope(self.vertices + v, facets, self.edges, self.dim, self.name)

    def scaled(self, c: float) -> "Polytope":
        if c <= 0:
            raise BadSpec("scaling factor must be positive")
        f, e = self.facets, self.edges
        facets = replace(f, offsets=c * f.offsets, areas=c * c * f.areas)
        edges = replace(e, lengths=c * e.lengths)
        return Polytope(c * self.vertices, facets, edges, self.dim, self.name)

    def centered(self) -> "Polytope":
        return self.translate(-self.centroid)

    def __repr__(self):
        return (f"Polytope({self.name or 'unnamed'}: {len(self.vertices)}V/"
                f"{len(self.edges)}E/{len(self.facets)}F, dim={self.dim})")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball; participates through closed-form support values only."""
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise BadSpec("ball radius must be strictly positive")

    def support(self, u) -> Union[float, np.ndarray]:
        u = np.asarray(u, dtype=float)
        out = u @ self.center + self.radius * np.linalg.norm(u, axis=-1)
        return float(out) if out.ndim == 0 else out

    def face(self, u) -> Polytope:
        u = as_unit_vector(u)
        return hull((self.center + self.radius * u)[None, :])

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def dim(self) -> int:
        return 3


Body = Union[Polytope, Ball]


def unit_ball() -> Ball:
    return Ball(np.zeros(3), 1.0)


# ---------------------------------------------------------------------------
# Support evaluators: finite combinations sum_i c_i h_{B_i} + <v, .>
# ---------------------------------------------------------------------------

class SupportEvaluator:
    """Formal combination sum_i c_i * h_{Body_i} + <shift, .>.

    Positively homogeneous of degree 1; linear combinations of support
    functions extend the mixed-volume functionals by linearity.
    """

    def __init__(self, terms: Sequence[tuple[float, Body]] = (), shift=(0.0, 0.0, 0.0)):
        self.terms = tuple((float(c), b) for c, b in terms)
        self.shift = np.asarray(shift, dtype=float)

    @classmethod
    def of(cls, body: Body, coef: float = 1.0) -> "SupportEvaluator":
        return cls([(coef, body)])

    @classmethod
    def linear(cls, v) -> "SupportEvaluator":
        return cls([], shift=v)

    @classmethod
    def constant_one(cls) -> "SupportEvaluator":
        return cls([(1.0, unit_ball())])

    def __call__(self, u) -> Union[float, np.ndarray]:
        u = np.asarray(u, dtype=float)
        out = u @ self.shift
        for c, b in self.terms:
            out = out + c * b.support(u)
        return float(out) if np.ndim(out) == 0 else out

    def __add__(self, other: "SupportEvaluator") -> "SupportEvaluator":
        return SupportEvaluator(self.terms + other.terms, self.shift + other.shift)

    def __sub__(self, other: "SupportEvaluator") -> "SupportEvaluator":
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> "SupportEvaluator":
        return SupportEvaluator([(c * ci, b) for ci, b in self.terms], c * self.shift)


# ---------------------------------------------------------------------------
# Hulls
# ---------------------------------------------------------------------------

def affine_dim(points: np.ndarray) -> int:
    """Affine dimension of a point set (rank of the centered span)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise BadSpec("empty point set")
    centered = pts - pts.mean(axis=0)
    scale = max(np.abs(centered).max(), 1e-30)
    s = np.linalg.svd(centered / scale, compute_uv=False)
    return int((s > RANK_TOL * max(1.0, s[0] if len(s) else 1.0)).sum())


def hull(points, require_full_dim: bool = False, name: str = "") -> Polytope:
    """Convex hull with merged coplanar facets and full combinatorics.

    Qhull merges the facets (option C-1e-12 on the points centered and
    scaled to unit max-abs), so a point within about 1e-12 * scale of the
    hull is not a vertex, and each facet's normal and offset are those of
    Qhull's merged plane. The points are flat when 2V/S of Qhull's merged
    facets, in that unit frame, is below FLAT_WIDTH: V <= width * S / 2
    for every convex body, so 2V/S bounds the least width from below.
    Flat points, fewer than 4 points, points all equal and points Qhull
    refuses as flat yield a polytope of affine dimension at most 2, unless
    require_full_dim is set: a polygon with its two sides and its boundary
    ring (see Polytope), a segment or a point with tables of zero rows.
    Raises NumericalFailure when Qhull's output does not form a polytope:
    one plane split into two facets, a vertex on fewer than 3 edges, or a
    failed Euler check.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise BadSpec(f"expected an (m, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise BadSpec("points contain non-finite values")
    p = _full_dim_hull(pts, name) if len(pts) >= 4 else None
    if p is not None:
        return p
    dim = min(affine_dim(pts), 2)
    if require_full_dim:
        raise DegenerateInput(f"points span affine dimension {dim} < 3")
    return _lower_dim_hull(pts, dim, name)


def _lower_dim_hull(pts: np.ndarray, dim: int, name: str) -> Polytope:
    c = pts.mean(axis=0)
    if dim == 0:
        return Polytope(pts[:1].copy(), NO_FACETS, NO_EDGES, 0, name)
    centered = pts - c
    # orthonormal basis of the affine span
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:dim]
    coords = centered @ basis.T
    if dim == 1:
        idx = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
        verts = pts[idx]
        if np.linalg.norm(verts[0] - verts[1]) < 1e-14:
            verts = verts[:1]
        return Polytope(verts, NO_FACETS, NO_EDGES, 1 if len(verts) == 2 else 0,
                        name)
    try:
        qh = ConvexHull(coords)
    except QhullError as exc:  # pragma: no cover - guarded by affine_dim
        raise DegenerateInput(str(exc)) from exc
    # Qhull returns a 2-D hull's vertices in cyclic order. They run
    # counterclockwise about n, the direction of the area vector
    # (1/2) sum_i v_i x v_{i+1}, taken centered and at unit size so that
    # unit()'s absolute floor is far.
    verts = pts[qh.vertices]
    nv, c = len(verts), verts.mean(axis=0)
    nxt = np.roll(np.arange(nv), -1)
    v = verts - c
    s = np.abs(v).max()
    v = v / s
    vec = 0.5 * np.sum(np.cross(v, v[nxt]), axis=0)
    n, area = unit(vec), s * s * float(np.linalg.norm(vec))
    h = float(n @ c)
    facets = Facets(np.array([n, -n]), np.array([h, -h]),
                    np.array([area, area]))
    edges = Edges(np.tile(np.arange(2), (nv, 1)),
                  np.stack([np.arange(nv), nxt], axis=1),
                  _row_norms(verts[nxt] - verts))
    return Polytope(verts, facets, edges, 2, name)


def _full_dim_hull(pts: np.ndarray, name: str) -> Polytope | None:
    """The 3-polytope of hull(), or None when the points are flat."""
    # Qhull merges coplanar triangles into facets (centrum pre-merge C-n, an
    # absolute distance, hence the unit max-abs frame) and then triangulates
    # them again (Qt): every triangle of a facet carries the facet's equation
    # row, and the triangles of a facet come out as one run.
    c = pts.mean(axis=0)
    x = pts - c
    s = np.abs(x).max()
    if s == 0:
        return None
    try:
        qh = ConvexHull(x / s, qhull_options="Qc C-1e-12")
    except QhullError:      # QH6154: Qhull's initial simplex is flat
        return None
    eqs, nb, simp = qh.equations, qh.neighbors, qh.simplices
    # slot k of nb[t]: across from simp[t, k]. The vertices are the points
    # Qhull used, in point order.
    used = np.zeros(len(pts), dtype=bool)
    used[simp] = True
    verts, tri = pts[used], (np.cumsum(used) - 1)[simp]
    nv = len(verts)

    # facets: runs of identical rows, numbered in run order
    first = np.ones(len(eqs), dtype=bool)
    first[1:] = (eqs[1:] != eqs[:-1]).any(axis=1)
    facet_of = np.cumsum(first) - 1
    normals, heights = eqs[first, :3] + 0.0, -eqs[first, 3]   # + 0.0 clears -0.0
    areas = np.bincount(facet_of, _triangle_areas(pts[simp]))
    # 2V/S in the unit frame: the heights are taken there, and the frame of
    # the areas cancels in the ratio
    if not 2.0 * (heights @ areas) >= FLAT_WIDTH * 3.0 * areas.sum():
        return None
    facets = Facets(normals, s * heights + _row_dots(normals, c), areas)

    # edges: one ridge each, taken from its lower facet's side in (triangle,
    # slot) order; every ridge between two facets is seen from that side
    ft = facet_of[nb]
    t, k = np.nonzero(facet_of[:, None] < ft)
    if (eqs[t] == eqs[nb[t, k]]).all(axis=1).any():
        raise NumericalFailure("one facet plane came out as two runs")
    ends = tri[t[:, None], RIDGE_ENDS[k]]
    edges = Edges(np.stack([facet_of[t], ft[t, k]], axis=1), ends,
                  _row_norms(verts[ends[:, 0]] - verts[ends[:, 1]]))
    if np.bincount(ends.ravel(), minlength=nv).min() < 3:
        raise NumericalFailure("a vertex lies on fewer than 3 edges "
                               "(a facet pair shares a chain of ridges)")
    if nv - len(edges) + len(normals) != 2:
        raise NumericalFailure(
            "Euler check failed after facet merging: "
            f"V={nv} E={len(edges)} F={len(normals)}")
    return Polytope(verts, facets, edges, 3, name)


# ---------------------------------------------------------------------------
# Minkowski arithmetic and classification
# ---------------------------------------------------------------------------

def minkowski_sum(p: Polytope, q: Polytope, name: str = "") -> Polytope:
    """Hull of all pairwise vertex sums; h_{P+Q} = h_P + h_Q."""
    return hull(sum_vertices([p, q]), name=name)


def sum_vertices(bodies: Sequence[Polytope]) -> np.ndarray:
    """All sums of one vertex from each polytope (with repeats)."""
    pts = bodies[0].vertices
    for b in bodies[1:]:
        pts = (pts[:, None, :] + b.vertices[None, :, :]).reshape(-1, 3)
    return pts


def support_data(body: Body, u) -> tuple[float, Polytope]:
    """(h_K(u), F(K, u)): support value and face of maximizers."""
    u = as_unit_vector(u)
    return float(body.support(u)), body.face(u)


def _sum_dim(bodies: Sequence[Body]) -> int:
    """Affine dimension of the Minkowski sum: the rank of the summands'
    direction spans together. A flat summand spans the first dim right
    singular vectors of its own centered vertices, unit rows, so that a
    small summand is not lost against a large one and a single summand
    reads its own dim."""
    if any(isinstance(b, Ball) or b.dim == 3 for b in bodies):
        return 3
    spans = [np.linalg.svd(b.vertices - b.centroid)[2][:b.dim] for b in bodies]
    return affine_dim(np.vstack([np.zeros((1, 3))] + spans))


@dataclass(frozen=True)
class TrivialityReport:
    dims: dict
    v_llm_zero: bool          # V(L, L, M) = 0 by the dimension rule
    equality_trivial: bool    # V(K, L, M) = 0, i.e. equality holds trivially
    reasons: tuple[str, ...]


def classify_trivial(k: Body, l: Body, m: Body) -> TrivialityReport:
    """Dimension-based classification of the trivial equality regime.

    V(L,L,M) = 0 iff dim L <= 1, dim M <= 0, or dim(L+M) <= 2; when it
    vanishes, equality holds iff V(K,L,M) = 0, characterized by the listed
    dimension conditions.
    """
    dims = {
        "K": _sum_dim([k]), "L": _sum_dim([l]), "M": _sum_dim([m]),
        "K+L": _sum_dim([k, l]), "K+M": _sum_dim([k, m]),
        "L+M": _sum_dim([l, m]), "K+L+M": _sum_dim([k, l, m]),
    }
    v_llm_zero = dims["L"] <= 1 or dims["M"] <= 0 or dims["L+M"] <= 2
    conditions = [
        (dims["K"] == 0, "dim K = 0"),
        (dims["L"] == 0, "dim L = 0"),
        (dims["K+L"] <= 1, "dim(K+L) <= 1"),
        (dims["M"] <= 0, "dim M <= 0"),
        (dims["K+M"] <= 1, "dim(K+M) <= 1"),
        (dims["L+M"] <= 1, "dim(L+M) <= 1"),
        (dims["K+L+M"] <= 2, "dim(K+L+M) <= 2"),
    ]
    reasons = tuple(msg for ok, msg in conditions if ok)
    return TrivialityReport(dims, v_llm_zero, bool(reasons), reasons)


def enclosing_radii(m: Polytope) -> tuple[float, float]:
    """(r, R) with rB <= M - centroid <= RB, about the vertex centroid."""
    if m.dim < 3:
        raise DegenerateInput("enclosing_radii requires a full-dimensional polytope")
    c = m.centroid
    r = (m.facets.offsets - _row_dots(m.facets.normals, c)).min()
    big_r = float(np.linalg.norm(m.vertices - c, axis=1).max())
    if r <= 0:
        raise NumericalFailure("vertex centroid is not interior")
    return float(r), big_r


# ---------------------------------------------------------------------------
# Test-body constructors
# ---------------------------------------------------------------------------

def cube(side: float = 1.0) -> Polytope:
    corners = np.array([[x, y, z] for x in (0, side) for y in (0, side)
                        for z in (0, side)], dtype=float)
    return hull(corners, name="cube")


def simplex() -> Polytope:
    return hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                         dtype=float), name="simplex")


def segment(a, b) -> Polytope:
    return hull(np.array([a, b], dtype=float), name="segment")


def truncate_vertex(p: Polytope, vertex_id: int, depth: float,
                    vertex_only: bool = True) -> Polytope:
    """Cut off one vertex with the halfspace <x,u> <= h_P(u) - depth, where u
    is the normalized sum of the vertex's incident edge directions."""
    if p.dim < 3:
        raise DegenerateInput("truncate_vertex requires a full-dimensional polytope")
    if depth <= 0:
        raise BadSpec("truncation depth must be positive")
    if not 0 <= vertex_id < len(p.vertices):
        raise BadSpec(f"vertex id {vertex_id} out of range")
    ends = p.edges.vertices
    at = ends == vertex_id
    if not at.any():
        raise NumericalFailure("vertex has no incident edges")
    # the other end of each incident edge, in edge order
    dirs = p.vertices[vertex_id] - p.vertices[ends[at[:, ::-1]]]
    u = unit((dirs / _row_norms(dirs)[:, None]).sum(axis=0))
    c = float(p.support(u)) - depth
    tol = p._height_tol(u)
    vals = p.vertices @ u
    removed = np.flatnonzero(vals > c + tol)
    if vertex_id not in removed:
        raise BadSpec("truncation depth too small to separate the vertex")
    if vertex_only and set(removed.tolist()) != {vertex_id}:
        raise BadSpec("truncation depth deletes a neighboring vertex")
    kept = p.vertices[vals <= c + tol]
    # the crossing point of each edge with one end on each side of the cut
    a, b = ends[(vals[ends] > c + tol).sum(axis=1) == 1].T
    t = (c - vals[a]) / (vals[b] - vals[a])
    cuts = p.vertices[a] + t[:, None] * (p.vertices[b] - p.vertices[a])
    pts = np.vstack([kept, cuts])
    return hull(pts, name=f"{p.name}-trunc{depth:g}")


def shear(p: Polytope, a, b, amount: float) -> Polytope:
    """Apply the linear map x -> x + amount * <x, b> a and rebuild the hull."""
    a = as_unit_vector(a)
    b = as_unit_vector(b)
    pts = p.vertices + amount * (p.vertices @ b)[:, None] * a
    return hull(pts, name=f"{p.name}-shear{amount:g}")


def approximate_ball(level: int, radius: float = 1.0) -> Polytope:
    """Icosahedral sphere refinement inscribed in the radius-ball."""
    if level < 0:
        raise BadSpec("subdivision level must be >= 0")
    phi = (1 + np.sqrt(5)) / 2
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    v /= np.linalg.norm(v[0])
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ])
    for _ in range(level):
        # the edges (i, j), (j, k), (k, i) of each face in face order; the
        # midpoint of an edge is numbered where the edge first appears
        ends = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, seen, edge_of = np.unique(ends[:, 0] * len(v) + ends[:, 1],
                                     return_index=True, return_inverse=True)
        order = np.argsort(seen)
        number = np.empty_like(order)
        number[order] = np.arange(len(order)) + len(v)
        sums = v[ends[seen[order], 0]] + v[ends[seen[order], 1]]
        v = np.concatenate([v, sums / _row_norms(sums)[:, None]])
        (i, j, k), (ij, jk, ki) = faces.T, number[edge_of].reshape(-1, 3).T
        faces = np.stack([i, ij, ki, ij, j, jk, jk, k, ki, ij, jk, ki],
                         axis=1).reshape(-1, 3)
    pts = radius * (v / _row_norms(v)[:, None])
    return hull(pts, name=f"ball@{level}")


def random_hull(count: int, seed: int, scale: float = 1.0) -> Polytope:
    """Deterministic random polytope: hull of seeded Gaussian points."""
    if count < 4:
        raise BadSpec("need at least 4 points for a full-dimensional hull")
    rng = np.random.default_rng(seed)
    pts = scale * rng.standard_normal((count, 3))
    return hull(pts, require_full_dim=True, name=f"rand{count}s{seed}")
