"""3D convex bodies: polytopes with full facet/edge combinatorics, balls,
support evaluation, Minkowski sums, and constructors for test bodies.

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

# Facet-normal deviation tolerance for merging coplanar Qhull triangles.
MERGE_TOL = 1e-9
# Relative tolerance for "vertex attains the support value" decisions.
FACE_TOL = 1e-12
# The two ends of the ridge across from corner k of a triangle, k = 0, 1, 2.
RIDGE_ENDS = np.array([[1, 2], [2, 0], [0, 1]])


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
    incidence: np.ndarray   # (I, 2) sorted (facet, vertex) pairs

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


NO_FACETS = Facets(np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                   np.zeros((0, 2), dtype=np.intp))
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


class Polytope:
    """Convex polytope given by its extreme points.

    Full-dimensional polytopes carry facet and edge combinatorics; polytopes
    of affine dimension < 3 carry only their extreme points (facet and edge
    tables with zero rows) and still support h_K evaluation and Minkowski
    arithmetic.
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
        if self.dim < 3:
            return 0.0
        # divergence theorem: (1/3) sum_F h_F * area_F, summed in facet order
        return sum((self.facets.offsets * self.facets.areas).tolist()) / 3.0

    @cached_property
    def fan(self) -> np.ndarray:
        """(E', 2, 3) end normals of the arcs of the normal fan, where the
        maximizing vertex is not unique (Ziegler, Lectures on Polytopes,
        7.1); every arc is shorter than pi.

        dim 3: the facet normals of each edge. dim 2: per polygon edge, the
        quarter circles (n_P, o_i) and (o_i, -n_P), with n_P the plane normal
        about which the vertices run counterclockwise and o_i the edge's
        outward normal in the plane. dim 1: four quarter circles of the great
        circle perpendicular to the segment. dim 0: none."""
        if self.dim == 3:
            return self.facets.normals[self.edges.facets]
        if self.dim == 0:
            return np.zeros((0, 2, 3))
        # centered and at unit size, so that unit()'s absolute floor is far
        v = self.vertices - self.centroid
        v = v / np.abs(v).max()
        if self.dim == 2:
            d = np.roll(v, -1, axis=0) - v
            pole = unit(np.cross(v, d).sum(axis=0))
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
        """F(K, u): the sub-polytope of maximizers of <., u>."""
        u = np.asarray(u, dtype=float)
        vals = self.vertices @ u
        h = vals.max()
        tol = FACE_TOL * max(self.scale, 1.0)
        pts = self.vertices[vals >= h - tol]
        return hull(pts)

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

def affine_dim(points: np.ndarray, tol: float = 1e-9) -> int:
    """Affine dimension of a point set (rank of the centered span)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise BadSpec("empty point set")
    centered = pts - pts.mean(axis=0)
    scale = max(np.abs(centered).max(), 1e-30)
    s = np.linalg.svd(centered / scale, compute_uv=False)
    return int((s > tol * max(1.0, s[0] if len(s) else 1.0)).sum())


def hull(points, require_full_dim: bool = False, name: str = "") -> Polytope:
    """Convex hull with merged coplanar facets and full combinatorics.

    Lower-dimensional input yields a combinatorics-free polytope (extreme
    points only) unless require_full_dim is set.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise BadSpec(f"expected an (m, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise BadSpec("points contain non-finite values")
    dim = affine_dim(pts)
    if dim < 3:
        if require_full_dim:
            raise DegenerateInput(
                f"points span affine dimension {dim} < 3")
        return _lower_dim_hull(pts, dim, name)
    return _full_dim_hull(pts, name)


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
    return Polytope(pts[qh.vertices], NO_FACETS, NO_EDGES, 2, name)


def _full_dim_hull(pts: np.ndarray, name: str) -> Polytope:
    qh = ConvexHull(pts)
    eqs = qh.equations          # normal . x + d <= 0, normal unit outward
    nt, nv = len(qh.simplices), len(qh.vertices)
    # reindex vertices to extreme points only
    old2new = np.empty(len(pts), dtype=np.intp)
    old2new[qh.vertices] = np.arange(nv)
    verts = pts[qh.vertices]
    tri = old2new[qh.simplices]
    nb, n = qh.neighbors, eqs[:, :3]    # slot k of nb[s]: across from tri[s, k]

    # facets: components of the graph joining neighbouring triangles whose
    # normals agree within MERGE_TOL, numbered in order of their lowest
    # triangle. Each round lowers every label to its close neighbours'
    # minimum and then jumps it to its label's label; a fixed point holds one
    # label, the lowest triangle, per component.
    ids = np.arange(nt)
    close_nb = np.where(np.linalg.norm(n[:, None, :] - n[nb], axis=2) <= MERGE_TOL,
                        nb, ids[:, None])
    label, prev = ids, None
    while not np.array_equal(label, prev):
        prev = label
        label = np.minimum(label, label[close_nb].min(axis=1))
        label = label[label]
    rank = np.cumsum(label == ids)
    nf, facet_of = int(rank[-1]), rank[label] - 1
    normals = np.zeros((nf, 3))
    np.add.at(normals, facet_of, n)
    normals /= np.bincount(facet_of, minlength=nf)[:, None]
    normals /= _row_norms(normals)[:, None]
    # |(b - a) x (c - a)| / 2, the products and differences in np.cross's order
    (x1, y1, z1), (x2, y2, z2) = (verts[tri[:, 1:]]
                                  - verts[tri[:, :1]]).transpose(1, 2, 0)
    cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    areas = np.bincount(facet_of, 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz), nf)
    fv = np.unique(facet_of[:, None] * nv + tri)    # (facet, vertex), sorted
    fid, vid = np.divmod(fv, nv)
    offsets = (np.bincount(fid, np.einsum("ij,ij->i", verts[vid], normals[fid]), nf)
               / np.bincount(fid, minlength=nf))
    facets = Facets(normals, offsets, areas, np.stack([fid, vid], axis=1))

    # edges: facet pairs joined by a ridge, in order of first appearance over
    # the (triangle, slot) pairs in row-major order
    fs, ft = facet_of[:, None], facet_of[nb]
    ridge = fs != ft
    pairs = np.stack([np.minimum(fs, ft)[ridge], np.maximum(fs, ft)[ridge]], axis=1)
    key = pairs[:, 0] * nf + pairs[:, 1]
    keys, first = np.unique(key, return_index=True)
    # an edge's endpoints are the vertices in exactly one ridge of its chain
    # (each ridge taken once, from its lower facet's side)
    lower = fs < ft
    ev, count = np.unique(key[lower[ridge], None] * nv + tri[:, RIDGE_ENDS][lower],
                          return_counts=True)
    tips = ev[count == 1]
    if not np.array_equal(tips // nv, np.repeat(keys, 2)):
        raise NumericalFailure("facet merge produced a dangling ridge")
    order = np.argsort(first)
    tips = (tips % nv).reshape(-1, 2)[order]
    edges = Edges(pairs[first[order]], tips,
                  _row_norms(verts[tips[:, 0]] - verts[tips[:, 1]]))

    if nv - len(edges) + nf != 2:
        raise NumericalFailure(
            "Euler check failed after facet merging: "
            f"V={nv} E={len(edges)} F={nf}")
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
    if any(isinstance(b, Ball) for b in bodies):
        return 3
    diffs = [b.vertices - b.vertices[0] for b in bodies]
    return affine_dim(np.vstack([np.zeros((1, 3))] + diffs))


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
    tol = FACE_TOL * max(p.scale, 1.0)
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
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(x) for x in v]
    index = {x: i for i, x in enumerate(verts)}

    def midpoint(i, j):
        m = unit(np.array(verts[i]) + np.array(verts[j]))
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
    pts = radius * np.array([unit(np.array(x)) for x in verts])
    return hull(pts, name=f"ball@{level}")


def random_hull(count: int, seed: int, scale: float = 1.0) -> Polytope:
    """Deterministic random polytope: hull of seeded Gaussian points."""
    if count < 4:
        raise BadSpec("need at least 4 points for a full-dimensional hull")
    rng = np.random.default_rng(seed)
    pts = scale * rng.standard_normal((count, 3))
    return hull(pts, require_full_dim=True, name=f"rand{count}s{seed}")
