"""Metric graph of a polytope and the discretized operator.

Vertices are facet normals on the sphere; edges are geodesic arcs between
normals of adjacent facets, weighted by ridge lengths. A polytope M inside a
plane w^perp gives the degenerate graph of the same type, the bouquet of half
circles (lowerdim). The quadratic form
E(f,g) = (1/6) sum_e w_e int (fg - f'g') and the L^2(S_{B,M}) mass inner
product (1/2) sum_e w_e int fg are assembled with conforming piecewise-linear
elements sharing vertex degrees of freedom, so continuity holds by
construction and the weighted Kirchhoff conditions are natural. The two
matrices share one sparse pattern, laid out row by row from the edge chains
with no sparse-format conversion. Only the top of the spectrum is computed:
by shift-invert Lanczos on the standard symmetric form
R^T (E - sigma M)^{-1} R, where M = R R^T, so each Lanczos step is one sparse
solve and no mass-matrix product. The forms are symmetric, so their CSR arrays
are also their CSC arrays: SuperLU (Li, ACM TOMS 2005) gets them as they are,
and R is read off the arrays of SuperLU's L. Both M and E - sigma M are
factored in SuperLU's symmetric mode, one minimum-degree ordering for rows and
columns and the diagonal pivots as they come. That is stable because M is
positive definite and E - sigma M = -((sigma - 1/3) M + K/6), with K the PSD
stiffness, is negative definite; it also fills less than partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import quadrature as quad
from .bodies import Polytope, SupportEvaluator
from .errors import (BadMesh, BadParam, DegenerateInput, InsufficientSpectrum,
                     NumericalFailure)
from .quadrature import SphericalMeasure

N_DIM = 3  # ambient dimension; prefactors 1/(n(n-1)) = 1/6 and 1/(n-1) = 1/2


@dataclass(frozen=True)
class MetricGraph:
    """Vertices are facet normals; edge e is arc e of arcs, from
    normals[edges[e, 0]] to normals[edges[e, 1]].

    For M inside w^perp (the bouquet that lowerdim.lowerdim_setup returns)
    the vertices are the poles +-w, with the area of M each, and every edge
    is a half circle of length pi from w through a unit normal z_j of M
    inside the plane, weighted by the mass of that normal; parallel edges
    share the pair (0, 1)."""
    normals: np.ndarray     # (F, 3) facet normals
    areas: np.ndarray       # (F,) facet areas, the masses of S_M
    edges: np.ndarray       # (E, 2) ascending facet pairs
    weights: np.ndarray     # (E,) ridge lengths H^1(F cap F')
    arcs: quad.Arcs         # E rows, lengths arccos <n_F, n_F'>

    @cached_property
    def sbm(self) -> SphericalMeasure:
        """S_{B,M}: the edges with weight w/2, built once per graph."""
        return SphericalMeasure(arcs=self.arcs, weights=self.weights / 2.0)

    def vertex_balance_residuals(self) -> np.ndarray:
        """|sum of w_e times the outgoing unit tangent| at each vertex."""
        arcs = self.arcs
        w, l = self.weights[:, None], arcs.lengths[:, None]
        # tangent at the far end, pointing back toward edges[:, 0]
        back = -(-np.sin(l) * arcs.starts + np.cos(l) * arcs.tangents)
        # interleaved in edge order, so each vertex sums its edges in order
        s = np.zeros((len(self.normals), 3))
        np.add.at(s, self.edges.ravel(),
                  np.stack([w * arcs.tangents, w * back], axis=1).reshape(-1, 3))
        return np.linalg.norm(s, axis=1)

    def total_weight(self) -> float:
        return sum(self.weights.tolist())


def build_graph(m: Polytope) -> MetricGraph:
    """Metric graph of a full-dimensional polytope."""
    if m.dim < 3:
        raise DegenerateInput(
            "metric graph requires a full-dimensional polytope "
            "(use the lower-dimensional pipeline)")
    normals, edges = m.facets.normals, m.edges.facets
    return MetricGraph(normals, m.facets.areas, edges, m.edges.lengths,
                       quad.Arcs.between(normals[edges[:, 0]],
                                         normals[edges[:, 1]]))


def sbm_and_mu(g: MetricGraph) -> tuple[SphericalMeasure, SphericalMeasure]:
    """Realize S_{B,M} (arcs with weight w/2) and mu_M (vertex atoms,
    mu_M({n_F}) = (1/2) sum_{F'~F} w * l for n = 3)."""
    # both ends of each edge, in edge order
    mu_mass = np.zeros(len(g.normals))
    np.add.at(mu_mass, g.edges.ravel(), np.repeat(g.weights * g.arcs.lengths / 2.0, 2))
    return g.sbm, SphericalMeasure(g.normals, mu_mass)


def form_value(g: MetricGraph, f: SupportEvaluator, gg: SupportEvaluator) -> float:
    """E(f, g) = (1/6) sum_e w_e int (fg - f'g'), exact piecewise evaluation.

    Equals V(K, L, M) when f = h_K, g = h_L (M the graph's polytope)."""
    rf, rg = quad.restrict(g.arcs, f, gg)
    ifg, idfdg = rf.pair(rg)
    return sum((g.weights * (ifg - idfdg)).tolist()) / 6.0


# ---------------------------------------------------------------------------
# Galerkin discretization
# ---------------------------------------------------------------------------

class CSRMatrix(scipy.sparse.csr_array):
    """CSR array whose ``nbytes`` is its stored data, indices and indptr."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    @classmethod
    def on_pattern(cls, data: np.ndarray, indices: np.ndarray,
                   indptr: np.ndarray) -> "CSRMatrix":
        """The square CSR array of the three arrays, holding the index arrays
        as given (the constructor narrows them to int32 when they fit)."""
        a = cls((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
        a.indices, a.indptr = indices, indptr
        return a


def _require_symmetric(indptr: np.ndarray, indices: np.ndarray,
                       *values: np.ndarray) -> None:
    """Raise NumericalFailure unless the square CSR pattern (indptr, indices)
    is symmetric and each data array on it equals its transpose to 1e-14.
    One transpose of the entry ids gives the mirror of every stored entry."""
    n = len(indptr) - 1
    mirror = scipy.sparse.csr_array((np.arange(len(indices)), indices, indptr),
                                    shape=(n, n)).tocsc()
    if not (np.array_equal(mirror.indptr, indptr)
            and np.array_equal(mirror.indices, indices)
            and all(np.abs(v - v[mirror.data]).max(initial=0.0) <= 1e-14
                    for v in values)):
        raise NumericalFailure("assembled matrices are not symmetric")


@dataclass
class DiscretizedForm:
    e_matrix: CSRMatrix        # quadratic form E
    mass: CSRMatrix            # L^2(S_{B,M}) inner product, SPD
    node_points: np.ndarray    # (N, 3) sphere position of each DOF

    @property
    def size(self) -> int:
        return len(self.node_points)


def assemble(g: MetricGraph, h: float) -> DiscretizedForm:
    """Hat-function Galerkin matrices of a metric graph, with exact
    per-element integrals.

    Each edge is split into ceil(l/h) uniform elements (at least 2). DOFs
    0..F-1 are the vertices, shared by their edges, so continuity holds by
    construction and the Kirchhoff vertex conditions are natural; the
    interior DOFs follow edge by edge. E and M are canonical CSR arrays on
    one pattern (the same int64 indices and indptr arrays): a vertex row
    couples the vertex to the interior node next to it on each of its
    edges, and an interior row couples the node to its two chain
    neighbours. Both are checked to be symmetric in O(nnz)."""
    if h <= 0:
        raise BadMesh("mesh size must be positive")
    lengths, weights = g.arcs.lengths, g.weights
    heads, tails = g.edges.T
    counts = np.ceil(lengths / h).astype(np.intp)
    if (counts < 2).any():
        bad = int(np.argmax(counts < 2))
        raise BadMesh(f"edge of length {lengths[bad]:g} gets {counts[bad]} < 2 "
                      f"elements at h={h:g}")
    # a P1 mass matrix with positive element weights is SPD
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise NumericalFailure(
            "mass matrix is not positive definite: an edge weight is not a "
            "positive finite number")
    nv = len(g.normals)
    edge_h = lengths / counts
    n_int = counts - 1
    first = nv + np.cumsum(n_int) - n_int          # first interior DOF per edge
    n_dofs = nv + int(n_int.sum())

    # elements: element k of edge e joins chain[k] and chain[k + 1], where
    # chain = (i, first, first + 1, ..., first + counts - 2, j)
    el_edge = np.repeat(np.arange(len(lengths)), counts)
    el_counts = counts[el_edge]
    k = np.arange(len(el_edge)) - np.repeat(np.cumsum(counts) - counts, counts)
    left = np.where(k == 0, heads[el_edge], first[el_edge] + k - 1)
    right = np.where(k == el_counts - 1, tails[el_edge], first[el_edge] + k)
    he = edge_h[el_edge]
    w = weights[el_edge]
    m_off = he / 6.0                   # element mass matrix he/6 [[2, 1], [1, 2]]
    m_diag = m_off * 2.0
    stiff = 1.0 / he                   # element stiffness 1/he [[1, -1], [-1, 1]]
    e_diag, e_off = w / 6.0 * (m_diag - stiff), w / 6.0 * (m_off + stiff)
    mm_diag, mm_off = w / 2.0 * m_diag, w / 2.0 * m_off

    # One CSR pattern for both matrices, rows in DOF order, columns sorted.
    # The row of vertex v holds v, then the interior node next to v on each
    # of its edges in edge order (interior DOFs ascend with the edge): the
    # end elements of the edges, taken vertex by vertex.
    ends = np.flatnonzero((k == 0) | (k == el_counts - 1))
    at_head = k[ends] == 0
    vertex = np.where(at_head, left[ends], right[ends])
    order = np.argsort(vertex, kind="stable")
    ends, vertex = ends[order], vertex[order]
    node = np.where(at_head[order], right[ends], left[ends])
    vertex_ptr = np.zeros(nv + 1, dtype=np.intp)
    np.cumsum(np.bincount(vertex, minlength=nv) + 1, out=vertex_ptr[1:])
    # link j follows j links and the diagonals of vertices 0..vertex[j]
    diag_at, link_at = vertex_ptr[:-1], np.arange(len(ends)) + vertex + 1
    # The row of interior node p holds its two neighbours on the chain and p
    # itself, sorted (a neighbour that is a vertex sorts first); before and
    # after are the elements on either side of each p, in DOF order.
    before = np.flatnonzero(k < el_counts - 1)     # right[before] = p
    after = np.flatnonzero(k > 0)                  # left[after] = p
    chain = np.stack([left[before], right[before], right[after]], axis=1)
    sort = np.argsort(chain, axis=1)
    start = vertex_ptr[-1]
    indptr = np.concatenate([vertex_ptr,
                             start + 3 * np.arange(1, n_dofs - nv + 1)])
    indices = np.empty(indptr[-1], dtype=np.intp)
    indices[diag_at], indices[link_at] = np.arange(nv), node
    indices[start:] = np.take_along_axis(chain, sort, axis=1).ravel()
    both = np.concatenate([left, right])

    def values(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
        # each DOF's diagonal sums its element diagonals in element order,
        # the elements it is the left end of first
        summed = np.bincount(both, np.concatenate([diag, diag]), minlength=n_dofs)
        data = np.empty(len(indices))
        data[diag_at], data[link_at] = summed[:nv], off[ends]
        data[start:] = np.take_along_axis(
            np.stack([off[before], summed[nv:], off[after]], axis=1),
            sort, axis=1).ravel()
        return data

    e_data, m_data = values(e_diag, e_off), values(mm_diag, mm_off)
    _require_symmetric(indptr, indices, e_data, m_data)
    e_mat = CSRMatrix.on_pattern(e_data, indices, indptr)
    mass = CSRMatrix.on_pattern(m_data, indices, indptr)

    # interior node n = 1..counts-1 of edge e sits at t = n * l / counts
    node_edge = np.repeat(np.arange(len(lengths)), n_int)
    t = ((np.arange(len(node_edge)) - np.repeat(first - nv, n_int) + 1)
         * edge_h[node_edge])
    points = np.concatenate([
        g.normals,
        np.cos(t)[:, None] * g.arcs.starts[node_edge]
        + np.sin(t)[:, None] * g.arcs.tangents[node_edge]])
    return DiscretizedForm(e_mat, mass, points)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray    # descending
    vectors: np.ndarray        # columns, mass-orthonormal
    residuals: np.ndarray      # |E x - lambda M x|_2 per pair
    form: DiscretizedForm


# Shift for the top of the spectrum. E = M/3 - K/6 with K the weighted PSD
# stiffness matrix, so 1/3 is the exact top eigenvalue (the constants) and
# E - SHIFT * M is negative definite: its factorization never meets a
# singular shift, every theta = 1 / (lambda - SHIFT) is negative, and the
# largest |theta| belong to the top eigenvalues.
SHIFT = 0.34


def _as_csc(a: scipy.sparse.csr_array) -> scipy.sparse.csc_array:
    """A symmetric CSR array as CSC: the same three arrays, no conversion."""
    return scipy.sparse.csc_array((a.data, a.indices, a.indptr), shape=a.shape)


def _symmetric_lu(a: scipy.sparse.csr_array) -> scipy.sparse.linalg.SuperLU:
    """SuperLU of a symmetric array in symmetric mode: a minimum-degree
    ordering of A + A^T applied to rows and columns alike, and the diagonal
    pivots taken as they come. No row interchange is made, so the array
    must be definite (positive or negative) for the pivots to be stable."""
    return scipy.sparse.linalg.splu(
        _as_csc(a), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True})


def _mass_factor(mass: CSRMatrix) -> scipy.sparse.csc_array:
    """R with M = R R^T, from a symmetric-mode LU of M: with diagonal
    pivots, P M P^T = L U and U = diag(d) L^T, so R = P^T L diag(sqrt d).
    R is built on the CSC arrays of L: column j scaled by sqrt(d_j), row
    perm_c[i] of L moved to row i."""
    lu = _symmetric_lu(mass)
    d = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(d > 0)):
        raise NumericalFailure("mass matrix is not positive definite")
    low = lu.L
    row_of = np.empty_like(lu.perm_c)
    row_of[lu.perm_c] = np.arange(len(row_of))
    return scipy.sparse.csc_array(
        (low.data * np.repeat(np.sqrt(d), np.diff(low.indptr)),
         row_of[low.indices], low.indptr), shape=low.shape)


def spectrum(form: DiscretizedForm, k: int) -> SpectrumResult:
    """Top-k eigenpairs of E x = lambda M x, descending, by shift-invert
    Lanczos (ARPACK) about SHIFT on the standard symmetric form
    R^T (E - SHIFT M)^{-1} R with M = R R^T. Its eigenvalues are
    theta = 1 / (lambda - SHIFT), and each Lanczos step is one sparse solve
    with no mass-matrix product. The vectors are M-orthonormal. The start
    vector is fixed, so repeated calls return identical pairs. Raises
    NumericalFailure when M is not positive definite.

    The form must be symmetric, as assemble's forms are: the CSR arrays of
    M and of E - SHIFT M go to SuperLU as CSC arrays, which for a symmetric
    matrix hold the same matrix. It must also have E = M/3 - K/6 with K
    positive semidefinite, as assemble's forms do: then
    E - SHIFT M = -((SHIFT - 1/3) M + K/6) is negative definite, and both
    factorizations take their diagonal pivots with no row interchange."""
    n = form.size
    if k < 1:
        raise BadParam(f"need at least one eigenpair, got k={k}")
    if k >= n:
        raise InsufficientSpectrum(
            f"{n} DOFs cannot resolve {k} eigenpairs; decrease the mesh size")
    try:
        r = _mass_factor(form.mass)
        lu = _symmetric_lu(form.e_matrix - SHIFT * form.mass)
    except RuntimeError as exc:          # SuperLU: factor is exactly singular
        raise NumericalFailure(f"factorization failed: {exc}") from exc
    rt = r.T                  # the CSR view of the same arrays
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda y: rt @ lu.solve(r @ y), dtype=float)
    # not the constants: they are an exact eigenvector and would end the
    # Lanczos recurrence after one step
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        theta, y = scipy.sparse.linalg.eigsh(op, k, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    # x = (E - SHIFT M)^{-1} R y / theta has R^T x = y, so x^T M x = y^T y
    vals = SHIFT + 1.0 / theta
    vecs = lu.solve(r @ y) / theta
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    res = np.linalg.norm(form.e_matrix @ vecs - form.mass @ vecs * vals, axis=0)
    return SpectrumResult(vals, vecs, res, form)


@dataclass(frozen=True)
class KernelReport:
    dimension: int
    principal_angle_residual: float   # max sin of principal angles vs linear span
    window: float


def kernel_analysis(spec: SpectrumResult, tau: float) -> KernelReport:
    """Near-kernel eigenspace versus the span of the coordinate functions."""
    vals = spec.eigenvalues
    in_window = np.abs(vals) < tau
    if len(vals) < spec.form.size and (np.abs(vals[-1]) < tau):
        raise InsufficientSpectrum(
            "kernel window touches the tail of the computed spectrum")
    dim = int(in_window.sum())
    q = spec.vectors[:, in_window]           # mass-orthonormal already
    coords = spec.form.node_points    # the coordinate functions x_1, x_2, x_3
    mass = spec.form.mass
    gram = coords.T @ mass @ coords
    c_orth = coords @ np.linalg.inv(np.linalg.cholesky(gram)).T
    # the sines of the principal angles are the mass-norms of what is left of
    # the coordinate functions after projection onto the window; taken
    # directly, not as sqrt(1 - cos^2), they resolve angles below 1e-8, and a
    # window of fewer than 3 dimensions leaves sines of 1
    r = c_orth - q @ (q.T @ (mass @ c_orth))
    sines = np.sqrt(np.clip(np.linalg.eigvalsh(r.T @ (mass @ r)), 0.0, None))
    return KernelReport(dim, float(sines.max()), tau)


# ---------------------------------------------------------------------------
# Structural inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuralReport:
    worst_length_margin: float    # min over edges of R/r + tol - tan(l/2)
    worst_balance_margin: float   # min over vertices of tol*sum(w) - residual
    violations: tuple[str, ...]


def structural_checks(g: MetricGraph, r: float, big_r: float,
                      tol: float = 1e-9) -> StructuralReport:
    """tan(l/2) <= R/r on every edge; weighted tangent balance per vertex."""
    length_margins = big_r / r + tol - np.tan(g.arcs.lengths / 2.0)
    residuals = g.vertex_balance_residuals()
    balance_margins = tol * g.total_weight() - residuals
    long = np.flatnonzero(length_margins < 0)
    violations = [f"edge ({i}, {j}): tan(l/2) exceeds R/r by {-m:g}"
                  for (i, j), m in zip(g.edges[long].tolist(), length_margins[long])]
    violations += [f"vertex {f}: balance residual {residuals[f]:g}"
                   for f in np.flatnonzero(balance_margins < 0)]
    return StructuralReport(float(length_margins.min()),
                            float(balance_margins.min()),
                            tuple(violations))


@dataclass(frozen=True)
class PoincareReport:
    lhs: float
    rhs: float
    corollary_lhs: float | None
    corollary_rhs: float | None

    @property
    def holds(self) -> bool:
        scale = max(abs(self.lhs), abs(self.rhs), 1.0)
        return self.lhs >= self.rhs - 1e-9 * scale


def _pl_integrals(f: np.ndarray, l: float) -> tuple[float, float]:
    """(int f^2, int f'^2) of the piecewise-linear interpolant of uniform samples."""
    ne = len(f) - 1
    he = l / ne
    a, b = f[:-1], f[1:]
    int_f2 = float(np.sum(he / 3.0 * (a * a + a * b + b * b)))
    int_df2 = float(np.sum((b - a) ** 2 / he))
    return int_f2, int_df2


def edge_poincare_check(f: np.ndarray, l: float, eps: float,
                        r: float | None = None,
                        big_r: float | None = None) -> PoincareReport:
    """Both sides of the single-edge Poincare inequality
    l^2 int f'^2 >= (1-eps)^2 pi^2 int f^2 - (2/eps) l (f(0)^2 + f(l)^2),
    and of its r,R-corollary when (r, R) are supplied."""
    if not 0.0 < eps < 1.0:
        raise BadParam("eps must lie in (0, 1)")
    if not 0.0 < l < np.pi:
        raise BadParam("edge length must lie in (0, pi)")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or len(f) < 2:
        raise BadParam("need at least two samples")
    int_f2, int_df2 = _pl_integrals(f, l)
    boundary = f[0] ** 2 + f[-1] ** 2
    lhs = l * l * int_df2
    rhs = (1 - eps) ** 2 * np.pi ** 2 * int_f2 - (2.0 / eps) * l * boundary
    cor_lhs = cor_rhs = None
    if r is not None and big_r is not None:
        cor_lhs = int_df2 - int_f2
        cor_rhs = (r * r / (2 * big_r * big_r)) * int_f2 \
            - (4 * big_r * big_r / (r * r)) * l * boundary
    return PoincareReport(float(lhs), float(rhs), cor_lhs, cor_rhs)
