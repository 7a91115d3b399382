"""Metric graph of a polytope and the discretized operator.

Vertices are facet normals on the sphere; edges are geodesic arcs between
normals of adjacent facets, weighted by ridge lengths. The graph holds the
paper's two measures: S_{B,M} is w/2 times arclength on its arcs
(sbm_weights), and mu_M is atoms at its vertices (mu_masses). A polytope M
inside a plane w^perp gives the degenerate graph of the same type, the
bouquet of half circles (lowerdim). The quadratic form
E(f,g) = (1/6) sum_e w_e int (fg - f'g') and the L^2(S_{B,M}) mass inner
product sum_e (w_e/2) int fg are assembled with conforming piecewise-linear
elements sharing vertex degrees of freedom, so continuity holds by
construction and the weighted Kirchhoff conditions are natural. The two
matrices share one sparse pattern, the sorted distinct keys row*n + col of
the element triplets, with no sparse-format conversion. Only the top of
the spectrum is computed: by shift-invert Lanczos on the standard symmetric
form R^T (E - sigma M)^{-1} R, where M = R R^T, so each Lanczos step is one
sparse solve and no mass-matrix product. The forms are symmetric, so their CSR
arrays are also their CSC arrays: SuperLU (Li, ACM TOMS 2005) gets them as
they are, and R is read off the arrays of SuperLU's L. Both M and
E - sigma M are factored in SuperLU's symmetric mode, one minimum-degree
ordering for rows and columns and the diagonal pivots as they come. That is
stable because M is positive definite and E - sigma M =
-((sigma - 1/3) M + K/6), with K the PSD stiffness, is negative definite; it
also fills less than partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import quadrature as quad
from .bodies import Polytope, SupportEvaluator
from .errors import (BadMesh, BadParam, DegenerateInput, InsufficientSpectrum,
                     NumericalFailure)

# slack of structural_checks and lowerdim_setup: on R/r against tan(l/2), and
# relative to the total edge weight on each vertex's balance residual
STRUCTURAL_TOL = 1e-9


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

    @property
    def sbm_weights(self) -> np.ndarray:
        """(E,) the weights w/2 of S_{B,M} on the arcs: S_{B,M} is
        sum_e (w_e/2) times arclength on arc e."""
        return self.weights / 2.0

    def sbm_mass(self) -> float:
        """The total mass of S_{B,M}, 3 V(B, B, M)."""
        return sum((self.sbm_weights * self.arcs.lengths).tolist())

    def mu_masses(self) -> np.ndarray:
        """(F,) the masses of mu_M at the normals: mu_M({n_F}) =
        (1/2) sum_{F'~F} w l for n = 3, the S_{B,M} mass of F's edges."""
        mu = np.zeros(len(self.normals))
        # both ends of each edge, in edge order
        np.add.at(mu, self.edges.ravel(),
                  np.repeat(self.sbm_weights * self.arcs.lengths, 2))
        return mu

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
    max_element: float         # the longest element: h or less, or a few ulps more

    @property
    def size(self) -> int:
        return len(self.node_points)


def p1_window(k: int, h: float) -> float:
    """Twice the a-priori P1 eigenvalue error k^4 h^2 / 36 of eigenvalue
    cluster k at element length h: the window of spectrum's kernel (k = 1)
    and lower-spectrum's default tolerance (k = kmax), each at a form's
    max_element."""
    return 2.0 * k ** 4 * h ** 2 / 36.0


def assemble(g: MetricGraph, h: float) -> DiscretizedForm:
    """Hat-function Galerkin matrices of a metric graph, with exact
    per-element integrals.

    Each edge is split into ceil(q - 8 eps q) uniform elements, q = l/h, at
    least 2: an edge of d elements of length h does not get d + 1 when l/h
    rounds to just above d, and an element may exceed h by a few ulps. DOFs
    0..F-1 are the vertices, shared by their edges, so continuity holds by
    construction and the Kirchhoff vertex conditions are natural; the
    interior DOFs follow edge by edge. E and M are canonical CSR arrays on
    one pattern (the same int64 indices and indptr arrays): the sorted
    distinct keys row*n + col of the element triplets, each entry's triplets
    summed in input order. Both are checked to be symmetric in O(nnz)."""
    if h <= 0:
        raise BadMesh("mesh size must be positive")
    lengths, weights = g.arcs.lengths, g.weights
    heads, tails = g.edges.T
    q = lengths / h
    counts = np.maximum(np.ceil(q - 8 * np.finfo(float).eps * q).astype(np.intp), 2)
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
    w, ws = weights[el_edge], g.sbm_weights[el_edge]
    m_off = he / 6.0                   # element mass matrix he/6 [[2, 1], [1, 2]]
    m_diag = m_off * 2.0
    stiff = 1.0 / he                   # element stiffness 1/he [[1, -1], [-1, 1]]
    e_diag, e_off = w / 6.0 * (m_diag - stiff), w / 6.0 * (m_off + stiff)
    mm_diag, mm_off = ws * m_diag, ws * m_off

    # One CSR pattern for both matrices: the sorted distinct keys
    # row*n + col of the element triplets; slot is each triplet's entry.
    rows = np.concatenate([left, right, left, right])
    cols = np.concatenate([left, right, right, left])
    keys, slot = np.unique(rows * n_dofs + cols, return_inverse=True)
    indices = keys % n_dofs
    indptr = np.zeros(n_dofs + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys // n_dofs, minlength=n_dofs), out=indptr[1:])

    def values(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
        # bincount adds in input order: each diagonal sums its element terms
        # in element order, the elements it is the left end of first
        return np.bincount(slot, np.concatenate([diag, diag, off, off]),
                           minlength=len(indices))

    e_data, m_data = values(e_diag, e_off), values(mm_diag, mm_off)
    _require_symmetric(indptr, indices, e_data, m_data)
    e_mat = CSRMatrix.on_pattern(e_data, indices, indptr)
    mass = CSRMatrix.on_pattern(m_data, indices, indptr)

    # element k of an edge, short of its last, ends at interior node
    # first + k, which sits at t = (k + 1) * he
    inner = k < el_counts - 1
    t, node_edge = (k[inner] + 1) * he[inner], el_edge[inner]
    points = np.concatenate([
        g.normals,
        np.cos(t)[:, None] * g.arcs.starts[node_edge]
        + np.sin(t)[:, None] * g.arcs.tangents[node_edge]])
    return DiscretizedForm(e_mat, mass, points, float(edge_h.max()))


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


def _symmetric_lu(a: scipy.sparse.csr_array) -> scipy.sparse.linalg.SuperLU:
    """SuperLU of a symmetric array in symmetric mode: a minimum-degree
    ordering of A + A^T applied to rows and columns alike, and the diagonal
    pivots taken as they come. No row interchange is made, so the array
    must be definite (positive or negative) for the pivots to be stable.
    Being symmetric, its CSR arrays are its CSC arrays, so SuperLU gets them
    with no conversion."""
    return scipy.sparse.linalg.splu(
        scipy.sparse.csc_array((a.data, a.indices, a.indptr), shape=a.shape),
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
    matrix hold the same matrix. E and M must share one CSR pattern, as
    assemble's do, so that E - SHIFT M is one pass over their data; raises
    BadParam otherwise. The form must also have E = M/3 - K/6 with K
    positive semidefinite, as assemble's forms do: then
    E - SHIFT M = -((SHIFT - 1/3) M + K/6) is negative definite, and both
    factorizations take their diagonal pivots with no row interchange."""
    n = form.size
    if k < 1:
        raise BadParam(f"need at least one eigenpair, got k={k}")
    if k >= n:
        raise InsufficientSpectrum(
            f"{n} DOFs cannot resolve {k} eigenpairs; decrease the mesh size")
    e, m = form.e_matrix, form.mass
    if not (np.array_equal(e.indptr, m.indptr)
            and np.array_equal(e.indices, m.indices)):
        raise BadParam("E and M of the form do not share one sparsity pattern")
    try:
        r = _mass_factor(m)
        lu = _symmetric_lu(
            CSRMatrix.on_pattern(e.data - SHIFT * m.data, e.indices, e.indptr))
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
    return KernelReport(dim, float(sines.max()))


# ---------------------------------------------------------------------------
# Structural inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuralReport:
    worst_length_margin: float    # min over edges of R/r + tol - tan(l/2)
    worst_balance_margin: float   # min over vertices of tol*sum(w) - residual
    violations: tuple[str, ...]


def structural_checks(g: MetricGraph, r: float, big_r: float) -> StructuralReport:
    """tan(l/2) <= R/r on every edge; weighted tangent balance per vertex;
    both to within STRUCTURAL_TOL."""
    length_margins = big_r / r + STRUCTURAL_TOL - np.tan(g.arcs.lengths / 2.0)
    residuals = g.vertex_balance_residuals()
    balance_margins = STRUCTURAL_TOL * g.total_weight() - residuals
    long = np.flatnonzero(length_margins < 0)
    violations = [f"edge ({i}, {j}): tan(l/2) exceeds R/r by {-m:g}"
                  for (i, j), m in zip(g.edges[long].tolist(), length_margins[long])]
    violations += [f"vertex {f}: balance residual {residuals[f]:g}"
                   for f in np.flatnonzero(balance_margins < 0)]
    return StructuralReport(float(length_margins.min()),
                            float(balance_margins.min()),
                            tuple(violations))

