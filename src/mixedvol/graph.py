"""Metric graph of a full-dimensional polytope and the discretized operator.

Vertices are facet normals on the sphere; edges are geodesic arcs between
normals of adjacent facets, weighted by ridge lengths. The quadratic form
E(f,g) = (1/6) sum_e w_e int (fg - f'g') and the L^2(S_{B,M}) mass inner
product (1/2) sum_e w_e int fg are assembled with conforming piecewise-linear
elements sharing vertex degrees of freedom, so continuity holds by
construction and the weighted Kirchhoff conditions are natural. The same
assembly serves the lower-dimensional bouquet of half circles. The matrices
are sparse, and only the top of the spectrum is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

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
    """Vertices are facet normals; edge e is the arc from starts[e] =
    normals[edges[e, 0]] along tangents[e] to normals[edges[e, 1]]."""
    normals: np.ndarray     # (F, 3) facet normals
    areas: np.ndarray       # (F,) facet areas
    edges: np.ndarray       # (E, 2) ascending facet pairs
    lengths: np.ndarray     # (E,) arccos <n_F, n_F'>
    weights: np.ndarray     # (E,) ridge lengths H^1(F cap F')
    starts: np.ndarray      # (E, 3)
    tangents: np.ndarray    # (E, 3) unit tangents at the starts

    @cached_property
    def arcs(self) -> quad.Arcs:
        """The edges as an arc table, built once per graph."""
        return quad.Arcs(self.starts, self.tangents, self.lengths)

    def vertex_balance_residuals(self) -> np.ndarray:
        """|sum of w_e times the outgoing unit tangent| at each vertex."""
        w, l = self.weights[:, None], self.lengths[:, None]
        # tangent at the far end, pointing back toward edges[:, 0]
        back = -(-np.sin(l) * self.starts + np.cos(l) * self.tangents)
        # interleaved in edge order, so each vertex sums its edges in order
        s = np.zeros((len(self.normals), 3))
        np.add.at(s, self.edges.ravel(),
                  np.stack([w * self.tangents, w * back], axis=1).reshape(-1, 3))
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
    starts = normals[edges[:, 0]]
    tangents, lengths = quad.arcs_between(starts, normals[edges[:, 1]])
    return MetricGraph(normals, m.facets.areas, edges, lengths, m.edges.lengths,
                       starts, tangents)


def sbm_and_mu(g: MetricGraph) -> tuple[SphericalMeasure, SphericalMeasure]:
    """Realize S_{B,M} (arcs with weight w/2) and mu_M (vertex atoms,
    mu_M({n_F}) = (1/2) sum_{F'~F} w * l for n = 3)."""
    # both ends of each edge, in edge order
    mu_mass = np.zeros(len(g.normals))
    np.add.at(mu_mass, g.edges.ravel(), np.repeat(g.weights * g.lengths / 2.0, 2))
    return (SphericalMeasure(arcs=g.arcs, weights=g.weights / 2.0),
            SphericalMeasure(g.normals, mu_mass))


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


@dataclass
class DiscretizedForm:
    e_matrix: CSRMatrix        # quadratic form E
    mass: CSRMatrix            # L^2(S_{B,M}) inner product, SPD
    node_points: np.ndarray    # (N, 3) sphere position of each DOF
    edge_dofs: list[np.ndarray]  # DOF chains per edge (vertex DOFs shared)
    h: float

    @property
    def size(self) -> int:
        return len(self.node_points)

    def restrict(self, f: Union[SupportEvaluator, Callable]) -> np.ndarray:
        """Node values of a function on the sphere (e.g. a support function)."""
        return np.asarray(f(self.node_points), dtype=float)

    def coordinate_functions(self) -> np.ndarray:
        """Restrictions of x_1, x_2, x_3 to the graph, as an (N, 3) array."""
        return self.node_points.copy()


def assemble_edges(vertex_points: np.ndarray, edges: np.ndarray,
                   lengths: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                   tangents: np.ndarray, h: float) -> DiscretizedForm:
    """Hat-function Galerkin matrices of a weighted metric graph, with exact
    per-element integrals.

    Edge e runs from vertex edges[e, 0] to vertex edges[e, 1] along the arc
    t -> starts[e] cos t + tangents[e] sin t, t in [0, lengths[e]], with
    weight weights[e], and is split into ceil(l/h) uniform elements (at
    least 2). DOFs 0..nv-1 are the vertices, shared by their edges, so
    continuity holds by construction and the Kirchhoff vertex conditions are
    natural; the interior DOFs follow edge by edge."""
    if h <= 0:
        raise BadMesh("mesh size must be positive")
    heads, tails = edges.T
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
    nv = len(vertex_points)
    edge_h = lengths / counts
    n_int = counts - 1
    first = nv + np.cumsum(n_int) - n_int          # first interior DOF per edge
    n_dofs = nv + int(n_int.sum())

    # elements: element k of edge e joins chain[k] and chain[k + 1], where
    # chain = (i, first, first + 1, ..., first + counts - 2, j)
    el_edge = np.repeat(np.arange(len(lengths)), counts)
    k = np.arange(len(el_edge)) - np.repeat(np.cumsum(counts) - counts, counts)
    left = np.where(k == 0, heads[el_edge], first[el_edge] + k - 1)
    right = np.where(k == counts[el_edge] - 1, tails[el_edge], first[el_edge] + k)
    he = edge_h[el_edge]
    w = weights[el_edge]
    m_off = he / 6.0                   # element mass matrix he/6 [[2, 1], [1, 2]]
    m_diag = m_off * 2.0
    stiff = 1.0 / he                   # element stiffness 1/he [[1, -1], [-1, 1]]
    e_diag, e_off = w / 6.0 * (m_diag - stiff), w / 6.0 * (m_off + stiff)
    mm_diag, mm_off = w / 2.0 * m_diag, w / 2.0 * m_off
    rows = np.concatenate([left, right, left, right])
    cols = np.concatenate([left, right, right, left])
    shape = (n_dofs, n_dofs)
    e_mat = CSRMatrix((np.concatenate([e_diag, e_diag, e_off, e_off]),
                       (rows, cols)), shape=shape)
    mass = CSRMatrix((np.concatenate([mm_diag, mm_diag, mm_off, mm_off]),
                      (rows, cols)), shape=shape)
    if (abs(e_mat - e_mat.T).max() > 1e-14
            or abs(mass - mass.T).max() > 1e-14):
        raise NumericalFailure("assembled matrices are not symmetric")

    # interior node n = 1..counts-1 of edge e sits at t = n * l / counts
    node_edge = np.repeat(np.arange(len(lengths)), n_int)
    t = ((np.arange(len(node_edge)) - np.repeat(first - nv, n_int) + 1)
         * edge_h[node_edge])
    points = np.concatenate([
        np.asarray(vertex_points, dtype=float),
        np.cos(t)[:, None] * starts[node_edge]
        + np.sin(t)[:, None] * tangents[node_edge]])
    edge_dofs = [np.concatenate(([i], np.arange(f, f + n), [j]))
                 for i, j, f, n in zip(heads, tails, first, n_int)]
    return DiscretizedForm(e_mat, mass, points, edge_dofs, h)


def assemble(g: MetricGraph, h: float) -> DiscretizedForm:
    """Galerkin matrices on the metric graph of a full-dimensional polytope."""
    return assemble_edges(g.normals, g.edges, g.lengths, g.weights, g.starts,
                          g.tangents, h)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray    # descending
    vectors: np.ndarray        # columns, mass-orthonormal
    residuals: np.ndarray      # |E x - lambda M x|_2 per pair
    form: DiscretizedForm


# Shift for the top of the spectrum. E = M/3 - K/6 with K the weighted PSD
# stiffness matrix, so 1/3 is the exact top eigenvalue (the constants) and
# E - SHIFT * M is negative definite: its factorization never meets a
# singular shift, and the eigenvalues nearest SHIFT are the top ones.
SHIFT = 0.34


def spectrum(form: DiscretizedForm, k: int) -> SpectrumResult:
    """Top-k eigenpairs of E x = lambda M x, descending, by shift-invert
    Lanczos (ARPACK) about SHIFT, from a fixed start vector so that repeated
    calls return identical pairs."""
    n = form.size
    if k < 1:
        raise BadParam(f"need at least one eigenpair, got k={k}")
    if k >= n:
        raise InsufficientSpectrum(
            f"{n} DOFs cannot resolve {k} eigenpairs; decrease the mesh size")
    # not the constants: they are an exact eigenvector and would end the
    # Lanczos recurrence after one step
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            form.e_matrix, k, M=form.mass, sigma=SHIFT, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
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
    coords = spec.form.coordinate_functions()
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
    length_margins = big_r / r + tol - np.tan(g.lengths / 2.0)
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
