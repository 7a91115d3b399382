"""Metric graph of a full-dimensional polytope and the discretized operator.

Vertices are facet normals on the sphere; edges are geodesic arcs between
normals of adjacent facets, weighted by ridge lengths. The quadratic form
E(f,g) = (1/6) sum_e w_e int (fg - f'g') and the L^2(S_{B,M}) mass inner
product (1/2) sum_e w_e int fg are assembled with conforming piecewise-linear
elements sharing vertex degrees of freedom, so continuity holds by
construction and the weighted Kirchhoff conditions are natural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg

from . import quadrature as quad
from .bodies import Polytope, SupportEvaluator
from .errors import (BadMesh, BadParam, DegenerateInput, InsufficientSpectrum,
                     NumericalFailure)
from .quadrature import SphericalMeasure

N_DIM = 3  # ambient dimension; prefactors 1/(n(n-1)) = 1/6 and 1/(n-1) = 1/2


@dataclass(frozen=True)
class GraphEdge:
    facets: tuple[int, int]    # ascending facet indices
    length: float              # arccos <n_F, n_F'>
    weight: float              # ridge length H^1(F cap F')
    frame: quad.ArcFrame       # oriented from facets[0] to facets[1]


@dataclass(frozen=True)
class MetricGraph:
    normals: np.ndarray                  # (nf, 3) facet normals
    areas: np.ndarray                    # (nf,) facet areas
    edges: tuple[GraphEdge, ...]
    polytope: Polytope

    def incident(self, f: int) -> list[tuple[GraphEdge, np.ndarray]]:
        """(edge, outgoing tangent n_{F->F'}) pairs at vertex f."""
        out = []
        for e in self.edges:
            if e.facets[0] == f:
                out.append((e, e.frame.tangent))
            elif e.facets[1] == f:
                # tangent at the far end, pointing back toward facets[0]
                l = e.length
                t = (-np.sin(l) * e.frame.start + np.cos(l) * e.frame.tangent)
                out.append((e, -t))
        return out

    def vertex_balance_residuals(self) -> np.ndarray:
        res = np.zeros(len(self.normals))
        for f in range(len(self.normals)):
            s = np.zeros(3)
            for e, tangent in self.incident(f):
                s += e.weight * tangent
            res[f] = np.linalg.norm(s)
        return res

    def total_weight(self) -> float:
        return sum(e.weight for e in self.edges)

    @property
    def sbm_arcs(self) -> list[tuple[quad.ArcFrame, float]]:
        """The arcs of S_{B,M}: each edge with weight w/2."""
        return [(e.frame, e.weight / 2.0) for e in self.edges]


def build_graph(m: Polytope) -> MetricGraph:
    """Metric graph of a full-dimensional polytope."""
    if m.dim < 3:
        raise DegenerateInput(
            "metric graph requires a full-dimensional polytope "
            "(use the lower-dimensional pipeline)")
    normals = np.array([f.normal for f in m.facets])
    areas = np.array([f.area for f in m.facets])
    edges = []
    for e in m.edges:
        i, j = e.facets
        frame = quad.arc_between(normals[i], normals[j])
        edges.append(GraphEdge((i, j), frame.length, e.length, frame))
    return MetricGraph(normals, areas, tuple(edges), m)


def sbm_and_mu(g: MetricGraph) -> tuple[SphericalMeasure, SphericalMeasure]:
    """Realize S_{B,M} (arcs with weight w/2) and mu_M (vertex atoms,
    mu_M({n_F}) = (1/2) sum_{F'~F} w * l for n = 3)."""
    mu_mass = np.zeros(len(g.normals))
    for e in g.edges:
        i, j = e.facets
        mu_mass[i] += e.weight * e.length / 2.0
        mu_mass[j] += e.weight * e.length / 2.0
    sbm = SphericalMeasure(arcs=g.sbm_arcs)
    mu = SphericalMeasure(atoms=[(g.normals[i], float(mu_mass[i]))
                                 for i in range(len(g.normals))])
    return sbm, mu


def integrate_on_arcs(f: Union[SupportEvaluator, Callable], g: MetricGraph,
                      quad_tol: float = 1e-10) -> float:
    """sum_e (w_e/2) int_e f dH^1; exact for support-function combinations,
    adaptive Gauss-Legendre for generic callables."""
    return quad.integrate_weighted_arcs(f, g.sbm_arcs, quad_tol)


def form_value(g: MetricGraph, f: SupportEvaluator, gg: SupportEvaluator) -> float:
    """E(f, g) = (1/6) sum_e w_e int (fg - f'g'), exact piecewise evaluation.

    Equals V(K, L, M) when f = h_K, g = h_L (M the graph's polytope)."""
    total = 0.0
    for e in g.edges:
        ifg, idfdg = quad.integrate_pair(f, gg, e.frame)
        total += e.weight * (ifg - idfdg)
    return total / 6.0


# ---------------------------------------------------------------------------
# Galerkin discretization
# ---------------------------------------------------------------------------

@dataclass
class DiscretizedForm:
    e_matrix: np.ndarray       # quadratic form E
    mass: np.ndarray           # L^2(S_{B,M}) inner product, SPD
    node_points: np.ndarray    # (N, 3) sphere position of each DOF
    edge_dofs: list[np.ndarray]  # DOF chains per edge (vertex DOFs shared)
    graph: MetricGraph | None    # None for the lower-dimensional assembly
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


def assemble(g: MetricGraph, h: float) -> DiscretizedForm:
    """Hat-function Galerkin matrices with exact per-element integrals.

    Each edge is split into ceil(l/h) uniform elements (at least 2); no flux
    conditions are imposed -- the Kirchhoff vertex conditions are natural."""
    if h <= 0:
        raise BadMesh("mesh size must be positive")
    nf = len(g.normals)
    counts = []
    for e in g.edges:
        ne = int(np.ceil(e.length / h))
        if ne < 2:
            raise BadMesh(
                f"edge of length {e.length:g} gets {ne} < 2 elements at h={h:g}")
        counts.append(ne)
    n_dofs = nf + sum(ne - 1 for ne in counts)
    e_mat = np.zeros((n_dofs, n_dofs))
    mass = np.zeros((n_dofs, n_dofs))
    points = np.zeros((n_dofs, 3))
    points[:nf] = g.normals
    next_dof = nf
    edge_dofs = []
    for e, ne in zip(g.edges, counts):
        i, j = e.facets
        interior = np.arange(next_dof, next_dof + ne - 1)
        next_dof += ne - 1
        chain = np.concatenate(([i], interior, [j]))
        edge_dofs.append(chain)
        t = np.linspace(0.0, e.length, ne + 1)
        points[interior] = e.frame.point(t[1:-1])
        he = e.length / ne
        m_el = he / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        k_el = 1.0 / he * np.array([[1.0, -1.0], [-1.0, 1.0]])
        e_el = e.weight / 6.0 * (m_el - k_el)
        mm_el = e.weight / 2.0 * m_el
        for k in range(ne):
            idx = chain[k:k + 2]
            e_mat[np.ix_(idx, idx)] += e_el
            mass[np.ix_(idx, idx)] += mm_el
    if (np.abs(e_mat - e_mat.T).max() > 1e-14
            or np.abs(mass - mass.T).max() > 1e-14):
        raise NumericalFailure("assembled matrices are not symmetric")
    return DiscretizedForm(e_mat, mass, points, edge_dofs, g, h)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray    # descending
    vectors: np.ndarray        # columns, mass-orthonormal
    residuals: np.ndarray      # |E x - lambda M x|_2 per pair
    form: DiscretizedForm


def spectrum(form: DiscretizedForm, k: int | None = None) -> SpectrumResult:
    """Top-k eigenpairs of E x = lambda M x (dense, Cholesky-reduced)."""
    try:
        np.linalg.cholesky(form.mass)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("mass matrix is not positive definite") from exc
    vals, vecs = scipy.linalg.eigh(form.e_matrix, form.mass)
    order = np.argsort(vals)[::-1]
    if k is not None:
        order = order[:k]
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
    sv = np.linalg.svd(q.T @ mass @ c_orth, compute_uv=False)
    sv = np.clip(sv, 0.0, 1.0)
    # pad with zeros if the window is smaller than 3-dimensional
    angles_cos = np.concatenate([sv, np.zeros(max(0, 3 - len(sv)))])
    residual = float(np.sqrt(max(0.0, 1.0 - angles_cos.min() ** 2)))
    return KernelReport(dim, residual, tau)


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
    violations = []
    length_margins = []
    for e in g.edges:
        margin = big_r / r + tol - np.tan(e.length / 2.0)
        length_margins.append(margin)
        if margin < 0:
            violations.append(f"edge {e.facets}: tan(l/2) exceeds R/r by {-margin:g}")
    wsum = g.total_weight()
    balance_margins = []
    for f, res in enumerate(g.vertex_balance_residuals()):
        margin = tol * wsum - res
        balance_margins.append(margin)
        if margin < 0:
            violations.append(f"vertex {f}: balance residual {res:g}")
    return StructuralReport(float(min(length_margins)),
                            float(min(balance_margins)),
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
