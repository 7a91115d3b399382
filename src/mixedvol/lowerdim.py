"""The lower-dimensional pipeline: M contained in a hyperplane w^perp.

When M has dimension 1 or 2 inside w^perp, the measure S_{B,M} concentrates
on the half great circles theta -> iota(theta, z) = w cos(theta) + z sin(theta)
over the directions z in the support of the (lower-dimensional) surface
measure of M inside w^perp. These half circles, with shared poles at +-w,
are the edges of a graph.MetricGraph, the degenerate metric graph of M, so
the Galerkin assembly, S_{B,M} and the residual's sup scan are those of the
full-dimensional pipeline. The spectrum is fully explicit:
lambda_k = (1 - k^2)/3 with multiplicities 1, m, m, ... where m is the
number of support atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull

from . import quadrature as quad
from .bodies import (Polytope, SupportEvaluator, _row_norms,
                     as_unit_vector, classify_trivial, minkowski_sum, segment,
                     support_data, unit)
from .errors import (BadParam, DimensionError, InsufficientSpectrum,
                     NumericalFailure, ZeroDenominator)
from .extremal import (DEFICIT_THRESHOLD, RESIDUAL_THRESHOLD, _verdict,
                       sup_on_sbm)
from .graph import (DiscretizedForm, MetricGraph, assemble, build_graph,
                    spectrum)
from .measures import DeficitReport, quadratic_deficit

HYPERPLANE_TOL = 1e-9


@dataclass(frozen=True)
class LowerDimProblem:
    """M in w^perp together with the atoms of its surface measure inside the
    hyperplane: mass masses[j] at the unit direction directions[j] (edge
    normals for a polygon, the two endpoint directions for a segment), held
    as the bouquet of half circles they span, a metric graph: vertices +-w
    (DOFs 0 and 1 of its assembly) and, per atom, the half circle
    theta -> w cos(theta) + directions[j] sin(theta) of weight masses[j]."""
    m: Polytope
    dim_m: int
    graph: MetricGraph

    @property
    def w(self) -> np.ndarray:
        return self.graph.normals[0]

    @property
    def directions(self) -> np.ndarray:
        """(j, 3) unit directions in w^perp."""
        return self.graph.arcs.tangents

    @property
    def masses(self) -> np.ndarray:
        return self.graph.weights

    @property
    def multiplicity(self) -> int:
        return len(self.masses)

    def total_mass(self) -> float:
        return sum(self.masses.tolist())

    def balance_residual(self) -> float:
        return float(np.linalg.norm(self.masses @ self.directions))


def _plane_basis(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pick = np.eye(3)[int(np.argmin(np.abs(w)))]
    b1 = unit(np.cross(w, pick))
    return b1, np.cross(w, b1)


def lowerdim_setup(m: Polytope, w) -> LowerDimProblem:
    """Validate M - M in w^perp, dim M in {1, 2}, and extract the atoms."""
    w = as_unit_vector(w)
    verts = m.vertices
    off = (verts - verts[0]) @ w
    scale = max(m.scale, 1e-30)
    if np.abs(off).max() > HYPERPLANE_TOL * scale:
        raise DimensionError("M is not contained in a translate of w^perp")
    dim = m.dim
    if dim not in (1, 2):
        raise DimensionError(
            f"lower-dimensional pipeline needs dim M in {{1, 2}}, got {dim}")
    if dim == 1:
        ends = verts[[np.argmin(verts @ (verts[-1] - verts[0])),
                      np.argmax(verts @ (verts[-1] - verts[0]))]]
        d = ends[1] - ends[0]
        length = float(np.linalg.norm(d))
        z = unit(np.cross(w, d))  # in-plane normal perpendicular to the segment
        # normals of the degenerate "polygon": the two in-plane directions
        # orthogonal to the segment carry no ridge mass, so only the endpoint
        # directions appear (each with mass = segment length).
        directions, masses = np.array([z, -z]), np.array([length, length])
        area = 0.0
    else:
        b1, b2 = _plane_basis(w)
        pts2 = np.column_stack([verts @ b1, verts @ b2])
        ch = ConvexHull(pts2)
        cyc = pts2[ch.vertices]  # counterclockwise
        d = np.roll(cyc, -1, axis=0) - cyc
        masses = _row_norms(d)
        n2 = np.column_stack([d[:, 1], -d[:, 0]]) / masses[:, None]  # outward, ccw
        directions, area = n2[:, :1] * b1 + n2[:, 1:] * b2, ch.volume
    j = len(masses)
    graph = MetricGraph(np.array([w, -w]), np.array([area, area]),
                        np.tile([0, 1], (j, 1)), masses,
                        quad.Arcs(np.tile(w, (j, 1)), directions,
                                  np.full(j, np.pi)))
    p = LowerDimProblem(m, dim, graph)
    if p.balance_residual() > 1e-9 * p.total_mass():
        raise NumericalFailure("edge-normal atoms do not balance")
    return p


def sbm_lowerdim(p: LowerDimProblem, f: SupportEvaluator) -> float:
    """int f dS_{B,M} = (1/2) sum_j mass_j int_0^pi f(iota(theta, z_j)) dtheta,
    exact. Equals 3 V(B, K, M) when f = h_K."""
    return quad.integrate_against_measure(f, p.graph.sbm)


def assemble_lowerdim(p: LowerDimProblem, h: float) -> DiscretizedForm:
    """Hat-function Galerkin matrices on the bouquet of half circles, whose
    poles +-w are DOFs 0 and 1, shared by every half circle."""
    return assemble(p.graph, h)


@dataclass(frozen=True)
class ClusterReport:
    k: int
    predicted: float           # (1 - k^2)/3
    expected_multiplicity: int
    observed: tuple[float, ...]


@dataclass(frozen=True)
class LowerSpectrumReport:
    clusters: tuple[ClusterReport, ...]
    worst_deviation: float
    tol: float
    eigen_residual_max: float   # max |E x - lambda M x| over the computed pairs

    @property
    def ok(self) -> bool:
        return self.worst_deviation <= self.tol


def explicit_spectrum(k_max: int, multiplicity: int) -> list[tuple[float, int]]:
    """[(lambda_k, multiplicity)] for k = 0..k_max: (1-k^2)/3 with
    multiplicities 1, m, m, ..."""
    return [((1.0 - k * k) / 3.0, 1 if k == 0 else multiplicity)
            for k in range(k_max + 1)]


def verify_spectrum(p: LowerDimProblem, k_max: int, h: float,
                    tol: float) -> LowerSpectrumReport:
    """Compare the discretized spectrum against the explicit clusters."""
    if k_max < 1:
        raise BadParam(f"need at least the k = 1 cluster, got k_max={k_max}")
    form = assemble_lowerdim(p, h)
    predicted = explicit_spectrum(k_max, p.multiplicity)
    needed = sum(mult for _, mult in predicted)
    if form.size <= needed:
        raise InsufficientSpectrum(
            f"{form.size} DOFs cannot resolve {needed} requested eigenvalues; "
            "decrease the mesh size")
    # ARPACK can return a multiple eigenvalue at the end of the window with
    # a copy missing, so the request covers the whole next cluster too
    spec = spectrum(form, min(needed + p.multiplicity, form.size - 1))
    vals = spec.eigenvalues[:needed]  # descending
    clusters = []
    worst = 0.0
    pos = 0
    for k, (lam, mult) in enumerate(predicted):
        chunk = vals[pos:pos + mult]
        pos += mult
        clusters.append(ClusterReport(k, lam, mult, tuple(float(v) for v in chunk)))
        worst = max(worst, float(np.abs(chunk - lam).max()))
    return LowerSpectrumReport(tuple(clusters), worst, tol,
                               float(spec.residuals[:needed].max()))


# ---------------------------------------------------------------------------
# Equality certification (lower-dimensional M)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerEqualityCertificate:
    deficit_report: DeficitReport
    c: float                   # V(K,L,M)/V(L,L,M)
    sup_residual: float        # sup |h_K + h_{F(cL,w)} - h_{cL} - h_{F(K,w)}|
    verdict: str               # equality | strict | inconclusive
    deficit_threshold: float
    residual_threshold: float
    scale: float
    diameter: float


def certify_equality_lowerdim(k: Polytope, l: Polytope, m: Polytope,
                              w) -> LowerEqualityCertificate:
    """Certify equality through the face criterion: with c = V(K,L,M)/V(L,L,M),
    equality holds iff h_K + h_{F(cL, w)} = h_{cL} + h_{F(K, w)} on supp S_{B,M}."""
    p = lowerdim_setup(m, w)
    dr = quadratic_deficit(k, l, m)
    if dr.v_ll <= 0 or classify_trivial(k, l, m).v_llm_zero:
        raise ZeroDenominator(
            "V(L, L, M) = 0: route through classify_trivial instead")
    c = dr.v_kl / dr.v_ll
    lt = l.scaled(c)
    _, face_lt = support_data(lt, p.w)
    _, face_k = support_data(k, p.w)
    resid = (SupportEvaluator.of(k) + SupportEvaluator.of(face_lt)
             + SupportEvaluator.of(lt, -1.0) + SupportEvaluator.of(face_k, -1.0))
    (r,) = quad.restrict(p.graph.arcs, resid)
    sup_res = sup_on_sbm(r)
    diam = max(k.diameter, abs(c) * l.diameter, 1e-30)
    verdict = _verdict(dr.deficit, dr.scale, sup_res, diam)
    return LowerEqualityCertificate(dr, float(c), sup_res, verdict,
                                    DEFICIT_THRESHOLD, RESIDUAL_THRESHOLD,
                                    dr.scale, diam)


# ---------------------------------------------------------------------------
# Cylinder degeneration: M_eps = M + eps [0, w]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderLimitReport:
    eps: tuple[float, ...]
    full_dim_values: tuple[float, ...]    # int f dS_{B, M_eps} via the graph
    limit_value: float                    # int f dS_{B, M} (lower-dim formula)
    errors: tuple[float, ...]
    ratios: tuple[float, ...]             # decay factors error_i / error_{i+1}


def cylinder_limit_check(p: LowerDimProblem, f: SupportEvaluator,
                         eps_seq: Sequence[float]) -> CylinderLimitReport:
    """Degenerate-cylinder consistency: the full-dimensional graph integral
    over M + eps[0, w] converges at first order in eps to the
    lower-dimensional half-circle formula."""
    if p.dim_m != 2:
        raise DimensionError("cylinder check needs a 2-dimensional base")
    for eps in eps_seq:
        if eps <= 0:
            raise DimensionError(
                "eps must be positive: at eps = 0 the cylinder is degenerate "
                "and has no metric graph")
    limit = sbm_lowerdim(p, f)
    values = []
    for eps in eps_seq:
        cyl = minkowski_sum(p.m, segment(np.zeros(3), eps * p.w))
        values.append(quad.integrate_against_measure(f, build_graph(cyl).sbm))
    errors = [abs(v - limit) for v in values]
    ratios = tuple(errors[i] / errors[i + 1] if errors[i + 1] > 1e-300 else np.inf
                   for i in range(len(errors) - 1))
    return CylinderLimitReport(tuple(float(e) for e in eps_seq),
                               tuple(values), limit,
                               tuple(errors), ratios)
