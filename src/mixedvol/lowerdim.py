"""The lower-dimensional pipeline: M contained in a hyperplane w^perp.

When M has dimension 1 or 2 inside w^perp, the measure S_{B,M} concentrates
on the half great circles theta -> iota(theta, z) = w cos(theta) + z sin(theta)
over the directions z in the support of the (lower-dimensional) surface
measure of M inside w^perp. lowerdim_setup returns these half circles, with
shared poles at +-w, as a plain graph.MetricGraph, the degenerate metric
graph of M, so the Galerkin assembly, S_{B,M} (its arcs with weights
sbm_weights) and the residual's sup scan are those of the full-dimensional
pipeline. Their directions and masses are read off M's own tables: a
polygon's outward edge normals (its fan) with its edge lengths and the area
of its sides, a segment's two vertices. Equality is certified by
extremal.certify, the verdict step that both certifiers share, with the
face criterion as the residual. The spectrum is fully explicit:
lambda_k = (1 - k^2)/3 with multiplicities 1, m, m, ... where m is the
number of support atoms, the graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .bodies import (Polytope, SupportEvaluator, _row_dots, _row_norms,
                     as_unit_vector, unit)
from .errors import (BadParam, DimensionError, InsufficientSpectrum,
                     NumericalFailure)
from .extremal import EqualityCertificate, certify
from .graph import DiscretizedForm, MetricGraph, assemble, spectrum

HYPERPLANE_TOL = 1e-9


def lowerdim_setup(m: Polytope, w) -> MetricGraph:
    """Validate M - M in w^perp, dim M in {1, 2}, and build the bouquet of
    half circles: vertices +-w (DOFs 0 and 1 of its assembly, of mass the
    polygon's area, 0 for a segment) and, per atom of M's surface measure
    inside the plane, the half circle theta -> w cos(theta) + z sin(theta)
    of weight its mass (for a polygon, its outward edge normals in edge
    order with the edge lengths; for a segment, the two directions normal
    to it, each with its length)."""
    w = as_unit_vector(w)
    # the spread of the heights, to within HYPERPLANE_TOL times M's diameter
    # plus the rounding of the coordinates along w, as in Polytope.face
    tol = (HYPERPLANE_TOL * m.diameter
           + 4 * np.finfo(float).eps * (np.abs(m.vertices) @ np.abs(w)).max())
    if np.ptp(m.local @ w) > tol:
        raise DimensionError("M is not contained in a translate of w^perp")
    if m.dim not in (1, 2):
        raise DimensionError(
            f"lower-dimensional pipeline needs dim M in {{1, 2}}, got {m.dim}")
    if m.dim == 1:
        d = m.local[1] - m.local[0]
        length = float(np.linalg.norm(d))
        z = unit(np.cross(w, d))  # in-plane normal perpendicular to the segment
        # normals of the degenerate "polygon": the two in-plane directions
        # orthogonal to the segment carry no ridge mass, so only the endpoint
        # directions appear (each with mass = segment length).
        directions, masses = np.array([z, -z]), np.array([length, length])
        area = 0.0
    else:
        # the outward edge normals, taken into w^perp: M's own plane may
        # tilt from it within the containment tolerance above
        out = m.fan[:len(m.edges), 1]
        out = out - _row_dots(out, w)[:, None] * w
        directions = out / _row_norms(out)[:, None]
        masses, area = m.edges.lengths, m.facets.areas[0]
    j = len(masses)
    g = MetricGraph(np.array([w, -w]), np.array([area, area]),
                    np.tile([0, 1], (j, 1)), masses,
                    quad.Arcs(np.tile(w, (j, 1)), directions,
                              np.full(j, np.pi)))
    if g.vertex_balance_residuals().max() > 1e-9 * g.total_weight():
        raise NumericalFailure("edge-normal atoms do not balance")
    return g


def assemble_lowerdim(g: MetricGraph, h: float) -> DiscretizedForm:
    """Hat-function Galerkin matrices on the bouquet of half circles, whose
    poles +-w are DOFs 0 and 1, shared by every half circle."""
    return assemble(g, h)


@dataclass(frozen=True)
class ClusterReport:
    k: int
    predicted: float           # (1 - k^2)/3
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


def verify_spectrum(g: MetricGraph, k_max: int, h: float,
                    tol: float) -> LowerSpectrumReport:
    """Compare the discretized spectrum against the explicit clusters."""
    if k_max < 1:
        raise BadParam(f"need at least the k = 1 cluster, got k_max={k_max}")
    form = assemble_lowerdim(g, h)
    multiplicity = len(g.edges)
    predicted = explicit_spectrum(k_max, multiplicity)
    needed = sum(mult for _, mult in predicted)
    if form.size <= needed:
        raise InsufficientSpectrum(
            f"{form.size} DOFs cannot resolve {needed} requested eigenvalues; "
            "decrease the mesh size")
    # ARPACK can return a multiple eigenvalue at the end of the window with
    # a copy missing, so the request covers the whole next cluster too
    spec = spectrum(form, min(needed + multiplicity, form.size - 1))
    vals = spec.eigenvalues[:needed]  # descending
    clusters = []
    worst = 0.0
    pos = 0
    for k, (lam, mult) in enumerate(predicted):
        chunk = vals[pos:pos + mult]
        pos += mult
        clusters.append(ClusterReport(k, lam, tuple(float(v) for v in chunk)))
        worst = max(worst, float(np.abs(chunk - lam).max()))
    return LowerSpectrumReport(tuple(clusters), worst, tol,
                               float(spec.residuals[:needed].max()))


# ---------------------------------------------------------------------------
# Equality certification (lower-dimensional M)
# ---------------------------------------------------------------------------

def certify_equality_lowerdim(k: Polytope, l: Polytope, m: Polytope,
                              w) -> EqualityCertificate:
    """Certify equality through the face criterion: with a = V(K,L,M)/V(L,L,M),
    equality holds iff h_K + h_{F(aL, w)} = h_{aL} + h_{F(K, w)} on supp S_{B,M}.
    Each face keeps its body's frame, so the residual holds local parts only."""
    g = lowerdim_setup(m, w)
    w = g.normals[0]

    def face_residual(a):
        lt = l.scaled(a)
        # a face keeps its body's origin, so the shifts of each body and its
        # face cancel exactly, pair by pair, and only local parts remain
        resid = (SupportEvaluator.of(k) + SupportEvaluator.of(k.face(w), -1.0)
                 + SupportEvaluator.of(lt.face(w))
                 + SupportEvaluator.of(lt, -1.0))
        (r,) = quad.restrict(g.arcs, resid)
        return None, r

    return certify(k, l, m, face_residual)

