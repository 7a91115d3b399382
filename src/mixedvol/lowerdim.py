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
of its sides, a segment's two in-plane normals with its length each.
Equality is certified by extremal.certify, the verdict step that both
certifiers share, with the face criterion as the residual. The spectrum is
fully explicit: lambda_k = (1 - k^2)/3 with multiplicities 1, m, m, ...
where m is the number of support atoms, the graph's edges. So is the
spectrum of its P1 discretization: every half circle carries the same
uniform chain, so the eigenpairs of the assembled pencil are those of the
chain, cos(kt) on every edge and the weighted combinations of sin(kt) that
meet the Kirchhoff conditions at the poles (the quantum-graph reduction of
Berkolaiko and Kuchment, Introduction to Quantum Graphs, 2013, section 3,
on the discrete chain). verify_spectrum builds them in closed form, with no
eigensolver, and certifies each pair by its residual on the assembled
matrices; its eigen_residual_max is the largest of those residuals.
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
from .graph import (STRUCTURAL_TOL, DiscretizedForm, MetricGraph, assemble,
                    p1_window)

HYPERPLANE_TOL = 1e-9
# verify_spectrum's bound on a residual, in units of rounding (eps) in the
# size of the terms it sums, per unit of k_max: the closed-form vectors are
# read at arguments k t up to k_max pi, whose rounding grows with them. The
# largest ratio measured is 1.5 at k_max <= 3 and 0.41 k_max at k_max = 200.
RESIDUAL_ULPS = 64


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
        # the segment as a degenerate polygon: its two sides have the
        # in-plane normals +-z, each with mass the segment's length
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
    if g.vertex_balance_residuals().max() > STRUCTURAL_TOL * g.total_weight():
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


def _bouquet_pairs(weights: np.ndarray, c: int,
                   k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The top 1 + k_max j eigenpairs (lambda, X) of the P1 pencil that
    assemble builds on a bouquet of j half circles of weights w, each cut
    into c elements of length h_e = pi/c; descending, one column of X per
    pair, not yet M-normalized.

    The chains are alike, so on each of them the pencil is the uniform P1
    chain, whose eigenvalues are lambda_k = (1 - mu_k)/3 with
    mu_k = 12 s^2 / (h_e^2 (3 - 2 s^2)), s = sin(k h_e / 2) (1 - cos as
    2 sin^2, so no cancellation at small k h_e). Cluster 0 is the constants.
    Cluster k >= 1 is cos(kt) on every edge, pole values 1 and (-1)^k, and
    the j - 1 vectors alpha_e sin(kt), which vanish at the poles and meet
    the Kirchhoff conditions there when sum_e w_e alpha_e = 0; the alpha are
    w-orthonormal, from one j x j QR. These 2 + j(c - 1) pairs are all of
    the pencil's, so each cluster's multiplicity is exact."""
    j = len(weights)
    he = np.pi / c
    k = np.arange(1, k_max + 1)
    s2 = np.sin(k * he / 2) ** 2
    mu = 12 * s2 / (he * he * (3 - 2 * s2))
    lam = np.concatenate([[1 / 3], np.repeat((1 - mu) / 3, j)])
    root = np.sqrt(weights)
    q, _ = np.linalg.qr(np.column_stack([root, np.eye(j)[:, :-1]]))
    alpha = q[:, 1:] / root[:, None]                    # (j, j - 1)
    # interior node n = 1..c-1 of edge e is DOF 2 + e (c - 1) + n - 1, at
    # t = n h_e from +w; cluster k's columns are its cos, then its sins
    kt = np.outer(k, he * np.arange(1, c))[None, :, :, None]  # (1, k_max, c-1, 1)
    interior = np.concatenate(
        [np.broadcast_to(np.cos(kt), (j, k_max, c - 1, 1)),
         alpha[:, None, None, :] * np.sin(kt)], axis=3)
    x = np.ones((2 + j * (c - 1), len(lam)))
    x[2:, 1:] = interior.transpose(0, 2, 1, 3).reshape(j * (c - 1), -1)
    x[:2, 1:] = 0.0
    x[0, 1::j], x[1, 1::j] = 1.0, (-1.0) ** k
    return lam, x


def verify_spectrum(g: MetricGraph, k_max: int, h: float,
                    tol: float | None = None) -> LowerSpectrumReport:
    """Compare the discretized spectrum against the explicit clusters.

    The discrete spectrum is explicit as well (_bouquet_pairs), so no
    eigensolver runs: the 1 + k_max j pairs are M-normalized and each is
    certified on the assembled (E, M), its residual |E x - lambda M x| at
    most RESIDUAL_ULPS k_max units of rounding in the size of the terms it
    sums, |(|E| + |lambda| |M|) |x||. eigen_residual_max is the largest of
    these residuals. tol defaults to p1_window(k_max, form.max_element), the P1
    window at the longest element assembled. Raises BadParam for a graph
    that is not a bouquet of half circles laid out as lowerdim_setup and
    assemble lay it out, and NumericalFailure when a residual exceeds its
    bound."""
    if k_max < 1:
        raise BadParam(f"need at least the k = 1 cluster, got k_max={k_max}")
    form = assemble_lowerdim(g, h)
    if tol is None:
        tol = p1_window(k_max, form.max_element)
    j = len(g.edges)
    c = round(np.pi / form.max_element)
    if not (np.all(g.edges == [0, 1]) and np.all(g.arcs.lengths == np.pi)
            and form.size == 2 + j * (c - 1)):
        raise BadParam("the graph is not a bouquet of half circles of "
                       "length pi between the poles +-w")
    needed = 1 + k_max * j
    if form.size <= needed:
        raise InsufficientSpectrum(
            f"{form.size} DOFs cannot resolve {needed} requested eigenvalues; "
            "decrease the mesh size")
    vals, x = _bouquet_pairs(g.weights, c, k_max)
    e, m = form.e_matrix, form.mass
    mx = m @ x
    norms = np.sqrt(np.einsum("ij,ij->j", x, mx))
    x, mx = x / norms, mx / norms
    residuals = np.linalg.norm(e @ x - mx * vals, axis=0)
    ax = np.abs(x)
    sizes = np.linalg.norm(abs(e) @ ax + abs(m) @ ax * np.abs(vals), axis=0)
    if np.any(residuals > RESIDUAL_ULPS * k_max * np.finfo(float).eps * sizes):
        raise NumericalFailure(
            "the bouquet's closed-form eigenpairs do not solve the assembled "
            f"pencil: residual {residuals.max():g}")
    # cluster 0 is the constants, cluster k >= 1 its j pairs at (1 - k^2)/3
    clusters = []
    worst = 0.0
    for k, chunk in enumerate([vals[:1]] + np.split(vals[1:], k_max)):
        lam = (1.0 - k * k) / 3.0
        clusters.append(ClusterReport(k, lam, tuple(float(v) for v in chunk)))
        worst = max(worst, float(np.abs(chunk - lam).max()))
    return LowerSpectrumReport(tuple(clusters), worst, tol,
                               float(residuals.max()))


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

