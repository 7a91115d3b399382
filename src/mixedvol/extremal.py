"""Executable checks for the extremal theory of the Minkowski quadratic
inequality: weak stability with explicit constants, equality-case
certification against the 1-extreme-direction criterion, and the
quantitative rigidity inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .bodies import (Ball, Body, Polytope, SupportEvaluator, classify_trivial,
                     enclosing_radii)
from .errors import DegenerateInput, SingularGM, ZeroDenominator
from .graph import MetricGraph, build_graph, sbm_and_mu
from .measures import DeficitReport, mixed_volume_xpp, quadratic_deficit

DEFICIT_THRESHOLD = 1e-9      # relative to max(vKL^2, vKK*vLL)
RESIDUAL_THRESHOLD = 1e-6     # relative to the instance diameter


def _diameter(body: Body) -> float:
    if isinstance(body, Ball):
        return 2.0 * body.radius
    return body.diameter


@dataclass(frozen=True)
class StabilityWitness:
    a: float
    v: np.ndarray
    g_matrix: np.ndarray     # G_M = sum (area/h) n n^T, positive definite
    r: float
    big_r: float
    c_m: float               # r^2 / (18 R^2) for n = 3
    residual: float          # int (h_K - a h_L - <v,.>)^2 dS_{M,M}/h_M


def stability_witness(k: Body, l: Body, m: Polytope) -> StabilityWitness:
    """Optimal (a, v) for the weighted deficit witness on supp S_{M,M}.

    a = V(K,M,M)/V(L,M,M); v solves the G_M-weighted normal equations. M is
    re-centered on its vertex centroid (mixed volumes are unaffected)."""
    if m.dim < 3:
        raise DegenerateInput("stability witness requires full-dimensional M")
    mc = m.centered()
    v_lmm = mixed_volume_xpp(l, m)
    # V(L, M, M) = 0 for full-dimensional M exactly when L is a point
    l_is_point = not isinstance(l, Ball) and l.dim == 0
    if v_lmm <= 0 or l_is_point:
        raise ZeroDenominator("V(L, M, M) must be positive")
    a = mixed_volume_xpp(k, m) / v_lmm
    normals = mc.facets.normals
    weights = mc.facets.areas / mc.facets.offsets
    g_mat = (normals.T * weights) @ normals
    eigs = np.linalg.eigvalsh(g_mat)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-30):
        raise SingularGM("G_M numerically singular")
    delta = np.asarray(k.support(normals)) - a * np.asarray(l.support(normals))
    v = np.linalg.solve(g_mat, normals.T @ (weights * delta))
    resid = float(np.sum(weights * (delta - normals @ v) ** 2))
    r, big_r = enclosing_radii(m)
    c_m = r * r / (18.0 * big_r * big_r)
    return StabilityWitness(float(a), v, g_mat, r, big_r, c_m, resid)


@dataclass(frozen=True)
class StabilityReport:
    lhs: float                # V(K,L,M)^2
    rhs: float                # V(K,K,M) V(L,L,M) + C_M V(L,L,M) residual
    witness: StabilityWitness
    deficit: DeficitReport

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.margin >= -1e-9 * self.deficit.scale


def weak_stability_check(k: Body, l: Body, m: Polytope) -> StabilityReport:
    """V(K,L,M)^2 >= V(K,K,M) V(L,L,M) + C_M V(L,L,M) * residual."""
    w = stability_witness(k, l, m)
    dr = quadratic_deficit(k, l, m)
    rhs = dr.v_kk * dr.v_ll + w.c_m * dr.v_ll * w.residual
    return StabilityReport(dr.v_kl ** 2, rhs, w, dr)


# ---------------------------------------------------------------------------
# Equality certification (full-dimensional M)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualityCertificate:
    deficit_report: DeficitReport
    a: float
    v: np.ndarray
    sup_residual: float      # sup over supp S_{B,M} of |h_K - a h_L - <v,.>|
    verdict: str             # equality | strict | inconclusive
    deficit_threshold: float
    residual_threshold: float
    scale: float
    diameter: float


def _verdict(deficit: float, scale: float, sup_res: float, diam: float) -> str:
    small = (deficit <= DEFICIT_THRESHOLD * scale
             and sup_res <= RESIDUAL_THRESHOLD * diam)
    large = (deficit > 10 * DEFICIT_THRESHOLD * scale
             and sup_res > 10 * RESIDUAL_THRESHOLD * diam)
    if small:
        return "equality"
    if large:
        return "strict"
    return "inconclusive"


def fit_linear_on_sbm(g: MetricGraph, delta: SupportEvaluator) -> np.ndarray:
    """Least-squares linear witness: argmin_v int (delta - <v,.>)^2 dS_{B,M}.

    On an arc u(t) = a cos t + e sin t the coordinate x_i has the single
    segment coefficients (a_i, e_i, 0), so the normal equations need one
    restriction of delta and the closed-form Gram matrices
    int u u^T = a a^T cc + e e^T ss + (a e^T + e a^T) sc of the arcs."""
    sbm, _ = sbm_and_mu(g)
    arcs, w = sbm.arcs, sbm.weights
    # coords[j, i]: the coefficients of x_i on arc j
    coords = np.stack([arcs.starts, arcs.tangents, np.zeros_like(arcs.starts)],
                      axis=2)
    a_mat = np.tensordot(w, quad.product_integral(
        coords[:, :, None], coords[:, None], 0.0, arcs.lengths[:, None, None]), 1)
    (r,) = quad.restrict(arcs, delta)
    b_vec = w[r.arc] @ quad.product_integral(r.coef[:, None], coords[r.arc],
                                             r.t0[:, None], r.t1[:, None])
    return np.linalg.solve(a_mat, b_vec)


def sup_on_sbm(g: MetricGraph, f: SupportEvaluator) -> float:
    """Sup of |f| over quadrature nodes of the arcs of supp S_{B,M}."""
    return quad.sup_on_arcs(f, g.arcs)


def certify_equality_fulldim(k: Body, l: Body, m: Polytope) -> EqualityCertificate:
    """Certify or falsify equality: deficit ~ 0 iff h_K - a h_L - <v,.>
    vanishes on supp S_{B,M} (the closure of 1-extreme normal directions)."""
    if m.dim < 3:
        raise DegenerateInput("use the lower-dimensional certifier")
    dr = quadratic_deficit(k, l, m)
    if dr.v_ll <= 0 or classify_trivial(k, l, m).v_llm_zero:
        raise ZeroDenominator(
            "V(L, L, M) = 0: route through classify_trivial instead")
    a = dr.v_kl / dr.v_ll
    g = build_graph(m)
    delta = SupportEvaluator.of(k) + SupportEvaluator.of(l, -a)
    v = fit_linear_on_sbm(g, delta)
    resid = delta + SupportEvaluator.linear(-v)
    sup_res = sup_on_sbm(g, resid)
    diam = max(_diameter(k), abs(a) * _diameter(l), 1e-30)
    verdict = _verdict(dr.deficit, dr.scale, sup_res, diam)
    return EqualityCertificate(dr, float(a), v, sup_res, verdict,
                               DEFICIT_THRESHOLD, RESIDUAL_THRESHOLD,
                               dr.scale, diam)


# ---------------------------------------------------------------------------
# Quantitative rigidity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    lhs: float               # V(K,L,M)^2
    rhs: float               # base + V(L,L,M)*(sbm term - mu term)
    sbm_integral: float      # int (h_K - h_L)^2 dS_{B,M}
    mu_integral: float       # int (h_K - h_L)^2 dmu_M
    r: float
    big_r: float
    deficit: DeficitReport

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.margin >= -1e-9 * self.deficit.scale


def rigidity_check(k: Body, l: Body, m: Polytope) -> RigidityReport:
    """V(K,L,M)^2 >= V(K,K,M) V(L,L,M) + V(L,L,M) *
    [ (r^2/(6R^2)) int (h_K-h_L)^2 dS_{B,M} - (4R^2/(3r^2)) int (h_K-h_L)^2 dmu_M ]."""
    if m.dim < 3:
        raise DegenerateInput("rigidity check requires full-dimensional M")
    mc = m.centered()
    r, big_r = enclosing_radii(mc)
    g = build_graph(mc)
    sbm, mu = sbm_and_mu(g)
    f = SupportEvaluator.of(k) + SupportEvaluator.of(l, -1.0)
    (rf,) = quad.restrict(sbm.arcs, f)
    sbm_int = sum((sbm.weights * rf.pair(rf)[0]).tolist())
    mu_int = float(f(mu.directions) ** 2 @ mu.masses)
    dr = quadratic_deficit(k, l, m)
    correction = (r * r / (6.0 * big_r * big_r)) * sbm_int \
        - (4.0 * big_r * big_r / (3.0 * r * r)) * mu_int
    rhs = dr.v_kk * dr.v_ll + dr.v_ll * correction
    return RigidityReport(dr.v_kl ** 2, rhs, sbm_int, mu_int, r, big_r, dr)
