"""Executable checks for the extremal theory of the Minkowski quadratic
inequality: weak stability with explicit constants, equality-case
certification against the 1-extreme-direction criterion, and the
quantitative rigidity inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import quadrature as quad
from .bodies import Polytope, SupportEvaluator, enclosing_radii, v_llm_zero
from .errors import DegenerateInput, SingularGM, ZeroDenominator
from .graph import MetricGraph, build_graph
from .measures import DeficitReport, mixed_volume_xpp, quadratic_deficit

DEFICIT_THRESHOLD = 1e-9      # relative to max(vKL^2, vKK*vLL)
RESIDUAL_THRESHOLD = 1e-6     # relative to the instance diameter


def deficit_tolerance(scale: float) -> float:
    """The bound below which a deficit, or a margin taken against it, counts
    as zero: DEFICIT_THRESHOLD times the deficit's scale. Every deficit
    verdict reads it."""
    return DEFICIT_THRESHOLD * scale


@dataclass(frozen=True)
class StabilityWitness:
    a: float
    v: np.ndarray
    g_matrix: np.ndarray     # G_M = sum (area/h) n n^T, positive definite
    r: float
    big_r: float
    c_m: float               # r^2 / (18 R^2) for n = 3
    residual: float          # int (h_K - a h_L - <v,.>)^2 dS_{M,M}/h_M


def stability_witness(k: Polytope, l: Polytope, m: Polytope) -> StabilityWitness:
    """Optimal (a, v) for the weighted deficit witness on supp S_{M,M}.

    a = V(K,M,M)/V(L,M,M); v solves the G_M-weighted normal equations, whose
    weights take the offsets about M's origin (mixed volumes are unaffected)."""
    if m.dim < 3:
        raise DegenerateInput("stability witness requires full-dimensional M")
    r, big_r = enclosing_radii(m)
    v_lmm = mixed_volume_xpp(l, m)
    # V(L, M, M) = 0 for full-dimensional M exactly when L is a point
    if v_lmm <= 0 or l.dim == 0:
        raise ZeroDenominator("V(L, M, M) must be positive")
    a = mixed_volume_xpp(k, m) / v_lmm
    normals = m.facets.normals
    weights = m.facets.areas / m.facets.offsets
    g_mat = (normals.T * weights) @ normals
    eigs = np.linalg.eigvalsh(g_mat)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-30):
        raise SingularGM("G_M numerically singular")
    delta = np.asarray(k.support(normals)) - a * np.asarray(l.support(normals))
    v = np.linalg.solve(g_mat, normals.T @ (weights * delta))
    resid = float(np.sum(weights * (delta - normals @ v) ** 2))
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
        return self.margin >= -deficit_tolerance(self.deficit.scale)


def weak_stability_check(k: Polytope, l: Polytope, m: Polytope) -> StabilityReport:
    """V(K,L,M)^2 >= V(K,K,M) V(L,L,M) + C_M V(L,L,M) * residual."""
    w = stability_witness(k, l, m)
    dr = quadratic_deficit(k, l, m)
    rhs = dr.v_kk * dr.v_ll + w.c_m * dr.v_ll * w.residual
    return StabilityReport(dr.v_kl ** 2, rhs, w, dr)


# ---------------------------------------------------------------------------
# Equality certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualityCertificate:
    """The deficit against a residual on supp S_{B,M}: h_K - a h_L - <v,.>
    for full-dimensional M; for M in w^perp the face criterion
    h_K + h_{F(aL,w)} - h_{aL} - h_{F(K,w)}, with v None."""
    deficit_report: DeficitReport
    a: float                 # V(K,L,M)/V(L,L,M)
    v: np.ndarray | None
    sup_residual: float      # sup over supp S_{B,M} of |residual|
    verdict: str             # equality | strict | inconclusive
    diameter: float


def _verdict(deficit: float, scale: float, sup_res: float, diam: float) -> str:
    small = (deficit <= deficit_tolerance(scale)
             and sup_res <= RESIDUAL_THRESHOLD * diam)
    large = (deficit > 10 * deficit_tolerance(scale)
             and sup_res > 10 * RESIDUAL_THRESHOLD * diam)
    if small:
        return "equality"
    if large:
        return "strict"
    return "inconclusive"


def certify(k: Polytope, l: Polytope, m: Polytope,
            residual: Callable[[float], tuple]) -> EqualityCertificate:
    """The verdict step of both certifiers: with a = V(K,L,M)/V(L,L,M),
    residual(a) gives (v, the residual restricted to the arcs of
    supp S_{B,M}); equality holds iff the deficit and the residual's sup
    both vanish."""
    dr = quadratic_deficit(k, l, m)
    if dr.v_ll <= 0 or v_llm_zero(l, m):
        raise ZeroDenominator(
            "V(L, L, M) = 0, so a = V(K,L,M)/V(L,L,M) is undefined")
    a = dr.v_kl / dr.v_ll
    v, resid = residual(a)
    sup_res = sup_on_sbm(resid)
    diam = max(k.diameter, abs(a) * l.diameter, 1e-30)
    return EqualityCertificate(dr, float(a), v, sup_res,
                               _verdict(dr.deficit, dr.scale, sup_res, diam),
                               diam)


def fit_linear_on_sbm(g: MetricGraph, delta: SupportEvaluator
                      ) -> tuple[np.ndarray, quad.ArcRestriction]:
    """Least-squares linear witness v = argmin_v int (delta - <v,.>)^2
    dS_{B,M}, and the residual delta - <v,.> restricted to the arcs.

    On an arc u(t) = a cos t + e sin t the coordinate x_i has the single
    segment coefficients (a_i, e_i), so the normal equations need one
    restriction of delta and the closed-form Gram matrices
    int u u^T = a a^T cc + e e^T ss + (a e^T + e a^T) sc of the arcs. The
    linear term adds no cut, so the residual keeps delta's segments. v is fit
    on delta's local part and its shift added after: the residual never holds it."""
    arcs, w = g.arcs, g.sbm_weights
    # coords[j, i]: the coefficients of x_i on arc j
    coords = np.stack([arcs.starts, arcs.tangents], axis=2)
    a_mat = np.tensordot(w, quad.product_integral(
        coords[:, :, None], coords[:, None], 0.0, arcs.lengths[:, None, None]), 1)
    (r,) = quad.restrict(arcs, SupportEvaluator(delta.terms))
    b_vec = w[r.arc] @ quad.product_integral(r.coef[:, None], coords[r.arc],
                                             r.t0[:, None], r.t1[:, None])
    v = np.linalg.solve(a_mat, b_vec)
    return v + delta.shift, replace(r, coef=r.coef - v @ coords[r.arc])


def sup_on_sbm(resid: quad.ArcRestriction) -> float:
    """Sup of |resid| over quadrature.NODES_PER_SEGMENT nodes of each of its
    segments on the arcs of supp S_{B,M}, endpoints included."""
    t = np.linspace(resid.t0, resid.t1, quad.NODES_PER_SEGMENT, axis=1)
    a, b = resid.coef.T[:, :, None]
    return float(np.abs(a * np.cos(t) + b * np.sin(t)).max(initial=0.0))


def certify_equality_fulldim(k: Polytope, l: Polytope, m: Polytope
                             ) -> EqualityCertificate:
    """Certify or falsify equality: deficit ~ 0 iff h_K - a h_L - <v,.>
    vanishes on supp S_{B,M} (the closure of 1-extreme normal directions)."""
    if m.dim < 3:
        raise DegenerateInput("use the lower-dimensional certifier")
    return certify(k, l, m, lambda a: fit_linear_on_sbm(
        build_graph(m), SupportEvaluator.of(k) + SupportEvaluator.of(l, -a)))


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
        return self.margin >= -deficit_tolerance(self.deficit.scale)


def rigidity_check(k: Polytope, l: Polytope, m: Polytope) -> RigidityReport:
    """V(K,L,M)^2 >= V(K,K,M) V(L,L,M) + V(L,L,M) *
    [ (r^2/(6R^2)) int (h_K-h_L)^2 dS_{B,M} - (4R^2/(3r^2)) int (h_K-h_L)^2 dmu_M ]."""
    if m.dim < 3:
        raise DegenerateInput("rigidity check requires full-dimensional M")
    r, big_r = enclosing_radii(m)
    g = build_graph(m)
    f = SupportEvaluator.of(k) + SupportEvaluator.of(l, -1.0)
    (rf,) = quad.restrict(g.arcs, f)
    sbm_int = sum((g.sbm_weights * rf.pair(rf)[0]).tolist())
    mu_int = float(f(g.normals) ** 2 @ g.mu_masses())
    dr = quadratic_deficit(k, l, m)
    correction = (r * r / (6.0 * big_r * big_r)) * sbm_int \
        - (4.0 * big_r * big_r / (3.0 * r * r)) * mu_int
    rhs = dr.v_kk * dr.v_ll + dr.v_ll * correction
    return RigidityReport(dr.v_kl ** 2, rhs, sbm_int, mu_int, r, big_r, dr)
