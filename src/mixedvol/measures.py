"""Mixed volumes and (mixed) area measures of 3-polytopes.

Two independent pipelines: polynomial polarization of hull volumes
(quadrature-free, the primary route) and integration of support functions
against atomic/arc measures on the sphere (the oracle route). Ball slots are
never polarized; they are routed through the measure formulas. Neither is
needed when two slots hold the same polytope P: V(X, P, P) is a sum over the
facets of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .bodies import (Ball, Body, Polytope, SupportEvaluator, _row_dots,
                     _row_norms, affine_dim, minkowski_sum, unit)
from .errors import DegenerateInput
from .graph import build_graph, sbm_and_mu
from .quadrature import SphericalMeasure, integrate_against_measure

ATOM_MERGE_ANGLE = 1e-9   # angular tolerance for merging atoms by direction


def merge_atoms(directions: np.ndarray, masses: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sum masses of directions that agree within ATOM_MERGE_ANGLE.

    Greedy in input order: the first unclaimed atom becomes a representative
    and claims every unclaimed atom within the tolerance of it; the claimed
    masses are summed in input order. Only the pairs within the tolerance,
    found by a k-d tree, are visited."""
    n = len(directions)
    owner = np.arange(n)
    if n > 1:
        pairs = cKDTree(directions).query_pairs(ATOM_MERGE_ANGLE,
                                                output_type="ndarray")
        # i < j in each pair; visiting them by i, then j, replays the claims
        for i, j in pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].tolist():
            if owner[i] == i and owner[j] == j:
                owner[j] = i
    rep = owner == np.arange(n)
    group = (np.cumsum(rep) - 1)[owner]
    # bincount adds the weights one by one in input order
    return directions[rep], np.bincount(group, masses, int(rep.sum()))


# ---------------------------------------------------------------------------
# Volumes and polarization
# ---------------------------------------------------------------------------

def _hull_volume(pts: np.ndarray, full: bool) -> tuple[float, np.ndarray]:
    """Volume and extreme points of the hull of pts. full says that pts are
    the sums of a Minkowski sum with a full-dimensional summand, so they span
    three dimensions and need no affine_dim test."""
    if full or affine_dim(pts) == 3:
        qh = ConvexHull(pts)
        return float(qh.volume), pts[qh.vertices]
    return 0.0, pts


def _pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] + b[None, :, :]).reshape(-1, 3)


def mixed_volume(k: Polytope, l: Polytope, m: Polytope) -> float:
    """V(K, L, M) by polarization of hull volumes; symmetric, multilinear.

    Each body is centered on its vertex centroid and scaled to unit diameter,
    and the product of the diameters is multiplied back in, so rescaling one
    body costs no digits against the others. The vertices of K+L+M lie among
    vert(K+L) + vert(M), so Qhull gets those sums, not all |K||L||M|."""
    bodies = (k, l, m)
    diams = [p.diameter for p in bodies]
    if min(diams) == 0.0:
        return 0.0    # a point in any slot
    pk, pl, pm = ((p.vertices - p.centroid) / d for p, d in zip(bodies, diams))
    fk, fl, fm = (p.dim == 3 for p in bodies)
    v_kl, vert_kl = _hull_volume(_pair_sums(pk, pl), fk or fl)
    v_klm, _ = _hull_volume(_pair_sums(vert_kl, pm), fk or fl or fm)
    v_km, _ = _hull_volume(_pair_sums(pk, pm), fk or fm)
    v_lm, _ = _hull_volume(_pair_sums(pl, pm), fl or fm)
    v = v_klm - v_kl - v_km - v_lm + sum(p.volume / d ** 3
                                         for p, d in zip(bodies, diams))
    return diams[0] * diams[1] * diams[2] * v / 6.0


# ---------------------------------------------------------------------------
# Area measures
# ---------------------------------------------------------------------------

def area_measure(p: Polytope) -> SphericalMeasure:
    """Surface area measure: one atom (n_F, area_F) per facet."""
    if p.dim < 3:
        raise DegenerateInput(
            "area_measure requires a full-dimensional polytope "
            "(use the lower-dimensional pipeline)")
    return SphericalMeasure(p.facets.normals, p.facets.areas)


def _surface_atoms_any(p: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Directions and masses of the surface area measure's atoms, lower
    dimensions included (dim 2 gives the two-sided planar atoms; dim <= 1 is
    the zero measure)."""
    if p.dim == 3:
        return p.facets.normals, p.facets.areas
    if p.dim == 2:
        v = p.vertices
        c = v.mean(axis=0)
        vec = 0.5 * np.sum(np.cross(v - c, np.roll(v, -1, axis=0) - c), axis=0)
        area = float(np.linalg.norm(vec))
        n = unit(vec)
        return np.array([n, -n]), np.array([area, area])
    return np.zeros((0, 3)), np.zeros(0)


def mixed_area_measure(l: Polytope, m: Polytope) -> SphericalMeasure:
    """S_{L,M} = (1/2)[S(L+M) - S(L) - S(M)], merged and verified nonnegative.

    S_{L,M} is bilinear and translation invariant, so it is taken between L
    and M centered and scaled to unit diameter, and its masses are multiplied
    by d_L d_M: the difference then cancels between masses of one size
    whatever the bodies' sizes. A point in either slot gives the zero
    measure."""
    dl, dm = l.diameter, m.diameter
    if dl == 0.0 or dm == 0.0:
        return SphericalMeasure()
    l, m = l.centered().scaled(1.0 / dl), m.centered().scaled(1.0 / dm)
    parts = [_surface_atoms_any(b) for b in (minkowski_sum(l, m), l, m)]
    raw = np.concatenate([c * a for c, (_, a) in zip((0.5, -0.5, -0.5), parts)])
    dirs, masses = merge_atoms(np.concatenate([u for u, _ in parts]), raw)
    # the masses that cancel, not their small net total, set the rounding
    SphericalMeasure(dirs, masses).validate_nonnegative(sum(np.abs(raw).tolist()))
    keep = masses > 0.0
    return SphericalMeasure(dirs[keep], dl * dm * masses[keep])


# ---------------------------------------------------------------------------
# Mixed volumes with ball slots and the deficit
# ---------------------------------------------------------------------------

def _as_evaluator(body: Union[Body, SupportEvaluator]) -> SupportEvaluator:
    if isinstance(body, SupportEvaluator):
        return body
    return SupportEvaluator.of(body)


def mixed_volume_via_measure(f: Union[Body, SupportEvaluator], l: Body,
                             m: Polytope) -> float:
    """(1/3) int f dS_{L,M}; ball L-slots use the arc measure S_{B,M}."""
    ev = _as_evaluator(f)
    if isinstance(l, Ball):
        sbm, _ = sbm_and_mu(build_graph(m))
        return l.radius * integrate_against_measure(ev, sbm) / 3.0
    return integrate_against_measure(ev, mixed_area_measure(l, m)) / 3.0


def mv3(k: Body, l: Body, m: Polytope) -> float:
    """V(K, L, M) for polytope M, allowing Ball bodies in the K/L slots."""
    kb, lb = isinstance(k, Ball), isinstance(l, Ball)
    if not kb and not lb:
        return mixed_volume(k, l, m)
    if kb and lb:
        sbm, _ = sbm_and_mu(build_graph(m))
        # V(b1, b2, M) = rho1 * rho2 * V(B, B, M) + translation-invariant rest
        vbbm = sbm.total_mass() / 3.0
        return k.radius * l.radius * vbbm
    ball, poly = (k, l) if kb else (l, k)
    slm = mixed_area_measure(poly, m)
    # h_ball integrates to rho * mass (the <center, u> part vanishes by balance)
    return integrate_against_measure(_as_evaluator(ball), slm) / 3.0


@dataclass(frozen=True)
class DeficitReport:
    v_kl: float
    v_kk: float
    v_ll: float

    @property
    def deficit(self) -> float:
        return self.v_kl ** 2 - self.v_kk * self.v_ll

    @property
    def scale(self) -> float:
        return max(self.v_kl ** 2, self.v_kk * self.v_ll, 1e-300)


def mixed_volume_xpp(x: Body, p: Polytope) -> float:
    """V(X, P, P) = (1/3) sum h_X(u) mass over the atoms of the surface area
    measure S_P: the facets of a full-dimensional P, the two sides of a planar
    P, none for dim P <= 1. X may be a Ball. This is V(P, P, X) too, so it
    gives V(K, K, M) = (1/3) sum_F h_M(u_F) |F| without polarization."""
    dirs, masses = _surface_atoms_any(p)
    return float(x.support(dirs) @ masses) / 3.0


def _v_xxm(x: Body, m: Polytope) -> float:
    """V(X, X, M): a facet sum over X, or the arc measure for a ball X."""
    return mv3(x, x, m) if isinstance(x, Ball) else mixed_volume_xpp(m, x)


def quadratic_deficit(k: Body, l: Body, m: Polytope) -> DeficitReport:
    """Minkowski quadratic deficit V(K,L,M)^2 - V(K,K,M) V(L,L,M) >= 0.

    Only V(K,L,M) is polarized; V(K,K,M) and V(L,L,M) are facet sums."""
    return DeficitReport(mv3(k, l, m), _v_xxm(k, m), _v_xxm(l, m))


def classical_functionals(k: Polytope) -> tuple[float, float, float]:
    """(Vol, surface area, mean width) = (Vol, 3 V(B,K,K), (3/2pi) V(B,B,K)).

    The surface area 3 V(B,K,K) is the total mass of S_K."""
    ball = Ball(np.zeros(3), 1.0)
    s = sum(_surface_atoms_any(k)[1].tolist())
    w = (3.0 / (2.0 * np.pi)) * mv3(ball, ball, k)
    return k.volume, s, w


# ---------------------------------------------------------------------------
# Independent oracle for V(B, B, M): normal-cone integration of h_M over S^2
# ---------------------------------------------------------------------------

def _facet_cycle(pairs: list[list[int]]) -> list[int]:
    """The facets around a vertex in cyclic order, from the lowest, given
    the facet pairs of the vertex's edges in edge order."""
    adj: dict[int, list[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = min(adj)
    cycle = [start]
    prev, cur = None, start
    while True:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            return cycle
        cycle.append(nxt)
        prev, cur = cur, nxt


def vbbm_conewise(m: Polytope) -> float:
    """V(B, B, M) = (1/3) int h_M dsigma, by exact per-vertex normal-cone
    integration of the sphere. Shares no code with the metric-graph route.

    Over the spherical polygon of the facet normals around a vertex,
    int u dsigma is half the sum over its sides (a, b) of angle(a, b) times
    the side plane's unit normal, oriented toward the polygon."""
    if m.dim < 3:
        raise DegenerateInput("normal-cone oracle requires a full-dimensional polytope")
    nv = len(m.vertices)
    # each vertex's edges, in edge order
    ends = m.edges.vertices.ravel()
    pairs = m.edges.facets[np.argsort(ends, kind="stable") // 2].tolist()
    stops = np.cumsum(np.bincount(ends, minlength=nv)).tolist()
    cycles = [_facet_cycle(pairs[lo:hi]) for lo, hi in zip([0] + stops, stops)]
    # the sides of all cones, vertex by vertex
    owner = np.repeat(np.arange(nv), [len(c) for c in cycles])
    a = m.facets.normals[np.concatenate(cycles)]
    b = m.facets.normals[np.concatenate([c[1:] + c[:1] for c in cycles])]
    theta = np.arccos(np.clip(_row_dots(a, b), -1.0, 1.0))
    axis = np.cross(a, b)
    nrm = _row_norms(axis)
    side = nrm > 1e-14
    s = np.zeros((nv, 3))
    np.add.at(s, owner[side], theta[side, None] * axis[side] / nrm[side, None])
    s *= 0.5
    mean_n = np.zeros((nv, 3))
    np.add.at(mean_n, owner, a)
    mean_n /= np.bincount(owner, minlength=nv)[:, None]
    s[_row_dots(s, mean_n) < 0] *= -1.0
    return sum(_row_dots(m.vertices, s).tolist()) / 3.0
