"""Mixed volumes and (mixed) area measures of 3-polytopes.

Two independent pipelines: polynomial polarization of hull volumes
(quadrature-free, the primary route) and integration of support functions
against atomic/arc measures on the sphere (the oracle route). Ball slots are
never polarized; they are routed through the measure formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.spatial import ConvexHull

from .bodies import (Ball, Body, Polytope, SupportEvaluator, _row_dots,
                     _row_norms, affine_dim, minkowski_sum, sum_vertices, unit)
from .errors import DegenerateInput
from .graph import build_graph, sbm_and_mu
from .quadrature import SphericalMeasure, integrate_against_measure

ATOM_MERGE_ANGLE = 1e-9   # angular tolerance for merging atoms by direction


def merge_atoms(raw: Sequence[tuple[np.ndarray, float]]
                ) -> list[tuple[np.ndarray, float]]:
    """Sum masses of directions that agree within ATOM_MERGE_ANGLE.

    Greedy in input order: the first unclaimed atom becomes a representative
    and claims every unclaimed atom within the tolerance of it; the claimed
    masses are summed in input order."""
    dirs = np.array([u for u, _ in raw], dtype=float)
    free = np.ones(len(raw), dtype=bool)
    merged = []
    for i in range(len(raw)):
        if free[i]:
            claim = np.flatnonzero(free & (np.linalg.norm(dirs - dirs[i], axis=1)
                                           <= ATOM_MERGE_ANGLE))
            free[claim] = False
            merged.append((dirs[i], sum(raw[j][1] for j in claim)))
    return merged


# ---------------------------------------------------------------------------
# Volumes and polarization
# ---------------------------------------------------------------------------

def _sum_volume(bodies: Sequence[Polytope]) -> float:
    pts = sum_vertices(bodies)
    return float(ConvexHull(pts).volume) if affine_dim(pts) == 3 else 0.0


def mixed_volume(k: Polytope, l: Polytope, m: Polytope) -> float:
    """V(K, L, M) by polarization of hull volumes; symmetric, multilinear."""
    v = (_sum_volume([k, l, m]) - _sum_volume([k, l]) - _sum_volume([k, m])
         - _sum_volume([l, m]) + k.volume + l.volume + m.volume)
    return v / 6.0


# ---------------------------------------------------------------------------
# Area measures
# ---------------------------------------------------------------------------

def area_measure(p: Polytope) -> SphericalMeasure:
    """Surface area measure: one atom (n_F, area_F) per facet."""
    if p.dim < 3:
        raise DegenerateInput(
            "area_measure requires a full-dimensional polytope "
            "(use the lower-dimensional pipeline)")
    return SphericalMeasure(atoms=_facet_atoms(p))


def _facet_atoms(p: Polytope) -> list[tuple[np.ndarray, float]]:
    return list(zip(p.facets.normals, p.facets.areas.tolist()))


def _surface_atoms_any(p: Polytope) -> list[tuple[np.ndarray, float]]:
    """Surface area measure atoms, lower dimensions included (dim 2 gives the
    two-sided planar atoms; dim <= 1 is the zero measure)."""
    if p.dim == 3:
        return _facet_atoms(p)
    if p.dim == 2:
        v = p.vertices
        c = v.mean(axis=0)
        vec = 0.5 * np.sum(np.cross(v - c, np.roll(v, -1, axis=0) - c), axis=0)
        area = float(np.linalg.norm(vec))
        n = unit(vec)
        return [(n, area), (-n, area)]
    return []


def mixed_area_measure(l: Polytope, m: Polytope) -> SphericalMeasure:
    """S_{L,M} = (1/2)[S(L+M) - S(L) - S(M)], merged and verified nonnegative."""
    raw = ([(u, 0.5 * mass) for u, mass in _surface_atoms_any(minkowski_sum(l, m))]
           + [(u, -0.5 * mass) for u, mass in _surface_atoms_any(l)]
           + [(u, -0.5 * mass) for u, mass in _surface_atoms_any(m)])
    merged = merge_atoms(raw)
    out = SphericalMeasure(atoms=[(u, mass) for u, mass in merged])
    out.validate_nonnegative()
    out.atoms = [(u, max(mass, 0.0)) for u, mass in out.atoms if mass > 0.0]
    return out


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


def quadratic_deficit(k: Body, l: Body, m: Polytope) -> DeficitReport:
    """Minkowski quadratic deficit V(K,L,M)^2 - V(K,K,M) V(L,L,M) >= 0."""
    return DeficitReport(mv3(k, l, m), mv3(k, k, m), mv3(l, l, m))


def classical_functionals(k: Polytope) -> tuple[float, float, float]:
    """(Vol, surface area, mean width) = (Vol, 3 V(B,K,K), (3/2pi) V(B,B,K))."""
    ball = Ball(np.zeros(3), 1.0)
    s = 3.0 * mv3(ball, k, k)
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
