"""Mixed volumes and (mixed) area measures of 3-polytopes.

Both routes to V(K, L, M) integrate a support function against the mixed
area measure S_{A,B} = (1/2)[S(A+B) - S(A) - S(B)] (Schneider, Convex
Bodies, 5.1). The primary route, mixed_volume, sums h_X over the raw Qhull
triangles of hull(A+B), with X the body with the most vertices, and
subtracts the facet sums of A and B: one Qhull call, no facet merge, no
quadrature; mv3 is its name on the command paths. The oracle route,
mixed_volume_via_measure, sums h_K in the slot it is given over the atoms
of S_{L,M}, built from merged hulls (bodies.hull), merged atoms and a check
that no atom is negative; nothing else reaches mixed_area_measure. The two
routes share that identity and nothing else: they differ in the hull (raw
triangles against merged facets), in the atoms and, in general, in the slot
that holds the support function. The all-sums polarization of hull volumes
in the tests is independent of both. No hull is needed when two slots hold
the same polytope P: V(X, P, P) is a sum over the facets of P. Every route
reads the surface area measure S_P off P's facet table, in every dimension:
one atom per facet of a 3-polytope, the two sides of a polygon, none for a
segment or a point. The unit ball B enters only through the arc measure
S_{B,M} of M's metric graph, whose mass is 3 V(B, B, M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .bodies import (Polytope, SupportEvaluator, _pair_sums, _row_dots,
                     _row_norms, _sum_dim, _triangle_areas, hull)
from .errors import DegenerateInput, MixedVolError
from .graph import build_graph

ATOM_MERGE_ANGLE = 1e-9   # angular tolerance for merging atoms by direction
# a mass below -NEGATIVE_MASS_TOL times the gross mass it was computed from
# is negative
NEGATIVE_MASS_TOL = 1e-9


class NegativeMass(MixedVolError):
    """A measure that must be nonnegative has a significantly negative atom."""


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

def _support_sum(x: np.ndarray, dirs: np.ndarray, masses: np.ndarray) -> float:
    """sum over the atoms (u, mass) of h_X(u) mass, X the rows of a vertex
    array."""
    return float(np.max(dirs @ x.T, axis=1) @ masses)


def mixed_volume(k: Polytope, l: Polytope, m: Polytope) -> float:
    """V(K, L, M) by one Qhull call and facet sums; symmetric, multilinear.

    V(X, A, B) = (1/3) int h_X dS_{A,B} with S_{A,B} = (1/2)[S(A+B) - S(A)
    - S(B)] (Schneider, Convex Bodies, 5.1), so

        6 V = sum_{T in A+B} h_X(n_T) |T| - sum_{F in A} h_X(u_F) |F|
              - sum_{F in B} h_X(u_F) |F|.

    V is symmetric, so X is the body with the most vertices (the first in
    slot order on a tie), and Qhull runs once, on the vertex sums of the
    other two. The integral is linear in the measure, so the triangles of
    hull(A+B) enter as they are, with no facet merge. Each body is taken in
    its own frame (its local rows) and scaled to unit max-abs, and the
    product of the scales is multiplied back in, so rescaling one body costs
    no digits against the others. A flat K+L+M gives exactly 0. A flat A+B
    enters through its facet table: its two sides, or none."""
    bodies = (k, l, m)
    if _sum_dim(bodies) < 3:
        return 0.0
    scales = [float(np.abs(b.local).max()) for b in bodies]
    if min(scales) == 0.0:
        return 0.0    # a point in any slot
    pts = [b.local / s for b, s in zip(bodies, scales)]
    i = max(range(3), key=lambda j: len(pts[j]))
    ia, ib = (j for j in range(3) if j != i)
    x, sums = pts[i], _pair_sums(pts[ia], pts[ib])
    if _sum_dim((bodies[ia], bodies[ib])) == 3:
        # one atom (n_T, |T|) per Qhull triangle, coplanar ones unmerged
        qh = ConvexHull(sums)
        v = _support_sum(x, qh.equations[:, :3],
                         _triangle_areas(sums, qh.simplices))
    else:
        f = hull(sums).facets
        v = _support_sum(x, f.normals, f.areas)
    for j in (ia, ib):
        f = bodies[j].facets
        v -= _support_sum(x, f.normals, f.areas) / scales[j] ** 2
    return scales[0] * scales[1] * scales[2] * v / 6.0


# ---------------------------------------------------------------------------
# Area measures
# ---------------------------------------------------------------------------

def mixed_area_measure(l: Polytope, m: Polytope
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(directions, masses): the atoms of S_{L,M} = (1/2)[S(L+M) - S(L) -
    S(M)], merged, with NegativeMass raised for an atom below
    -NEGATIVE_MASS_TOL times the gross mass.

    S_{L,M} is bilinear and translation invariant, so it is taken between
    the local rows of L and M scaled to unit diameter, and its masses are
    multiplied by d_L d_M: the difference then cancels between masses of one
    size whatever the bodies' sizes and positions. A point in either slot
    gives the zero measure."""
    dl, dm = l.diameter, m.diameter
    if dl == 0.0 or dm == 0.0:
        return np.zeros((0, 3)), np.zeros(0)
    l, m = l.scaled(1.0 / dl), m.scaled(1.0 / dm)
    parts = [b.facets for b in (hull(_pair_sums(l.local, m.local)), l, m)]
    raw = np.concatenate([c * f.areas for c, f in zip((0.5, -0.5, -0.5), parts)])
    dirs, masses = merge_atoms(np.concatenate([f.normals for f in parts]), raw)
    # the masses that cancel, not their small net total, set the rounding
    floor = -NEGATIVE_MASS_TOL * max(sum(np.abs(raw).tolist()), 1e-30)
    if len(masses) and masses.min() < floor:
        raise NegativeMass(f"atom mass {masses.min():g} below {floor:g}")
    keep = masses > 0.0
    return dirs[keep], dl * dm * masses[keep]


# ---------------------------------------------------------------------------
# The oracle route and the deficit
# ---------------------------------------------------------------------------

def mixed_volume_via_measure(k: Polytope, l: Polytope, m: Polytope) -> float:
    """(1/3) int h_K dS_{L,M}, a sum over the atoms of S_{L,M}."""
    dirs, masses = mixed_area_measure(l, m)
    return float(SupportEvaluator.of(k)(dirs) @ masses) / 3.0


def mv3(k: Polytope, l: Polytope, m: Polytope) -> float:
    """V(K, L, M): mixed_volume, under the name the command paths call."""
    return mixed_volume(k, l, m)


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


def mixed_volume_xpp(x: Polytope, p: Polytope) -> float:
    """V(X, P, P) = (1/3) sum h_X(u) mass over the atoms of the surface area
    measure S_P: the facets of a full-dimensional P, the two sides of a planar
    P, none for dim P <= 1. This is V(P, P, X) too, so it gives V(K, K, M) =
    (1/3) sum_F h_M(u_F) |F| without polarization.

    X is taken in its own frame (its local rows): the linear part <o, u>
    integrates to 0 over the balanced S_P, and summed as it sits it cancels
    only to about eps |o| S(P)."""
    return _support_sum(x.local, p.facets.normals, p.facets.areas) / 3.0


def quadratic_deficit(k: Polytope, l: Polytope, m: Polytope) -> DeficitReport:
    """Minkowski quadratic deficit V(K,L,M)^2 - V(K,K,M) V(L,L,M) >= 0.

    Only V(K,L,M) is polarized; V(K,K,M) and V(L,L,M) are facet sums."""
    return DeficitReport(mv3(k, l, m), mixed_volume_xpp(m, k),
                         mixed_volume_xpp(m, l))


def classical_functionals(k: Polytope) -> tuple[float, float, float]:
    """(Vol, surface area, mean width) = (Vol, 3 V(B,K,K), (3/2pi) V(B,B,K)).

    The surface area 3 V(B,K,K) is the total mass of S_K, and V(B,B,K) a
    third of the mass of the arc measure S_{B,K}."""
    s = sum(k.facets.areas.tolist())
    w = (3.0 / (2.0 * np.pi)) * (build_graph(k).sbm_mass() / 3.0)
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
    axis = np.cross(a, b)
    nrm = _row_norms(axis)
    theta = np.arctan2(nrm, _row_dots(a, b))
    side = nrm > 1e-14
    s = np.zeros((nv, 3))
    np.add.at(s, owner[side], theta[side, None] * axis[side] / nrm[side, None])
    s *= 0.5
    mean_n = np.zeros((nv, 3))
    np.add.at(mean_n, owner, a)
    mean_n /= np.bincount(owner, minlength=nv)[:, None]
    s[_row_dots(s, mean_n) < 0] *= -1.0
    # sum_v s_v = int u dsigma = 0, so the origin's term drops out
    return sum(_row_dots(m.local, s).tolist()) / 3.0
