"""Integration along great-circle arcs on the unit sphere, and measures on
the sphere made of atoms and weighted arcs.

On an arc u(t) = a cos t + e sin t the restriction of a support-function
combination is a piecewise trig polynomial A cos t + B sin t + C (C from
balls), cut where some polytope term switches active vertex. Those cuts are
the crossings of the arc with the polytope's normal fan, so they are found
for every arc of an ``Arcs`` table at once. An ``ArcRestriction`` holds the
smooth segments of all arcs as rows, with their coefficients, so integrals
of products (and of derivative products) are closed-form sums over segments,
reduced per arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bodies import Ball, Polytope, SupportEvaluator, _row_dots, _row_norms
from .errors import NegativeMass, QuadratureFailure

# |<n, pole>| at or below this puts a fan vertex n on an arc's great circle
PLANE_TOL = 1e-12
# interior cuts lie in (CUT_TOL, length - CUT_TOL); closer cuts are one cut
CUT_TOL = 1e-12
NODES_PER_SEGMENT = 17   # sample nodes per smooth segment, endpoints included
# entries (8 bytes each) of the sign tables, midpoint argmax and sup scan of
# one block of arcs, per smooth segment of an arc (8 MB)
BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ArcFrame:
    """Arclength parametrization u(t) = start*cos(t) + tangent*sin(t), t in [0, length]."""
    start: np.ndarray
    tangent: np.ndarray
    length: float

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (np.multiply.outer(np.cos(t), self.start)
                + np.multiply.outer(np.sin(t), self.tangent))


@dataclass(frozen=True)
class Arcs:
    """Great-circle arcs as rows: arc i is u(t) = starts[i] cos t +
    tangents[i] sin t, t in [0, lengths[i]], with starts[i] and tangents[i]
    orthonormal."""
    starts: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    tangents: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    lengths: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def of(cls, frame: ArcFrame) -> "Arcs":
        """The table of one arc."""
        return cls(np.asarray(frame.start, dtype=float)[None],
                   np.asarray(frame.tangent, dtype=float)[None],
                   np.array([frame.length], dtype=float))

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows: slice) -> "Arcs":
        return Arcs(self.starts[rows], self.tangents[rows], self.lengths[rows])

    @cached_property
    def poles(self) -> np.ndarray:
        """(n, 3) unit normals of the arcs' planes."""
        return np.cross(self.starts, self.tangents)

    def points(self, arc: np.ndarray, t: np.ndarray) -> np.ndarray:
        """u(t) on arc arc, elementwise over the broadcast of arc and t."""
        t = np.asarray(t, dtype=float)[..., None]
        return np.cos(t) * self.starts[arc] + np.sin(t) * self.tangents[arc]


def arcs_between(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangents at a and lengths of the shortest geodesics from the rows
    of a to the rows of b, all unit vectors (no pair equal or antipodal)."""
    c = np.clip(_row_dots(a, b), -1.0, 1.0)
    l = np.arccos(c)
    if ((l < 1e-12) | (l > np.pi - 1e-12)).any():
        raise QuadratureFailure("arc endpoints coincide or are antipodal")
    e = b - c[:, None] * a
    return e / _row_norms(e)[:, None], l


def arc_between(a: np.ndarray, b: np.ndarray) -> ArcFrame:
    """Shortest geodesic from unit vector a to unit vector b (not antipodal)."""
    a = np.asarray(a, dtype=float)
    (e,), (l,) = arcs_between(a[None], np.asarray(b, dtype=float)[None])
    return ArcFrame(a, e, float(l))


# ---------------------------------------------------------------------------
# Breakpoints: crossings with the normal fans of the polytope terms
# ---------------------------------------------------------------------------

def _polytopes(evaluators: Sequence[SupportEvaluator]) -> list[Polytope]:
    """The distinct polytope terms of the evaluators, by identity."""
    return list({id(b): b for f in evaluators for _, b in f.terms
                 if isinstance(b, Polytope)}.values())


def _fan_crossings(fan: np.ndarray, arcs: Arcs
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(arc, t) of the crossings of the fan arcs with the interiors of the arcs.

    The fan arc from n0 to n1 crosses the plane of an arc where the signed
    distances s0, s1 of its ends change sign, at x = |s1| n0 + |s0| n1. A fan
    arc with both ends on the plane runs along the arc and switches nothing."""
    s = fan @ arcs.poles.T                        # (E, 2, arcs)
    s[np.abs(s) <= PLANE_TOL] = 0.0
    s0, s1 = s[:, 0], s[:, 1]
    fi, ai = np.nonzero((s0 * s1 <= 0.0) & ((s0 != 0.0) | (s1 != 0.0)))
    x = (np.abs(s1[fi, ai])[:, None] * fan[fi, 0]
         + np.abs(s0[fi, ai])[:, None] * fan[fi, 1])
    t = np.arctan2(_row_dots(x, arcs.tangents[ai]),
                   _row_dots(x, arcs.starts[ai]))
    inside = (t > CUT_TOL) & (t < arcs.lengths[ai] - CUT_TOL)
    return ai[inside], t[inside]


def breakpoints(arcs: Arcs, *evaluators: SupportEvaluator
                ) -> tuple[np.ndarray, np.ndarray]:
    """(arc, t) of the interior parameters where some polytope term of the
    evaluators switches active vertex, sorted by arc and then by t."""
    found = [_fan_crossings(p.fan, arcs) for p in _polytopes(evaluators)]
    arc = np.concatenate([np.zeros(0, dtype=np.intp)] + [a for a, _ in found])
    t = np.concatenate([np.zeros(0)] + [t for _, t in found])
    order = np.lexsort((t, arc))
    arc, t = arc[order], t[order]
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = (arc[1:] != arc[:-1]) | (t[1:] - t[:-1] > CUT_TOL)
    return arc[keep], t[keep]


def segments(arcs: Arcs, *evaluators: SupportEvaluator
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arc, t0, t1): the smooth segments of the evaluators on all arcs, in
    arc order and ascending along each arc."""
    cut_arc, cut_t = breakpoints(arcs, *evaluators)
    per_arc = np.bincount(cut_arc, minlength=len(arcs)) + 1
    arc = np.repeat(np.arange(len(arcs)), per_arc)
    t0, t1 = np.zeros(len(arc)), np.empty(len(arc))
    ends = np.arange(len(cut_t)) + cut_arc       # the segment each cut ends
    t1[ends] = cut_t
    t0[ends + 1] = cut_t
    t1[np.cumsum(per_arc) - 1] = arcs.lengths
    return arc, t0, t1


def _segment_blocks(arcs: Arcs, evaluators: Sequence[SupportEvaluator]
                    ) -> Iterator[tuple[int, Arcs, tuple[np.ndarray, ...]]]:
    """(first, block, segments(block)) for the arcs in consecutive blocks, at
    least one. A block is sized so that its sign tables, midpoint argmax and
    sup scan against the polytope terms hold about BLOCK_ENTRIES entries per
    smooth segment of an arc, however many arcs and vertices there are."""
    width = sum(2 * len(p.fan) + NODES_PER_SEGMENT * len(p.vertices)
                for p in _polytopes(evaluators))
    step = max(1, BLOCK_ENTRIES // max(1, width))
    if step >= len(arcs):           # one block: keep the table's cached poles
        yield 0, arcs, segments(arcs, *evaluators)
        return
    for lo in range(0, len(arcs), step):
        block = arcs[lo:lo + step]
        yield lo, block, segments(block, *evaluators)


def evaluator_breakpoints(f: SupportEvaluator, frame: ArcFrame) -> list[float]:
    """Interior arc parameters where some polytope term switches active vertex."""
    return breakpoints(Arcs.of(frame), f)[1].tolist()


# ---------------------------------------------------------------------------
# Closed-form segment integrals
# ---------------------------------------------------------------------------

def product_integral(p, q, t0, t1):
    """Exact integral over [t0, t1] of the product of two A cos + B sin + C
    terms. p and q are (..., 3) coefficient arrays; t0 and t1 broadcast
    against their leading axes, one integral per segment."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    a1, b1, c1 = p[..., 0], p[..., 1], p[..., 2]
    a2, b2, c2 = q[..., 0], q[..., 1], q[..., 2]
    s0, k0, s1, k1 = np.sin(t0), np.cos(t0), np.sin(t1), np.cos(t1)
    half = 0.5 * (t1 - t0)
    cc = half + 0.5 * (s1 * k1 - s0 * k0)       # int cos^2
    ss = half - 0.5 * (s1 * k1 - s0 * k0)       # int sin^2
    sc = 0.5 * (s1 * s1 - s0 * s0)              # int sin cos
    return (a1 * a2 * cc + b1 * b2 * ss + (a1 * b2 + a2 * b1) * sc
            + (a1 * c2 + a2 * c1) * (s1 - s0) + (b1 * c2 + b2 * c1) * (k0 - k1)
            + c1 * c2 * (t1 - t0))


# (A, B, C) @ _DERIVATIVE = (B, -A, 0), the coefficients of the arc derivative
_DERIVATIVE = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_ONE = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ArcRestriction:
    """A support-function combination on every arc of a table: on segment
    i, the part [t0[i], t1[i]] of arc arc[i], it is A cos t + B sin t + C
    with (A, B, C) = coef[i]."""
    arcs: Arcs
    arc: np.ndarray      # (S,) ascending
    t0: np.ndarray       # (S,)
    t1: np.ndarray       # (S,)
    coef: np.ndarray     # (S, 3)

    def integral(self) -> np.ndarray:
        """int f dt over each arc."""
        return np.bincount(self.arc, product_integral(self.coef, _ONE, self.t0,
                                                      self.t1),
                           minlength=len(self.arcs))

    def pair(self, other: "ArcRestriction") -> tuple[np.ndarray, np.ndarray]:
        """(int f g, int f' g') over each arc, f = self and g = other; the
        two must come from one ``restrict`` call, so that they share
        segments."""
        if other.t0 is not self.t0:
            raise ValueError("restrictions from different restrict calls")
        p, q = self.coef, other.coef
        ifg, idfdg = product_integral(np.stack([p, p @ _DERIVATIVE]),
                                      np.stack([q, q @ _DERIVATIVE]),
                                      self.t0, self.t1)
        n = len(self.arcs)
        return (np.bincount(self.arc, ifg, minlength=n),
                np.bincount(self.arc, idfdg, minlength=n))


def _coefficients(arcs: Arcs, arc: np.ndarray, t0: np.ndarray,
                  t1: np.ndarray, evaluators: Sequence[SupportEvaluator]
                  ) -> np.ndarray:
    """(evaluators, S, 3) coefficients of the evaluators on the segments.
    Each polytope term looks up its active vertex at all segment midpoints
    at once."""
    plane = np.stack([arcs.starts[arc], arcs.tangents[arc]], axis=1)  # (S, 2, 3)
    u = arcs.points(arc, 0.5 * (t0 + t1))
    ab = {id(p): (plane @ p.vertices[np.argmax(u @ p.vertices.T, axis=1), :,
                                     None])[:, :, 0]
          for p in _polytopes(evaluators)}
    coef = np.zeros((len(evaluators), len(arc), 3))
    for cf, f in zip(coef, evaluators):
        cf[:, :2] = plane @ f.shift
        for c, body in f.terms:
            if isinstance(body, Ball):
                cf[:, :2] += c * (plane @ body.center)
                cf[:, 2] += c * body.radius
            else:
                cf[:, :2] += c * ab[id(body)]
    return coef


def restrict(arcs: Arcs, *evaluators: SupportEvaluator
             ) -> tuple[ArcRestriction, ...]:
    """One restriction per evaluator, all cut at the union of their
    breakpoints, built a block of arcs at a time."""
    arc, t0, t1, coef = zip(*(
        (lo + a, a0, a1, _coefficients(block, a, a0, a1, evaluators))
        for lo, block, (a, a0, a1) in _segment_blocks(arcs, evaluators)))
    arc, t0, t1 = map(np.concatenate, (arc, t0, t1))
    return tuple(ArcRestriction(arcs, arc, t0, t1, c)
                 for c in np.concatenate(coef, axis=1))


def integrate_evaluator(f: SupportEvaluator, frame: ArcFrame) -> float:
    """Exact integral of f along the arc with respect to arclength."""
    (r,) = restrict(Arcs.of(frame), f)
    return float(r.integral()[0])


def integrate_pair(f: SupportEvaluator, g: SupportEvaluator, frame: ArcFrame) -> tuple[float, float]:
    """(int f*g, int f'*g') along the arc, exact piecewise evaluation.

    The arc derivative of a polytope support function is taken from the
    active vertex on each smooth segment."""
    rf, rg = restrict(Arcs.of(frame), f, g)
    ifg, idfdg = rf.pair(rg)
    return float(ifg[0]), float(idfdg[0])


def arc_sample_nodes(frame: ArcFrame, f: SupportEvaluator) -> np.ndarray:
    """Arc parameters covering every smooth segment of f (endpoints
    included), suitable for sup-norm residual scans."""
    _, t0, t1 = segments(Arcs.of(frame), f)
    return np.unique(np.linspace(t0, t1, NODES_PER_SEGMENT))


def sup_on_arcs(f: SupportEvaluator, arcs: Arcs) -> float:
    """Sup of |f| over the sample nodes of every smooth segment of f on the
    arcs, a block of arcs at a time."""
    sup = 0.0
    for _, block, (arc, t0, t1) in _segment_blocks(arcs, [f]):
        t = np.linspace(t0, t1, NODES_PER_SEGMENT, axis=1)      # (S, nodes)
        sup = max(sup, float(np.abs(f(block.points(arc[:, None], t)))
                             .max(initial=0.0)))
    return sup


# ---------------------------------------------------------------------------
# Measures on the sphere: atoms plus weighted arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalMeasure:
    """Measure on S^2: mass masses[i] at directions[i], plus weights[j]
    times arclength on arc j of arcs."""
    directions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    masses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    arcs: Arcs = field(default_factory=Arcs)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def total_mass(self) -> float:
        return (sum(self.masses.tolist())
                + sum((self.weights * self.arcs.lengths).tolist()))

    def barycenter_residual(self) -> float:
        """Norm of int u dmu; vanishes for area measures of closed bodies."""
        # int over an arc of u dH^1 = sin(l) * a + (1 - cos(l)) * e
        l, w = self.arcs.lengths, self.weights
        s = (self.masses @ self.directions + (w * np.sin(l)) @ self.arcs.starts
             + (w * (1 - np.cos(l))) @ self.arcs.tangents)
        return float(np.linalg.norm(s))

    def validate_nonnegative(self, gross: float,
                             tol: float = 1e-9) -> "SphericalMeasure":
        """Raise NegativeMass for a mass below -tol * gross, where gross is
        the total absolute mass the measure was computed from: differences
        of measures round relative to the masses that cancel."""
        floor = -tol * max(gross, 1e-30)
        for kind, m in (("atom mass", self.masses), ("arc weight", self.weights)):
            if len(m) and m.min() < floor:
                raise NegativeMass(f"{kind} {m.min():g} below {floor:g}")
        return self


def integrate_against_measure(f: SupportEvaluator, mu: SphericalMeasure) -> float:
    """sum over atoms of f(u) * mass plus the exact arc integrals of f dH^1."""
    (r,) = restrict(mu.arcs, f)
    return (float(f(mu.directions) @ mu.masses)
            + sum((mu.weights * r.integral()).tolist()))
