"""Integration along great-circle arcs on the unit sphere.

On an arc u(t) = a cos t + e sin t the restriction of a support-function
combination is a piecewise trig polynomial A cos t + B sin t, cut where some
polytope term switches active vertex. Those cuts are the crossings of the
arc with the polytope's normal fan, so they are found for every arc of an
``Arcs`` table at once. An ``ArcRestriction`` holds the smooth segments of
all arcs as rows, with their coefficients (A, B): a support function has
no constant term. Integrals of a restriction, of products and of derivative
products are closed-form sums over segments, reduced per arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bodies import Polytope, SupportEvaluator, _row_dots, _row_norms
from .errors import QuadratureFailure

# |<n, pole>| at or below this puts a fan vertex n on an arc's great circle
PLANE_TOL = 1e-12
# interior cuts lie in (CUT_TOL, length - CUT_TOL); closer cuts are one cut
CUT_TOL = 1e-12
# entries (8 bytes each), per smooth segment of an arc, of the sign tables and
# the midpoint argmax of one block of arcs (8 MB)
BLOCK_ENTRIES = 1 << 20
# nodes of a segment scan per smooth segment, ends included
NODES_PER_SEGMENT = 17


@dataclass(frozen=True)
class Arcs:
    """Great-circle arcs as rows: arc i is u(t) = starts[i] cos t +
    tangents[i] sin t, t in [0, lengths[i]], with starts[i] and tangents[i]
    orthonormal."""
    starts: np.ndarray      # (n, 3)
    tangents: np.ndarray    # (n, 3)
    lengths: np.ndarray     # (n,)

    @classmethod
    def between(cls, a, b) -> "Arcs":
        """The shortest geodesics from the rows of a to the rows of b, all
        unit vectors (no pair equal or antipodal); one pair gives one row."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        c = np.clip(_row_dots(a, b), -1.0, 1.0)
        e = b - c[:, None] * a
        s = _row_norms(e)
        # arccos(c) is off by eps/l at small l; atan2 keeps l to within eps
        l = np.arctan2(s, c)
        if ((l < 1e-12) | (l > np.pi - 1e-12)).any():
            raise QuadratureFailure("arc endpoints coincide or are antipodal")
        return cls(a, e / s[:, None], l)

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


# ---------------------------------------------------------------------------
# Breakpoints: crossings with the normal fans of the polytope terms
# ---------------------------------------------------------------------------

def _polytopes(evaluators: Sequence[SupportEvaluator]) -> list[Polytope]:
    """The distinct polytope terms of the evaluators, by identity."""
    return list({id(b): b for f in evaluators for _, b in f.terms}.values())


def _fan_crossings(fan: np.ndarray, arcs: Arcs
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(arc, t) of the crossings of the fan arcs with the interiors of the arcs.

    The fan arc from n0 to n1 crosses the plane of an arc where the signed
    distances s0, s1 of its ends change sign, at x = |s1| n0 + |s0| n1; a
    distance within PLANE_TOL counts as 0. A fan arc with both ends on the
    plane runs along the arc and switches nothing.

    The distances of all fan ends to all planes are one product: the end
    normals n0 of every fan arc, then every n1, with the arcs' poles. A fan
    arc crosses where one end is above the plane and the other is not, or
    one is below and the other is not: two sign tables, with no float pass
    over the whole table. Rows are gathered by flat index and ``take``,
    which NumPy does faster than a 2-d nonzero and fancy indexing."""
    ends = fan.swapaxes(0, 1)                     # (2, E, 3): n0, then n1
    s = (ends.reshape(2 * len(fan), 3) @ arcs.poles.T
         ).reshape(2, len(fan), len(arcs))
    pos, neg = s > PLANE_TOL, s < -PLANE_TOL
    hit = np.flatnonzero((pos[0] ^ pos[1]) | (neg[0] ^ neg[1]))
    fi, ai = np.divmod(hit, len(arcs))
    s0, s1 = (np.where(np.abs(d) <= PLANE_TOL, 0.0, d)
              for d in (s[0].take(hit), s[1].take(hit)))
    x = (np.abs(s1)[:, None] * ends[0].take(fi, axis=0)
         + np.abs(s0)[:, None] * ends[1].take(fi, axis=0))
    t = np.arctan2(_row_dots(x, arcs.tangents.take(ai, axis=0)),
                   _row_dots(x, arcs.starts.take(ai, axis=0)))
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
    least one. A block is sized so that its sign tables against the fan arcs
    of the polytope terms and its midpoint argmax over their vertices hold
    about BLOCK_ENTRIES entries per smooth segment of an arc, however many
    arcs and vertices there are."""
    width = sum(2 * len(p.fan) + len(p.local)
                for p in _polytopes(evaluators))
    step = max(1, BLOCK_ENTRIES // max(1, width))
    for lo in range(0, max(1, len(arcs)), step):
        block = arcs[lo:lo + step]
        yield lo, block, segments(block, *evaluators)


def evaluator_breakpoints(f: SupportEvaluator, arc: Arcs) -> list[float]:
    """Interior parameters of a one-row arc table where some polytope term
    switches active vertex."""
    return breakpoints(arc, f)[1].tolist()


# ---------------------------------------------------------------------------
# Closed-form segment integrals
# ---------------------------------------------------------------------------

def product_integral(p, q, t0, t1):
    """Exact integral over [t0, t1] of the product of two A cos + B sin
    terms. p and q are (..., 2) coefficient arrays; t0 and t1 broadcast
    against their leading axes, one integral per segment."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    a1, b1 = p[..., 0], p[..., 1]
    a2, b2 = q[..., 0], q[..., 1]
    s0, k0, s1, k1 = np.sin(t0), np.cos(t0), np.sin(t1), np.cos(t1)
    half = 0.5 * (t1 - t0)
    cc = half + 0.5 * (s1 * k1 - s0 * k0)       # int cos^2
    ss = half - 0.5 * (s1 * k1 - s0 * k0)       # int sin^2
    sc = 0.5 * (s1 * s1 - s0 * s0)              # int sin cos
    return a1 * a2 * cc + b1 * b2 * ss + (a1 * b2 + a2 * b1) * sc


# (A, B) @ _DERIVATIVE = (B, -A), the coefficients of the arc derivative
_DERIVATIVE = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class ArcRestriction:
    """A support-function combination on every arc of a table: on segment
    i, the part [t0[i], t1[i]] of arc arc[i], it is A cos t + B sin t
    with (A, B) = coef[i]."""
    arcs: Arcs
    arc: np.ndarray      # (S,) ascending
    t0: np.ndarray       # (S,)
    t1: np.ndarray       # (S,)
    coef: np.ndarray     # (S, 2)

    def integral(self) -> np.ndarray:
        """int f dt over each arc."""
        a, b = self.coef.T
        return np.bincount(self.arc, a * (np.sin(self.t1) - np.sin(self.t0))
                           + b * (np.cos(self.t0) - np.cos(self.t1)),
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
    """(evaluators, S, 2) coefficients of the evaluators on the segments.
    Each polytope term looks up its active local row at all segment
    midpoints at once; the bodies' frames are in the evaluators' shifts."""
    plane = np.stack([arcs.starts[arc], arcs.tangents[arc]], axis=1)  # (S, 2, 3)
    u = arcs.points(arc, 0.5 * (t0 + t1))
    ab = {id(p): (plane @ p.local[np.argmax(u @ p.local.T, axis=1), :,
                                  None])[:, :, 0]
          for p in _polytopes(evaluators)}
    coef = np.empty((len(evaluators), len(arc), 2))
    for cf, f in zip(coef, evaluators):
        cf[:] = plane @ f.shift
        for c, body in f.terms:
            cf += c * ab[id(body)]
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


def integrate_evaluator(f: SupportEvaluator, arc: Arcs) -> float:
    """Exact integral of f along a one-row arc table, by arclength."""
    (r,) = restrict(arc, f)
    return float(r.integral()[0])


def integrate_pair(f: SupportEvaluator, g: SupportEvaluator, arc: Arcs
                   ) -> tuple[float, float]:
    """(int f*g, int f'*g') along a one-row arc table, exact piecewise
    evaluation.

    The arc derivative of a polytope support function is taken from the
    active vertex on each smooth segment."""
    rf, rg = restrict(arc, f, g)
    ifg, idfdg = rf.pair(rg)
    return float(ifg[0]), float(idfdg[0])


def arc_sample_nodes(arc: Arcs, f: SupportEvaluator) -> np.ndarray:
    """Arc parameters covering every smooth segment of f on a one-row arc
    table (endpoints included), the nodes of extremal.sup_on_sbm."""
    _, t0, t1 = segments(arc, f)
    return np.unique(np.linspace(t0, t1, NODES_PER_SEGMENT))

