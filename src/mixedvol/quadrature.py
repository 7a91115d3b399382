"""Integration along great-circle arcs on the unit sphere, and measures on
the sphere made of atoms and weighted arcs.

On an arc u(t) = a cos t + e sin t the restriction of a support-function
combination is a piecewise trig polynomial A cos t + B sin t + C (C from
balls), cut where some polytope term switches active vertex. An
``ArcRestriction`` holds the cuts and the per-segment coefficients, so
integrals of products (and of derivative products) are closed-form sums over
its segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bodies import Ball, Polytope, SupportEvaluator, _row_dots, _row_norms
from .errors import NegativeMass, QuadratureFailure


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
# Breakpoints of the active-vertex envelope
# ---------------------------------------------------------------------------

def _envelope_breakpoints(alpha: np.ndarray, beta: np.ndarray, l: float) -> list[float]:
    """Switch points of argmax_i(alpha_i cos t + beta_i sin t) on (0, l)."""
    m = len(alpha)
    if m <= 1:
        return []
    vals0 = alpha
    top = vals0.max()
    cand = np.flatnonzero(vals0 >= top - 1e-13 * max(1.0, abs(top)))
    i = int(cand[np.argmax(beta[cand])])
    bps: list[float] = []
    t = 0.0
    for _ in range(8 * m + 16):
        big_a = alpha[i] - alpha
        big_b = beta[i] - beta
        # zeros of big_a cos t + big_b sin t, normalized into (t, t + pi]
        tstar = np.arctan2(-big_a, big_b)
        tstar = np.where(tstar <= t + 1e-12, tstar + np.pi, tstar)
        tstar = np.where(tstar <= t + 1e-12, tstar + np.pi, tstar)
        tstar[i] = np.inf
        tstar = np.where(tstar < l - 1e-12, tstar, np.inf)
        j = int(np.argmin(tstar))
        tn = float(tstar[j])
        if not np.isfinite(tn):
            break
        t = tn
        eps = min(1e-9, (l - t) / 2)
        vals = alpha * np.cos(t + eps) + beta * np.sin(t + eps)
        ni = int(np.argmax(vals))
        if ni != i:
            bps.append(t)
            i = ni
    return bps


def evaluator_breakpoints(f: SupportEvaluator, frame: ArcFrame) -> list[float]:
    """Interior arc parameters where some polytope term switches active vertex."""
    bps: list[float] = []
    for _, body in f.terms:
        if isinstance(body, Polytope) and len(body.vertices) > 1:
            alpha = body.vertices @ frame.start
            beta = body.vertices @ frame.tangent
            bps += _envelope_breakpoints(alpha, beta, frame.length)
    return sorted(set(bps))


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
    """A support-function combination along an arc: A cos t + B sin t + C
    with (A, B, C) = coef[i] on the segment [cuts[i], cuts[i + 1]]."""
    cuts: np.ndarray     # (s + 1,) ascending, from 0 to the arc length
    coef: np.ndarray     # (s, 3)

    @classmethod
    def of(cls, f: SupportEvaluator, frame: ArcFrame) -> "ArcRestriction":
        """Cut f at its active-vertex breakpoints; each polytope term looks
        up its active vertex at all segment midpoints at once."""
        cuts = np.array([0.0, *evaluator_breakpoints(f, frame), frame.length])
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        trig = np.array([np.cos(mid), np.sin(mid)])     # (2, s)
        plane = np.array([frame.start, frame.tangent])  # (2, 3)
        coef = np.zeros((len(mid), 3))
        coef[:, :2] = plane @ f.shift
        for c, body in f.terms:
            if isinstance(body, Ball):
                coef += c * np.array([*(plane @ body.center), body.radius])
            else:
                ab = body.vertices @ plane.T            # (m, 2)
                coef[:, :2] += c * ab[np.argmax(ab @ trig, axis=0)]
        return cls(cuts, coef)

    def on(self, cuts: np.ndarray) -> "ArcRestriction":
        """The same function on a refinement of its cuts."""
        seg = np.searchsorted(self.cuts, 0.5 * (cuts[:-1] + cuts[1:])) - 1
        return ArcRestriction(cuts, self.coef[seg])

    def integral(self) -> float:
        """int f dt over the arc."""
        return float(product_integral(self.coef, _ONE, self.cuts[:-1],
                                      self.cuts[1:]).sum())

    def pair(self, other: "ArcRestriction") -> tuple[float, float]:
        """(int f g, int f' g') over the arc, f = self and g = other."""
        cuts = np.union1d(self.cuts, other.cuts)
        p, q = self.on(cuts).coef, other.on(cuts).coef
        ifg, idfdg = product_integral(np.stack([p, p @ _DERIVATIVE]),
                                      np.stack([q, q @ _DERIVATIVE]),
                                      cuts[:-1], cuts[1:]).sum(axis=-1)
        return float(ifg), float(idfdg)


def integrate_evaluator(f: SupportEvaluator, frame: ArcFrame) -> float:
    """Exact integral of f along the arc with respect to arclength."""
    return ArcRestriction.of(f, frame).integral()


def integrate_pair(f: SupportEvaluator, g: SupportEvaluator, frame: ArcFrame) -> tuple[float, float]:
    """(int f*g, int f'*g') along the arc, exact piecewise evaluation.

    The arc derivative of a polytope support function is taken from the
    active vertex on each smooth segment."""
    rf = ArcRestriction.of(f, frame)
    return rf.pair(rf if g is f else ArcRestriction.of(g, frame))


NODES_PER_SEGMENT = 17   # sample nodes per smooth segment, endpoints included


def arc_sample_nodes(frame: ArcFrame, f: SupportEvaluator) -> np.ndarray:
    """Arc parameters covering every smooth segment of f (endpoints
    included), suitable for sup-norm residual scans."""
    cuts = np.array([0.0, *evaluator_breakpoints(f, frame), frame.length])
    return np.unique(np.linspace(cuts[:-1], cuts[1:], NODES_PER_SEGMENT))


def sup_on_arcs(f: SupportEvaluator, frames: Sequence[ArcFrame]) -> float:
    """Sup of |f| over the sample nodes of each arc."""
    worst = 0.0
    for fr in frames:
        t = arc_sample_nodes(fr, f)
        worst = max(worst, float(np.abs(np.asarray(f(fr.point(t)))).max()))
    return worst


# ---------------------------------------------------------------------------
# Measures on the sphere: atoms plus weighted arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalMeasure:
    """Measure on S^2: mass masses[i] at directions[i], plus weights[j]
    times arclength on the arc frames[j]."""
    directions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    masses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    frames: tuple[ArcFrame, ...] = ()
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def total_mass(self) -> float:
        lengths = np.array([fr.length for fr in self.frames])
        return (sum(self.masses.tolist())
                + sum((self.weights * lengths).tolist()))

    def barycenter_residual(self) -> float:
        """Norm of int u dmu; vanishes for area measures of closed bodies."""
        s = self.masses @ self.directions
        for fr, w in zip(self.frames, self.weights.tolist()):
            # int over arc of u dH^1 = sin(l) * a + (1 - cos(l)) * e, per axis
            s += w * (np.sin(fr.length) * fr.start
                      + (1 - np.cos(fr.length)) * fr.tangent)
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
    return (float(f(mu.directions) @ mu.masses)
            + sum(w * integrate_evaluator(f, fr)
                  for fr, w in zip(mu.frames, mu.weights.tolist())))
