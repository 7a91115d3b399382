"""The three benchmark workloads.

Each workload is a closed loop with one client: a cycle is a fixed list of
operations, and the client issues the next one only when the previous one
has returned. The inputs of cycle ``c`` are a pure function of the workload
seed and ``c``; the program receives only the generated inputs. An operation
is ``(label, run, check)``: ``run()`` makes the program calls that are timed,
``check(result)`` verifies the result afterwards, outside the timed region,
and returns an error message or ``None``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(seed: int, cycle: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle, salt])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _run_cli(mv, argv: list[str]) -> tuple[int, str]:
    """cli.run_command with its report captured instead of printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mv.cli.run_command(argv)
    return code, buf.getvalue()


def _report(out: tuple[int, str]) -> tuple[int, dict]:
    code, text = out
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, {}


# ---------------------------------------------------------------------------
# suite-mix: the randtest path users run
# ---------------------------------------------------------------------------

SUITES = ("mixvol", "graph", "form", "stability", "rigidity", "certify",
          "classical", "lower")


class SuiteMix:
    """One ``randtest --n 1`` per suite per cycle, each with its own seed."""

    name = "suite-mix"
    nominal_cycle_s = 0.13

    def __init__(self, mv, seed: int, workdir: Path):
        self.mv, self.seed = mv, seed

    def cycle(self, c: int) -> list[Op]:
        seeds = _rng(self.seed, c, 0).integers(0, 2**31, len(SUITES))
        return [self._op(suite, int(s)) for suite, s in zip(SUITES, seeds)]

    def _op(self, suite: str, s: int) -> Op:
        argv = ["randtest", "--suite", suite, "--n", "1", "--seed", str(s)]

        def check(out):
            code, rep = _report(out)
            if code != 0 or not rep.get("verdicts", {}).get("all_pass"):
                return f"exit {code}, failures {rep.get('values', {}).get('failures')}"
            return None

        return Op(f"randtest {suite} seed={s}", lambda: _run_cli(self.mv, argv),
                  check)


# ---------------------------------------------------------------------------
# spectrum-ladder: Galerkin assembly and dense eigensolves over a 30x DOF span
# ---------------------------------------------------------------------------

def _jittered_icosahedron(rng: np.random.Generator) -> np.ndarray:
    """Randomly rotated icosahedron with 5% radial and tangential jitter:
    its 30 arcs stay near 0.73 rad, so every ladder step keeps >= 2
    elements per arc."""
    phi = (1 + 5 ** 0.5) / 2
    v = np.array([[s1, s2 * phi, 0] for s1 in (-1, 1) for s2 in (-1, 1)],
                 dtype=float)
    v = np.concatenate([v, np.roll(v, 1, axis=1), np.roll(v, 2, axis=1)])
    v /= np.linalg.norm(v, axis=1)[:, None]
    v += 0.05 * rng.standard_normal(v.shape)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return v @ q.T


def _jittered_polygon(rng: np.random.Generator, m: int) -> np.ndarray:
    """Convex m-gon in the plane z = 0 with jittered angles and radii."""
    ang = 2 * np.pi * (np.arange(m) + rng.uniform(-0.2, 0.2, m)) / m
    rad = rng.uniform(0.8, 1.2, m)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang), np.zeros(m)])


# 101 ops per cycle. The four small bodies each run 21 mesh steps, spaced
# geometrically from pi/25 to pi/100, so their costs form a continuum without
# gaps in which the median or the 90th percentile could jump from one op
# type to the next from run to run.
# (M, h = pi/d for each d); ball@2 has arcs of 0.12 rad, too short for pi/25.
_STEPS = tuple(round(25 * 4 ** (i / 20)) for i in range(21))    # 25..100
FULL_LADDER = (("simplex", _STEPS), ("cube", _STEPS), ("ico-a", _STEPS),
               ("ico-b", _STEPS), ("ball@1", (25, 50, 100)), ("ball@2", (50, 100)))
# (M, h = pi/d, kmax)
LOWER_LADDER = (("square", 100, 2), ("square", 150, 2), ("square", 200, 3),
                ("square", 400, 2), ("segment", 100, 3), ("segment", 150, 3),
                ("segment", 200, 2), ("segment", 300, 2), ("segment", 400, 3),
                ("polygon", 100, 2), ("polygon", 150, 2), ("polygon", 200, 3))
LOWER_TOL_FACTOR = 2.0   # --tol = factor * a-priori P1 bound k^4 h^2 / 36


class SpectrumLadder:
    """``spectrum`` and ``lower-spectrum`` through the CLI, small N to large N."""

    name = "spectrum-ladder"
    nominal_cycle_s = 10.5

    def __init__(self, mv, seed: int, workdir: Path):
        self.mv, self.seed, self.workdir = mv, seed, workdir

    def _write(self, name: str, pts: np.ndarray) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps({"vertices": pts.tolist(), "name": name}))
        return str(path)

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.seed, c, 1)
        files = {"ico-a": self._write(f"c{c}-ico-a", _jittered_icosahedron(rng)),
                 "ico-b": self._write(f"c{c}-ico-b", _jittered_icosahedron(rng)),
                 "polygon": self._write(f"c{c}-polygon",
                                        _jittered_polygon(rng, 6))}
        ops = [self._full(files.get(m, m), m, d)
               for m, ds in FULL_LADDER for d in ds]
        ops += [self._lower(files.get(m, m), m, d, k) for m, d, k in LOWER_LADDER]
        # interleave sizes so a cycle mixes small and large N throughout
        order = _rng(self.seed, c, 2).permutation(len(ops))
        return [ops[i] for i in order]

    def _full(self, spec: str, label: str, d: int) -> Op:
        argv = ["spectrum", "--M", spec, "--mesh-h", repr(math.pi / d),
                "--kmax", "8"]

        def check(out):
            code, rep = _report(out)
            vals = rep.get("values", {})
            eig = vals.get("eigenvalues", [])
            if code != 0 or len(eig) < 5:
                return f"exit {code}"
            if abs(eig[0] - 1 / 3) > 1e-10:
                return f"top eigenvalue {eig[0]!r} is not 1/3"
            if vals.get("kernel_dimension") != 3:
                return f"kernel dimension {vals.get('kernel_dimension')}"
            if not eig[4] < 0:
                return f"fifth eigenvalue {eig[4]!r} is not negative"
            return None

        return Op(f"spectrum {label} h=pi/{d}", lambda: _run_cli(self.mv, argv),
                  check)

    def _lower(self, spec: str, label: str, d: int, k: int) -> Op:
        h = math.pi / d
        tol = LOWER_TOL_FACTOR * k ** 4 * h * h / 36
        argv = ["lower-spectrum", "--M", spec, "--w", "0,0,1", "--mesh-h",
                repr(h), "--kmax", str(k), "--tol", repr(tol)]

        def check(out):
            code, rep = _report(out)
            if code != 0 or not rep.get("verdicts", {}).get("ok"):
                return (f"exit {code}, worst deviation "
                        f"{rep.get('margins', {}).get('worst_deviation')} > {tol}")
            return None

        return Op(f"lower-spectrum {label} h=pi/{d} k={k}",
                  lambda: _run_cli(self.mv, argv), check)


# ---------------------------------------------------------------------------
# big-body: library calls on large hulls and many-breakpoint arcs
# ---------------------------------------------------------------------------

def _sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


def _extreme_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    s = (a[:, None, :] + b[None, :, :]).reshape(-1, 3)
    return s[ConvexHull(s).vertices]


def _polarization_reference(k: np.ndarray, l: np.ndarray, m: np.ndarray) -> float:
    """V(K, L, M) by polarization of Qhull volumes, reducing each Minkowski
    sum to its extreme points before adding the next body. Independent of
    the mixedvol code paths."""
    def vol(p):
        return ConvexHull(p).volume

    kl = _extreme_sum(k, l)
    return (vol(_extreme_sum(kl, m)) - vol(kl) - vol(_extreme_sum(k, m))
            - vol(_extreme_sum(l, m)) + vol(k) + vol(l) + vol(m)) / 6.0


# 65 ops per cycle (two cycles give the 100 ops the 90th percentile
# needs). The cheap hull and form ops
# run on geometric size ladders, so the median and the 90th percentile sit
# among many ops of similar cost; the costly polarize, classical and
# certify ops run on two inputs each.
HULL_POINTS = tuple(round(100 * 10 ** (i / 48)) for i in range(49))  # 100..1000
FORM_POINTS = tuple(round(200 * 3 ** (i / 9)) for i in range(10))    # 200..600
FORM_M_POINTS = 10
POLARIZE_SIZES = ((24, 24, 100), (40, 40, 160))
CLASSICAL_POINTS = (60, 300)
CERTIFY_L_POINTS, CERTIFY_M_POINTS = 100, 30


class BigBody:
    """Library calls on hulls of 10^2-10^3 vertices; op types rotate."""

    name = "big-body"
    nominal_cycle_s = 14.0

    def __init__(self, mv, seed: int, workdir: Path):
        self.mv, self.seed = mv, seed

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.seed, c, 3)
        ops = [self._hull(_sphere_points(rng, n)) for n in HULL_POINTS]
        ops += [self._form(_sphere_points(rng, n), _sphere_points(rng, n),
                           _sphere_points(rng, FORM_M_POINTS))
                for n in FORM_POINTS]
        ops += [self._polarize(*(_sphere_points(rng, n) for n in sizes))
                for sizes in POLARIZE_SIZES]
        ops += [self._classical(_sphere_points(rng, n)) for n in CLASSICAL_POINTS]
        l_pts = _sphere_points(rng, CERTIFY_L_POINTS)
        m_pts = _sphere_points(rng, CERTIFY_M_POINTS)
        k_eq = rng.uniform(0.5, 2.0) * l_pts + rng.standard_normal(3)
        k_strict = _sphere_points(rng, CERTIFY_L_POINTS) * [1.5, 1.0, 0.7]
        ops += [self._certify(k_eq, l_pts, m_pts, "equality"),
                self._certify(k_strict, l_pts, m_pts, "strict")]
        order = _rng(self.seed, c, 4).permutation(len(ops))
        return [ops[i] for i in order]

    def _hull(self, pts: np.ndarray) -> Op:
        def check(p):
            v, e, f = len(p.vertices), len(p.edges), len(p.facets)
            if v != len(pts) or v - e + f != 2:
                return f"V={v} E={e} F={f} for {len(pts)} sphere points"
            ref = ConvexHull(pts).volume
            if _rel(p.volume, ref) > 1e-9:
                return f"volume {p.volume!r} vs Qhull {ref!r}"
            return None

        return Op(f"hull n={len(pts)}", lambda: self.mv.bodies.hull(pts), check)

    def _polarize(self, kp, lp, mp) -> Op:
        def run():
            hull, ms = self.mv.bodies.hull, self.mv.measures
            k, l, m = hull(kp), hull(lp), hull(mp)
            return (ms.mixed_volume(k, l, m),
                    ms.mixed_volume_via_measure(k, l, m))

        def check(res):
            v1, v2 = res
            if _rel(v2, v1) > 1e-9:
                return f"polarization {v1!r} vs measure {v2!r}"
            return None

        return Op(f"polarize {len(kp)},{len(lp)},{len(mp)}", run, check)

    def _classical(self, pts: np.ndarray) -> Op:
        def run():
            k = self.mv.bodies.hull(pts)
            return (self.mv.measures.classical_functionals(k),
                    self.mv.measures.vbbm_conewise(k))

        def check(res):
            (vol, s, w), vbbm = res
            # mean width w = (3/2pi) V(B,B,K) = mass(S_{B,K}) / (2 pi)
            sbm_mass = 2 * np.pi * w
            if _rel(sbm_mass, 3 * vbbm) > 1e-6:
                return f"S_BM mass {sbm_mass!r} vs 3 vbbm {3 * vbbm!r}"
            scale = max(s * s, np.pi * w * w, 1.0)
            if s * s - 6 * np.pi * w * vol < -1e-9 * scale:
                return "isoperimetric inequality fails"
            if np.pi * w * w - s < -1e-9 * scale:
                return "mean-width inequality fails"
            return None

        return Op(f"classical n={len(pts)}", run, check)

    def _form(self, kp, lp, mp) -> Op:
        def run():
            hull, g = self.mv.bodies.hull, self.mv.graph
            ev = self.mv.bodies.SupportEvaluator.of
            k, l, m = hull(kp), hull(lp), hull(mp)
            return g.form_value(g.build_graph(m), ev(k), ev(l))

        def check(val):
            ref = _polarization_reference(kp, lp, mp)
            if _rel(val, ref) > 1e-6:
                return f"form {val!r} vs polarization {ref!r}"
            return None

        return Op(f"form n={len(kp)} M={len(mp)}", run, check)

    def _certify(self, kp, lp, mp, expect: str) -> Op:
        def run():
            hull = self.mv.bodies.hull
            return self.mv.extremal.certify_equality_fulldim(
                hull(kp), hull(lp), hull(mp))

        def check(cert):
            if cert.verdict != expect:
                return f"verdict {cert.verdict}, expected {expect}"
            return None

        return Op(f"certify {expect} L={len(lp)} M={len(mp)}", run, check)


WORKLOADS = {w.name: w for w in (SuiteMix, SpectrumLadder, BigBody)}
