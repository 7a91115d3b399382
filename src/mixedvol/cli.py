"""Command-line front end: file formats, reports, randomized suites, exports.

This is the only module with I/O. All randomness is seeded and split per
instance, so re-running a command with the same flags reproduces identical
numeric fields bit-for-bit (the wall-time field excepted), and every suite
failure is replayable from (suite, seed, index).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import bodies as B
from . import extremal as X
from . import lowerdim as LD
from . import measures as MS
from .bodies import Polytope, SupportEvaluator
from .errors import MixedVolError
from .graph import (MetricGraph, assemble, build_graph,
                    form_value, kernel_analysis, sbm_and_mu, spectrum,
                    structural_checks)
from . import quadrature as quad

CSV_SCHEMA_VERSION = "mixedvol-report-v1"


# ---------------------------------------------------------------------------
# Body and file parsing
# ---------------------------------------------------------------------------

def parse_polytope(path: str) -> Polytope:
    """Load a PolytopeFile: JSON {"vertices": [[x,y,z], ...], "name": str?}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read polytope file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path!r}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError(f"{path!r}: missing field 'vertices'")
    verts = doc["vertices"]
    if not isinstance(verts, list) or not verts:
        raise InputError(f"{path!r}: field 'vertices' must be a non-empty list")
    arr = np.asarray(verts, dtype=float) if _is_rectangular(verts) else None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 3:
        raise InputError(f"{path!r}: field 'vertices' must be a list of [x, y, z]")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path!r}: field 'vertices' contains non-finite numbers")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"{path!r}: field 'name' must be a string")
    return B.hull(arr, name=name)


def _is_rectangular(rows) -> bool:
    return all(isinstance(r, (list, tuple)) and len(r) == 3
               and all(isinstance(x, (int, float)) for x in r) for r in rows)


class InputError(Exception):
    """Bad input: reported on stderr with exit code 2."""


def parse_body(spec: str):
    """A builtin body name or a PolytopeFile path.

    Builtins: cube, simplex, square, segment, ball@level, shear:alpha,
    trunc:delta (corner truncation of the unit cube)."""
    if spec == "cube":
        return B.cube()
    if spec == "simplex":
        return B.simplex()
    if spec == "square":
        return B.hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                               dtype=float), name="square")
    if spec == "segment":
        return B.segment([0, 0, 0], [1, 0, 0])
    if spec.startswith("ball@"):
        return B.approximate_ball(_int_param(spec, "ball@"))
    if spec.startswith("shear:"):
        return B.shear(B.cube(), [1, 0, 0], [0, 0, 1],
                       _float_param(spec, "shear:"))
    if spec.startswith("trunc:"):
        return B.truncate_vertex(B.cube(), 0, _float_param(spec, "trunc:"),
                                 vertex_only=False)
    return parse_polytope(spec)


def _int_param(spec: str, prefix: str) -> int:
    try:
        return int(spec[len(prefix):])
    except ValueError as exc:
        raise InputError(f"bad body spec {spec!r}: integer expected after "
                         f"{prefix!r}") from exc


def _float_param(spec: str, prefix: str) -> float:
    try:
        return float(spec[len(prefix):])
    except ValueError as exc:
        raise InputError(f"bad body spec {spec!r}: number expected after "
                         f"{prefix!r}") from exc


def parse_direction(text: str) -> np.ndarray:
    try:
        v = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InputError(f"bad direction {text!r}: expected x,y,z") from exc
    if v.shape != (3,) or not np.all(np.isfinite(v)) or np.linalg.norm(v) == 0:
        raise InputError(f"bad direction {text!r}: expected a nonzero 3-vector")
    return B.unit(v)


def require_full_dim(p: Polytope, slot: str) -> Polytope:
    if p.dim < 3:
        raise InputError(f"--{slot}: affine dimension {p.dim} "
                         "(full-dimensional command)")
    return p


# ---------------------------------------------------------------------------
# Graph export / import
# ---------------------------------------------------------------------------

def graph_to_json(g: MetricGraph) -> dict:
    return {
        "normals": g.normals.tolist(),
        "areas": g.areas.tolist(),
        "edges": [{"facets": ij, "length": l, "weight": w}
                  for ij, l, w in zip(g.edges.tolist(), g.lengths.tolist(),
                                      g.weights.tolist())],
    }


def graph_from_json(doc: dict) -> MetricGraph:
    normals = np.asarray(doc["normals"], dtype=float)
    edges = np.array([e["facets"] for e in doc["edges"]], dtype=np.intp).reshape(-1, 2)
    starts = normals[edges[:, 0]]
    tangents, _ = quad.arcs_between(starts, normals[edges[:, 1]])
    return MetricGraph(
        normals, np.asarray(doc["areas"], dtype=float), edges,
        np.array([e["length"] for e in doc["edges"]], dtype=float),
        np.array([e["weight"] for e in doc["edges"]], dtype=float),
        starts, tangents)


def graph_to_dot(g: MetricGraph) -> str:
    lines = ["graph metric {"]
    for i, n in enumerate(g.normals):
        label = "({:.6f}, {:.6f}, {:.6f})".format(*n)
        lines.append(f'  v{i} [label="{label}"];')
    for (i, j), l, w in zip(g.edges.tolist(), g.lengths.tolist(),
                            g.weights.tolist()):
        lines.append(f'  v{i} -- v{j} [label="l={l:.6g}, w={w:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(g: MetricGraph, fmt: str, out: str | None) -> str:
    if fmt == "dot":
        text = graph_to_dot(g)
    elif fmt == "json":
        text = json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"
    else:
        raise InputError(f"--format: graph export supports dot|json, got {fmt!r}")
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"--out: cannot write {out!r}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = obj


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    flat: dict = {}
    _flatten("", report, flat)
    keys = list(flat.keys())
    header = f"# schema: {CSV_SCHEMA_VERSION}\n"
    row1 = ",".join(keys)
    row2 = ",".join(json.dumps(flat[k]) if isinstance(flat[k], str)
                    else repr(flat[k]) for k in keys)
    return header + row1 + "\n" + row2 + "\n"


def base_report(args, command: str, params: dict) -> dict:
    return {"command": command, "seed": args.seed, "params": params,
            "values": {}, "margins": {}, "verdicts": {}, "wall_time": 0.0}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_mixvol(args):
    k, l = parse_body(args.K), parse_body(args.L)
    m = parse_body(args.M)
    v = MS.mv3(k, l, m)
    rep = base_report(args, "mixvol", {"K": args.K, "L": args.L, "M": args.M})
    rep["values"]["V"] = v
    return rep, 0


def cmd_deficit(args):
    k, l = parse_body(args.K), parse_body(args.L)
    m = require_full_dim(parse_body(args.M), "M")
    dr = MS.quadratic_deficit(k, l, m)
    rep = base_report(args, "deficit", {"K": args.K, "L": args.L, "M": args.M})
    rep["values"].update({"V_KL": dr.v_kl, "V_KK": dr.v_kk, "V_LL": dr.v_ll,
                          "deficit": dr.deficit, "scale": dr.scale})
    ok = dr.deficit >= -X.DEFICIT_THRESHOLD * dr.scale
    rep["params"]["deficit_threshold"] = X.DEFICIT_THRESHOLD
    rep["margins"]["deficit_over_scale"] = dr.deficit / dr.scale
    rep["verdicts"]["nonnegative"] = bool(ok)
    return rep, 0 if ok else 1


def cmd_graph(args):
    m = require_full_dim(parse_body(args.M), "M")
    g = build_graph(m)
    text = export_graph(g, args.format, args.out)
    sys.stdout.write(text)
    return None, 0


def cmd_spectrum(args):
    m = require_full_dim(parse_body(args.M), "M")
    g = build_graph(m)
    form = assemble(g, args.mesh_h)
    spec = spectrum(form, args.kmax)
    # twice the a-priori P1 eigenvalue error k^4 h^2 / 36 at k = 1, the rule
    # of lower-spectrum: the kernel's discrete eigenvalues lie within h^2 / 36
    # of 0, and the next ones are of order 1
    tau = 2.0 * args.mesh_h ** 2 / 36.0
    ker = kernel_analysis(spec, tau)
    rep = base_report(args, "spectrum",
                      {"M": args.M, "mesh_h": args.mesh_h, "kmax": args.kmax,
                       "kernel_window": tau})
    rep["values"].update({
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "kernel_dimension": ker.dimension,
        "kernel_principal_angle_residual": ker.principal_angle_residual,
        "eigen_residual_max": float(spec.residuals.max()),
        "dofs": form.size,
    })
    return rep, 0


def cmd_certify_full(args):
    k, l = parse_body(args.K), parse_body(args.L)
    m = require_full_dim(parse_body(args.M), "M")
    cert = X.certify_equality_fulldim(k, l, m)
    rep = base_report(args, "certify-full",
                      {"K": args.K, "L": args.L, "M": args.M})
    rep["values"].update({
        "a": cert.a, "v": cert.v.tolist(),
        "deficit": cert.deficit_report.deficit,
        "scale": cert.scale, "sup_residual": cert.sup_residual,
        "diameter": cert.diameter,
    })
    rep["verdicts"]["verdict"] = cert.verdict
    return rep, 0 if cert.verdict != "inconclusive" else 1


def cmd_certify_lower(args):
    k, l = parse_body(args.K), parse_body(args.L)
    m = parse_body(args.M)
    w = parse_direction(args.w)
    cert = LD.certify_equality_lowerdim(k, l, m, w)
    rep = base_report(args, "certify-lower",
                      {"K": args.K, "L": args.L, "M": args.M, "w": args.w})
    rep["values"].update({
        "c": cert.c, "deficit": cert.deficit_report.deficit,
        "scale": cert.scale, "sup_residual": cert.sup_residual,
        "diameter": cert.diameter,
    })
    rep["verdicts"]["verdict"] = cert.verdict
    return rep, 0 if cert.verdict != "inconclusive" else 1


def cmd_stability(args):
    k, l = parse_body(args.K), parse_body(args.L)
    m = require_full_dim(parse_body(args.M), "M")
    r = X.weak_stability_check(k, l, m)
    rep = base_report(args, "stability", {"K": args.K, "L": args.L, "M": args.M})
    rep["values"].update({"lhs": r.lhs, "rhs": r.rhs,
                          "a": r.witness.a, "v": r.witness.v.tolist(),
                          "C_M": r.witness.c_m, "residual": r.witness.residual,
                          "r": r.witness.r, "R": r.witness.big_r})
    rep["margins"]["margin"] = r.margin
    rep["verdicts"]["holds"] = bool(r.holds)
    return rep, 0 if r.holds else 1


def cmd_rigidity(args):
    k, l = parse_body(args.K), parse_body(args.L)
    m = require_full_dim(parse_body(args.M), "M")
    r = X.rigidity_check(k, l, m)
    rep = base_report(args, "rigidity", {"K": args.K, "L": args.L, "M": args.M})
    rep["values"].update({"lhs": r.lhs, "rhs": r.rhs,
                          "sbm_integral": r.sbm_integral,
                          "mu_integral": r.mu_integral,
                          "r": r.r, "R": r.big_r})
    rep["margins"]["margin"] = r.margin
    rep["verdicts"]["holds"] = bool(r.holds)
    return rep, 0 if r.holds else 1


def cmd_lower_spectrum(args):
    m = parse_body(args.M)
    w = parse_direction(args.w)
    p = LD.lowerdim_setup(m, w)
    tol = args.tol
    if tol is None:
        # twice the a-priori P1 eigenvalue error k^4 h^2 / 36 at k = kmax
        tol = 2.0 * args.kmax ** 4 * args.mesh_h ** 2 / 36.0
    r = LD.verify_spectrum(p, args.kmax, args.mesh_h, tol)
    rep = base_report(args, "lower-spectrum",
                      {"M": args.M, "w": args.w, "kmax": args.kmax,
                       "mesh_h": args.mesh_h, "tol": tol})
    rep["values"]["multiplicity"] = p.multiplicity
    rep["values"]["eigen_residual_max"] = r.eigen_residual_max
    rep["values"]["clusters"] = [
        {"k": c.k, "predicted": c.predicted,
         "observed": list(c.observed)} for c in r.clusters]
    rep["margins"]["worst_deviation"] = r.worst_deviation
    rep["verdicts"]["ok"] = bool(r.ok)
    return rep, 0 if r.ok else 1


def cmd_demo(args):
    c = B.cube()
    g = build_graph(c)
    sbm, mu = sbm_and_mu(g)
    vol, surf, width = MS.classical_functionals(c)
    form = assemble(g, args.mesh_h)
    spec = spectrum(form, 8)
    cert = X.certify_equality_fulldim(
        B.truncate_vertex(c, 0, 0.1, vertex_only=False), c, c)
    rep = base_report(args, "demo", {"mesh_h": args.mesh_h})
    rep["values"].update({
        "cube_volume": vol, "cube_surface": surf, "cube_mean_width": width,
        "sbm_mass": sbm.total_mass(), "mu_mass": mu.total_mass(),
        "top_eigenvalues": [float(v) for v in spec.eigenvalues[:5]],
        "truncated_cube_verdict": cert.verdict,
    })
    return rep, 0


# ---------------------------------------------------------------------------
# Randomized suites
# ---------------------------------------------------------------------------

def _instance_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


def _rand_poly(seed: int, count: int = 10) -> Polytope:
    return B.random_hull(count, seed)


def suite_mixvol(seed: int) -> tuple[bool, dict]:
    k = _rand_poly(seed)
    l = _rand_poly(seed + 1)
    m = _rand_poly(seed + 2)
    v1 = MS.mixed_volume(k, l, m)
    v2 = MS.mixed_volume_via_measure(k, l, m)
    rel = abs(v1 - v2) / max(abs(v1), 1e-30)
    return rel <= 1e-9, {"polarization": v1, "measure": v2, "rel": rel}


def suite_graph(seed: int) -> tuple[bool, dict]:
    m = _rand_poly(seed)
    g = build_graph(m)
    sbm, mu = sbm_and_mu(g)
    mass = sbm.total_mass()
    vbbm = MS.vbbm_conewise(m)
    rel = abs(mass - 3 * vbbm) / max(abs(3 * vbbm), 1e-30)
    mu_rel = abs(mu.total_mass() - 2 * mass) / max(2 * mass, 1e-30)
    r, big_r = B.enclosing_radii(m)
    struct = structural_checks(g, r, big_r)
    ok = (rel <= 1e-6 and mu_rel <= 1e-12 and not struct.violations)
    return ok, {"sbm_mass": mass, "vbbm_rel": rel, "mu_rel": mu_rel,
                "violations": list(struct.violations)}


def suite_form(seed: int) -> tuple[bool, dict]:
    k = _rand_poly(seed)
    l = _rand_poly(seed + 1)
    m = _rand_poly(seed + 2)
    v1 = MS.mixed_volume(k, l, m)
    v2 = form_value(build_graph(m), SupportEvaluator.of(k),
                    SupportEvaluator.of(l))
    rel = abs(v1 - v2) / max(abs(v1), 1e-30)
    return rel <= 1e-6, {"polarization": v1, "form": v2, "rel": rel}


def suite_stability(seed: int) -> tuple[bool, dict]:
    k = _rand_poly(seed)
    l = _rand_poly(seed + 1)
    m = _rand_poly(seed + 2).centered()
    r = X.weak_stability_check(k, l, m)
    return bool(r.holds), {"lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}


def suite_rigidity(seed: int) -> tuple[bool, dict]:
    k = _rand_poly(seed)
    l = _rand_poly(seed + 1)
    m = _rand_poly(seed + 2).centered()
    r = X.rigidity_check(k, l, m)
    return bool(r.holds), {"lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}


def suite_certify(seed: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    l = _rand_poly(seed)
    m = _rand_poly(seed + 1)
    if seed % 2 == 0:
        # constructed equality instance: K = a L + v
        a = float(rng.uniform(0.5, 2.0))
        k = B.hull(a * l.vertices + rng.standard_normal(3))
        expect = "equality"
    else:
        k = _rand_poly(seed + 2)
        expect = None   # random: require verdict to agree with the deficit
    cert = X.certify_equality_fulldim(k, l, m)
    dr = cert.deficit_report
    deficit_small = dr.deficit <= 1e-9 * dr.scale
    if expect == "equality":
        ok = cert.verdict == "equality" and deficit_small
    else:
        ok = ((cert.verdict == "equality") == deficit_small
              and cert.verdict != "inconclusive")
    return ok, {"verdict": cert.verdict, "deficit": dr.deficit,
                "scale": dr.scale, "sup_residual": cert.sup_residual}


def suite_classical(seed: int) -> tuple[bool, dict]:
    k = _rand_poly(seed)
    vol, s, w = MS.classical_functionals(k)
    m1 = s * s - 6 * np.pi * w * vol
    m2 = np.pi * w * w - s
    scale = max(s * s, np.pi * w * w, 1.0)
    ok = m1 >= -1e-9 * scale and m2 >= -1e-9 * scale
    return ok, {"volume": vol, "surface": s, "mean_width": w,
                "isoperimetric_margin": m1, "width_margin": m2}


def suite_lower(seed: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    # random polygon M in e3-perp, K and L full-dimensional
    npts = int(rng.integers(4, 9))
    pts = np.column_stack([rng.standard_normal((npts, 2)),
                           np.zeros(npts)])
    m = B.hull(pts)
    k = _rand_poly(seed + 1)
    l = _rand_poly(seed + 2)
    w = np.array([0.0, 0.0, 1.0])
    cert = LD.certify_equality_lowerdim(k, l, m, w)
    dr = cert.deficit_report
    deficit_small = dr.deficit <= 1e-9 * dr.scale
    ok = ((cert.verdict == "equality") == deficit_small
          and cert.verdict != "inconclusive")
    return ok, {"verdict": cert.verdict, "deficit": dr.deficit,
                "scale": dr.scale, "sup_residual": cert.sup_residual}


SUITES = {
    "mixvol": suite_mixvol,
    "graph": suite_graph,
    "form": suite_form,
    "stability": suite_stability,
    "rigidity": suite_rigidity,
    "certify": suite_certify,
    "classical": suite_classical,
    "lower": suite_lower,
}


def cmd_randtest(args):
    if args.suite not in SUITES:
        raise InputError(f"--suite: unknown suite {args.suite!r} "
                         f"(choose from {sorted(SUITES)})")
    fun = SUITES[args.suite]
    seeds = _instance_seeds(args.seed, args.n)
    failures = []
    for idx, s in enumerate(seeds):
        ok, vals = fun(s)
        if not ok:
            failures.append({"index": idx, "instance_seed": s, **vals})
    rep = base_report(args, "randtest",
                      {"suite": args.suite, "n": args.n})
    rep["values"]["passed"] = args.n - len(failures)
    rep["values"]["failed"] = len(failures)
    rep["values"]["failures"] = failures
    rep["verdicts"]["all_pass"] = not failures
    return rep, 0 if not failures else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


FLAGS = {
    "K": dict(default="cube"),
    "L": dict(default="cube"),
    "M": dict(default="cube"),
    "w": dict(default="0,0,1"),
    # None: derived from kmax and the mesh size
    "tol": dict(type=positive_float, default=None),
    "mesh-h": dict(dest="mesh_h", type=positive_float,
                   default=float(np.pi) / 100),
    "kmax": dict(type=int, default=8),
    "suite": dict(default="mixvol"),
    "n": dict(type=nonnegative_int, default=10),
}

# The flags each subcommand reads. Every command except graph writes a report
# and also takes --seed, --format json|csv and --out; graph takes
# --format dot|json and --out.
COMMAND_FLAGS = {
    "mixvol": "K L M",
    "deficit": "K L M",
    "graph": "M",
    "spectrum": "M mesh-h kmax",
    "certify-full": "K L M",
    "certify-lower": "K L M w",
    "stability": "K L M",
    "rigidity": "K L M",
    "lower-spectrum": "M w kmax mesh-h tol",
    "randtest": "suite n",
    "demo": "mesh-h",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    mutate it."""
    ap = argparse.ArgumentParser(
        prog="mixedvol",
        description="Mixed volumes, metric-graph spectra, and equality/"
                    "stability/rigidity checks for 3D convex polytopes.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        if name == "graph":
            p.add_argument("--format", choices=["dot", "json"], default="json")
        else:
            p.add_argument("--seed", type=nonnegative_int, default=0)
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
    sub.choices["lower-spectrum"].set_defaults(kmax=2)
    return ap


COMMANDS = {
    "mixvol": cmd_mixvol,
    "deficit": cmd_deficit,
    "graph": cmd_graph,
    "spectrum": cmd_spectrum,
    "certify-full": cmd_certify_full,
    "certify-lower": cmd_certify_lower,
    "stability": cmd_stability,
    "rigidity": cmd_rigidity,
    "lower-spectrum": cmd_lower_spectrum,
    "randtest": cmd_randtest,
    "demo": cmd_demo,
}


def run_command(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        report, code = COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MixedVolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        report["wall_time"] = time.perf_counter() - start
        text = render_report(report, args.format)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: --out: cannot write {args.out!r}: {exc}",
                      file=sys.stderr)
                return 2
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
