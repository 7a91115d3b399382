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
from .graph import (MetricGraph, assemble, build_graph, form_value,
                    kernel_analysis, p1_window, spectrum, structural_checks)

CSV_SCHEMA_VERSION = "mixedvol-report-v2"
# points per random hull of the randomized suites
RAND_POLY_POINTS = 10


# ---------------------------------------------------------------------------
# Bodies and file parsing
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
    # JSON true and false load as bool, a subclass of int
    return all(isinstance(r, (list, tuple)) and len(r) == 3
               and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in r) for r in rows)


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
        return B.truncate_vertex(B.cube(), 0, _float_param(spec, "trunc:"))
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
    if v.shape != (3,) or not np.all(np.isfinite(v)) or not v.any():
        raise InputError(f"bad direction {text!r}: expected a nonzero 3-vector")
    # at unit max-abs the norm neither overflows nor falls below unit()'s floor
    return B.unit(v / np.abs(v).max())


def require_full_dim(p: Polytope, slot: str) -> Polytope:
    if p.dim < 3:
        raise InputError(f"--{slot}: affine dimension {p.dim} "
                         "(full-dimensional command)")
    return p


def parse_triple(args, full_dim: bool) -> tuple[Polytope, Polytope, Polytope]:
    """The bodies of --K, --L and --M, parsed in that order; a
    full-dimensional command also requires M to be 3-dimensional."""
    k, l, m = parse_body(args.K), parse_body(args.L), parse_body(args.M)
    return k, l, require_full_dim(m, "M") if full_dim else m


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

def graph_to_json(g: MetricGraph) -> dict:
    return {
        "normals": g.normals.tolist(),
        "areas": g.areas.tolist(),
        "edges": [{"facets": ij, "length": l, "weight": w}
                  for ij, l, w in zip(g.edges.tolist(), g.arcs.lengths.tolist(),
                                      g.weights.tolist())],
    }


def graph_to_dot(g: MetricGraph) -> str:
    lines = ["graph metric {"]
    for i, n in enumerate(g.normals):
        label = "({:.6f}, {:.6f}, {:.6f})".format(*n)
        lines.append(f'  v{i} [label="{label}"];')
    for (i, j), l, w in zip(g.edges.tolist(), g.arcs.lengths.tolist(),
                            g.weights.tolist()):
        lines.append(f'  v{i} -- v{j} [label="l={l:.6g}, w={w:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_mixvol(args, rep):
    rep["values"]["V"] = MS.mv3(*parse_triple(args, full_dim=False))
    return 0


def cmd_deficit(args, rep):
    dr = MS.quadratic_deficit(*parse_triple(args, full_dim=True))
    rep["values"].update({"V_KL": dr.v_kl, "V_KK": dr.v_kk, "V_LL": dr.v_ll,
                          "deficit": dr.deficit, "scale": dr.scale})
    ok = dr.deficit >= -X.deficit_tolerance(dr.scale)
    rep["params"]["deficit_threshold"] = X.DEFICIT_THRESHOLD
    rep["margins"]["deficit_over_scale"] = dr.deficit / dr.scale
    rep["verdicts"]["nonnegative"] = bool(ok)
    return 0 if ok else 1


def cmd_graph(args, rep):
    """The graph export is the whole output: no report."""
    g = build_graph(require_full_dim(parse_body(args.M), "M"))
    if args.format == "dot":
        return graph_to_dot(g)
    return json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"


def cmd_spectrum(args, rep):
    m = require_full_dim(parse_body(args.M), "M")
    form = assemble(build_graph(m), args.mesh_h)
    spec = spectrum(form, args.kmax)
    # the kernel's discrete eigenvalues lie within h^2 / 36 of 0, h the
    # longest element, and the next ones are of order 1
    tau = p1_window(1, form.max_element)
    ker = kernel_analysis(spec, tau)
    rep["params"]["kernel_window"] = tau
    rep["values"].update({
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "kernel_dimension": ker.dimension,
        "kernel_principal_angle_residual": ker.principal_angle_residual,
        "eigen_residual_max": float(spec.residuals.max()),
        "dofs": form.size,
    })
    return 0


def certificate_report(rep, cert, coefficients: dict) -> int:
    """The report of an equality certificate, its values led by the
    coefficients of its criterion."""
    rep["values"].update(coefficients)
    rep["values"].update({
        "deficit": cert.deficit_report.deficit,
        "scale": cert.deficit_report.scale, "sup_residual": cert.sup_residual,
        "diameter": cert.diameter,
    })
    rep["verdicts"]["verdict"] = cert.verdict
    return 0 if cert.verdict != "inconclusive" else 1


def cmd_certify_full(args, rep):
    cert = X.certify_equality_fulldim(*parse_triple(args, full_dim=True))
    return certificate_report(rep, cert, {"a": cert.a, "v": cert.v.tolist()})


def cmd_certify_lower(args, rep):
    k, l, m = parse_triple(args, full_dim=False)
    cert = LD.certify_equality_lowerdim(k, l, m, parse_direction(args.w))
    return certificate_report(rep, cert, {"c": cert.a})


def margin_report(rep, r, values: dict) -> int:
    """The report of an inequality check with a margin (stability,
    rigidity): lhs, rhs and the check's own values."""
    rep["values"].update({"lhs": r.lhs, "rhs": r.rhs, **values})
    rep["margins"]["margin"] = r.margin
    rep["verdicts"]["holds"] = bool(r.holds)
    return 0 if r.holds else 1


def cmd_stability(args, rep):
    r = X.weak_stability_check(*parse_triple(args, full_dim=True))
    w = r.witness
    return margin_report(rep, r, {"a": w.a, "v": w.v.tolist(), "C_M": w.c_m,
                                  "residual": w.residual, "r": w.r,
                                  "R": w.big_r})


def cmd_rigidity(args, rep):
    r = X.rigidity_check(*parse_triple(args, full_dim=True))
    return margin_report(rep, r, {"sbm_integral": r.sbm_integral,
                                  "mu_integral": r.mu_integral,
                                  "r": r.r, "R": r.big_r})


def cmd_lower_spectrum(args, rep):
    g = LD.lowerdim_setup(parse_body(args.M), parse_direction(args.w))
    r = LD.verify_spectrum(g, args.kmax, args.mesh_h, args.tol)
    rep["params"]["tol"] = r.tol
    rep["values"]["multiplicity"] = len(g.edges)
    rep["values"]["eigen_residual_max"] = r.eigen_residual_max
    rep["values"]["clusters"] = [
        {"k": c.k, "predicted": c.predicted,
         "observed": list(c.observed)} for c in r.clusters]
    rep["margins"]["worst_deviation"] = r.worst_deviation
    rep["verdicts"]["ok"] = bool(r.ok)
    return 0 if r.ok else 1


def cmd_demo(args, rep):
    c = B.cube()
    g = build_graph(c)
    vol, surf, width = MS.classical_functionals(c)
    form = assemble(g, args.mesh_h)
    spec = spectrum(form, 8)
    cert = X.certify_equality_fulldim(
        B.truncate_vertex(c, 0, 0.1), c, c)
    rep["values"].update({
        "cube_volume": vol, "cube_surface": surf, "cube_mean_width": width,
        "sbm_mass": g.sbm_mass(), "mu_mass": sum(g.mu_masses().tolist()),
        "top_eigenvalues": [float(v) for v in spec.eigenvalues[:5]],
        "truncated_cube_verdict": cert.verdict,
    })
    return 0


# ---------------------------------------------------------------------------
# Randomized suites
# ---------------------------------------------------------------------------

def _instance_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


def _rand_poly(seed: int) -> Polytope:
    return B.random_hull(RAND_POLY_POINTS, seed)


def _rand_triple(seed: int) -> tuple[Polytope, Polytope, Polytope]:
    """(K, L, M) drawn from the seeds seed, seed + 1 and seed + 2."""
    return _rand_poly(seed), _rand_poly(seed + 1), _rand_poly(seed + 2)


def suite_mixvol(seed: int) -> tuple[bool, dict]:
    k, l, m = _rand_triple(seed)
    v1 = MS.mixed_volume(k, l, m)
    v2 = MS.mixed_volume_via_measure(k, l, m)
    rel = abs(v1 - v2) / max(abs(v1), 1e-30)
    return rel <= 1e-9, {"polarization": v1, "measure": v2, "rel": rel}


def suite_graph(seed: int) -> tuple[bool, dict]:
    m = _rand_poly(seed)
    g = build_graph(m)
    mass = g.sbm_mass()
    vbbm = MS.vbbm_conewise(m)
    rel = abs(mass - 3 * vbbm) / max(abs(3 * vbbm), 1e-30)
    mu_rel = abs(sum(g.mu_masses().tolist()) - 2 * mass) / max(2 * mass, 1e-30)
    r, big_r = B.enclosing_radii(m)
    struct = structural_checks(g, r, big_r)
    ok = (rel <= 1e-6 and mu_rel <= 1e-12 and not struct.violations)
    return ok, {"sbm_mass": mass, "vbbm_rel": rel, "mu_rel": mu_rel,
                "violations": list(struct.violations)}


def suite_form(seed: int) -> tuple[bool, dict]:
    k, l, m = _rand_triple(seed)
    v1 = MS.mixed_volume(k, l, m)
    v2 = form_value(build_graph(m), SupportEvaluator.of(k),
                    SupportEvaluator.of(l))
    rel = abs(v1 - v2) / max(abs(v1), 1e-30)
    return rel <= 1e-6, {"polarization": v1, "form": v2, "rel": rel}


def suite_margin(check, seed: int) -> tuple[bool, dict]:
    """An inequality check with a margin (stability, rigidity) on a random
    triple."""
    r = check(*_rand_triple(seed))
    return bool(r.holds), {"lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}


def verdict_check(cert, expect_equality: bool = False) -> tuple[bool, dict]:
    """Whether a certificate's verdict agrees with its deficit: equality
    exactly when the deficit is small, and never inconclusive (for a
    constructed equality instance: equality, with a small deficit)."""
    dr = cert.deficit_report
    deficit_small = dr.deficit <= X.deficit_tolerance(dr.scale)
    if expect_equality:
        ok = cert.verdict == "equality" and deficit_small
    else:
        ok = ((cert.verdict == "equality") == deficit_small
              and cert.verdict != "inconclusive")
    return ok, {"verdict": cert.verdict, "deficit": dr.deficit,
                "scale": dr.scale, "sup_residual": cert.sup_residual}


def suite_certify(seed: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    l = _rand_poly(seed)
    m = _rand_poly(seed + 1)
    expect_equality = seed % 2 == 0
    if expect_equality:
        # constructed equality instance: K = a L + v
        a = float(rng.uniform(0.5, 2.0))
        k = B.hull(a * l.vertices + rng.standard_normal(3))
    else:
        k = _rand_poly(seed + 2)
    return verdict_check(X.certify_equality_fulldim(k, l, m),
                         expect_equality)


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
    return verdict_check(LD.certify_equality_lowerdim(k, l, m, w))


SUITES = {
    "mixvol": suite_mixvol,
    "graph": suite_graph,
    "form": suite_form,
    # the checks are looked up at call time, not bound here
    "stability": lambda seed: suite_margin(X.weak_stability_check, seed),
    "rigidity": lambda seed: suite_margin(X.rigidity_check, seed),
    "certify": suite_certify,
    "classical": suite_classical,
    "lower": suite_lower,
}


def cmd_randtest(args, rep):
    fun = SUITES[args.suite]
    seeds = _instance_seeds(args.seed, args.n)
    failures = []
    for idx, s in enumerate(seeds):
        ok, vals = fun(s)
        if not ok:
            failures.append({"index": idx, "instance_seed": s, **vals})
    rep["values"]["passed"] = args.n - len(failures)
    rep["values"]["failed"] = len(failures)
    rep["values"]["failures"] = failures
    rep["verdicts"]["all_pass"] = not failures
    return 0 if not failures else 1


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
    "mesh-h": dict(type=positive_float, default=float(np.pi) / 100),
    "kmax": dict(type=int, default=8),
    "suite": dict(choices=sorted(SUITES), metavar="SUITE", default="mixvol"),
    "n": dict(type=nonnegative_int, default=10),
    "seed": dict(type=nonnegative_int, default=0),
}

# The flags each subcommand reads, which are also its report's params (with
# - read as _). Every command except graph writes a report and also takes
# --format json|csv and --out; graph takes --format dot|json and --out.
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
    "randtest": "suite n seed",
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
    names = [f.replace("-", "_") for f in COMMAND_FLAGS[args.command].split()]
    report = {"command": args.command,
              "params": {n: getattr(args, n) for n in names},
              "values": {}, "margins": {}, "verdicts": {}, "wall_time": 0.0}
    start = time.perf_counter()
    try:
        code = COMMANDS[args.command](args, report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MixedVolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # NumPy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    if isinstance(code, str):       # graph returns its export, not a code
        text, code = code, 0
    else:
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
