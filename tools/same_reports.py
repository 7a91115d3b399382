"""Compare the command-line reports of this tree with those of a git revision.

    python tools/same_reports.py --base <rev>

The revision's ``src/`` is exported with ``git archive`` into a temporary
directory. Each tree then runs the same invocations through
``mixedvol.cli.run_command``, all in one subprocess per tree with
``PYTHONPATH=<tree>/src``:

- every ``mixedvol`` usage line of README.md's "Command line" block, read as
  the CI step reads them;
- ``randtest`` of every suite at ``--n 200``, seeds 0-2;
- ``deficit``, ``certify-full``, ``stability`` and ``rigidity`` on large
  bodies: ``K`` and ``L`` the hulls of 100 and of 600 seeded unit-sphere
  points, ``M`` of 10 and of 30, so that both trees restrict support
  functions of 100-600 vertices to the arcs of a metric graph;
- ``spectrum`` on metric graphs with many elements and high-degree
  vertices: ``ball@2`` at ``--mesh-h`` pi/100, ``M30`` and a prism over a
  regular 20-gon (its two caps of degree 20) at pi/60;
- ``lower-spectrum`` on the bouquets of half circles: ``segment`` and
  ``square`` at ``--mesh-h`` pi/200 with ``--kmax 3``, a seeded irregular
  hexagon, whose half circles all carry different weights, at pi/150 with
  ``--kmax 2``, and a regular 20-gon, whose poles have degree 20, at pi/100
  with ``--kmax 2``.

The points of the large bodies, the prism, the hexagon and the 20-gon are
written once as PolytopeFiles to a temporary directory that both trees read,
so the reports name the same paths.

A run differs when its exit code, its stderr or its stdout differs. A JSON
report is compared key by key with ``wall_time`` dropped; any other output
(the ``graph`` export) is compared raw. Each run that differs is printed with
the keys that differ, and the exit code is 1 if any run differs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("mixvol", "graph", "form", "stability", "rigidity", "certify",
          "classical", "lower")
N, SEEDS = 200, (0, 1, 2)
# the large-body runs: each command on K<n>, L<n> and M<m> for each n, m
LARGE_COMMANDS = ("deficit", "certify-full", "stability", "rigidity")
KL_POINTS, M_POINTS = (100, 600), (10, 30)

# runs the argv lists read from stdin and writes (code, stdout, stderr) of
# each as one JSON list
DRIVER = """
import contextlib, io, json, sys
from mixedvol.cli import run_command
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def readme_lines() -> list[list[str]]:
    """The argv of each README usage line: the lines that start with
    ``mixedvol `` from the "## Command line" heading to the first closing
    fence."""
    lines = (ROOT / "README.md").read_text().splitlines()
    argvs = []
    for line in lines[lines.index("## Command line"):]:
        if line == "```":
            break
        if line.startswith("mixedvol "):
            argvs.append(line.split()[1:])
    return argvs


def write_bodies(into: Path) -> dict[str, str]:
    """Write K<n> and L<n> (n in KL_POINTS) and M<n> (n in M_POINTS) as
    PolytopeFiles of n unit-sphere points, each from its own seed;
    ``hexagon``, the regular hexagon in e3-perp with each vertex turned by
    up to a quarter of its angle step and moved to a radius in [0.6, 1.4];
    ``20-gon``, the regular 20-gon in e3-perp, and ``prism``, the 20-gon
    and its translate by e3; return the path of each by name."""
    into.mkdir()
    names = [f"{b}{n}" for b in "KL" for n in KL_POINTS]
    names += [f"M{n}" for n in M_POINTS]
    points = {}
    for seed, name in enumerate(names):
        p = np.random.default_rng(seed).standard_normal((int(name[1:]), 3))
        points[name] = p / np.linalg.norm(p, axis=1)[:, None]
    rng = np.random.default_rng(len(names))
    ang = (np.arange(6) + rng.uniform(-0.25, 0.25, 6)) * np.pi / 3
    r = rng.uniform(0.6, 1.4, 6)
    points["hexagon"] = np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                         np.zeros(6)])
    ang = 2 * np.pi * np.arange(20) / 20
    points["20-gon"] = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(20)])
    points["prism"] = np.concatenate([points["20-gon"],
                                      points["20-gon"] + [0.0, 0.0, 1.0]])
    paths = {}
    for name, p in points.items():
        path = into / f"{name}.json"
        path.write_text(json.dumps({"vertices": p.tolist(), "name": name}))
        paths[name] = str(path)
    return paths


def invocations(bodies: dict[str, str]) -> list[list[str]]:
    return readme_lines() + [
        ["randtest", "--suite", s, "--n", str(N), "--seed", str(seed)]
        for s in SUITES for seed in SEEDS] + [
        [c, "--K", bodies[f"K{n}"], "--L", bodies[f"L{n}"],
         "--M", bodies[f"M{m}"]]
        for c in LARGE_COMMANDS for n in KL_POINTS for m in M_POINTS] + [
        ["spectrum", "--M", m, "--mesh-h", repr(np.pi / d)]
        for m, d in (("ball@2", 100), (bodies["M30"], 60),
                     (bodies["prism"], 60))] + [
        ["lower-spectrum", "--M", m, "--mesh-h", repr(np.pi / d), "--kmax",
         str(k)]
        for m, d, k in (("segment", 200, 3), ("square", 200, 3),
                        (bodies["hexagon"], 150, 2), (bodies["20-gon"], 100, 2))]


def export(rev: str, into: Path) -> Path:
    """Extract rev's src/ under into, and return the tree's root."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 on)
        tf.extractall(into, **({"filter": "data"}
                               if hasattr(tarfile, "data_filter") else {}))
    return into


def run_tree(tree: Path, argvs: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", DRIVER], input=json.dumps(argvs),
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def flatten(value, key: str = "") -> dict[str, str]:
    """Dotted key -> repr of each leaf of a parsed JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {key: repr(value)}
    out = {}
    for k, v in items:
        out.update(flatten(v, f"{key}.{k}" if key else str(k)))
    return out


def report(text: str) -> dict[str, str] | None:
    """The flattened JSON report of a stdout with wall_time dropped, or None
    for output that is not a JSON report."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, dict) or "command" not in doc:
        return None
    doc.pop("wall_time", None)
    return flatten(doc)


def differences(base: list, new: list) -> list[str]:
    """What differs between two runs of one invocation: code, stderr,
    stdout, or the report keys that differ (a key on one side only
    included)."""
    diff = [name for name, a, b in (("code", base[0], new[0]),
                                    ("stderr", base[2], new[2])) if a != b]
    ra, rb = report(base[1]), report(new[1])
    if ra is None or rb is None:
        if base[1] != new[1]:
            diff.append("stdout")
    else:
        diff += [f"{k}: {ra.get(k, '<absent>')} -> {rb.get(k, '<absent>')}"
                 for k in sorted(ra.keys() | rb.keys())
                 if ra.get(k) != rb.get(k)]
    return diff


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True,
                    help="the git revision to compare against")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = invocations(write_bodies(Path(tmp) / "bodies"))
        base = run_tree(export(args.base, Path(tmp) / "base"), argvs)
        new = run_tree(ROOT, argvs)
    differ = 0
    for argv, b, n in zip(argvs, base, new):
        diff = differences(b, n)
        if diff:
            differ += 1
            print("mixedvol " + " ".join(argv))
            for d in diff:
                print(f"    {d}")
    print(f"{differ} of {len(argvs)} runs differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
