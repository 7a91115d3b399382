"""Compare the command-line reports of this tree with those of a git revision.

    python tools/same_reports.py --base <rev>

The revision's ``src/`` is exported with ``git archive`` into a temporary
directory. Each tree then runs the same invocations through
``mixedvol.cli.run_command``, all in one subprocess per tree with
``PYTHONPATH=<tree>/src``:

- every ``mixedvol`` usage line of README.md's "Command line" block, read as
  the CI step reads them;
- ``randtest`` of every suite at ``--n 200``, seeds 0-2.

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

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("mixvol", "graph", "form", "stability", "rigidity", "certify",
          "classical", "lower")
N, SEEDS = 200, (0, 1, 2)

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


def invocations() -> list[list[str]]:
    return readme_lines() + [
        ["randtest", "--suite", s, "--n", str(N), "--seed", str(seed)]
        for s in SUITES for seed in SEEDS]


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
    argvs = invocations()
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tree(export(args.base, Path(tmp)), argvs)
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
