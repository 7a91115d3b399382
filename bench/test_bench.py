"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _traced_counts(workload: str) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    doc = json.loads((ROOT / ".bench_out" / f"{workload}-seed5-trace1.json")
                     .read_text())
    return {k: v for k, v in doc["metrics"].items()
            if not k.endswith(".self_s") and k != "trace.overhead_frac"}


@pytest.mark.parametrize("workload", ["suite-mix", "spectrum-ladder", "big-body"])
def test_size_counters_repeat_for_the_same_seed(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert first["bodies.hull.calls"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "suite-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
