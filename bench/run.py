"""Benchmark launcher for mixedvol.

    python3 bench/run.py --workload suite-mix --seed 1 --seconds 10 --trace 0

Runs one workload in fresh worker processes with BLAS/OpenMP threads pinned
to the number of usable cores, and prints every metric by name and unit. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of BENCHMARK.json with ``--trace 1``.
The run record and the full per-layer table are written under ``.bench_out/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("suite-mix", "spectrum-ladder", "big-body")
# Set-up-only workers run before and after the measuring one; setup_s is the
# median of all of them.
SETUP_SIDE = 3
RUN_BUDGET_S = 170      # a run must end within 180 s


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _worker(args, mode: str, env: dict, deadline: float, spans_out=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        _fail("time budget exhausted")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        _fail(f"{mode} worker exceeded the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _setup(args, env: dict, deadline: float) -> tuple[float, float]:
    """setup_s of one set-up-only worker, scaled and as measured."""
    res = _worker(args, "setup", env, deadline)
    return res["metrics"]["setup_s"], res["raw_setup_s"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    if not (ROOT / "src" / "mixedvol" / "__init__.py").is_file():
        _fail(f"no mixedvol sources under {ROOT / 'src'}")
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    # Idle OpenBLAS workers sleep at once instead of spinning for ~2^28
    # cycles. On a 2-vCPU VM the spinning gave 5-10x latency spikes to small
    # dense solves (N ~ 200) and made no large solve faster.
    env["OPENBLAS_THREAD_TIMEOUT"] = "4"

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    if args.trace:
        res = _worker(args, "trace", env, deadline,
                      spans_out=out_dir / f"{stem}-spans.json.gz")
    else:
        setups = [_setup(args, env, deadline) for _ in range(SETUP_SIDE)]
        res = _worker(args, "measure", env, deadline)
        setups.append((res["metrics"]["setup_s"], res["raw_metrics"]["setup_s"]))
        setups += [_setup(args, env, deadline) for _ in range(SETUP_SIDE)]
        res["metrics"]["setup_s"] = statistics.median(s for s, _ in setups)
        res["raw_metrics"]["setup_s"] = statistics.median(r for _, r in setups)
        res["setup_samples_s"] = setups
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": _git_sha(), "nproc": os.cpu_count(),
              "usable_cores": int(threads), "pinned_threads": int(threads),
              "machine": platform.machine(), **res.pop("record")}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"record": record, **res}, indent=1) + "\n")

    for f in res["failures"]:
        print(f"FAILED {f['op']}: {f['error']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops={res['ops']} "
          f"cycles={res['cycles']} failed={len(res['failures'])} "
          f"threads={threads} wall={time.monotonic() - started:.1f}s")
    if "host_scale" in res:
        print(f"# times scaled to nominal host speed by {res['host_scale']:.4f}; "
              f"as measured: {json.dumps(res['raw_metrics'])}")
    for name, value in res["metrics"].items():
        print(f"{name:48s} {value!r}")
    print(json.dumps({"correct": not res["failures"], "attempted": res["ops"],
                      "failed": len(res["failures"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
