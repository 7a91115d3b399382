"""One workload in one fresh process; started by ``run.py``.

Modes:
  setup    import mixedvol and generate the first inputs, report setup_s;
  measure  run whole cycles untraced for --seconds (and >= MIN_OPS ops);
  trace    run a fixed number of cycles, each once untraced and once traced.

In setup and measure mode every reported time is scaled to the host's
nominal speed by the reference task of ``reference.py``.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from reference import NOMINAL_S, Reference
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100   # p90 then has at least 10 samples beyond it
SETUP_REF_RUNS = 9


def _import_mixedvol():
    sys.path.insert(0, str(ROOT / "src"))
    import mixedvol
    import mixedvol.cli  # noqa: F401  (the package does not import cli)
    if Path(mixedvol.__file__).resolve().parent != ROOT / "src" / "mixedvol":
        raise SystemExit(f"imported mixedvol from {mixedvol.__file__}, "
                         f"not from {ROOT / 'src'}")
    return mixedvol


def _versions() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _run_op(op, failures: list, tracer=None) -> float:
    """Time op.run(); check its result outside the timed region."""
    if tracer is not None:
        tracer.begin_op(op.label)
    start = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # a failing op is counted, never dropped
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:  # an output of the wrong shape fails the op
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        failures.append({"op": op.label, "error": error})
    return latency


def _reference_time(ref: Reference) -> float:
    """One reference timing. The first pass refills the caches the last op
    used, so the timed second pass does not depend on the program's
    memory footprint."""
    ref.run()
    return ref.run()


def _host_scale(ref_times: list[float]) -> float:
    """Factor that turns a time measured in this run into nominal time. The
    geometric mean averages the host's slowdown the way a long op does."""
    return NOMINAL_S / statistics.geometric_mean(ref_times)


def _setup(setup_s: float) -> dict:
    ref = Reference()
    scale = _host_scale([_reference_time(ref) for _ in range(SETUP_REF_RUNS)])
    return {"metrics": {"setup_s": scale * setup_s},
            "raw_setup_s": setup_s, "host_scale": scale}


def _measure(workload, ops, seconds: float, setup_s: float) -> dict:
    """Whole cycles of ops, each followed by a reference timing."""
    ref = Reference()
    for _ in range(3):
        ref.run()
    latencies, labels, failures, ref_times = [], [], [], []
    start = time.monotonic()
    c = 0
    while True:
        for op in ops:
            latencies.append(_run_op(op, failures))
            labels.append(op.label)
            ref_times.append(_reference_time(ref))
        c += 1
        # Stop at the cycle boundary nearest to the end of the window, so a
        # run lasts about --seconds even when one cycle takes many seconds.
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / c >= seconds and len(latencies) >= MIN_OPS:
            break
        ops = workload.cycle(c)
    scale = _host_scale(ref_times)
    raw = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }
    return {
        "cycles": c, "ops": len(latencies), "failures": failures,
        "host_scale": scale, "raw_metrics": raw,
        "latencies_ms": [[lab, 1e3 * t] for lab, t in zip(labels, latencies)],
        "reference_ms": [1e3 * t for t in ref_times],
        "metrics": {
            "setup_s": scale * raw["setup_s"],
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_ms": scale * raw["op_p50_ms"],
            "op_p90_ms": scale * raw["op_p90_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": 1 - len(failures) / len(latencies),
        },
    }


def _trace(mv, workload, ops, seconds: float, out_path: Path) -> dict:
    """Each cycle runs once untraced and once traced, the order alternating,
    so trace.overhead_frac compares the same inputs."""
    tracer = Tracer()
    cycles = max(1, round(seconds / (2 * workload.nominal_cycle_s)))
    failures: list = []
    plain = traced = 0.0
    for c in range(cycles):
        ops = ops if c == 0 else workload.cycle(c)
        for traced_phase in ((False, True) if c % 2 == 0 else (True, False)):
            if traced_phase:
                tracer.install(mv)
                traced += sum(_run_op(op, failures, tracer) for op in ops)
                tracer.uninstall()
            else:
                plain += sum(_run_op(op, failures) for op in ops)
    self_s, calls = tracer.self_times()
    metrics: dict[str, float] = {}
    for name in sorted(self_s):
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    metrics.update(sorted(tracer.totals().items()))
    metrics["trace.overhead_frac"] = traced / plain - 1
    _write_spans(tracer, out_path)
    return {"cycles": cycles, "ops": 2 * len(tracer.op_labels),
            "failures": failures, "metrics": metrics}


def _write_spans(tracer, path: Path) -> None:
    doc = {"names": tracer.names,
           "spans": tracer.spans,   # [name index, start, end, parent, op]
           "ops": [{"label": lab, "counters": dict(cnt)}
                   for lab, cnt in zip(tracer.op_labels, tracer.op_counters)]}
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started this process")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    mv = _import_mixedvol()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = WORKLOADS[args.workload](mv, args.seed, workdir)
        ops = workload.cycle(0)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            result = _setup(setup_s)
        elif args.mode == "measure":
            result = _measure(workload, ops, args.seconds, setup_s)
        else:
            result = _trace(mv, workload, ops, args.seconds, args.spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place if not empty
            work_root.rmdir()
    result["record"] = {**_versions(), "pid": os.getpid()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
