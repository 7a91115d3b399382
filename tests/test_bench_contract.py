"""The benchmark's traced run wraps functions of ``mixedvol`` by name and
reads sizes off their results (``bench/spans.py``). A rename or a changed
result shape fails here, in the tier-1 suite, and not only in the slow
``bench/test_bench.py``."""

import importlib.util
from pathlib import Path

import mixedvol
import mixedvol.cli as cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spectrum_op_counts_sizes(capsys):
    tracer = _load_spans().Tracer()
    tracer.install(mixedvol)
    try:
        tracer.begin_op("spectrum cube")
        code = cli.run_command(["spectrum", "--M", "cube"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    counts = tracer.totals()
    assert counts["bodies.hull.facets_out"] == 6
    assert counts["graph.edges"] == 12
    assert counts["graph.dofs"] > 0
    _, calls = tracer.self_times()
    assert calls["graph.assemble"] == calls["graph.spectrum"] == 1


def test_traced_lowerdim_ops_count_sizes(capsys):
    tracer = _load_spans().Tracer()
    tracer.install(mixedvol)
    try:
        for argv in (["lower-spectrum", "--M", "square"],
                     ["randtest", "--suite", "lower", "--n", "1"]):
            tracer.begin_op(" ".join(argv))
            assert cli.run_command(argv) == 0
            tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.totals()["lowerdim.dofs"] > 0
    _, calls = tracer.self_times()
    assert calls["lowerdim.assemble_lowerdim"] == 1
    assert calls["lowerdim.certify_equality_lowerdim"] == 1


def test_traced_suites_make_no_per_arc_calls(capsys):
    # the per-arc quadrature functions stay only for the tracer to look up;
    # it reads their arc argument as a frame with a start, so no library
    # path may call them
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install(mixedvol)
    try:
        for suite in cli.SUITES:
            tracer.begin_op(suite)
            assert cli.run_command(["randtest", "--suite", suite, "--n", "1"]) == 0
            tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.totals()["graph.edges"] > 0
    _, calls = tracer.self_times()
    for name in spans.LAYERS["quadrature"]:
        assert calls[f"quadrature.{name}"] == 0, name
