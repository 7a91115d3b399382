import json
from pathlib import Path

import numpy as np
import pytest

from mixedvol import bodies as B
from mixedvol import cli
from mixedvol import extremal as X
from mixedvol import lowerdim as LD
from mixedvol.graph import build_graph


def run(capsys, argv):
    code = cli.run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall_time(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("wall_time", None)
    return doc


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------

def test_parse_polytope_roundtrip(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(
        {"vertices": B.cube().vertices.tolist(), "name": "box"}))
    p = cli.parse_polytope(str(path))
    assert len(p.facets) == 6
    assert p.name == "box"


def test_parse_polytope_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cli.InputError):
        cli.parse_polytope(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": []}))
    with pytest.raises(cli.InputError, match="vertices"):
        cli.parse_polytope(str(empty))
    nonfinite = tmp_path / "nan.json"
    nonfinite.write_text('{"vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,"x"]]}')
    with pytest.raises(cli.InputError, match="vertices"):
        cli.parse_polytope(str(nonfinite))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"points": [[0, 0, 0]]}))
    with pytest.raises(cli.InputError, match="vertices"):
        cli.parse_polytope(str(missing))
    boolean = tmp_path / "bool.json"
    boolean.write_text('{"vertices": [[true, false, 0], [0,1,0], [0,0,1], [1,1,1]]}')
    with pytest.raises(cli.InputError, match="vertices"):
        cli.parse_polytope(str(boolean))


def test_flat_input_gives_exit_2(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}))
    code, out, err = run(capsys, ["deficit", "--K", "cube", "--L", "cube",
                                  "--M", str(path)])
    assert code == 2
    assert "affine dimension 2" in err


def test_missing_file_gives_exit_2(capsys):
    code, _, err = run(capsys, ["mixvol", "--K", "/no/such/file.json"])
    assert code == 2
    assert "file" in err


def test_bad_builtin_param_gives_exit_2(capsys):
    code, _, err = run(capsys, ["mixvol", "--K", "trunc:abc"])
    assert code == 2


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_mixvol_cube(capsys):
    code, out, _ = run(capsys, ["mixvol", "--K", "cube", "--L", "cube",
                                "--M", "cube"])
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["V"] == pytest.approx(1.0)


def test_certify_full_truncated_cube(capsys):
    code, out, _ = run(capsys, ["certify-full", "--K", "trunc:0.1",
                                "--L", "cube", "--M", "cube"])
    assert code == 0
    assert json.loads(out)["verdicts"]["verdict"] == "equality"


def test_certify_full_deep_truncation(capsys):
    code, out, _ = run(capsys, ["certify-full", "--K", "trunc:0.8",
                                "--L", "cube", "--M", "cube"])
    assert code == 0
    assert json.loads(out)["verdicts"]["verdict"] == "strict"


def test_certify_lower_shear(capsys):
    code, out, _ = run(capsys, ["certify-lower", "--K", "cube",
                                "--L", "shear:0.3", "--M", "segment",
                                "--w", "0,0,1"])
    assert code == 0
    assert json.loads(out)["verdicts"]["verdict"] == "equality"


# ---------------------------------------------------------------------------
# Report keys, and their values against the library objects
# ---------------------------------------------------------------------------

SECTIONS = {"command", "params", "values", "margins", "verdicts", "wall_time"}


def test_certify_full_report_is_the_certificate(capsys):
    code, out, _ = run(capsys, ["certify-full", "--K", "trunc:0.1",
                                "--L", "cube", "--M", "cube"])
    doc = json.loads(out)
    assert set(doc) == SECTIONS
    assert set(doc["params"]) == {"K", "L", "M"}
    assert doc["margins"] == {}
    cert = X.certify_equality_fulldim(
        *(cli.parse_body(s) for s in ("trunc:0.1", "cube", "cube")))
    assert doc["values"] == {
        "a": cert.a, "v": cert.v.tolist(),
        "deficit": cert.deficit_report.deficit,
        "scale": cert.deficit_report.scale,
        "sup_residual": cert.sup_residual, "diameter": cert.diameter}
    assert doc["verdicts"] == {"verdict": cert.verdict}
    assert code == 0


def test_certify_lower_report_is_the_certificate(capsys):
    code, out, _ = run(capsys, ["certify-lower", "--K", "cube",
                                "--L", "ball@2", "--M", "square"])
    doc = json.loads(out)
    assert set(doc) == SECTIONS
    assert set(doc["params"]) == {"K", "L", "M", "w"}
    assert doc["margins"] == {}
    cert = LD.certify_equality_lowerdim(
        *(cli.parse_body(s) for s in ("cube", "ball@2", "square")), [0, 0, 1])
    assert cert.v is None
    assert cert.a != pytest.approx(1.0)
    assert doc["values"] == {
        "c": cert.a, "deficit": cert.deficit_report.deficit,
        "scale": cert.deficit_report.scale,
        "sup_residual": cert.sup_residual, "diameter": cert.diameter}
    assert doc["verdicts"] == {"verdict": cert.verdict}
    assert code == 0


def test_lower_spectrum_report_is_the_spectrum(capsys):
    h = np.pi / 60
    code, out, _ = run(capsys, ["lower-spectrum", "--M", "segment",
                                "--kmax", "3", "--mesh-h", str(h)])
    doc = json.loads(out)
    assert set(doc) == SECTIONS
    assert set(doc["params"]) == {"M", "w", "kmax", "mesh_h", "tol"}
    g = LD.lowerdim_setup(cli.parse_body("segment"), [0, 0, 1])
    rep = LD.verify_spectrum(g, 3, h, doc["params"]["tol"])
    assert doc["values"] == {
        "multiplicity": len(g.edges),
        "eigen_residual_max": rep.eigen_residual_max,
        "clusters": [{"k": c.k, "predicted": c.predicted,
                      "observed": list(c.observed)} for c in rep.clusters]}
    assert doc["values"]["multiplicity"] == 2
    assert doc["margins"] == {"worst_deviation": rep.worst_deviation}
    assert doc["verdicts"] == {"ok": rep.ok}
    assert code == 0


@pytest.mark.parametrize("w, axis", [
    ("0,0,1e-15", "0,0,1"),
    ("0,0,1e-300", "0,0,1"),
    ("0,0,-1e300", "0,0,-1"),
    ("1e300,0,0", "1,0,0"),
])
def test_certify_lower_direction_at_any_scale(capsys, w, axis):
    outcomes = []
    for text in (w, axis):
        code, out, err = run(capsys, ["certify-lower", "--K", "cube", "--L", "cube",
                                      "--M", "square", "--w", text])
        doc = json.loads(out) if out else {}
        outcomes.append((code, doc.get("values"), doc.get("verdicts"), err))
    assert outcomes[0] == outcomes[1]


def test_parse_direction_keeps_unit_input_and_rejects_zero(capsys):
    assert np.array_equal(cli.parse_direction("0,0,1"), [0.0, 0.0, 1.0])
    code, out, _ = run(capsys, ["certify-lower", "--K", "cube", "--L", "cube",
                                "--M", "square", "--w", "0,0,0"])
    assert code == 2 and out == ""


def test_stability_and_rigidity_hold(capsys):
    for cmd in ("stability", "rigidity"):
        code, out, _ = run(capsys, [cmd, "--K", "trunc:0.3", "--L", "cube",
                                    "--M", "simplex"])
        assert code == 0
        assert json.loads(out)["verdicts"]["holds"] is True


def test_lower_spectrum_square(capsys):
    code, out, _ = run(capsys, ["lower-spectrum", "--M", "square",
                                "--w", "0,0,1", "--kmax", "2",
                                "--mesh-h", str(np.pi / 200),
                                "--tol", "0.005"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["ok"] is True
    assert [len(c["observed"]) for c in doc["values"]["clusters"]] == [1, 4, 4]


def test_spectrum_reports_eigen_residual(capsys):
    code, out, _ = run(capsys, ["spectrum", "--M", "cube",
                                "--mesh-h", str(np.pi / 40)])
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values["eigenvalues"]) == 8
    assert 0 <= values["eigen_residual_max"] < 1e-8


@pytest.mark.parametrize("h, kmax", [(0.2, 8), (0.3, 5), (10.0, 8)])
def test_spectrum_kernel_window_is_the_p1_bound(capsys, h, kmax):
    # a window of 10 h^2 took in the cube's constants at 1/3 and its pair at
    # -0.26 (kernel dimension 6 at h = 0.2), or reached the end of the
    # computed spectrum (exit 2 at h = 0.3, kmax = 5). The window reads the
    # longest element h_e on the cube's arcs of length pi/2, at least 2 to an
    # arc: at h = 10, 2 h^2 / 36 = 5.6 would hold every computed eigenvalue
    code, out, err = run(capsys, ["spectrum", "--M", "cube", "--mesh-h", str(h),
                                  "--kmax", str(kmax)])
    assert code == 0, err
    doc = json.loads(out)
    h_e = (np.pi / 2) / max(2, np.ceil((np.pi / 2) / h))
    assert doc["params"]["kernel_window"] == 2 * h_e ** 2 / 36
    assert doc["values"]["kernel_dimension"] == 3


@pytest.mark.parametrize("n, seed", [(10, 0), (20, 3)])
def test_spectrum_at_the_default_mesh_on_short_arcs(tmp_path, capsys, n, seed):
    # shortest arcs 3.5e-3 and 4.3e-5, below the default h = pi/100: such an
    # edge gets 2 elements instead of a BadMesh refusal
    p = B.random_hull(n, seed)
    assert build_graph(p).arcs.lengths.min() < np.pi / 100
    path = tmp_path / "hull.json"
    path.write_text(json.dumps({"vertices": p.vertices.tolist()}))
    code, out, err = run(capsys, ["spectrum", "--M", str(path)])
    assert code == 0, err
    values = json.loads(out)["values"]
    assert values["kernel_dimension"] == 3
    assert values["eigenvalues"][0] == pytest.approx(1 / 3, abs=1e-10)


def test_spectrum_refuses_a_spectrum_that_ends_in_the_kernel(capsys):
    # kmax = 4 computes 1/3 and the three kernel eigenvalues only: nothing
    # shows where the kernel ends
    code, _, err = run(capsys, ["spectrum", "--M", "cube", "--mesh-h", "0.3",
                                "--kmax", "4"])
    assert code == 2
    assert "kernel window" in err


def test_lower_spectrum_reports_eigen_residual(capsys):
    code, out, _ = run(capsys, ["lower-spectrum", "--M", "square"])
    assert code == 0
    values = json.loads(out)["values"]
    assert 0 <= values["eigen_residual_max"] < 1e-8


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_spectrum_kmax_below_1_gives_exit_2(capsys, kmax):
    code, out, err = run(capsys, ["spectrum", "--M", "cube", "--kmax", kmax])
    assert code == 2
    assert out == ""
    assert "BadParam" in err


def test_mesh_that_cannot_fit_in_memory_gives_exit_2(capsys, monkeypatch):
    # --mesh-h 1e-9 asks NumPy for about 163 GiB; a stub raises in its place,
    # so that the test allocates nothing
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 163. GiB for an array")

    monkeypatch.setattr(cli, "assemble", no_memory)
    code, out, err = run(capsys, ["spectrum", "--M", "ball@0", "--mesh-h", "1e-9"])
    assert code == 2
    assert out == ""
    assert err == "error: MemoryError: Unable to allocate 163. GiB for an array\n"


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_lower_spectrum_kmax_below_1_gives_exit_2(capsys, kmax):
    # kmax 0 derived a zero tolerance and failed a correct spectrum; kmax -1
    # asked for the maximum of an empty residual array
    code, out, err = run(capsys, ["lower-spectrum", "--M", "square",
                                  "--kmax", kmax])
    assert code == 2
    assert out == ""
    assert "BadParam" in err


def test_randtest_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, ["randtest", "--suite", "mixvol", "--n", "3",
                                "--seed", "11"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == SECTIONS
    assert doc["params"] == {"suite": "mixvol", "n": 3, "seed": 11}
    assert doc["values"]["passed"] == 3
    code2, _, err = run(capsys, ["randtest", "--suite", "nonsense", "--n", "3"])
    assert code2 == 2


def test_demo_runs(capsys):
    code, out, _ = run(capsys, ["demo"])
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["truncated_cube_verdict"] == "equality"


# ---------------------------------------------------------------------------
# Determinism and formats
# ---------------------------------------------------------------------------

def test_report_determinism(capsys):
    argv = ["randtest", "--suite", "graph", "--n", "3", "--seed", "5"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert strip_wall_time(out1) == strip_wall_time(out2)
    assert json.dumps(strip_wall_time(out1), sort_keys=True) == \
        json.dumps(strip_wall_time(out2), sort_keys=True)


def test_csv_format(capsys):
    code, out, _ = run(capsys, ["mixvol", "--K", "cube", "--L", "simplex",
                                "--M", "cube", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# schema: " + cli.CSV_SCHEMA_VERSION)
    assert len(lines) == 3
    header = lines[1].split(",")
    assert "values.V" in header


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["mixvol", "--K", "cube", "--L", "cube",
                                "--M", "cube", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["values"]["V"] == pytest.approx(1.0)


def test_out_unwritable_gives_exit_2(capsys):
    code, _, err = run(capsys, ["mixvol", "--out", "/no/such/dir/report.json"])
    assert code == 2


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

def test_graph_dot_export(capsys):
    code, out, _ = run(capsys, ["graph", "--M", "cube", "--format", "dot"])
    assert code == 0
    assert out.count(" -- ") == 12
    assert out.count("label=\"(") == 6


def test_graph_json_roundtrip(tmp_path, capsys):
    # regular tetrahedron: all six edge lengths equal arccos(-1/3)
    tetra = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps({"vertices": tetra}))
    code, out, _ = run(capsys, ["graph", "--M", str(path),
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["normals"]) == 4
    assert len(doc["edges"]) == 6
    orig = build_graph(B.hull(np.array(tetra, dtype=float)))
    assert np.abs(np.array(doc["normals"]) - orig.normals).max() < 1e-15
    for e, edge in enumerate(doc["edges"]):
        assert tuple(edge["facets"]) == tuple(orig.edges[e])
        assert abs(edge["length"] - orig.arcs.lengths[e]) < 1e-15
        assert abs(edge["weight"] - orig.weights[e]) < 1e-15
    lengths = [edge["length"] for edge in doc["edges"]]
    assert np.allclose(lengths, np.arccos(-1 / 3), atol=1e-12)


def test_graph_export_unwritable(capsys):
    code, _, err = run(capsys, ["graph", "--M", "cube", "--format", "json",
                                "--out", "/no/such/dir/g.json"])
    assert code == 2


# ---------------------------------------------------------------------------
# Per-subcommand flags and the derived lower-spectrum tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["graph", "--format", "csv"],
    ["mixvol", "--format", "dot"],
    ["spectrum", "--quad-tol", "1e-10"],
    ["randtest", "--K", "cube"],
    # only randtest draws random numbers
    ["spectrum", "--seed", "1"],
])
def test_flag_the_command_does_not_read_gives_exit_2(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["randtest", "--n", "-3"],
    ["randtest", "--seed", "-1"],
    ["lower-spectrum", "--M", "square", "--tol", "-1"],
    ["lower-spectrum", "--M", "square", "--tol", "0"],
    ["lower-spectrum", "--M", "square", "--tol", "nan"],
    # an infinite tolerance would pass any spectrum
    ["lower-spectrum", "--M", "square", "--tol", "inf"],
    ["spectrum", "--M", "cube", "--mesh-h", "nan"],
    ["spectrum", "--M", "cube", "--mesh-h", "inf"],
    ["demo", "--mesh-h", "-0.1"],
])
def test_out_of_range_number_gives_exit_2_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}" in err


def test_lower_spectrum_default_tol_from_mesh_and_kmax(capsys):
    # P1 eigenvalue error is about k^4 h^2 / 36; the default tolerance is
    # twice that bound at the requested kmax and mesh size
    code, out, _ = run(capsys, ["lower-spectrum", "--M", "square",
                                "--w", "0,0,1", "--kmax", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["tol"] == 2 * 2 ** 4 * (np.pi / 100) ** 2 / 36
    assert doc["margins"]["worst_deviation"] <= doc["params"]["tol"]


def test_lower_spectrum_default_tol_from_the_element_used(capsys):
    # at --mesh-h 3 each half circle still gets 2 elements, of pi/2: the
    # window is that of the element, not of the requested mesh (0.5)
    code, out, err = run(capsys, ["lower-spectrum", "--M", "square",
                                  "--mesh-h", "3", "--kmax", "1"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["params"]["tol"] == 2 * 1 ** 4 * (np.pi / 2) ** 2 / 36
    assert doc["margins"]["worst_deviation"] <= doc["params"]["tol"]


def test_lower_spectrum_finds_every_copy_of_a_multiple_eigenvalue(capsys):
    # at h = pi/40 the k = 2 cluster of the square has four copies of one
    # eigenvalue; asking ARPACK for exactly nine pairs returned three of them
    code, out, _ = run(capsys, ["lower-spectrum", "--M", "square",
                                "--mesh-h", "0.07853981633974483"])
    assert code == 0
    doc = json.loads(out)
    assert [len(c["observed"]) for c in doc["values"]["clusters"]] == [1, 4, 4]


def _readme_usage_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mixedvol ")]


# the keys of params, values, margins and verdicts of each report
REPORT_KEYS = {
    "mixvol": ("K L M", "V", "", ""),
    "deficit": ("K L M deficit_threshold", "V_KL V_KK V_LL deficit scale",
                "deficit_over_scale", "nonnegative"),
    "spectrum": ("M mesh_h kmax kernel_window",
                 "eigenvalues kernel_dimension kernel_principal_angle_residual"
                 " eigen_residual_max dofs", "", ""),
    "certify-full": ("K L M", "a v deficit scale sup_residual diameter", "",
                     "verdict"),
    "certify-lower": ("K L M w", "c deficit scale sup_residual diameter", "",
                      "verdict"),
    "stability": ("K L M", "lhs rhs a v C_M residual r R", "margin", "holds"),
    "rigidity": ("K L M", "lhs rhs sbm_integral mu_integral r R", "margin",
                 "holds"),
    "lower-spectrum": ("M w kmax mesh_h tol",
                       "multiplicity eigen_residual_max clusters",
                       "worst_deviation", "ok"),
    "randtest": ("suite n seed", "passed failed failures", "", "all_pass"),
    "demo": ("mesh_h", "cube_volume cube_surface cube_mean_width sbm_mass "
             "mu_mass top_eigenvalues truncated_cube_verdict", "", ""),
}


@pytest.mark.parametrize("line", _readme_usage_lines())
def test_readme_usage_line_exits_0(capsys, line):
    argv = line.split()[1:]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out
    if argv[0] == "graph":
        return
    doc = json.loads(out)
    assert set(doc) == SECTIONS
    assert doc["command"] == argv[0]
    for section, keys in zip(("params", "values", "margins", "verdicts"),
                             REPORT_KEYS[argv[0]]):
        assert set(doc[section]) == set(keys.split()), section
