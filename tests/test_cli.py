import hashlib
import json

import pytest

from convexprofile.cli import run

CONE = {
    "kind": "h-polyhedron",
    "dim": 2,
    "halfspaces": [
        {"normal": ["1", "-1"], "offset": "0"},
        {"normal": ["-1", "-1"], "offset": "0"},
    ],
}
L_POLYGON = {
    "kind": "polygon",
    "outer": [["0", "0"], ["2", "0"], ["2", "1"], ["1", "1"], ["1", "2"], ["0", "2"]],
}
SQUARE = {
    "kind": "polygon",
    "outer": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
}
DISK = {"kind": "disk", "center": ["0", "0"], "radius": "1"}


@pytest.fixture()
def geo(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_extremes_cone_reports_single_point_no_reconstruction(geo, capsys):
    code, doc = _run_json(capsys, ["extremes", geo("cone.json", CONE)])
    assert code == 0
    result = doc["results"][0]
    assert result["extreme_points"] == [["0", "0"]]
    assert result["reconstructs"] is False
    assert doc["command"] == "extremes"
    assert doc["config"]["seed"] == 0xC0FFEE


def test_convexity_l_polygon_nonconvex_with_witness(geo, capsys):
    code, doc = _run_json(capsys, ["convexity", geo("l.json", L_POLYGON)])
    assert code == 0
    result = doc["results"][0]
    assert result["convex_by_pairs"] is False
    assert result["vertex_turn_oracle"] is False
    assert result["witness"]["class"] in ("elliptic", "mixed")


def test_kernel_command(geo, capsys):
    code, doc = _run_json(capsys, ["kernel", geo("l.json", L_POLYGON)])
    assert code == 0
    result = doc["results"][0]
    assert result["empty"] is False
    assert result["starshaped"] is True
    assert sorted(result["kernel_vertices"]) == [
        ["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]
    ]


def test_classify_explicit_pair_file(geo, capsys, tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[["0", "0"], ["1", "1"]], [["0", "0"], ["1", "0"]]]))
    code, doc = _run_json(
        capsys, ["classify", geo("sq.json", SQUARE), "--pairs", str(pairs)]
    )
    assert code == 0
    classes = [r["class"] for r in doc["results"]]
    assert classes == ["hyperbolic", "flat"]


def test_classify_cone_vertices_mode_falls_back_to_probes(geo, capsys):
    # One extreme point makes no pair; the facet probes stand in for it.
    code, doc = _run_json(capsys, ["classify", geo("cone.json", CONE)])
    assert code == 0
    assert len(doc["results"]) == 10
    assert {r["class"] for r in doc["results"]} == {"flat", "hyperbolic"}


def test_classify_disk_vertices_mode(geo, capsys):
    code, doc = _run_json(
        capsys,
        ["classify", geo("disk.json", DISK), "--probe-density", "5"],
    )
    assert code == 0
    assert doc["results"]
    assert {r["class"] for r in doc["results"]} == {"hyperbolic"}


def test_reconstruct_cone_emits_both_reports(geo, capsys):
    code, doc = _run_json(
        capsys, ["reconstruct", geo("cone.json", CONE), "--samples", "8"]
    )
    assert code == 0
    theorems = [r["theorem"] for r in doc["results"]]
    assert theorems == ["thm-10", "thm-13"]
    km = doc["results"][1]
    assert km["hypothesis"] == "violated"
    assert km["facts"]["hull_of_extremes_equals_set"] is False


def test_check_subcommand_exit_zero(geo, capsys):
    code, doc = _run_json(
        capsys,
        ["check", "cor-5", "--instances", "4", "--seed", "7", "--samples", "10",
         "--probe-density", "8"],
    )
    assert code == 0
    assert doc["config"]["theorem"] == "cor-5"
    assert all(r["theorem"] == "cor-5" for r in doc["results"])
    flagged = [
        r for r in doc["results"]
        if r["conclusion"] == "expected-counterexample-of-closedness"
    ]
    assert len(flagged) == 1


def test_check_rejects_unknown_theorem(capsys):
    code = run(["check", "thm-99"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["path"] == "$.theorem"


def test_schema_error_is_structured_exit_2(geo, capsys):
    path = geo("bad.json", {"kind": "disk", "center": ["0", "oops"], "radius": "1"})
    code = run(["classify", path])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "schema"
    assert err["path"] == "$.center[1]"


def test_missing_file_is_exit_2(capsys):
    code = run(["extremes", "/nonexistent/geometry.json"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_render_is_deterministic(geo, capsys, tmp_path):
    src = geo("l.json", L_POLYGON)
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    code1, doc1 = _run_json(
        capsys, ["render", src, "--svg", str(svg1), "--overlays", "pairs,kernel,extremes"]
    )
    code2, doc2 = _run_json(
        capsys, ["render", src, "--svg", str(svg2), "--overlays", "pairs,kernel,extremes"]
    )
    assert code1 == code2 == 0
    a, b = svg1.read_bytes(), svg2.read_bytes()
    assert a == b
    assert doc1["results"][0]["sha256"] == doc2["results"][0]["sha256"]
    text = a.decode()
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text and "</svg>" in text
    assert "polygon" in text


def test_render_disk_and_unknown_overlay(geo, capsys, tmp_path):
    src = geo("disk.json", DISK)
    svg = tmp_path / "d.svg"
    code, doc = _run_json(capsys, ["render", src, "--svg", str(svg)])
    assert code == 0
    assert "<circle" in svg.read_text()
    code, doc = _run_json(
        capsys,
        ["render", src, "--svg", str(svg), "--overlays", "pairs",
         "--probe-density", "6"],
    )
    assert code == 0
    text = svg.read_text()
    # disk chords are hyperbolic; only that overlay color may appear
    assert text.count("#2ca02c") >= 3
    for other in ("#1f77b4", "#d62728", "#ff7f0e"):
        assert other not in text
    code = run(["render", src, "--svg", str(svg), "--overlays", "sparkles"])
    assert code == 2


def test_out_flag_writes_file(geo, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["extremes", geo("cone.json", CONE), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["command"] == "extremes"


def test_env_seed_override(geo, capsys, monkeypatch):
    monkeypatch.setenv("CONVEX_PROFILE_SEED", "99")
    code, doc = _run_json(
        capsys, ["check", "lem-12", "--instances", "2", "--seed", "7"]
    )
    assert code == 0
    assert doc["config"]["seed"] == 99


def test_check_all_same_seed_byte_identical(capsys):
    argv = ["check", "all", "--instances", "2", "--seed", "5",
            "--samples", "8", "--probe-density", "6"]
    code1 = run(argv)
    out1 = capsys.readouterr().out
    code2 = run(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["results"]) >= 16


def test_check_all_report_is_pinned(capsys):
    # A golden of every theorem's report: refactors must keep it byte-identical.
    argv = ["check", "all", "--instances", "2", "--samples", "12",
            "--probe-density", "8", "--seed", "42"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["results"]) == 39
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f3f9f3d4652db3976a1b7629272bb6d0e12c887b6f33df2add2911a0cca454a4"
    )
