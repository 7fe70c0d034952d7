import hashlib
import json
import re

import pytest

from convexprofile import cli
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


def test_kernel_command_past_64_edges(capsys, tmp_path, monkeypatch):
    # A convex 100-gon is its own kernel; the planar kernel has no edge cap.
    from convexprofile.core import Point, Q
    from convexprofile.geometry_io import dump_geometry, point_to_json
    from convexprofile.regions2d import SimplePolygon, circle_points

    poly = SimplePolygon(circle_points(Point((Q(1, 3), Q(2, 7))), Q(5, 2), 99))
    assert poly.n == 100
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ngon.json").write_text(json.dumps(dump_geometry(poly)))
    code, doc = _run_json(capsys, ["kernel", "ngon.json"])
    assert code == 0
    assert doc["results"][0]["kernel_vertices"] == [
        point_to_json(v) for v in sorted(poly.vertices, key=lambda p: p.coords)
    ]


@pytest.mark.parametrize("doc, empty", [
    (L_POLYGON, False),
    ({"kind": "polygon",
      "outer": [["0", "0"], ["3", "0"], ["3", "1"], ["2", "1"], ["2", "2"],
                ["3", "2"], ["3", "3"], ["0", "3"], ["0", "2"], ["1", "2"],
                ["1", "1"], ["0", "1"]]}, True),
], ids=["starshaped", "not-starshaped"])
def test_kernel_command_runs_no_double_description(doc, empty, geo, capsys,
                                                   monkeypatch):
    from convexprofile import polyhedra

    def refuse(*args):
        raise AssertionError("CLI kernel reached the double description")

    for module in (polyhedra, cli):
        monkeypatch.setattr(module, "extreme_points", refuse)
    monkeypatch.setattr(polyhedra, "_double_description", refuse)
    code, doc = _run_json(capsys, ["kernel", geo("p.json", doc)])
    assert code == 0
    assert doc["results"][0]["empty"] is empty
    assert ("kernel_vertices" in doc["results"][0]) is not empty


def test_no_polygon_kernel_reaches_the_double_description(geo, capsys,
                                                         tmp_path, monkeypatch):
    """Prop 8, CLI `kernel` and the kernel overlay give the same output when
    every `kernel` they can call returns an H-polyhedron whose double
    description raises."""
    from convexprofile import regions2d, theorems
    from convexprofile.polyhedra import HPolyhedron

    class NoDoubleDescription(HPolyhedron):
        @property
        def _dd(self):
            raise AssertionError("a polygon kernel reached the double description")

    src, svg = geo("l.json", L_POLYGON), tmp_path / "k.svg"
    commands = [["check", "prop-8", "--instances", "4"], ["kernel", src],
                ["render", src, "--svg", str(svg), "--overlays", "kernel"]]

    def outputs():
        reports = []
        for argv in commands:
            assert run(argv) == 0
            reports.append(capsys.readouterr().out)
        return reports, svg.read_bytes()

    expected = outputs()
    kernel = regions2d.kernel
    for module in (regions2d, theorems, cli):
        monkeypatch.setattr(
            module, "kernel", lambda p: NoDoubleDescription(kernel(p).halfspaces, 2))
    assert outputs() == expected


def _circle_ladder_doc(n):
    from convexprofile.core import Point
    from convexprofile.geometry_io import dump_geometry
    from convexprofile.regions2d import SimplePolygon, circle_points

    return dump_geometry(SimplePolygon(circle_points(Point((0, 0)), 1, n)))


# Full stdout of CLI `kernel` up the n-gon ladder, `circle_points(0, 1, n)`
# with n + 1 vertices, as the double description gave it.
@pytest.mark.parametrize("n, digest", [
    (400, "be30e2631a42fd0d81c2c8585cdf878c904b0150fa03cd32991d68e99ec90aff"),
    (800, "447e63b64a218facc65b49108807fd57b8188f4ea2aa72170151edecfeefe3ff"),
], ids=["kernel-circle401", "kernel-circle801"])
def test_kernel_ladder_reports_are_pinned(n, digest, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = f"circle{n + 1}.json"
    (tmp_path / name).write_text(json.dumps(_circle_ladder_doc(n)))
    assert run(["kernel", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_classify_explicit_pair_file(geo, capsys, tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[["0", "0"], ["1", "1"]], [["0", "0"], ["1", "0"]]]))
    code, doc = _run_json(
        capsys, ["classify", geo("sq.json", SQUARE), "--pairs", str(pairs)]
    )
    assert code == 0
    classes = [r["class"] for r in doc["results"]]
    assert classes == ["hyperbolic", "flat"]


CUBE = {
    "kind": "h-polyhedron",
    "dim": 3,
    "halfspaces": [
        {"normal": [str(s * int(j == k)) for k in range(3)],
         "offset": "1" if s > 0 else "0"}
        for j in range(3) for s in (1, -1)
    ],
}


def test_classify_pair_file_points_follow_the_instance_dim(geo, capsys,
                                                            tmp_path):
    cube = geo("cube.json", CUBE)
    pairs = tmp_path / "p3.json"
    pairs.write_text(json.dumps([[[0, 0, 0], [1, 1, 1]]]))
    code, doc = _run_json(capsys, ["classify", cube, "--pairs", str(pairs)])
    assert code == 0
    assert [r["class"] for r in doc["results"]] == ["hyperbolic"]
    pairs.write_text(json.dumps([[[0, 0, 0], [1, 1, 1]], [[0, 0], [1, 1, 1]]]))
    assert run(["classify", cube, "--pairs", str(pairs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["path"] == "$.pairs[1][0]"


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


UNDECODABLE = {
    "not-utf8": b'{"kind": "disk\xff", "center": ["0", "0"], "radius": "1"}',
    "long-int": b'{"kind": "disk", "center": [' + b"7" * 4301 + b', 0], "radius": 1}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE)
@pytest.mark.parametrize("role", ["geometry", "pairs"])
def test_undecodable_file_is_a_schema_error(role, content, geo, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if role == "geometry":
        argv = ["convexity", str(bad)]
    else:
        argv = ["classify", geo("sq.json", SQUARE), "--pairs", str(bad)]
    code = run(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert (err["error"], err["path"]) == ("schema", "$")
    assert err["message"].startswith("invalid JSON: ")


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


def test_render_epigraph_graph_lies_on_the_canvas(geo, capsys, tmp_path):
    src = geo("parabola.json", {"kind": "epigraph1d", "coeffs": ["0", "0", "1"]})
    svg = tmp_path / "p.svg"
    assert run(["render", src, "--svg", str(svg)]) == 0
    points = re.search(r'<polyline points="([^"]*)"', svg.read_text()).group(1)
    vertices = [tuple(map(float, pt.split(","))) for pt in points.split()]
    assert len(vertices) == 33
    assert all(0 <= x <= 800 and 0 <= y <= 800 for x, y in vertices)


def test_render_of_a_3d_polyhedron_is_refused(geo, capsys, tmp_path):
    cube = {
        "kind": "h-polyhedron",
        "dim": 3,
        "halfspaces": [
            {"normal": [str(s * (j == k)) for k in range(3)], "offset": str(o)}
            for j in range(3)
            for s, o in ((1, 1), (-1, 0))
        ],
    }
    src = geo("cube.json", cube)
    assert run(["render", src, "--svg", str(tmp_path / "c.svg")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DimensionMismatchError",
        "message": "can only render 2D polyhedra",
    }
    assert not (tmp_path / "c.svg").exists()


def test_render_of_a_polyhedron_outside_the_default_box(geo, capsys, tmp_path):
    # {x >= 100} misses the box |x|, |y| <= 12, so it is clipped to the
    # least power-of-two box holding its member point, |x|, |y| <= 128.
    far = {"kind": "h-polyhedron", "dim": 2,
           "halfspaces": [{"normal": ["-1", "0"], "offset": "-100"}]}
    svg = tmp_path / "far.svg"
    assert run(["render", geo("far.json", far), "--svg", str(svg)]) == 0
    capsys.readouterr()
    body = svg.read_text().splitlines()[3]
    points = re.search(r'points="([^"]*)"', body).group(1).split()
    assert body.startswith("<polygon ") and len(points) == 4
    assert body.endswith("<!-- cropped to viewport -->")


HUGE = "1" + "0" * 400  # past the float range


@pytest.mark.parametrize("doc", [
    {"kind": "disk", "center": ["0", "0"], "radius": HUGE},
    {"kind": "polygon", "outer": [["0", "0"], [HUGE, "0"], ["0", "1"]]},
    {"kind": "epigraph1d", "coeffs": ["0", "0", HUGE]},
    # every vertex is a float, but the span between them is not
    {"kind": "polygon",
     "outer": [["-9" + "0" * 307, "0"], ["9" + "0" * 307, "0"], ["0", "1"]]},
    # the span is a float, but centring the narrow side leaves the range
    {"kind": "polygon", "outer": [["-16" + "0" * 307, "-4" + "0" * 307],
                                  ["-15" + "0" * 307, "0"],
                                  ["-16" + "0" * 307, "4" + "0" * 307]]},
], ids=["disk-radius", "polygon-vertex", "epigraph-coefficient", "span",
        "centred-frame"])
def test_render_past_the_float_range_is_exit_2(doc, geo, capsys, tmp_path):
    src = geo("huge.json", doc)
    assert run(["render", src, "--svg", str(tmp_path / "h.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "DisplayRangeError",
        "message": "a coordinate is too large to draw",
    }
    assert not (tmp_path / "h.svg").exists()


def test_one_parser_serves_every_command(geo, capsys, tmp_path, monkeypatch):
    # `run` builds its parser on its first call and reuses it: each report
    # of a sequence run in one process has the bytes of the same command
    # run first, with a parser of its own.
    l_path, svg = geo("l.json", L_POLYGON), tmp_path / "k.svg"
    commands = [
        ["classify", l_path, "--pairs", "all"],
        ["classify", l_path],
        ["render", l_path, "--svg", str(svg), "--overlays", "kernel"],
        ["check", "thm-2", "--instances", "2"],
    ]

    def report(argv):
        code = run(argv)
        drawn = svg.read_bytes() if argv[0] == "render" else None
        return code, capsys.readouterr().out, drawn

    first = []
    for argv in commands:
        monkeypatch.setattr(cli, "_parser", None)
        first.append(report(argv))
    parser = cli._parser
    assert [report(argv) for argv in commands] == first
    assert cli._parser is parser
    assert [code for code, _, _ in first] == [0, 0, 0, 0]


def test_out_flag_writes_file(geo, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["extremes", geo("cone.json", CONE), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["command"] == "extremes"


@pytest.mark.parametrize("command, name, doc, flag", [
    ("convexity", "sq.json", SQUARE, "--out"),
    ("render", "epi.json", {"kind": "epigraph1d", "coeffs": ["0", "0", "1"]},
     "--svg"),
], ids=["out", "svg"])
def test_unwritable_output_path_is_exit_2(command, name, doc, flag, geo,
                                          capsys, tmp_path):
    target = tmp_path / "missing" / "o"
    assert run([command, geo(name, doc), flag, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"}
    assert err["error"] == "FileNotFoundError"
    assert str(target) in err["message"]


@pytest.mark.parametrize("argv, path", [
    (["check", "prop-8", "--samples", "-2"], "$.samples"),
    (["check", "thm-4", "--samples", "0"], "$.samples"),
    (["check", "thm-4", "--probe-density", "0"], "$.probe_density"),
    (["check", "thm-13", "--instances", "-1"], "$.instances"),
    (["kernel", "l.json", "--probe-density", "-3"], "$.probe_density"),
])
def test_out_of_range_settings_are_exit_2(argv, path, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l.json").write_text(json.dumps(L_POLYGON))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["path"] == path


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
        "74b667b43fe7e8bc0f33ef451b2c20d62cedf9c23c8e0835042a6c1d15dff804"
    )


def test_check_all_eight_instances_report_is_pinned(capsys):
    # The benchmark's first check-all pass: eight generated instances per
    # theorem, so the generators' draw order is pinned too.
    argv = ["check", "all", "--instances", "8", "--samples", "12",
            "--probe-density", "8", "--seed", "7"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["results"]) == 87
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "94ad738d8797a4b25e83758db5d0ee8d45b0e85b5246c3171adbb982bcc6483b"
    )


VERDICT_SETTINGS = [
    [],
    ["--instances", "8", "--seed", "42"],
    ["--instances", "8", "--seed", "42", "--samples", "12",
     "--probe-density", "8"],
    ["--instances", "8", "--samples", "12", "--probe-density", "8",
     "--seed", "7"],
    ["--instances", "2", "--samples", "12", "--probe-density", "8",
     "--seed", "42"],
]


# The full `check all` stdout is pinned too at the defaults, at `--seed 7`,
# at `--instances 8 --seed 42` and at the criterion-10 settings.
@pytest.mark.parametrize("settings, digest, report", [
    (VERDICT_SETTINGS[0],
     "da1c22bd2776c002ef773ceb6d146ab06e02108870804a04362c4c651adf11a6",
     "b4896042aac551f4d8b1e173a54d3d01b01b5b0025726903283c1bf7b29f2556"),
    (VERDICT_SETTINGS[1],
     "3f9f82d0331871b878ee11a329174da90007deee40828856decbf254beb8b587",
     "ce9ce95255932de0e87c87caa95310ed4e91a618c54c648f037f395f89fbb3b6"),
    (VERDICT_SETTINGS[2],
     "3f9f82d0331871b878ee11a329174da90007deee40828856decbf254beb8b587",
     "224095a46e45d57e7d03065330ef36f5ef804de7107641f148f200ad15dcdec9"),
    (VERDICT_SETTINGS[3],
     "86ead6e145cc40c79d48a43fd891654b8dbaf2386d6dbe03e9c0dc4396ea61ef",
     None),
    (VERDICT_SETTINGS[4],
     "641ef6596cd2b9b06af1d8066f698bbff1fea4b3b718f00754f1321eeea1df42",
     None),
    (["--seed", "7"],
     "5c97c03232e11c00a078de7c14d9d86f8cc1a1333ee41e1ed9ad9d9d7485eea0",
     "8de11e8913a35de0ab169e80171fdca14a001c06f6441ba1e18d0081728fc294"),
], ids=["defaults", "seed42", "criterion10", "seed7", "two-instances",
        "defaults-seed7"])
def test_check_all_verdicts_are_pinned(settings, digest, report, capsys,
                                       monkeypatch):
    # The (theorem, hypothesis, conclusion) sequence: a declared change of
    # probe or witness bytes must leave every verdict where it was. Where
    # `report` is given, the whole report must stay byte-identical.
    monkeypatch.delenv("CONVEX_PROFILE_SEED", raising=False)
    assert run(["check", "all", *settings]) == 0
    out = capsys.readouterr().out
    results = json.loads(out)["results"]
    verdicts = [[r["theorem"], r["hypothesis"], r["conclusion"]] for r in results]
    text = json.dumps(verdicts)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    if report is not None:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == report


def _ngon_doc():
    from convexprofile.core import Point, Q
    from convexprofile.geometry_io import dump_geometry
    from convexprofile.regions2d import SimplePolygon, circle_points

    poly = SimplePolygon(circle_points(Point((Q(3, 8), Q(-5, 8))), Q(41, 16), 47))
    assert poly.n == 48
    return dump_geometry(poly)


def _circle101_doc():
    from convexprofile.core import Point, Q
    from convexprofile.geometry_io import dump_geometry
    from convexprofile.regions2d import SimplePolygon, circle_points

    poly = SimplePolygon(circle_points(Point((Q(3, 8), Q(-5, 8))), Q(41, 16), 100))
    assert poly.n == 101
    return dump_geometry(poly)


NOTCHED = {
    "kind": "polygon",
    "outer": [["0", "0"], ["4", "0"], ["4", "3"], ["5/2", "3"], ["9/4", "7/4"],
              ["3/2", "3"], ["0", "3"]],
}

HOLED_SQUARE = {
    "kind": "polygon",
    "outer": [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]],
    "holes": [[["1", "1"], ["3", "1"], ["3", "3"], ["1", "3"]]],
}


# The golden tests' ids are fixed strings, one per command. Generated ids
# would embed the pinned digests, so a declared golden change would rename
# its test; these are the names the tests were first collected under, and a
# changed golden edits its value here, never its id.
PLANAR_GOLDEN_IDS = [
    'convexity-ngon.json-_ngon_doc-884f13e8731c6fa87e6a2770cc6631'
    'c83438a7c30ecfc8445fdc07b1bba698eb',
    'kernel-ngon.json-_ngon_doc-faf271fa45461656eb18c9d0a48e771aa'
    '9f09fc7d3a17bfdf1695a20b4ca103e',
    'convexity-notched.json-<lambda>-cade538e44d30ba6de9c476d637d'
    '7511596896cb1e38b9912732ef112752ab7b',
    'convexity-holes.json-<lambda>-387a349082cd4d4b8ca5951369890d'
    '0ca5016f6fb917d0cf33e1d06ef944a22f',
    'convexity-circle101',
    'kernel-circle101',
]

CLI_GOLDEN_IDS = [
    'argv0-0-8f960feaa6e296081171bdb05e2f5e51aa8577dba1ec3e368fa3'
    '366197f8f7a5-None-',
    'argv1-0-cb6d0958b3e50baf2e33dab69d165bd82b78b4dfb7b45aae4d61'
    '608ee027bde9-None-',
    'argv2-0-c7bb884a83fbda861dba14e386f5b4b76d6c73ae358fbc4558ab'
    '4815c544ca8c-None-',
    'argv3-0-63358fa94221b8959c5f95c92b9b7242cf88eeff36d4ad183c5e'
    '6b5cd034f71a-None-',
    'argv4-0-d687b7bbf3e4bd7cdd5db9bd7233b2acab2db6be2ee4108bc540'
    'ea3a8d6b965c-None-',
    'argv5-0-35cafe5e08e19ea2b03033191b1fae97cc17b78cc7df89a18d56'
    '4cfa426706da-None-',
    'argv6-0-c5e999eb6e3cb28cb330fb89b8282a024d36749e1fb49b1e3b12'
    'bc3729aaad17-80e1df51bc689146e4f456d84dfce5cd94a8c081d418a8f'
    '5f082b1e00c12659b-',
    'argv7-0-a53127bfc7710d4faa390211d7c4f5826384d4b6e78520e7468b'
    '07e2018f9e5f-2ed069ac75c8f69d91bc7e5051d3cea98a78a50fe07c92d'
    'a0c5336d1f21d6a88-',
    'argv8-0-c212f971c77fe79b318e36c7553a9f8f35de8bfc2336f6048735'
    'a1110a3fff89-5c41e44ee71d4cd83dbee3c97a1578e3abae365efc33f71'
    'cfa08169d6b1da6b9-',
    'argv9-0-0cc65ab8e3b75168c4a8586f12cf1d85105b0562002d417d0b82'
    '80e813701f97-ce266bb35b877fb1f02616184c337d3808f3bd03a154f9d'
    '8a01fed1f767d976d-',
    'argv10-0-dae4b31c5ad9146b9fc046baf3862a10365fe98fdd25316aa39'
    '874082b9b5040-32689fd8de45fa119cd3abeb353b2c9c90d7426e20bc96'
    '149f533cc2e4ca75a8-',
    'argv11-0-f65391e7f6c6cef4e5a7b0b8ea89ed525feac4e8de5881e08dd'
    'a2f8ecda9400b-1547f184cea80e123ddc99c8dfeef459b7d4a9556119c3'
    'b457bd3bc10a3482d1-',
    'argv12-0-1af5a50650b747d901ae1641762df2be193be759e2d287beeb9'
    'b07a00d8a1d9f-056b4b6eca02de9c1772186ef4f7820e62552729590b74'
    '7584b8e35a133787bc-',
    'argv13-2-e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca49'
    '5991b7852b855-None-{"error": "NotOnBoundaryError", "message"'
    ': "Point(1/2, 1/2) is not a boundary point"}\n',
]


@pytest.mark.parametrize("command, name, doc, digest", [
    ("convexity", "ngon.json", _ngon_doc,
     "884f13e8731c6fa87e6a2770cc6631c83438a7c30ecfc8445fdc07b1bba698eb"),
    ("kernel", "ngon.json", _ngon_doc,
     "faf271fa45461656eb18c9d0a48e771aa9f09fc7d3a17bfdf1695a20b4ca103e"),
    ("convexity", "notched.json", lambda: NOTCHED,
     "cade538e44d30ba6de9c476d637d7511596896cb1e38b9912732ef112752ab7b"),
    ("convexity", "holes.json", lambda: HOLED_SQUARE,
     "387a349082cd4d4b8ca5951369890d0ca5016f6fb917d0cf33e1d06ef944a22f"),
    # 101 vertices, 202 probes: 20,301 pairs, 4.5 times the 48-gon's 4,560
    ("convexity", "circle101.json", _circle101_doc,
     "fb453e00e840ee154ec918110a053903187763accdf02de4224d86b51f792fe8"),
    # a 101-edge kernel and its 102-row double description
    ("kernel", "circle101.json", _circle101_doc,
     "e4bf33f9615c2353636813fed556dd1f0e4d70875687c459ebf2809795210c1c"),
], ids=PLANAR_GOLDEN_IDS)
def test_planar_reports_are_pinned(command, name, doc, digest, capsys, tmp_path,
                                   monkeypatch):
    # Goldens of the pair scan and the kernel on a convex 48-gon and of a
    # witness on a non-convex polygon: speedups must keep them byte-identical.
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(doc()))
    assert run([command, name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("mode, name, doc, digest", [
    # 4,560 and 1,128 pairs of the 48-gon's probes and vertices
    ("all", "ngon.json", _ngon_doc,
     "f3c74633de9ffc52f1c8566dfbd7e7a0137a1975ac2280c96d669a9bd92d497b"),
    ("vertices", "ngon.json", _ngon_doc,
     "dd3c7cea223b63908fe92a568d3e8f8d53787364c2eeecb9ff4f5bf1c740ac16"),
    ("all", "notched.json", lambda: NOTCHED,
     "78b2e289cc9759ae0b1f2e900ca92895eef3eb07efcf827a178dfa2100f20ef8"),
    ("vertices", "notched.json", lambda: NOTCHED,
     "ec05fa17c2ea80349ec65a222e8f537c8b04158b4f4dbe584b6f86e1bd9a153a"),
], ids=["classify-all-ngon", "classify-vertices-ngon", "classify-all-notched",
        "classify-vertices-notched"])
def test_classify_reports_are_pinned(mode, name, doc, digest, capsys, tmp_path,
                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(doc()))
    assert run(["classify", name, "--pairs", mode]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


PINNED_FILES = {
    "cone.json": CONE,
    "triangle.json": {
        "kind": "h-polyhedron",
        "dim": 2,
        "halfspaces": [
            {"normal": ["-1", "0"], "offset": "0"},
            {"normal": ["0", "-1"], "offset": "0"},
            {"normal": ["1", "1"], "offset": "2"},
        ],
    },
    "vpoly.json": {
        "kind": "v-polytope",
        "dim": 2,
        "points": [["0", "0"], ["2", "0"], ["0", "2"], ["1/2", "1/2"], ["2", "2"]],
    },
    "parabola.json": {"kind": "epigraph1d", "coeffs": ["0", "0", "1"]},
    "outside.json": {"kind": "disk-complement", "center": ["0", "0"], "radius": "1"},
    "box.json": {"kind": "pointed-open-box"},
    "l.json": L_POLYGON,
    "z.json": {
        "kind": "polygon",
        "outer": [["0", "0"], ["3", "0"], ["3", "1"], ["2", "1"], ["2", "2"],
                  ["3", "2"], ["3", "3"], ["0", "3"], ["0", "2"], ["1", "2"],
                  ["1", "1"], ["0", "1"]],
    },
    "square.json": SQUARE,
    "interior_pair.json": [[["1/2", "1/2"], ["0", "0"]]],
}


@pytest.mark.parametrize("argv, code, stdout_sha, svg_sha, stderr", [
    (["convexity", "cone.json"], 0,
     "8f960feaa6e296081171bdb05e2f5e51aa8577dba1ec3e368fa3366197f8f7a5", None, ""),
    (["extremes", "vpoly.json"], 0,
     "cb6d0958b3e50baf2e33dab69d165bd82b78b4dfb7b45aae4d61608ee027bde9", None, ""),
    (["extremes", "triangle.json"], 0,
     "c7bb884a83fbda861dba14e386f5b4b76d6c73ae358fbc4558ab4815c544ca8c", None, ""),
    (["reconstruct", "parabola.json", "--samples", "8"], 0,
     "63358fa94221b8959c5f95c92b9b7242cf88eeff36d4ad183c5e6b5cd034f71a", None, ""),
    (["reconstruct", "triangle.json", "--samples", "8"], 0,
     "d687b7bbf3e4bd7cdd5db9bd7233b2acab2db6be2ee4108bc540ea3a8d6b965c", None, ""),
    (["reconstruct", "cone.json", "--samples", "8"], 0,
     "35cafe5e08e19ea2b03033191b1fae97cc17b78cc7df89a18d564cfa426706da", None, ""),
    (["render", "outside.json", "--svg", "out.svg"], 0,
     "c5e999eb6e3cb28cb330fb89b8282a024d36749e1fb49b1e3b12bc3729aaad17",
     "80e1df51bc689146e4f456d84dfce5cd94a8c081d418a8f5f082b1e00c12659b", ""),
    (["render", "box.json", "--svg", "out.svg"], 0,
     "a53127bfc7710d4faa390211d7c4f5826384d4b6e78520e7468b07e2018f9e5f",
     "2ed069ac75c8f69d91bc7e5051d3cea98a78a50fe07c92da0c5336d1f21d6a88", ""),
    (["render", "triangle.json", "--svg", "out.svg", "--overlays", "extremes"], 0,
     "c212f971c77fe79b318e36c7553a9f8f35de8bfc2336f6048735a1110a3fff89",
     "5c41e44ee71d4cd83dbee3c97a1578e3abae365efc33f71cfa08169d6b1da6b9", ""),
    (["render", "cone.json", "--svg", "out.svg", "--overlays", "extremes"], 0,
     "0cc65ab8e3b75168c4a8586f12cf1d85105b0562002d417d0b8280e813701f97",
     "ce266bb35b877fb1f02616184c337d3808f3bd03a154f9d8a01fed1f767d976d", ""),
    (["render", "parabola.json", "--svg", "out.svg"], 0,
     "dae4b31c5ad9146b9fc046baf3862a10365fe98fdd25316aa39874082b9b5040",
     "32689fd8de45fa119cd3abeb353b2c9c90d7426e20bc96149f533cc2e4ca75a8", ""),
    (["render", "l.json", "--svg", "out.svg", "--overlays", "pairs,kernel,extremes"],
     0, "f65391e7f6c6cef4e5a7b0b8ea89ed525feac4e8de5881e08dda2f8ecda9400b",
     "1547f184cea80e123ddc99c8dfeef459b7d4a9556119c3b457bd3bc10a3482d1", ""),
    (["render", "z.json", "--svg", "out.svg", "--overlays", "kernel"], 0,
     "1af5a50650b747d901ae1641762df2be193be759e2d287beeb9b07a00d8a1d9f",
     "056b4b6eca02de9c1772186ef4f7820e62552729590b747584b8e35a133787bc", ""),
    (["classify", "square.json", "--pairs", "interior_pair.json"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None,
     '{"error": "NotOnBoundaryError", '
     '"message": "Point(1/2, 1/2) is not a boundary point"}\n'),
], ids=CLI_GOLDEN_IDS)
def test_cli_reports_are_pinned(argv, code, stdout_sha, svg_sha, stderr, capsys,
                                tmp_path, monkeypatch):
    # Goldens of the commands on the kinds no other test runs them on:
    # refactors must keep the report, the SVG and the error bytes identical.
    monkeypatch.chdir(tmp_path)
    for name, doc in PINNED_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha
    assert captured.err == stderr
    if svg_sha is not None:
        svg = (tmp_path / "out.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == svg_sha


# Goldens of the per-kind branches no golden above reaches: the drawing of
# each remaining kind, the pair classes of the curved and the fixed region,
# every kind gate's error and the unknown-kind error. Ids are fixed like the
# ones above.
KIND_FILES = {
    **PINNED_FILES,
    "disk.json": DISK,
    "holes.json": HOLED_SQUARE,
    "empty.json": {
        "kind": "h-polyhedron",
        "dim": 2,
        "halfspaces": [
            {"normal": ["1", "0"], "offset": "0"},
            {"normal": ["-1", "0"], "offset": "-1"},
        ],
    },
    "segment.json": {
        "kind": "h-polyhedron",
        "dim": 2,
        "halfspaces": [
            {"normal": ["0", "1"], "offset": "0"},
            {"normal": ["0", "-1"], "offset": "0"},
            {"normal": ["1", "0"], "offset": "1"},
            {"normal": ["-1", "0"], "offset": "0"},
        ],
    },
    "cylinder.json": {"kind": "cylinder", "radius": "1"},
}

EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("argv, code, stdout_sha, svg_sha, stderr", [
    (["render", "disk.json", "--svg", "out.svg"], 0,
     "685d3fc57ee0bc0e5d0ee4f2027dd1a41aadd6939e42056ac7bbd7751011036e",
     "9edd06ae49708a5b395c291713059d48ebc437357cd7b9791f4f32a670fcd360", ""),
    (["render", "holes.json", "--svg", "out.svg"], 0,
     "a5318f11acfe9b05b6156ab1ff2437ee3158b540387f98e4b4c0e027270de10f",
     "ac6ef2e75edf699e1b3757a6b08a70c7cc5fcf7a4a96d17fcbc0202d456e1b78", ""),
    (["render", "empty.json", "--svg", "out.svg"], 0,
     "e239ed2a80860574f17502e172278f6b2ac0fe41ad57b02d560655bc1ff8c598",
     "2cdc3c664f5cf69eea618def6b387e769bd955237ca96369ef6b3896978f18c5", ""),
    (["render", "segment.json", "--svg", "out.svg"], 0,
     "ef5cc76e18f88ea2cab6e1ec36f8a789c1a7a0e28f1996cefa7f863aa4adf157",
     "1e9e8bddb05bced3a68262169c74d7bcd6ab27726a60968d2566575d168e5d78", ""),
    (["classify", "disk.json", "--probe-density", "6"], 0,
     "10050d28ddb5d47b037bc28f119ea6d8d7ef13cef23adb1744042aefc5884bed",
     None, ""),
    (["classify", "box.json"], 0,
     "197d567bd88a86499a2e07af045581a42a2ecc42b56535d246bfa8cf989ce18e",
     None, ""),
    (["classify", "vpoly.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "classify needs a region or an h-polyhedron"'
     ', "path": "$.kind"}\n'),
    (["convexity", "parabola.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "convexity needs a planar region"'
     ', "path": "$.kind"}\n'),
    (["extremes", "disk.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "extremes needs an h-polyhedron or a v-polytope"'
     ', "path": "$.kind"}\n'),
    (["reconstruct", "l.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "reconstruct needs an h-polyhedron or an epigraph"'
     ', "path": "$.kind"}\n'),
    (["render", "vpoly.json", "--svg", "out.svg"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "render supports regions, polyhedra, epigraphs"'
     ', "path": "$.kind"}\n'),
    (["render", "parabola.json", "--svg", "out.svg", "--overlays", "pairs"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "pair overlays need a region or an h-polyhedron"'
     ', "path": "$.overlays"}\n'),
    (["kernel", "disk.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "kernel is defined for simple polygons"'
     ', "path": "$.kind"}\n'),
    (["kernel", "holes.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "kernel is defined for simple polygons"'
     ', "path": "$.kind"}\n'),
    (["classify", "cylinder.json"], 2,
     EMPTY_SHA, None,
     '{"error": "schema", '
     '"message": "unknown kind \'cylinder\'; expected one of'
     ' h-polyhedron, v-polytope, polygon, disk, disk-complement,'
     ' pointed-open-box, epigraph1d", "path": "$.kind"}\n'),
], ids=[
    "render-disk",
    "render-holed-square",
    "render-empty-h-polyhedron",
    "render-segment-h-polyhedron",
    "classify-disk",
    "classify-pointed-box",
    "gate-classify-v-polytope",
    "gate-convexity-epigraph",
    "gate-extremes-disk",
    "gate-reconstruct-polygon",
    "gate-render-v-polytope",
    "gate-pair-overlay-epigraph",
    "gate-kernel-disk",
    "gate-kernel-holed-polygon",
    "unknown-kind",
])
def test_kind_dispatch_reports_are_pinned(argv, code, stdout_sha, svg_sha,
                                          stderr, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in KIND_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha
    assert captured.err == stderr
    if svg_sha is not None:
        svg = (tmp_path / "out.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == svg_sha
    elif code == 2:
        assert not (tmp_path / "out.svg").exists()
