import json

import pytest

from convexprofile.core import Q, point
from convexprofile.epigraph import Epigraph1D
from convexprofile.errors import SchemaError
from convexprofile.geometry_io import (
    dump_geometry,
    instance_digest,
    load_geometry,
    load_geometry_file,
    parse_rational,
)
from convexprofile.polyhedra import HPolyhedron, VPolytope
from convexprofile.regions2d import (
    Disk,
    DiskComplement,
    PointedOpenBox,
    PolygonRegion,
)


def test_parse_rational_forms():
    assert parse_rational("3/4", "$") == Q(3, 4)
    assert parse_rational("-2", "$") == Q(-2)
    assert parse_rational(5, "$") == Q(5)
    for bad in ("1.5", "a/b", "1/0", None, True, [1]):
        with pytest.raises(SchemaError):
            parse_rational(bad, "$.x")


def _roundtrip(doc):
    instance = load_geometry(doc)
    dumped = dump_geometry(instance)
    again = load_geometry(dumped)
    assert dump_geometry(again) == dumped
    return instance, dumped


def test_roundtrip_h_polyhedron():
    doc = {
        "kind": "h-polyhedron",
        "dim": 2,
        "halfspaces": [
            {"normal": ["1", "-1"], "offset": "0"},
            {"normal": ["-1", "-1"], "offset": "0"},
        ],
    }
    instance, dumped = _roundtrip(doc)
    assert isinstance(instance, HPolyhedron)
    assert dumped["halfspaces"][0]["normal"] == ["1", "-1"]


def test_roundtrip_v_polytope():
    doc = {"kind": "v-polytope", "dim": 2, "points": [["0", "0"], ["1/2", "1"]]}
    instance, _ = _roundtrip(doc)
    assert isinstance(instance, VPolytope)
    assert instance.generators[1] == point(Q(1, 2), 1)


def test_roundtrip_polygon_with_hole():
    doc = {
        "kind": "polygon",
        "outer": [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]],
        "holes": [[["1", "1"], ["2", "1"], ["2", "2"], ["1", "2"]]],
    }
    instance, dumped = _roundtrip(doc)
    assert isinstance(instance, PolygonRegion)
    assert len(instance.holes) == 1
    assert len(dumped["holes"]) == 1


def test_roundtrip_disks_and_box_and_epigraph():
    disk, _ = _roundtrip({"kind": "disk", "center": ["0", "0"], "radius": "3/2"})
    assert isinstance(disk, Disk)
    comp, _ = _roundtrip(
        {"kind": "disk-complement", "center": ["1", "0"], "radius": "2"}
    )
    assert isinstance(comp, DiskComplement)
    box, _ = _roundtrip({"kind": "pointed-open-box"})
    assert isinstance(box, PointedOpenBox)
    epi, _ = _roundtrip({"kind": "epigraph1d", "coeffs": ["0", "0", "1"]})
    assert isinstance(epi, Epigraph1D)


def test_integer_coordinates_accepted_strings_emitted():
    doc = {"kind": "disk", "center": [0, 1], "radius": 2}
    instance = load_geometry(doc)
    dumped = dump_geometry(instance)
    assert dumped["center"] == ["0", "1"]
    assert dumped["radius"] == "2"


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        load_geometry({"kind": "disk", "center": ["0", "zz"], "radius": "1"})
    assert exc.value.path == "$.center[1]"
    with pytest.raises(SchemaError) as exc:
        load_geometry({"kind": "h-polyhedron", "dim": 2, "halfspaces": [
            {"normal": ["1"], "offset": "0"}]})
    assert exc.value.path == "$.halfspaces[0].normal"
    with pytest.raises(SchemaError) as exc:
        load_geometry({"kind": "mystery"})
    assert exc.value.path == "$.kind"
    with pytest.raises(SchemaError) as exc:
        load_geometry({"kind": "disk", "center": ["0", "0"], "radius": "-1"})
    assert exc.value.path == "$.radius"
    with pytest.raises(SchemaError) as exc:
        load_geometry(
            {"kind": "polygon", "outer": [["0", "0"], ["1", "0"], ["2", "0"]]}
        )
    assert exc.value.path == "$.outer"
    with pytest.raises(SchemaError) as exc:
        load_geometry({"kind": "h-polyhedron", "dim": 2})
    assert "halfspaces" in str(exc.value)


def test_zero_normal_rejected():
    with pytest.raises(SchemaError):
        load_geometry(
            {
                "kind": "h-polyhedron",
                "dim": 2,
                "halfspaces": [{"normal": ["0", "0"], "offset": "1"}],
            }
        )


def test_digest_stability_and_sensitivity():
    doc = {"kind": "disk", "center": ["0", "0"], "radius": "1"}
    a = instance_digest(load_geometry(doc))
    b = instance_digest(load_geometry(json.loads(json.dumps(doc))))
    assert a == b
    c = instance_digest(load_geometry({**doc, "radius": "2"}))
    assert a != c


def test_load_geometry_file_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_geometry_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_geometry_file(str(bad))


def _cli_schema_error(tmp_path, capsys, doc, command):
    from convexprofile.cli import run

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run([command, str(path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema"
    return err["path"]


def test_non_list_holes_is_a_schema_error(tmp_path, capsys):
    doc = {"kind": "polygon", "outer": [["0", "0"], ["1", "0"], ["0", "1"]],
           "holes": 5}
    for command in ("classify", "convexity", "kernel"):
        assert _cli_schema_error(tmp_path, capsys, doc, command) == "$.holes"


def test_boolean_dim_is_a_schema_error(tmp_path, capsys):
    for doc in (
        {"kind": "h-polyhedron", "dim": True,
         "halfspaces": [{"normal": ["1"], "offset": "0"}]},
        {"kind": "v-polytope", "dim": True, "points": [["0"]]},
    ):
        assert _cli_schema_error(tmp_path, capsys, doc, "extremes") == "$.dim"
