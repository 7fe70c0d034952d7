import json

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.cli import _load_pairs_file
from convexprofile.core import Q, point
from convexprofile.epigraph import Epigraph1D
from convexprofile.errors import SchemaError
from convexprofile.geometry_io import (
    KINDS,
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


_LONG = "1" * 5000  # past int()'s default digit limit


# Each input with its value, or with the SchemaError message it raises.
RATIONAL_PINS = [
    (" 3/4 ", Q(3, 4)),
    ("+3", Q(3)),
    ("-0/5", Q(0)),
    ("007/010", Q(7, 10)),
    ("٣/٤", Q(3, 4)),  # Arabic-Indic digits are decimal digits
    (" -12/8", Q(-3, 2)),
    ("9" * 400 + "/7", Q(int("9" * 400), 7)),
    (7, Q(7)),
    (-7, Q(-7)),
    ("3/0", "not a rational: '3/0'"),
    ("1/-2", "not a rational: '1/-2'"),
    ("3/", "not a rational: '3/'"),
    ("/4", "not a rational: '/4'"),
    ("", "not a rational: ''"),
    ("1e3", "not a rational: '1e3'"),
    ("1_000", "not a rational: '1_000'"),
    ("3/4/5", "not a rational: '3/4/5'"),
    ("¹/2", "not a rational: '¹/2'"),  # a superscript is no digit
    (_LONG, f"not a rational: {_LONG!r}"),
    (True, "expected a rational, got a boolean"),
    (3.5, "expected 'p/q' string or integer, got 3.5"),
]


@pytest.mark.parametrize("value, want", RATIONAL_PINS,
                         ids=[repr(v)[:24] for v, _ in RATIONAL_PINS])
def test_parse_rational_is_pinned_on_every_route(value, want, tmp_path):
    # The value or the message and path, straight, as a polygon vertex
    # coordinate and as a pair-file coordinate.
    polygon = {"kind": "polygon", "outer": [["0", "0"], ["4", "0"], [value, "4"]]}
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[["0", "0"], [value, "1"]]]))
    routes = [
        (lambda: parse_rational(value, "$.x"), "$.x"),
        (lambda: load_geometry(polygon).outer.vertices[2].coords[0],
         "$.outer[2][0]"),
        (lambda: _load_pairs_file(str(pairs), 2)[0][1].coords[0],
         "$.pairs[0][1][0]"),
    ]
    for route, path in routes:
        if isinstance(want, str):
            with pytest.raises(SchemaError) as err:
                route()
            assert (err.value.message, err.value.path) == (want, path)
        else:
            got = route()
            assert got == want and type(got) is type(want)


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


# -- fuzzing: every document loads or is a SchemaError ----------------------

VALID_DOCS = [
    {"kind": "h-polyhedron", "dim": 2, "halfspaces": [
        {"normal": ["1", "-1"], "offset": "0"},
        {"normal": ["-1", "-1"], "offset": "1/2"}]},
    {"kind": "v-polytope", "dim": 2, "points": [["0", "0"], ["1/2", "1"]]},
    {"kind": "polygon",
     "outer": [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]],
     "holes": [[["1", "1"], ["2", "1"], ["2", "2"], ["1", "2"]]]},
    {"kind": "disk", "center": ["0", "0"], "radius": "3/2"},
    {"kind": "disk-complement", "center": [1, 0], "radius": 2},
    {"kind": "pointed-open-box"},
    {"kind": "epigraph1d", "coeffs": ["0", "0", "1"]},
]
FIELDS = ["kind", "dim", "halfspaces", "normal", "offset", "points", "outer",
          "holes", "center", "radius", "coeffs"]

_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["0", "1", "-1", "1/2", "1/0", "2/-3", " 3 ", "x", "",
                       "9" * 5000, *KINDS])
    | st.text(max_size=6)
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner,
                      max_size=5),
    max_leaves=20,
)


def _paths(doc, prefix=()):
    """Every (container path, key) in a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


rationals = st.integers(-9, 9) | st.sampled_from(["0", "1", "-1", "1/2", "-3/4"])


@st.composite
def mutated_docs(draw):
    """A valid document with up to three edits: a field or item replaced by a
    rational or by any JSON value, deleted, or (in a list) repeated."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(0, 3))):
        prefix, key = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for k in prefix:
            parent = parent[k]
        edit = draw(st.sampled_from(["rational", "any", "delete", "repeat"]))
        if edit == "rational":
            parent[key] = draw(rationals)
        elif edit == "any":
            parent[key] = draw(json_values)
        elif edit == "delete" or isinstance(parent, dict):
            del parent[key]
        else:
            parent.insert(key, parent[key])
        if not doc:
            break
    return doc


def _loads_or_schema_error(doc):
    try:
        instance = load_geometry(doc)
    except SchemaError:
        return
    assert dump_geometry(instance)["kind"] in KINDS


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(json_values)
def test_arbitrary_json_loads_or_is_a_schema_error(doc):
    _loads_or_schema_error(doc)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(mutated_docs())
def test_mutated_documents_load_or_are_schema_errors(doc):
    _loads_or_schema_error(doc)
