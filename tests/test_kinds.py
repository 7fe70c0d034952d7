"""A geometry kind defined outside the package.

The half-plane below is a region that `convexprofile` does not know. Its
loader, dumper and drawing go into the kind tables, and from there it
loads, dumps, classifies, passes the convexity test and renders with no
change to the package.
"""

import json

import pytest

from convexprofile import geometry_io, svg_render
from convexprofile.cli import run
from convexprofile.core import Point, Q, ZERO
from convexprofile.geometry_io import dump_geometry, load_geometry
from convexprofile.polyhedra import PointLocation


class HalfPlane:
    """The closed upper half-plane {(x, y) : y >= 0}."""

    kind = "half-plane"
    dim = 2

    def locate2(self, x):
        y = x.coords[1]
        if y > 0:
            return PointLocation.INTERIOR, True
        if y == 0:
            return PointLocation.BOUNDARY, True
        return PointLocation.EXTERIOR, False

    def breakpoints(self, a, b):
        ya, yb = a.coords[1], b.coords[1]
        if ya != yb and 0 < ya / (ya - yb) < 1:
            return [ya / (ya - yb)]
        return []

    def boundary_probes(self, density):
        return [Point((Q(k), ZERO)) for k in range(density)]


def _load(doc, path):
    return (), path


def _dump(obj):
    return {}


def _draw(plane, frame_for):
    frame = frame_for((Q(-2), Q(-2), Q(2), Q(2)))
    x, y = frame.map(Point((-2, 0)))
    return frame, f'<rect x="{x:.6f}" y="{y:.6f}" width="800" height="800"/>'


@pytest.fixture
def half_plane(monkeypatch):
    monkeypatch.setitem(geometry_io.KINDS, HalfPlane.kind, (HalfPlane, _load, _dump))
    monkeypatch.setitem(svg_render._DRAWINGS, HalfPlane.kind, _draw)


def test_a_new_kind_round_trips(half_plane):
    plane = load_geometry({"kind": "half-plane"})
    assert isinstance(plane, HalfPlane)
    assert dump_geometry(plane) == {"kind": "half-plane"}
    assert isinstance(load_geometry(dump_geometry(plane)), HalfPlane)


def test_a_new_kind_runs_through_the_cli(half_plane, tmp_path, capsys):
    src = tmp_path / "plane.json"
    src.write_text(json.dumps({"kind": "half-plane"}))

    assert run(["classify", str(src), "--probe-density", "5"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == 10
    assert {r["class"] for r in results} == {"flat"}

    assert run(["convexity", str(src)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == [{"convex_by_pairs": True}]

    svg = tmp_path / "plane.svg"
    assert run(["render", str(src), "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert "<rect x=" in svg.read_text()


def test_an_unregistered_kind_is_refused():
    with pytest.raises(TypeError, match="cannot serialize HalfPlane"):
        dump_geometry(HalfPlane())
