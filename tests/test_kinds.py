"""A geometry kind defined outside the package.

The half-plane below is a region that `convexprofile` does not know. Its
loader, dumper and drawing go into the kind tables, and from there it
loads, dumps, classifies, passes the convexity test, runs the convexity
corollary and renders with no change to the package. An epigraph under a
kind name of its own runs the chord theorems the same way.
"""

import json

import pytest

from convexprofile import geometry_io, svg_render
from convexprofile.cli import run
from convexprofile.core import Point, Q, ZERO
from convexprofile.epigraph import Epigraph1D
from convexprofile.geometry_io import dump_geometry, load_geometry
from convexprofile.polyhedra import PointLocation
from convexprofile.theorems import (
    ConclusionStatus,
    HypothesisStatus,
    check_boundary_hull,
    check_convexity_corollary,
    check_krein_milman,
)


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

    def convexity_witness(self):
        return None


class ShiftedParabola(Epigraph1D):
    """An epigraph that `convexprofile` knows only by its protocol."""

    kind = "shifted-parabola"


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


@pytest.fixture
def shifted_parabola(monkeypatch):
    _, load, dump = geometry_io.KINDS[Epigraph1D.kind]
    monkeypatch.setitem(geometry_io.KINDS, ShiftedParabola.kind,
                        (ShiftedParabola, load, dump))


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


def test_a_new_kind_runs_the_convexity_corollary(half_plane):
    r = check_convexity_corollary(HalfPlane(), 5)
    assert (r.hypothesis, r.conclusion) == (
        HypothesisStatus.SATISFIED, ConclusionStatus.HOLDS)
    assert r.facts == {"convex_by_pairs": True, "convex_ground_truth": True}


@pytest.mark.parametrize("check", [check_boundary_hull, check_krein_milman])
def test_a_new_epigraph_kind_runs_the_chord_theorems(shifted_parabola, check):
    r = check(ShiftedParabola((1, -2, 1)), 5, 3)
    assert (r.hypothesis, r.conclusion) == (
        HypothesisStatus.SATISFIED, ConclusionStatus.HOLDS)
    assert r.instance_kind == "shifted-parabola"
    assert r.facts["chords_verified"] == 5
