import collections
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile import core
from convexprofile.cli import run
from convexprofile.core import Point, Q, Segment, interpolate, point
from convexprofile.errors import (
    CertificateError,
    DegenerateSegmentError,
    DimensionMismatchError,
    InvalidPolygonError,
    InvalidRegionError,
    NotAMemberError,
    NotOnBoundaryError,
)
from convexprofile import intgeom, regions2d
from convexprofile.geometry_io import dump_geometry
from convexprofile.generators import (
    random_convex_polygon,
    random_direction,
    random_hpolyhedron,
    random_notched_polygon,
    random_simple_polygon,
    random_staircase_polygon,
    rng_from_seed,
    sample_member_points,
)
from convexprofile.polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    extreme_points,
    face_in_direction,
    feasible_point,
    is_empty,
)
from convexprofile.regions2d import (
    Disk,
    DiskComplement,
    PairClass,
    PointedOpenBox,
    PolygonRegion,
    SimplePolygon,
    circle_points,
    classify_pair,
    convexity_oracle,
    first_pair_outside,
    is_convex_by_pairs,
    is_starshaped,
    kernel,
    kernel_contains_by_visibility,
    kernel_vertices,
    locate_point2,
    partition_segment,
    sees,
)
from convexprofile.theorems import (
    l_polygon_fixture,
    run_suite,
    z_polygon_fixture,
)
from test_polyhedra_rows import _fraction_breakpoints


def square_region():
    return PolygonRegion(
        SimplePolygon([point(0, 0), point(1, 0), point(1, 1), point(0, 1)])
    )


def l_polygon():
    return SimplePolygon(
        [point(0, 0), point(2, 0), point(2, 1), point(1, 1), point(1, 2), point(0, 2)]
    )


def z_polygon():
    return SimplePolygon(
        [point(0, 0), point(3, 0), point(3, 1), point(2, 1), point(2, 2),
         point(3, 2), point(3, 3), point(0, 3), point(0, 2), point(1, 2),
         point(1, 1), point(0, 1)]
    )


# --- polygon validation ----------------------------------------------------

def test_polygon_validation():
    with pytest.raises(InvalidPolygonError):
        SimplePolygon([point(0, 0), point(1, 0)])
    with pytest.raises(InvalidPolygonError):
        SimplePolygon([point(0, 0), point(0, 1), point(1, 0)])  # clockwise
    with pytest.raises(InvalidPolygonError):
        SimplePolygon([point(0, 0), point(1, 0), point(2, 0), point(0, 1)])
    with pytest.raises(InvalidPolygonError):  # bow tie
        SimplePolygon([point(0, 0), point(1, 1), point(1, 0), point(0, 1)])


def test_hole_validation():
    outer = SimplePolygon([point(0, 0), point(4, 0), point(4, 4), point(0, 4)])
    hole = SimplePolygon([point(1, 1), point(2, 1), point(2, 2), point(1, 2)])
    region = PolygonRegion(outer, (hole,))
    assert locate_point2(region, point(Q(3, 2), Q(3, 2)))[0] is PointLocation.EXTERIOR
    assert locate_point2(region, point(1, Q(3, 2)))[0] is PointLocation.BOUNDARY
    assert locate_point2(region, point(3, 3))[0] is PointLocation.INTERIOR
    with pytest.raises(InvalidRegionError):  # hole touching the outer ring
        PolygonRegion(
            outer,
            (SimplePolygon([point(0, 0), point(1, 0), point(1, 1), point(0, 1)]),),
        )


def _square_ring(lo, hi):
    return SimplePolygon([point(lo, lo), point(hi, lo), point(hi, hi), point(lo, hi)])


@pytest.mark.parametrize("inner_first", [True, False])
def test_nested_holes_are_rejected_in_either_order(inner_first, tmp_path, capsys):
    # [4, 6]^2 lies strictly inside [2, 8]^2; the edges do not touch, so
    # only a containment test in both directions sees the nesting.
    holes = [_square_ring(4, 6), _square_ring(2, 8)]
    if not inner_first:
        holes.reverse()
    outer = _square_ring(0, 10)
    with pytest.raises(InvalidRegionError, match="holes are nested"):
        PolygonRegion(outer, holes)
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({
        "kind": "polygon",
        "outer": [[str(c) for c in v.coords] for v in outer.vertices],
        "holes": [[[str(c) for c in v.coords] for v in h.vertices] for h in holes],
    }))
    assert run(["convexity", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["path"], err["message"]) == (
        "schema", "$", "holes are nested")


def test_polygon_rejects_points_that_are_not_2d():
    poly = l_polygon()
    for x in (point(1), point(1, 1, 1)):
        with pytest.raises(DimensionMismatchError):
            poly.locate(x)
        with pytest.raises(DimensionMismatchError):
            poly.table(x)
        with pytest.raises(DimensionMismatchError):
            kernel_contains_by_visibility(poly, x, 4)
    assert poly.locate(point(Q(1, 2), Q(1, 2))) is PointLocation.INTERIOR


def _points(*coords):
    return [point(*c) for c in coords]


def _verdict(build):
    try:
        build()
    except (InvalidPolygonError, InvalidRegionError) as err:
        return type(err).__name__, str(err)
    return "valid"


def _validation_cases():
    """Polygon and region builders: hand cases, then seeded random ones."""
    square = _points((0, 0), (8, 0), (8, 8), (0, 8))
    vee = _points((0, 0), (8, 0), (8, 8), (4, 4), (0, 8))
    rings = [
        _points((0, 0), (4, 0), (4, 4), (2, -1), (0, 4)),  # crossing edges
        _points((0, 0), (4, 0), (4, 4), (2, 0), (0, 4)),  # T-touch
        _points((0, 0), (6, 0), (6, 3), (4, 0), (2, 0), (2, 3)),  # overlap
        _points((0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2, 2)),  # pinched
        _points((0, 0), (4, 0), (4, 4), (2, 1), (0, 4)),  # boxes overlap
    ]
    regions = [
        (vee, [_points((2, 4), (4, 1), (6, 4))]),  # hole touches the ring
        (vee, [_points((2, 3), (4, 2), (6, 3))]),
        (square, [_points((1, 1), (5, 1), (5, 5), (1, 5)),
                  _points((5, 2), (7, 2), (7, 4), (5, 4))]),  # holes touch
        (square, [_points((1, 1), (5, 1), (1, 5)),
                  _points((4, 4), (6, 2), (6, 6))]),
    ]
    rng = rng_from_seed(97)
    for _ in range(80):
        vertices = list(random_simple_polygon(rng).vertices)
        rings.append(vertices)
        moved = list(vertices)
        moved[rng.randrange(len(moved))] = point(
            rng.randint(-8, 8), rng.randint(-8, 8)
        )
        rings.append(moved)
        offset = (Q(rng.randint(-16, 16), 4), Q(rng.randint(-16, 16), 4))
        hole = [
            point(x / 4 + offset[0], y / 4 + offset[1])
            for x, y in (v.coords for v in random_convex_polygon(rng).vertices)
        ]
        regions.append((vertices, [hole]))
    yield from (lambda r=r: SimplePolygon(r) for r in rings)
    yield from (
        lambda o=o, hs=hs: PolygonRegion(
            SimplePolygon(o), [SimplePolygon(h) for h in hs]
        )
        for o, hs in regions
    )


def test_bounding_box_prefilter_keeps_every_verdict(monkeypatch):
    # The verdict and message match those of the touch tests run on every
    # edge pair, with no bounding-box test in front.
    builds = list(_validation_cases())
    verdicts = [_verdict(build) for build in builds]
    monkeypatch.setattr(
        regions2d, "_edges_touch",
        lambda e, f: regions2d._segments_touch(e[0], e[1], f[0], f[1]),
    )
    assert verdicts == [_verdict(build) for build in builds]
    kinds = collections.Counter(v if v == "valid" else v[1] for v in verdicts)
    assert kinds["polygon edges intersect"] >= 20
    assert kinds["hole touches the outer ring"] >= 1
    assert kinds["holes touch each other"] >= 1
    assert kinds["valid"] >= 80
    assert verdicts[:5] == [
        ("InvalidPolygonError", "polygon edges intersect")
    ] * 4 + ["valid"]


# --- locate ----------------------------------------------------------------

def test_locate_pointed_open_box():
    box = PointedOpenBox()
    assert locate_point2(box, point(Q(1, 2), Q(1, 2))) == (PointLocation.INTERIOR, True)
    assert locate_point2(box, point(Q(1, 2), 0)) == (PointLocation.BOUNDARY, False)
    assert locate_point2(box, point(0, 0)) == (PointLocation.BOUNDARY, True)
    assert locate_point2(box, point(2, 0)) == (PointLocation.EXTERIOR, False)


def test_locate_disk_variants():
    disk = Disk(point(0, 0), 1)
    assert locate_point2(disk, point(1, 0)) == (PointLocation.BOUNDARY, True)
    assert locate_point2(disk, point(0, Q(1, 2)))[0] is PointLocation.INTERIOR
    comp = DiskComplement(point(0, 0), 1)
    assert locate_point2(comp, point(1, 0)) == (PointLocation.BOUNDARY, False)
    assert locate_point2(comp, point(2, 0)) == (PointLocation.INTERIOR, True)
    assert locate_point2(comp, point(0, 0)) == (PointLocation.EXTERIOR, False)


# --- partition_segment -----------------------------------------------------

def test_partition_entering_square():
    # DERIVED: exterior on (0,1/2), boundary point at 1/2, interior after.
    part = partition_segment(
        square_region(), Segment(point(Q(-1, 2), Q(1, 2)), point(Q(1, 2), Q(1, 2)))
    )
    assert [
        (p.lo, p.hi, p.location) for p in part.pieces
    ] == [
        (Q(0), Q(1, 2), PointLocation.EXTERIOR),
        (Q(1, 2), Q(1, 2), PointLocation.BOUNDARY),
        (Q(1, 2), Q(1), PointLocation.INTERIOR),
    ]
    # brute-force cross-check at dyadic parameters (point pieces first:
    # interval pieces are open at their endpoints)
    seg = part.segment
    for k in range(1, 32):
        t = Q(k, 32)
        x = interpolate(seg.a, seg.b, t)
        expected = locate_point2(square_region(), x)[0]
        piece = next(
            p
            for p in sorted(part.pieces, key=lambda p: not p.is_point())
            if p.lo <= t <= p.hi
        )
        assert piece.location is expected


def test_partition_edge_is_single_boundary_piece():
    part = partition_segment(square_region(), Segment(point(0, 0), point(1, 0)))
    assert [(p.lo, p.hi, p.location) for p in part.pieces] == [
        (Q(0), Q(1), PointLocation.BOUNDARY)
    ]


def test_partition_rejects_degenerate_segment():
    with pytest.raises(DegenerateSegmentError):
        partition_segment(square_region(), Segment(point(0, 0), point(0, 0)))


@pytest.mark.parametrize("region", [Disk(point(0, 0), 1), PointedOpenBox()],
                         ids=lambda region: region.kind)
def test_partition_and_sees_refuse_a_kind_without_breakpoints(region):
    # A convex kind classifies its pairs by `supports` and has no segment
    # partition: both entry points name its kind, also for a pair that
    # `sees` would otherwise settle before partitioning.
    p, q = region.boundary_probes(4)[:2]
    for call in (lambda: partition_segment(region, Segment(p, q)),
                 lambda: sees(region, p, q), lambda: sees(region, p, p)):
        with pytest.raises(TypeError, match=f"a {region.kind} region"):
            call()


# --- classify_pair ----------------------------------------------------------

def test_classify_pair_examples():
    sq = square_region()
    assert classify_pair(sq, point(0, 0), point(1, 0)) is PairClass.FLAT
    assert classify_pair(sq, point(0, 0), point(1, 1)) is PairClass.HYPERBOLIC
    L = PolygonRegion(l_polygon())
    # DERIVED: every open piece of the notch chord is exterior
    assert classify_pair(L, point(1, 2), point(2, 1)) is PairClass.ELLIPTIC
    # DERIVED: passes through the reflex vertex then the interior
    assert classify_pair(L, point(0, 2), point(2, 0)) is PairClass.MIXED


def test_classify_pair_validates_inputs():
    sq = square_region()
    with pytest.raises(DegenerateSegmentError):
        classify_pair(sq, point(0, 0), point(0, 0))
    with pytest.raises(NotOnBoundaryError):
        classify_pair(sq, point(Q(1, 2), Q(1, 2)), point(0, 0))


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_classify_pair_symmetry_and_totality(seed):
    rng = rng_from_seed(seed)
    poly = random_simple_polygon(rng, max_vertices=8)
    region = PolygonRegion(poly)
    probes = region.boundary_probes(16)
    rng.shuffle(probes)
    for p, q in itertools.combinations(probes[:6], 2):
        cls = classify_pair(region, p, q)
        assert cls in PairClass
        assert classify_pair(region, q, p) is cls


# --- the probe-pair scan -----------------------------------------------------

NOT_CONVEX = {PairClass.ELLIPTIC, PairClass.MIXED}
CONVEX = {PairClass.FLAT, PairClass.HYPERBOLIC}


def _first_pair_by_classify_pair(region, probes, classes):
    for p, q in itertools.combinations(probes, 2):
        cls = classify_pair(region, p, q)
        if cls not in classes:
            return p, q, cls
    return None


def test_pair_scan_witness_is_the_first_pair_in_combinations_order():
    L = PolygonRegion(l_polygon())
    probes = L.boundary_probes(16)
    witness = first_pair_outside(L, probes, CONVEX)
    assert witness == (point(1, 0), point(1, Q(3, 2)), PairClass.MIXED)
    assert witness == _first_pair_by_classify_pair(L, probes, CONVEX)
    assert is_convex_by_pairs(L) == (False, witness)
    for classes in ({PairClass.FLAT}, {PairClass.HYPERBOLIC}, NOT_CONVEX,
                    CONVEX | {PairClass.MIXED}):
        assert first_pair_outside(L, probes, classes) == (
            _first_pair_by_classify_pair(L, probes, classes)
        )
    sq = square_region()
    assert first_pair_outside(sq, sq.boundary_probes(16), {PairClass.FLAT}) == (
        point(0, 0), point(1, Q(1, 2)), PairClass.HYPERBOLIC
    )
    assert first_pair_outside(sq, sq.boundary_probes(16), CONVEX) is None


def _scan_cases():
    # (region, a witness pair, a point off the boundary)
    yield (
        PolygonRegion(l_polygon()),
        (point(1, 0), point(1, Q(3, 2))),
        point(Q(1, 2), Q(1, 2)),
    )
    yield (
        DiskComplement(point(0, 0), 1),
        (point(1, 0), point(-1, 0)),
        point(3, 3),
    )
    # a hole sends the scan through the rational partition
    yield (
        PolygonRegion(
            SimplePolygon([point(0, 0), point(4, 0), point(4, 4), point(0, 4)]),
            [SimplePolygon([point(1, 1), point(3, 1), point(3, 3), point(1, 3)])],
        ),
        (point(0, 2), point(4, 2)),
        point(2, 2),
    )


@pytest.mark.parametrize("region, pair, off", list(_scan_cases()))
def test_pair_scan_stops_at_a_witness_before_a_later_off_boundary_probe(
    region, pair, off
):
    p, q = pair
    witness = first_pair_outside(region, [p, q, off], CONVEX)
    assert witness[:2] == (p, q)
    assert witness[2] in NOT_CONVEX


@pytest.mark.parametrize("region, pair, off", list(_scan_cases()))
def test_pair_scan_raises_on_an_off_boundary_probe_met_first(region, pair, off):
    p, q = pair
    with pytest.raises(NotOnBoundaryError):
        first_pair_outside(region, [p, off, q], CONVEX)
    with pytest.raises(NotOnBoundaryError):
        # (p, q) is no witness for this class set, so the scan reaches off
        first_pair_outside(region, [p, q, off], set(PairClass))


@pytest.mark.parametrize("region, pair, off", list(_scan_cases()))
def test_pair_scan_raises_on_equal_probes(region, pair, off):
    p, q = pair
    with pytest.raises(DegenerateSegmentError):
        first_pair_outside(region, [p, p, q], CONVEX)
    # equality is checked before either endpoint is located
    with pytest.raises(DegenerateSegmentError):
        first_pair_outside(region, [off, off], CONVEX)


POLYGON_KINDS = {
    "convex": lambda rng: random_convex_polygon(rng, 10),
    "skyline": random_staircase_polygon,
    "notched": lambda rng: random_notched_polygon(rng, 9),
}


# every subset of the four classes
CLASS_SETS = [
    set(c) for r in range(5) for c in itertools.combinations(PairClass, r)
]


def _scan_outcome(scan, region, probes, classes):
    """A scan's witness, or the type and message of the error it raised."""
    try:
        return scan(region, probes, classes)
    except NotOnBoundaryError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("region, pair, off", list(_scan_cases()))
def test_pair_scan_raises_where_classify_pair_would(region, pair, off):
    # Every order of a witness pair and an off-boundary probe, against
    # every class set: the scan returns or raises what pair by pair does.
    assert len(CLASS_SETS) == 16
    outcomes = set()
    for probes in itertools.permutations([*pair, off]):
        for classes in CLASS_SETS:
            got = _scan_outcome(first_pair_outside, region, list(probes), classes)
            assert got == _scan_outcome(
                _first_pair_by_classify_pair, region, probes, classes
            ), (probes, classes)
            outcomes.add("witness" if len(got) == 3 else "error")
    assert outcomes == {"witness", "error"}


@given(st.sampled_from(sorted(POLYGON_KINDS)), st.integers(0, 10**9))
@settings(max_examples=30)
def test_table_classification_agrees_with_the_partition(kind, seed):
    # The integer edge-table classifier and the rational partition must
    # agree on every probe pair; skylines bring collinear edges and vertex
    # contacts.
    poly = POLYGON_KINDS[kind](rng_from_seed(seed))
    region = PolygonRegion(poly)
    probes = region.boundary_probes(16)
    tables = {p: regions2d._probe(region, p)[1] for p in probes}
    for p, q in itertools.combinations(probes, 2):
        fast = regions2d._classify(region, (p, tables[p]), (q, tables[q]))
        exact = regions2d._classify_from_partition(
            region, partition_segment(region, Segment(p, q))
        )
        assert classify_pair(region, p, q) is exact
        assert fast is exact


def test_pair_scan_locates_each_probe_once_without_orient(monkeypatch):
    poly = SimplePolygon(circle_points(point(Q(3, 8), Q(-5, 8)), Q(41, 16), 47))
    region = PolygonRegion(poly)
    probes = region.boundary_probes(16)
    assert (poly.n, len(probes)) == (48, 96)
    calls = dict.fromkeys(("point_in_polygon", "orient"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(intgeom, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(intgeom, name, counted)
    assert is_convex_by_pairs(region) == (True, None)
    assert calls["point_in_polygon"] <= len(probes)
    assert calls["orient"] == 0


def test_pair_scan_draws_sight_lines_only_along_common_edge_lines(monkeypatch):
    # A sight line is drawn only for a pair that some edge line strictly
    # separates; on a convex ring no pair of boundary points is, so even
    # the pairs along one edge's line are decided by their masks. Row 0
    # goes pair by pair from vertex 0, one side_at per q (95); the later
    # rows read every side from the edge columns.
    poly = SimplePolygon(circle_points(point(Q(3, 8), Q(-5, 8)), Q(41, 16), 47))
    calls = collections.Counter()
    for name in ("side_at", "sight_blocked"):
        def counted(*args, _name=name, _fn=getattr(intgeom, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(intgeom, name, counted)
    assert is_convex_by_pairs(PolygonRegion(poly)) == (True, None)
    assert poly.n == 48 and calls["sight_blocked"] == 0
    assert calls["side_at"] <= 95


def test_edge_tables_are_bounded_by_their_own_inputs():
    # A probe's table entry is its own form against one edge's row; a
    # ring-wide common denominator would take it to 3,992 bits here.
    poly = SimplePolygon(circle_points(point(0, 0), 1, 400))
    probes = PolygonRegion(poly).boundary_probes(16)
    assert (poly.n, len(probes)) == (401, 802)
    widest = max(
        abs(d).bit_length() for x in probes for d in poly.table(x)[2]
    )
    assert widest <= 128


def _notched_circle(rng):
    """The 48-gon of `circle_points` with three to six edges dented
    toward the centre: one reflex vertex per dent."""
    centre = point(Q(rng.randint(-8, 8), 8), Q(rng.randint(-8, 8), 8))
    vs = circle_points(centre, Q(rng.randint(16, 48), 8), 47)
    for i in sorted(rng.sample(range(len(vs)), rng.randint(3, 6)), reverse=True):
        mid = interpolate(vs[i], vs[(i + 1) % len(vs)], Q(1, 2))
        vs.insert(i + 1, interpolate(mid, centre, Q(rng.randint(1, 3), 4)))
    return SimplePolygon(vs)


def _long_skyline(rng):
    """An orthogonal skyline of 20 columns: 42 vertices."""
    xs, heights = [Q(0)], []
    for _ in range(20):
        xs.append(xs[-1] + Q(rng.randint(1, 16), 4))
        h = Q(rng.randint(1, 24), 4)
        while heights and h == heights[-1]:
            h = Q(rng.randint(1, 24), 4)
        heights.append(h)
    vs = [point(0, 0), point(xs[-1], 0)]
    for i in reversed(range(20)):
        vs += [point(xs[i + 1], heights[i]), point(xs[i], heights[i])]
    return SimplePolygon(vs)


LARGE_POLYGON_KINDS = {
    "notched-circle": _notched_circle,
    "skyline": _long_skyline,
}


@given(
    st.sampled_from(sorted(LARGE_POLYGON_KINDS)),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
)
@settings(max_examples=6, deadline=None)
def test_column_scan_agrees_with_classify_pair_on_large_rings(kind, seed, shift):
    # Rings of 40 and more vertices, with probe lists rotated so that row 0
    # starts anywhere, against every class set. Many pairs are `across`
    # pairs, so rows OR many columns and draw sight lines between the q's
    # they settle from the columns. classify_pair classifies every pair
    # once; the reference witness is the first pair outside the set.
    poly = LARGE_POLYGON_KINDS[kind](rng_from_seed(seed))
    assert poly.n >= 40 and not convexity_oracle(poly)
    region = PolygonRegion(poly)
    probes = region.boundary_probes(16)
    start = shift % len(probes)
    probes = probes[start:] + probes[:start]
    pairs = list(itertools.combinations(probes, 2))
    found = [classify_pair(region, p, q) for p, q in pairs]
    signs = [regions2d._probe(region, p)[1][1] for p in probes]
    across = sum(
        bool((pp & qn) | (pn & qp))
        for (pp, pn), (qp, qn) in itertools.combinations(signs, 2)
    )
    assert across * 10 >= len(pairs)
    for classes in CLASS_SETS:
        expected = next(
            ((p, q, cls) for (p, q), cls in zip(pairs, found)
             if cls not in classes),
            None,
        )
        assert first_pair_outside(region, probes, classes) == expected, classes


@given(st.sampled_from(sorted(LARGE_POLYGON_KINDS)), st.integers(0, 10**9))
@settings(max_examples=2, deadline=None)
def test_column_rows_match_the_rows_pair_by_pair(kind, seed):
    # The column scan reaches rows 1, 2, ... only when row 0 passes, which
    # few class sets allow, so it runs here on rotations of the prepared
    # probes, against its rows taken pair by pair: the witness is the first
    # pair outside the class set, and a sight line is drawn, in order, for
    # each pair before it that some edge line strictly separates. Rotations
    # put the probes of the edge into a row's vertex after that vertex.
    poly = LARGE_POLYGON_KINDS[kind](rng_from_seed(seed))
    region = PolygonRegion(poly)
    prepared = [regions2d._probe(region, p) for p in region.boundary_probes(16)]
    m = len(prepared)
    found = {}
    for a, b in itertools.combinations(range(m), 2):
        found[a, b] = found[b, a] = regions2d._classify(
            region, prepared[a], prepared[b]
        )
    signs = [table[1] for _, table in prepared]
    across = {
        (a, b) for a, b in itertools.permutations(range(m), 2)
        if (signs[a][0] & signs[b][1]) | (signs[a][1] & signs[b][0])
    }

    def by_pairs(order, classes):
        lines = []
        for i, j in itertools.combinations(range(1, m), 2):
            a, b = order[i], order[j]
            if (a, b) in across:
                lines.append((prepared[a][1][0], prepared[b][1][0]))
            if found[a, b] not in classes:
                return (i, j, found[a, b]), lines
        return None, lines

    drawn = []

    def recorded(*args, _fn=intgeom.sight_blocked):
        drawn.append(args[1:3])
        return _fn(*args)

    witnesses = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intgeom, "sight_blocked", recorded)
        for start in range(0, m, 3):
            order = list(range(start, m)) + list(range(start))
            for classes in CLASS_SETS:
                del drawn[:]
                got = regions2d._first_outside_by_columns(
                    region, [prepared[a] for a in order], classes
                )
                assert (got, drawn) == by_pairs(order, classes), (start, classes)
                witnesses[got is not None and got[2]] += 1
    assert set(witnesses) == {False, *PairClass}
    assert len(across) > m * m // 10


def test_pointed_open_box_pairs():
    box = PointedOpenBox()
    corners = PointedOpenBox.CORNERS
    flat = {(0, 1), (1, 2), (2, 3), (0, 3)}
    for i, j in itertools.combinations(range(4), 2):
        cls = classify_pair(box, corners[i], corners[j])
        if (i, j) in flat:
            assert cls is PairClass.FLAT
        else:
            assert cls is PairClass.HYPERBOLIC
    verdict, _ = is_convex_by_pairs(box)
    assert verdict  # yet the set is NOT convex: closedness matters
    member = locate_point2(box, point(Q(1, 2), 0))[1]
    assert not member


# --- convexity ---------------------------------------------------------------

def test_convexity_oracle_examples():
    assert convexity_oracle(
        SimplePolygon([point(0, 0), point(1, 0), point(1, 1), point(0, 1)])
    )
    assert not convexity_oracle(l_polygon())
    assert convexity_oracle(SimplePolygon([point(0, 0), point(2, 0), point(1, 2)]))


def test_is_convex_by_pairs_examples():
    ok, witness = is_convex_by_pairs(square_region())
    assert ok and witness is None
    ok, witness = is_convex_by_pairs(PolygonRegion(l_polygon()))
    assert not ok
    p, q, cls = witness
    assert cls in (PairClass.ELLIPTIC, PairClass.MIXED)


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_cor5_law_pairs_agree_with_oracle(seed):
    rng = rng_from_seed(seed)
    poly = random_simple_polygon(rng, max_vertices=10)
    verdict, _ = is_convex_by_pairs(PolygonRegion(poly))
    assert verdict == convexity_oracle(poly)


@given(st.integers(0, 10**9))
@settings(max_examples=25)
def test_thm4_law_disk_pairs_always_hyperbolic(seed):
    rng = rng_from_seed(seed)
    center = point(Q(rng.randint(-8, 8), 4), Q(rng.randint(-8, 8), 4))
    disk = Disk(center, Q(rng.randint(1, 12), 4))
    pts = circle_points(disk.center, disk.radius, 7)
    for p, q in itertools.combinations(pts, 2):
        assert classify_pair(disk, p, q) is PairClass.HYPERBOLIC


@given(st.integers(0, 10**9))
@settings(max_examples=25)
def test_cor6_fixture_disk_complement_pairs_elliptic(seed):
    rng = rng_from_seed(seed)
    comp = DiskComplement(point(0, 0), Q(rng.randint(1, 8), 2))
    pts = circle_points(comp.center, comp.radius, 6)
    for p, q in itertools.combinations(pts, 2):
        assert classify_pair(comp, p, q) is PairClass.ELLIPTIC
    # and the complement of the region (the closed disk) is strictly
    # convex: no flat pair among the same probes
    disk = Disk(comp.center, comp.radius)
    for p, q in itertools.combinations(pts, 2):
        assert classify_pair(disk, p, q) is PairClass.HYPERBOLIC


# --- sees / kernel -----------------------------------------------------------

def test_sees_examples():
    sq = square_region()
    assert sees(sq, point(Q(1, 2), Q(1, 2)), point(0, 0))
    L = PolygonRegion(l_polygon())
    # DERIVED by piecewise location: this sight line grazes the reflex
    # corner (1,1) exactly, which is a member, so visibility holds
    assert sees(L, point(Q(3, 2), Q(1, 2)), point(Q(1, 2), Q(3, 2)))
    # DERIVED: shifting the target up makes the segment exit the notch
    assert not sees(L, point(Q(3, 2), Q(1, 2)), point(Q(3, 4), 2))
    with pytest.raises(NotAMemberError):
        sees(sq, point(2, 2), point(0, 0))


def test_sees_pointed_open_box_edge_pair():
    box = _FractionRows(PointedOpenBox(), UNIT_SQUARE)
    # both corners are members but the frame between them is not
    assert not sees(box, point(0, 0), point(1, 0))
    assert sees(box, point(0, 0), point(1, 1))


def test_kernel_examples():
    L = l_polygon()
    ker = kernel(L)
    assert set(extreme_points(ker)) == {
        point(0, 0), point(1, 0), point(0, 1), point(1, 1)
    }
    assert is_starshaped(L)
    assert is_empty(kernel(z_polygon()))
    assert not is_starshaped(z_polygon())
    convex = SimplePolygon([point(0, 0), point(2, 0), point(1, 2)])
    assert set(extreme_points(kernel(convex))) == set(convex.vertices)


def _kernel_against_the_dd(poly):
    """`intgeom.kernel_ring` of the polygon, checked against the double
    description of `kernel(poly)`: the same emptiness and vertex set, and
    a Farkas certificate of at most three rows that re-checks when empty."""
    ring, certificate = intgeom.kernel_ring(poly._rows)
    ker = kernel(poly)
    assert bool(ring) == is_starshaped(poly) == (not is_empty(ker))
    if ring:
        verts = kernel_vertices(poly)
        assert len(verts) == len(ring)
        assert set(verts) == set(extreme_points(ker))
    else:
        assert 2 <= len(certificate) <= 3
        intgeom._check_farkas(poly._rows, certificate)
    return ring, certificate


def test_planar_kernel_matches_the_double_description():
    rng = rng_from_seed("planar-kernel")
    makers = (random_simple_polygon, random_convex_polygon,
              random_staircase_polygon, random_notched_polygon)
    counts = collections.Counter()
    for k in range(2000):
        ring, _ = _kernel_against_the_dd(makers[k % 4](rng))
        counts[len(ring) if len(ring) < 3 else "ring"] += 1
    assert counts[0] >= 200 and counts["ring"] >= 1000


# A pinwheel: four blades around the square [-1, 1]^2, whose inner edges
# lie on x = 0 and y = 0 facing both ways, so the kernel is the origin.
PINWHEEL = [(2, 0), (2, 1), (0, 1), (0, 2), (-1, 2), (-1, 0), (-2, 0),
            (-2, -1), (0, -1), (0, -2), (1, -2), (1, 0)]
# Its left blade raised to y = 1: two edges on y = 1, collinear and not
# adjacent, and the kernel is the segment from (0, 0) to (0, 1).
PINWHEEL_SEGMENT = [(2, 0), (2, 1), (0, 1), (0, 2), (-1, 2), (-1, 1), (-2, 1),
                    (-2, -1), (0, -1), (0, -2), (1, -2), (1, 0)]
# Antiparallel edges y <= 1 and y >= 2: an empty strip.
Z_RING = [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3),
          (0, 2), (1, 2), (1, 1), (0, 1)]
# No two edges parallel and an empty kernel: every certificate takes three rows.
SPIKED_HEXAGON = [(1, 5), (0, 9), (0, 3), (3, 1), (4, 7), (3, 2)]
# The rows y >= -x and y >= x break the lower chain at (0, 0), on the row
# x >= 0 of the edge from (0, 6) to (0, 4): three rows meet at a kernel
# vertex, and the rows with b = 0 and b = a make the kernel's shear s = 2.
WINGED = [(0, 0), (3, 3), (3, 6), (0, 6), (0, 4), (-3, 4), (-1, 1)]


def _turned(vertices):
    """The vertices under (x, y) -> (3x - 4y, 4x + 3y): no edge is vertical."""
    return [(3 * x - 4 * y, 4 * x + 3 * y) for x, y in vertices]


DEGENERATE_CASES = [
    ("point", PINWHEEL, [(0, 0)]),
    ("point-turned", _turned(PINWHEEL), [(0, 0)]),
    ("segment", PINWHEEL_SEGMENT, [(0, 0), (0, 1)]),
    ("segment-turned", _turned(PINWHEEL_SEGMENT), [(0, 0), (-4, 3)]),
    ("empty-strip", Z_RING, 2),  # the two antiparallel rows
    # the strip turned: x >= -1, x <= -2
    ("empty-strip-vertical", [(-y, x) for x, y in Z_RING], 2),
    ("empty-three-rows", SPIKED_HEXAGON, 3),
    ("wall-on-a-break", WINGED, [(0, 0), (3, 3), (3, 4), (0, 4)]),
    ("wall-on-a-break-mirrored", [(-x, y) for x, y in reversed(WINGED)],
     [(0, 0), (-3, 3), (-3, 4), (0, 4)]),
]


def _image_maps(rng):
    """Three seeded orientation-preserving maps (matrix, shift): a det-1
    shear, a quarter turn after one, and one moved by a rational shift."""
    def shear():
        k = rng.choice((-2, -1, 1, 2))
        return ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))

    (p, q), (r, t) = shear()
    shift = (Q(rng.randint(-9, 9), rng.choice((2, 3, 5))),
             Q(rng.randint(-9, 9), rng.choice((2, 3, 5))))
    return [(shear(), (0, 0)), (((-r, -t), (p, q)), (0, 0)), (shear(), shift)]


def _image(points, m, shift):
    """The points under x -> m x + shift."""
    ((p, q), (r, t)), (u, v) = m, shift
    return [(p * x + q * y + u, r * x + t * y + v) for x, y in points]


# Each hand case, and its seeded images: the images create and remove
# vertical edges, so the kernel's shear takes s = 0, 1 and 2 among them.
_rng = rng_from_seed("kernel-images")
DEGENERATE_IMAGES = [
    (f"{name}-image{j}", _image(vertices, m, shift),
     expected if isinstance(expected, int) else _image(expected, m, shift))
    for name, vertices, expected in DEGENERATE_CASES
    for j, (m, shift) in enumerate(_image_maps(_rng))
]


@pytest.mark.parametrize(
    "vertices, expected",
    [case[1:] for case in DEGENERATE_CASES + DEGENERATE_IMAGES],
    ids=[case[0] for case in DEGENERATE_CASES + DEGENERATE_IMAGES])
def test_planar_kernel_degenerate_cases(vertices, expected):
    """`expected` is the kernel's vertices, or an empty kernel's number of
    certificate rows."""
    poly = SimplePolygon(vertices)
    ring, certificate = _kernel_against_the_dd(poly)
    if isinstance(expected, int):
        assert not ring and len(certificate) == expected
    else:
        assert set(kernel_vertices(poly)) == {point(*v) for v in expected}


def test_degenerate_images_need_every_shear():
    """The least s >= 0 with no edge row (a, b, c) at b = s a, the shear
    the planar kernel takes, is 0, 1 and at least 2 among the images."""
    shears = set()
    for _, vertices, _ in DEGENERATE_IMAGES:
        rows = SimplePolygon(vertices)._rows
        shears.add(next(s for s in itertools.count()
                        if all(b != s * a for a, b, _ in rows)))
    assert {0, 1} <= shears and max(shears) >= 2


def test_kernel_facets_support_the_kernel():
    from convexprofile.polyhedra import remove_redundant

    ker = remove_redundant(kernel(l_polygon()))
    for h in ker.halfspaces:
        face = face_in_direction(ker, h.normal)
        assert face is not None
        assert not is_empty(face)


def test_visibility_examples():
    L = l_polygon()
    assert kernel_contains_by_visibility(L, point(Q(1, 2), Q(1, 2)), 8)
    assert not kernel_contains_by_visibility(L, point(Q(3, 2), Q(1, 2)), 8)
    convex = SimplePolygon([point(0, 0), point(2, 0), point(1, 2)])
    assert kernel_contains_by_visibility(convex, point(1, 1), 8)
    with pytest.raises(NotAMemberError):
        kernel_contains_by_visibility(L, point(5, 5), 8)


@given(st.integers(0, 10**9))
@settings(max_examples=20)
def test_prop8_characterization_hrep_matches_visibility(seed):
    rng = rng_from_seed(seed)
    poly = random_simple_polygon(rng, max_vertices=8)
    ker = kernel(poly)
    pts = sample_member_points(poly, rng, 8)
    if not is_empty(ker):
        pts.append(feasible_point(ker))
    for x in pts:
        member = all(h.contains(x) for h in ker.halfspaces)
        for m in (8, 32):
            assert kernel_contains_by_visibility(poly, x, m) == member


def _boundary_targets(poly, m):
    """(t, t's boundary site) for every vertex and edge sample k/m, 0 < k < m.

    The site is (k, True) at vertex k and (k, False) inside edge k.
    """
    vs, n = poly.vertices, poly.n
    return [
        (interpolate(vs[i], vs[(i + 1) % n], Q(k, m)), (i, k == 0))
        for i in range(n)
        for k in range(m)
    ]


def _homogeneous(poly, x):
    """x's primitive homogeneous integer triple, and its edge table and edge
    signs over the ring's edge rows."""
    h = x.form
    dets = intgeom.edge_dets(poly._rows, h)
    return h, dets, intgeom.edge_signs(dets)


@given(st.integers(0, 10**9))
@settings(max_examples=25)
def test_integer_fast_path_agrees_with_rational_sees(seed):
    # the scaled-integer visibility test and the rational partition route
    # must never disagree, on lines to vertices and to edge samples k/m alike
    rng = rng_from_seed(seed)
    poly = random_simple_polygon(rng, max_vertices=8)
    region = PolygonRegion(poly)
    members = sample_member_points(poly, rng, 6)
    for x in members:
        x_h, _, x_signs = _homogeneous(poly, x)
        for t, site in _boundary_targets(poly, 3):
            t_h, _, t_signs = _homogeneous(poly, t)
            fast = intgeom.segment_in_polygon(
                poly._verts, poly._rows, poly._turns, x_h, t_h, x_signs,
                t_signs, site,
            )
            assert fast is sees(region, x, t)


def _through_vertex(verts, x_h, t_h, x_signs, t_signs):
    """Whether no edge crosses the open segment (x, t) and it runs through
    a vertex: `sight_blocked` returns its vertex mask."""
    blocked = intgeom.sight_blocked(verts, x_h, t_h, x_signs, t_signs)
    return blocked is not True and blocked is not False


def test_sight_lines_through_vertices_agree_with_the_partition():
    # A deterministic sweep: every probe pair against the partition and
    # every line from a member (a probe or a sampled point) to an edge
    # sample k/3 against `sees`. The hypothesis tests above rarely draw a
    # line through a vertex; the probes of skylines and notches do.
    through = collections.Counter()
    for kind in sorted(POLYGON_KINDS):
        for seed in range(6):
            rng = rng_from_seed(f"through-vertex:{kind}:{seed}")
            poly = POLYGON_KINDS[kind](rng)
            verts = poly._verts
            region = PolygonRegion(poly)
            probes = region.boundary_probes(16)
            tables = {p: regions2d._probe(region, p)[1] for p in probes}
            for p, q in itertools.combinations(probes, 2):
                exact = regions2d._classify_from_partition(
                    region, partition_segment(region, Segment(p, q))
                )
                fast = regions2d._classify(
                    region, (p, tables[p]), (q, tables[q])
                )
                assert fast is exact, (poly, p, q)
                (p_h, p_signs, _), (q_h, q_signs, _) = tables[p], tables[q]
                through["pairs"] += _through_vertex(
                    verts, p_h, q_h, p_signs, q_signs
                )
            for x in probes + sample_member_points(poly, rng, 4):
                x_h, _, x_signs = _homogeneous(poly, x)
                for t, site in _boundary_targets(poly, 3):
                    t_h, _, t_signs = _homogeneous(poly, t)
                    fast = intgeom.segment_in_polygon(
                        verts, poly._rows, poly._turns, x_h, t_h, x_signs,
                        t_signs, site,
                    )
                    assert fast is sees(region, x, t), (poly, x, t)
                    through["lines"] += _through_vertex(
                        verts, x_h, t_h, x_signs, t_signs
                    )
    assert through["pairs"] > 0 and through["lines"] > 0


@pytest.mark.parametrize("fixture, p, q, pieces", [
    # Z: along edge 10 to (1,1), across the waist to (2,1), along edge 2
    (z_polygon_fixture, (0, 1), (3, 1), [((11, True), 0), ((10, True), 1),
                                         ((3, True), 0)]),
    # L: the diagonal grazes the reflex vertex (1,1), interior on both sides
    (l_polygon_fixture, (2, 0), (0, 2), [((1, True), 1), ((3, True), 1)]),
])
def test_pairs_through_a_vertex_are_mixed(fixture, p, q, pieces):
    # The vertex inside the open segment is a boundary member, so neither
    # pair is hyperbolic, flat or elliptic, whatever its pieces are.
    poly = fixture()
    region = PolygonRegion(poly)
    p, q = point(*p), point(*q)
    (p_h, p_signs, p_site), (q_h, q_signs, _) = (
        regions2d._probe(region, x)[1] for x in (p, q)
    )
    assert p_site == pieces[0][0]
    mask = intgeom.sight_blocked(poly._verts, p_h, q_h, p_signs, q_signs)
    assert mask == sum(1 << k for (k, _), _ in pieces[1:])
    for site, code in pieces:
        assert _side_rule(poly, site, q_h, q_signs) == code
    assert classify_pair(region, p, q) is PairClass.MIXED
    assert regions2d._classify_from_partition(
        region, partition_segment(region, Segment(p, q))
    ) is PairClass.MIXED


def test_kernel_sight_line_through_a_vertex():
    # A square with a triangular notch in its top edge. From a point on the
    # kernel's edge y = x + 1, the lines to the notch corner (3,4) and to the
    # samples of edge 3 graze the reflex vertex 4 = (2,3) and run on along
    # that edge, so the point sees them.
    poly = SimplePolygon([point(0, 0), point(4, 0), point(4, 4), point(3, 4),
                          point(2, 3), point(1, 4), point(0, 4)])
    ker = kernel(poly)
    t_h, _, t_signs = _homogeneous(poly, point(3, 4))
    for x, member in ((point(0, 1), True), (point(Q(1, 2), Q(3, 2)), True),
                      (point(0, Q(3, 2)), False)):
        x_h, _, x_signs = _homogeneous(poly, x)
        mask = intgeom.sight_blocked(
            poly._verts, x_h, t_h, x_signs, t_signs
        )
        if member:
            assert mask == 1 << 4
        else:  # passes above (2,3), into the notch
            assert mask is True
        assert ker.contains(x) is member
        for m in (1, 8):
            assert kernel_contains_by_visibility(poly, x, m) is member


def test_kernel_sight_line_blocked_only_by_a_proper_crossing():
    # A U. From x in the left arm, outside the kernel, the line to the
    # corner (3,3) of the right arm properly crosses the inner edges x = 1
    # and x = 2, touches no vertex, and reaches (3,3) from inside its
    # corner: the side rule at (3,3) passes, and only the crossing blocks.
    poly = SimplePolygon([point(0, 0), point(3, 0), point(3, 3), point(2, 3),
                          point(2, 1), point(1, 1), point(1, 3), point(0, 3)])
    x, t = point(Q(1, 2), Q(5, 2)), point(3, 3)
    x_h, _, x_signs = _homogeneous(poly, x)
    t_h, _, t_signs = _homogeneous(poly, t)
    assert intgeom.sight_blocked(poly._verts, x_h, t_h, x_signs, t_signs) is True
    assert _side_rule(poly, (2, True), x_h, x_signs) > 0
    assert intgeom.segment_in_polygon(
        poly._verts, poly._rows, poly._turns, x_h, t_h, x_signs, t_signs,
        (2, True),
    ) is False
    assert sees(PolygonRegion(poly), x, t) is False
    assert not kernel(poly).contains(x)
    for m in (1, 8, 32):
        assert kernel_contains_by_visibility(poly, x, m) is False


def _visibility_reference(poly, x_h, x_signs, targets):
    """Criterion 2 by brute force: every target (t_h, t_signs, site) in
    turn through `intgeom.segment_in_polygon`, until the first unseen."""
    return all(
        intgeom.segment_in_polygon(
            poly._verts, poly._rows, poly._turns, x_h, t_h, x_signs, t_signs,
            site,
        )
        for t_h, t_signs, site in targets
    )


def _visibility_queries(poly, rng):
    """Members, vertices, edge samples k/3, and the members on an edge
    line's extension: collinear and vertex contacts for the sight lines."""
    vs, n = poly.vertices, poly.n
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    beyond = [interpolate(a, b, s) for a, b in edges
              for s in (Q(-1, 2), Q(-1, 5), Q(6, 5), Q(3, 2))]
    return (
        sample_member_points(poly, rng, 3) + list(vs)
        + [interpolate(a, b, Q(k, 3)) for a, b in edges for k in (1, 2)]
        + [y for y in beyond if poly.locate(y) is not PointLocation.EXTERIOR]
    )


def _recorded_sites(monkeypatch, decide):
    """decide()'s answer and the sites of its `segment_in_polygon` calls."""
    sites = []

    def recorded(*args, _fn=intgeom.segment_in_polygon):
        sites.append(args[-1])
        return _fn(*args)

    monkeypatch.setattr(intgeom, "segment_in_polygon", recorded)
    answer = decide()
    monkeypatch.undo()
    return answer, sites


@given(st.sampled_from(sorted(POLYGON_KINDS)), st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_visibility_oracle_matches_every_sample_through_the_sight_line(
    kind, seed
):
    # The oracle against a reference that draws the sight line to every
    # vertex and edge sample k/m: the same answer at every m, and the same
    # sight lines, in the same order, as the reference over the vertices.
    rng = rng_from_seed(f"oracle:{seed}")
    poly = POLYGON_KINDS[kind](rng)
    queries = _visibility_queries(poly, rng)
    for m in (1, 2, 3, 8, 32):
        targets = []
        for t, site in _boundary_targets(poly, m):
            t_h, _, t_signs = _homogeneous(poly, t)
            targets.append((t_h, t_signs, site))
        vertex_targets = [t for t in targets if t[2][1]]
        for x in queries:
            x_h, _, x_signs = _homogeneous(poly, x)
            expected = _visibility_reference(poly, x_h, x_signs, targets)
            with pytest.MonkeyPatch.context() as mp:
                got, sites = _recorded_sites(
                    mp, lambda: kernel_contains_by_visibility(poly, x, m))
                _, ref_sites = _recorded_sites(
                    mp, lambda: _visibility_reference(
                        poly, x_h, x_signs, vertex_targets))
            assert got is expected and sites == ref_sites, (poly, x, m)


def test_visibility_at_one_sample_draws_the_vertex_lines_past_an_edge(
    monkeypatch,
):
    # x in the L's upper arm lies strictly right of edge 2, (2,1) -> (1,1).
    # At m = 1 and at m = 8 alike the oracle draws the lines to vertices 0,
    # 1 and 2, and the one to vertex 2 leaves the L: no edge line's side
    # answers before a sight line does.
    poly, x = l_polygon(), point(Q(1, 2), Q(3, 2))
    for m in (1, 8):
        answer, sites = _recorded_sites(
            monkeypatch, lambda: kernel_contains_by_visibility(poly, x, m))
        assert answer is False, m
        assert sites == [(0, True), (1, True), (2, True)], m


def test_every_false_of_the_visibility_oracle_comes_from_a_sight_line(
    monkeypatch,
):
    # With every sight line free, the oracle must answer True for every
    # member at every density, those outside the kernel included: no edge
    # line's side decides on its own.
    cases = []
    for kind, make in sorted(POLYGON_KINDS.items()):
        rng = rng_from_seed(f"sight-lines-decide:{kind}")
        poly = make(rng)
        cases += [(poly, x) for x in _visibility_queries(poly, rng)]
    assert sum(not kernel(poly).contains(x) for poly, x in cases) >= 10
    monkeypatch.setattr(intgeom, "segment_in_polygon", lambda *args: True)
    for (poly, x), m in itertools.product(cases, (1, 8, 32)):
        assert kernel_contains_by_visibility(poly, x, m) is True, (poly, x, m)


def _convex_ring_edge_point():
    poly = SimplePolygon(circle_points(point(Q(3, 8), Q(-5, 8)), Q(41, 16), 47))
    return poly, interpolate(poly.vertices[0], poly.vertices[1], Q(1, 2))


@pytest.mark.parametrize("case", [
    lambda: (l_polygon(), point(Q(1, 2), Q(1, 2))),
    lambda: (l_polygon(), point(Q(1, 4), Q(3, 4))),
    lambda: (l_polygon(), point(1, Q(1, 2))),
    _convex_ring_edge_point,
], ids=["l-inside", "l-inside-2", "l-on-edge-line", "convex-mid-edge"])
def test_visibility_oracle_draws_no_sight_line_per_sample_in_a_kernel(
    case, monkeypatch
):
    # Points of a kernel at m = 32, inside the L's kernel [0, 1]^2, on an
    # edge line through it and on a convex ring's edge: the oracle draws
    # the n vertex lines and none per edge sample.
    poly, x = case()
    calls = []

    def counted(*args, _fn=intgeom.segment_in_polygon):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(intgeom, "segment_in_polygon", counted)
    assert kernel_contains_by_visibility(poly, x, 32)
    assert len(calls) == poly.n


def test_visibility_oracle_draws_one_sight_line_per_vertex_on_a_convex_ring(
    monkeypatch,
):
    # Only the 48 vertex lines are drawn, none for the 48 * 31 edge
    # samples, each with one `sight_blocked` call.
    centre = point(Q(3, 8), Q(-5, 8))
    poly = SimplePolygon(circle_points(centre, Q(41, 16), 47))
    calls = []

    def counted(*args, _fn=intgeom.sight_blocked):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(intgeom, "sight_blocked", counted)
    assert kernel_contains_by_visibility(poly, centre, 32)
    assert len(calls) == poly.n == 48


def test_vertex_tables_are_built_once_and_shared():
    # The pair scan's probe tables build them; the oracle reuses them.
    centre = point(Q(3, 8), Q(-5, 8))
    poly = SimplePolygon(circle_points(centre, Q(41, 16), 47))
    assert poly._vtables is None
    assert is_convex_by_pairs(PolygonRegion(poly)) == (True, None)
    assert is_starshaped(poly)
    tables = poly._vtables
    assert len(tables[0]) == len(tables[1]) == poly.n
    assert kernel_contains_by_visibility(poly, centre, 8)
    assert poly._vtables is tables
    assert kernel_contains_by_visibility(poly, centre, 32)
    assert poly._vtables is tables


def test_hole_free_polygons_reach_no_rational_partition(monkeypatch):
    # prop-8 and cor-5 at the `check all` defaults (run_suite's defaults),
    # and the pair criterion and every probe pair's class on skylines, are
    # the same when the rational partition and `sees` refuse hole-free
    # polygons: every sight line through a vertex is decided in integers.
    # The disks and the pointed box of cor-5 decide their pairs by their
    # supporting rows (test_convex_kinds_reach_no_rational_partition).
    skylines = [
        random_staircase_polygon(rng_from_seed(f"skyline:{seed}"))
        for seed in range(10)
    ]

    def answers():
        reports = [
            r.to_json_dict()
            for theorem in ("prop-8", "cor-5") for r in run_suite(theorem)
        ]
        pairs = []
        for poly in skylines:
            region = PolygonRegion(poly)
            verdict, _ = is_convex_by_pairs(region)
            assert verdict == convexity_oracle(poly)
            probes = region.boundary_probes(16)
            pairs.append([
                classify_pair(region, p, q)
                for p, q in itertools.combinations(probes, 2)
            ])
        return reports, pairs

    expected = answers()

    def refused(fn):
        def guarded(region, *args):
            if isinstance(region, PolygonRegion) and not region.holes:
                raise AssertionError(f"{fn.__name__} on a hole-free polygon")
            return fn(region, *args)
        return guarded

    for name in ("partition_segment", "sees"):
        monkeypatch.setattr(regions2d, name, refused(getattr(regions2d, name)))
    assert answers() == expected


def _midpoint_code(verts, x_h, t_h, x_dets, t_dets):
    """Test-only copy of the midpoint-parity rule the side rule replaced.

    Locates the midpoint t_w * x + x_w * t, whose edge table is
    t_w * x_dets + x_w * t_dets, by the half-open crossing parity on the
    ray to +x: -1 exterior, 0 boundary, +1 interior. The vertex forms are
    compared with it as rationals.
    """
    xw, tw = x_h[2], t_h[2]
    mx = Q(x_h[0] * tw + t_h[0] * xw, 2 * xw * tw)
    my = Q(x_h[1] * tw + t_h[1] * xw, 2 * xw * tw)
    inside = False
    ring = [(Q(vx, vw), Q(vy, vw)) for vx, vy, vw in verts]
    for ((ax, ay), (bx, by)), a, b in zip(
        zip(ring, ring[1:] + ring[:1]), x_dets, t_dets
    ):
        d = tw * a + xw * b
        if d == 0:
            if ax != bx:
                if min(ax, bx) <= mx <= max(ax, bx):
                    return 0
            elif min(ay, by) <= my <= max(ay, by):
                return 0
        a_above = ay > my
        if a_above != (by > my) and (d < 0 if a_above else d > 0):
            inside = not inside
    return 1 if inside else -1


def _sample_signs(v_dets, w_dets, v_signs, w_signs, m, v_w, w_w):
    """The sign masks of the samples ((m - k) * v + k * w) / m, 0 <= k < m.

    Sample k is the homogeneous point (m - k) * w_w * v + k * v_w * w, and
    its determinants are (m - k) * w_w * v_dets + k * v_w * w_dets, because
    det is linear in the point. Where v and w lie on one side of an edge
    line, or one of them on it, every sample with k > 0 takes that side;
    only the edges that separate v and w are evaluated per sample. At
    m = 2, entry 1 is `intgeom.midpoint_signs`.
    """
    (vp, vn), (wp, wn) = v_signs, w_signs
    pos = (vp | wp) & ~(vn | wn)
    neg = (vn | wn) & ~(vp | wp)
    split = (vp & wn) | (vn & wp)
    bits = []
    while split:
        bit = split & -split
        split ^= bit
        i = bit.bit_length() - 1
        bits.append((bit, w_w * v_dets[i], v_w * w_dets[i]))
    samples = [v_signs]
    for k in range(1, m):
        p, q = pos, neg
        for bit, v_det, w_det in bits:
            d = (m - k) * v_det + k * w_det
            if d > 0:
                p |= bit
            elif d < 0:
                q |= bit
        samples.append((p, q))
    return samples


def _side_rule(poly, site, x_h, x_signs):
    return intgeom.side_at(
        poly._verts, poly._rows, poly._turns, site, x_h, x_signs
    )


@pytest.mark.parametrize("kind", sorted(POLYGON_KINDS))
def test_side_rule_matches_the_midpoint_parity(kind):
    # On every sight line that sight_blocked leaves as one uniform piece,
    # the O(1) side rule at the boundary endpoint t must give the midpoint
    # parity's answer: probe -> probe (both ways), member -> vertex and
    # member -> edge sample k/4 lines.
    seen = set()
    compared = 0
    for seed in range(20):
        rng = rng_from_seed(f"side-rule:{kind}:{seed}")
        poly = POLYGON_KINDS[kind](rng)
        verts = poly._verts
        region = PolygonRegion(poly)
        probes = region.boundary_probes(16)
        targets = _boundary_targets(poly, 4)
        sites = dict(targets)
        for p in probes:
            assert regions2d._probe(region, p)[1][2] == sites[p]
        # edge samples' masks blend from the vertices', as the probe
        # midpoints' do
        vertex = [intgeom.edge_dets(poly._rows, v) for v in verts]
        for i in range(poly.n):
            j = (i + 1) % poly.n
            v_dets, w_dets = vertex[i], vertex[j]
            args = (v_dets, w_dets, intgeom.edge_signs(v_dets),
                    intgeom.edge_signs(w_dets))
            blended = _sample_signs(*args, 4, verts[i][2], verts[j][2])
            assert blended == [
                _homogeneous(poly, t)[2] for t, _ in targets[4 * i:4 * i + 4]
            ]
            assert intgeom.midpoint_signs(*args, verts[i][2], verts[j][2]) == (
                blended[2])
        sources = probes + sample_member_points(poly, rng, 8)
        for t, site in targets:
            t_h, t_dets, t_signs = _homogeneous(poly, t)
            for x in sources:
                x_h, x_dets, x_signs = _homogeneous(poly, x)
                if intgeom.sight_blocked(verts, x_h, t_h, x_signs, t_signs) is not False:
                    continue
                code = _midpoint_code(verts, x_h, t_h, x_dets, t_dets)
                assert _side_rule(poly, site, x_h, x_signs) == code, (poly, t, x)
                seen.add(code)
                compared += 1
    assert compared > 2000
    assert seen == ({0, 1} if kind == "convex" else {-1, 0, 1})


L_REFLEX_FIRST = SimplePolygon(
    [point(1, 1), point(1, 2), point(0, 2), point(0, 0), point(2, 0), point(2, 1)]
)


@pytest.mark.parametrize("poly, t, site, x, code", [
    # the L polygon: vertex 1 = (2, 0) is convex, vertex 3 = (1, 1) reflex
    (l_polygon(), (1, 1), (3, True), (0, 0), 1),  # reflex vertex, inward
    (l_polygon(), (1, 1), (3, True), (2, 2), -1),  # reflex vertex, into the notch
    (l_polygon(), (1, 1), (3, True), (1, 2), 0),  # along edge 3 from its vertex
    (l_polygon(), (1, 1), (3, True), (2, 1), 0),  # back along edge 2
    (l_polygon(), (0, 0), (0, True), (1, 0), 0),  # along edge 0 from vertex 0
    (l_polygon(), (2, 0), (1, True), (2, -1), -1),  # edge 1 backward, convex
    (l_polygon(), (2, 0), (1, True), (3, 0), -1),  # edge 0 forward, convex
    (l_polygon(), (1, 1), (3, True), (1, 0), 1),  # edge 3 backward, reflex
    (l_polygon(), (1, 1), (3, True), (0, 1), 1),  # edge 2 forward, reflex
    (l_polygon(), (1, 1), (3, True), (1, 1), 0),  # x == t at a vertex
    (l_polygon(), (1, 0), (0, False), (1, 0), 0),  # x == t in mid-edge
    (l_polygon(), (1, 0), (0, False), (1, 1), 1),  # mid-edge, left
    (l_polygon(), (1, 0), (0, False), (1, -1), -1),  # mid-edge, right
    (l_polygon(), (1, 0), (0, False), (2, 0), 0),  # mid-edge, along
    # the same L from its reflex vertex: edge k - 1 wraps to the last edge
    (L_REFLEX_FIRST, (1, 1), (0, True), (2, 1), 0),  # back along edge 5
    (L_REFLEX_FIRST, (1, 1), (0, True), (1, 0), 1),  # edge 0 backward, reflex
    (L_REFLEX_FIRST, (1, 1), (0, True), (2, 2), -1),  # into the notch
])
def test_side_rule_hand_cases(poly, t, site, x, code):
    verts = poly._verts
    t_h, t_dets, t_signs = _homogeneous(poly, point(*t))
    x_h, x_dets, x_signs = _homogeneous(poly, point(*x))
    assert intgeom.sight_blocked(verts, x_h, t_h, x_signs, t_signs) is False
    assert _midpoint_code(verts, x_h, t_h, x_dets, t_dets) == code
    assert _side_rule(poly, site, x_h, x_signs) == code
    inside = intgeom.segment_in_polygon(
        verts, poly._rows, poly._turns, x_h, t_h, x_signs, t_signs, site
    )
    assert inside is (code >= 0)


def test_degenerate_segment_region_kernel_is_itself():
    # the segment [(0,0),(1,0)] with empty interior: every member sees
    # every member, so ker A = A and ker(boundary A) = ker A trivially
    from convexprofile.polyhedra import HPolyhedron, Halfspace, locate_point
    from convexprofile.core import vector

    seg = HPolyhedron(
        (
            Halfspace(vector(0, 1), 0),
            Halfspace(vector(0, -1), 0),
            Halfspace(vector(1, 0), 1),
            Halfspace(vector(-1, 0), 0),
        ),
        2,
    )
    members = [point(Q(k, 8), 0) for k in range(9)]
    for a in members:
        assert locate_point(seg, a) is PointLocation.BOUNDARY
        for b in members:
            for t in (Q(1, 3), Q(1, 2), Q(7, 11)):
                assert seg.contains(interpolate(a, b, t))


def _assert_partition_matches_bruteforce(region, a, b):
    """Structural invariants plus dense dyadic location cross-checks.

    Pieces cover (0,1) contiguously; adjacent resolved pieces never share
    a location; at a seam parameter the true location equals one of the
    two covering pieces (the one that absorbed the breakpoint).
    """
    part = partition_segment(region, Segment(a, b))
    cursor = Q(0)
    for p in part.pieces:
        assert p.lo == cursor and p.hi >= p.lo
        cursor = p.hi
    assert cursor == 1
    for p1, p2 in zip(part.pieces, part.pieces[1:]):
        assert p1.location is not p2.location
    for den in (64, 97):
        for k in range(1, den):
            t = Q(k, den)
            expected = locate_point2(region, interpolate(a, b, t))[0]
            covering = {
                p.location for p in part.pieces if p.lo <= t <= p.hi
            }
            assert expected in covering, (t, part.pieces, expected)


@given(st.integers(0, 10**9))
@settings(max_examples=20)
def test_partition_matches_bruteforce_on_adversarial_segments(seed):
    rng = rng_from_seed(seed)
    poly = random_simple_polygon(rng, max_vertices=9)
    region = PolygonRegion(poly)
    vs = list(poly.vertices)
    segs = [(vs[0], vs[len(vs) // 2])]
    member = sample_member_points(poly, rng, 1)[0]
    if member != vs[1]:
        segs.append((member, vs[1]))
    # a segment collinear with an edge, extended past both endpoints
    segs.append(
        (interpolate(vs[0], vs[1], Q(-1, 2)), interpolate(vs[0], vs[1], Q(3, 2)))
    )
    for a, b in segs:
        if a != b:
            _assert_partition_matches_bruteforce(region, a, b)


def test_partition_and_pairs_across_a_hole():
    outer = SimplePolygon([point(0, 0), point(4, 0), point(4, 4), point(0, 4)])
    hole = SimplePolygon([point(1, 1), point(3, 1), point(3, 3), point(1, 3)])
    region = PolygonRegion(outer, (hole,))
    part = partition_segment(region, Segment(point(0, 2), point(4, 2)))
    assert [(p.lo, p.hi, p.location) for p in part.pieces] == [
        (Q(0), Q(1, 4), PointLocation.INTERIOR),
        (Q(1, 4), Q(1, 4), PointLocation.BOUNDARY),
        (Q(1, 4), Q(3, 4), PointLocation.EXTERIOR),
        (Q(3, 4), Q(3, 4), PointLocation.BOUNDARY),
        (Q(3, 4), Q(1), PointLocation.INTERIOR),
    ]
    assert [locate_point2(region, x)[0] for x in (
        point(0, 2), point(1, 2), point(2, 2), point(Q(1, 2), 2)
    )] == [PointLocation.BOUNDARY, PointLocation.BOUNDARY,
           PointLocation.EXTERIOR, PointLocation.INTERIOR]
    for p, q, cls in [
        (point(0, 2), point(4, 2), PairClass.MIXED),
        (point(1, 1), point(3, 1), PairClass.FLAT),
        (point(1, 1), point(3, 3), PairClass.ELLIPTIC),
        (point(0, 0), point(1, 1), PairClass.HYPERBOLIC),
        (point(1, 2), point(3, 2), PairClass.ELLIPTIC),
        (point(0, 0), point(4, 4), PairClass.MIXED),
    ]:
        assert classify_pair(region, p, q) is cls
    assert is_convex_by_pairs(region) == (
        False, (point(0, 0), point(4, 2), PairClass.MIXED)
    )
    corner = point(Q(1, 2), Q(1, 2))
    assert sees(region, corner, point(Q(7, 2), Q(1, 2)))
    assert not sees(region, corner, point(Q(7, 2), Q(7, 2)))
    assert not sees(region, point(Q(1, 2), 2), point(Q(7, 2), 2))


# --- probes ------------------------------------------------------------------

def test_circle_points_are_exactly_on_the_circle():
    disk = Disk(point(Q(1, 3), Q(-2, 5)), Q(7, 4))
    for p in circle_points(disk.center, disk.radius, 16):
        dx = p.coords[0] - disk.center.coords[0]
        dy = p.coords[1] - disk.center.coords[1]
        assert dx * dx + dy * dy == disk.radius * disk.radius


def _circle48(rng):
    """A `circle_points` 48-gon: convex, with a drawn centre and radius."""
    centre = point(Q(rng.randint(-8, 8), 8), Q(rng.randint(-8, 8), 8))
    return SimplePolygon(circle_points(centre, Q(rng.randint(16, 48), 8), 47))


RING_KINDS = {**POLYGON_KINDS, **LARGE_POLYGON_KINDS, "circle-48": _circle48}


def _interpolated_probes(region):
    """The probes as rational `interpolate` built them: each ring's vertices
    and edge midpoints, ring by ring."""
    return [x for ring in region.rings() for a, b in ring.edges()
            for x in (a, interpolate(a, b, Q(1, 2)))]


@given(st.sampled_from(sorted(RING_KINDS)), st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_ring_built_probe_tables_match_the_located_ones(kind, seed):
    # Each ring-built table is the one `_probe` locates for an equal point
    # from outside the ring, the points are the rational midpoints, holed
    # rings too, and the pair scan finds the same witness on the ring-built
    # tables as on plain copies of the probes, which it locates.
    poly = RING_KINDS[kind](rng_from_seed(seed))
    region = PolygonRegion(poly)
    probes = region.boundary_probes(16)
    built = list(poly.probe_tables().values())
    assert [x for x, _ in built] == probes == _interpolated_probes(region)
    copies = [point(*x.coords) for x in probes]
    for (x, table), copy in zip(built, copies):
        assert regions2d._probe(region, x) == (x, table)
        assert regions2d._probe(region, copy)[1] == table
    for classes in CLASS_SETS:
        assert first_pair_outside(region, probes, classes) == (
            first_pair_outside(region, copies, classes)
        ), classes
    xmin, ymin, xmax, ymax = poly.bounding_box()
    frame = SimplePolygon([point(xmin - 1, ymin - 1), point(xmax + 1, ymin - 1),
                           point(xmax + 1, ymax + 1), point(xmin - 1, ymax + 1)])
    holed = PolygonRegion(frame, (poly,))
    assert holed.boundary_probes(16) == _interpolated_probes(holed)


# Forged `_combine(b_w, a, a_w, b)`, the combination that builds an edge's
# midpoint from its end forms a and b.
FORGERIES = {
    "off the edge's line": lambda bw, a, aw, b: (a[0] + b[0], a[1] + b[1] + 1, 2),
    "at the edge's start": lambda bw, a, aw, b: a,
}


@pytest.mark.parametrize("forge", sorted(FORGERIES))
def test_a_forged_midpoint_is_refused(forge, monkeypatch):
    # Integer vertices, so the forged forms are primitive points on or off
    # the edge's line; nothing is cached after the refusal.
    poly = SimplePolygon([point(0, 0), point(4, 0), point(4, 2), point(0, 2)])
    monkeypatch.setattr(regions2d, "_combine", FORGERIES[forge])
    with pytest.raises(CertificateError):
        poly.probe_tables()
    assert poly._probes is None
    with pytest.raises(CertificateError):
        is_convex_by_pairs(PolygonRegion(poly))


def test_a_forged_midpoint_is_refused_under_python_O():
    script = (
        "from convexprofile import regions2d\n"
        "from convexprofile.core import point\n"
        "from convexprofile.errors import CertificateError\n"
        "from convexprofile.regions2d import SimplePolygon\n"
        "regions2d._combine = lambda bw, a, aw, b: a\n"
        "try:\n"
        "    SimplePolygon([point(0, 0), point(4, 0), point(0, 2)]).probe_tables()\n"
        "    print('accepted')\n"
        "except CertificateError:\n"
        "    print('CertificateError')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert (proc.returncode, proc.stdout) == (0, "CertificateError\n"), proc.stderr


def test_cli_convexity_builds_probes_in_integers(monkeypatch, tmp_path):
    # Counted on the 48-gon: no rational midpoint, no point location, and
    # one homogeneous form cleared per vertex, at load. Deterministic,
    # unlike time.
    poly = SimplePolygon(circle_points(point(Q(3, 8), Q(-5, 8)), Q(41, 16), 47))
    path = tmp_path / "ngon.json"
    path.write_text(json.dumps(dump_geometry(poly)))
    calls = collections.Counter()
    for module, name in ((core, "interpolate"), (regions2d, "interpolate"),
                         (intgeom, "point_in_polygon"), (core, "_cleared")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    assert run(["convexity", str(path), "--out", str(tmp_path / "out.json")]) == 0
    result = json.loads((tmp_path / "out.json").read_text())["results"][0]
    assert result["convex_by_pairs"] is result["vertex_turn_oracle"] is True
    assert calls == {"_cleared": 48}


@pytest.mark.parametrize("kind", sorted(POLYGON_KINDS))
def test_the_visibility_path_clears_a_point_once(kind, monkeypatch):
    # A fresh member is cleared once, by its first table; the oracle at
    # m = 1, 8 and 32 and every kernel halfspace read its cached form. The
    # other calls build each halfspace's own row. Deterministic, unlike time.
    rng = rng_from_seed(f"cleared-once:{kind}")
    poly = POLYGON_KINDS[kind](rng)
    x = Point(sample_member_points(poly, rng, 1)[0].coords)
    calls = []
    cleared = core._cleared

    def counted(values):
        calls.append(values)
        return cleared(values)

    for name, module in list(sys.modules.items()):
        if name.startswith("convexprofile") and hasattr(module, "_cleared"):
            monkeypatch.setattr(module, "_cleared", counted)
    poly.table(x)
    seen = [kernel_contains_by_visibility(poly, x, m) for m in (1, 8, 32)]
    halfspaces = kernel(poly).halfspaces
    inside = [h.contains(x) for h in halfspaces]
    assert all(inside) == seen[1] == seen[2]
    assert calls[0] == x.coords
    assert len(calls) == 1 + len(halfspaces)


# --- convex kinds: pairs by supporting rows ---------------------------------

# The pointed box's frame points besides its corners: on one edge each.
BOX_FRAME = [point(Q(1, 2), 0), point(1, Q(1, 3)), point(Q(2, 3), 1),
             point(0, Q(3, 4)), point(Q(1, 4), 0), point(1, Q(5, 7))]


def _h_variant(rng, dim):
    """A random h-polyhedron, or one of its variants: no interior (an
    exposed face), duplicated rows, or a slab along its first row."""
    P = random_hpolyhedron(rng, dim)
    variant = rng.choice(("plain", "face", "copies", "slab"))
    if variant == "face":
        face = face_in_direction(P, random_direction(rng, dim))
        return P if face is None else face
    if variant == "copies":
        hs = P.halfspaces
        doubled = tuple(Halfspace(h.normal * 2, h.offset * 2) for h in hs)
        return HPolyhedron(hs + hs[:2] + doubled, dim)
    if variant == "slab":
        h = P.halfspaces[0]
        return HPolyhedron((h, Halfspace(-h.normal, 2 - h.offset)), dim)
    return P


def _convex_case(kind, seed):
    """(region, boundary points) of a seeded convex kind: probes in a seeded
    order, some of them as fresh copies, which `supports` locates."""
    rng = rng_from_seed(f"convex-kind:{kind}:{seed}")
    if kind in ("disk", "disk-complement"):
        centre = point(Q(rng.randint(-9, 9), rng.randint(1, 4)),
                       Q(rng.randint(-9, 9), rng.randint(1, 4)))
        radius = Q(rng.randint(1, 12), rng.randint(1, 4))
        region = (Disk if kind == "disk" else DiskComplement)(centre, radius)
        probes = region.boundary_probes(rng.randint(2, 9))
    elif kind == "box":
        region = PointedOpenBox()
        probes = region.boundary_probes(8) + rng.sample(BOX_FRAME, 3)
    else:
        region = _h_variant(rng, int(kind[1:]))
        probes = region.boundary_probes(8)
    rng.shuffle(probes)
    probes = [Point(x.coords) if rng.random() < 0.3 else x for x in probes[:24]]
    return region, probes


CONVEX_KINDS = ["disk", "disk-complement", "box", "h1", "h2", "h3", "h4"]

UNIT_SQUARE = HPolyhedron(tuple(
    Halfspace(core.vector(*normal), offset)
    for normal, offset in (((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1))
), 2)


class _FractionRows:
    """A convex kind as a kind without `supports`: its own `locate2`, and
    the rational `_fraction_breakpoints` of the polyhedron P whose
    halfspaces bound it, so `partition_segment` can run on it."""

    def __init__(self, region, P):
        self.kind, self.dim, self.locate2, self._P = (
            region.kind, region.dim, region.locate2, P)

    def breakpoints(self, a, b):
        return _fraction_breakpoints(self._P, a, b)


def _partition_class(region, p, q):
    """The class of a pair by a rule kept apart from the supporting rows.

    A circle's chord: f(t) = |p + t(q - p) - centre|^2 - radius^2 is 0 at
    t = 0 and 1 and opens upwards, so f(1/2) < 0 puts the open chord
    strictly inside the circle: the disk's interior, and non-members of
    the complement. A box or an h-polyhedron: its rational partition.
    """
    if region.kind in ("disk", "disk-complement"):
        def f(x):
            return sum((u - c) ** 2 for u, c in zip(x.coords, region.center.coords)
                       ) - region.radius ** 2
        assert f(p) == f(q) == 0 and f(interpolate(p, q, Q(1, 2))) < 0
        return PairClass.HYPERBOLIC if region.kind == "disk" else PairClass.ELLIPTIC
    rows = _FractionRows(region, UNIT_SQUARE if region.kind == "pointed-open-box"
                         else region)
    return regions2d._classify_from_partition(
        rows, partition_segment(rows, Segment(p, q)))


@given(st.sampled_from(CONVEX_KINDS), st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_supporting_rows_agree_with_the_partition(kind, seed):
    # Every probe pair's class from the two `supports` masks against an
    # exact rule of the tests (`_partition_class`), and the row scan
    # against classify_pair pair by pair on every class set.
    region, probes = _convex_case(kind, seed)
    pairs = list(itertools.combinations(probes, 2))
    found = [classify_pair(region, p, q) for p, q in pairs]
    for (p, q), cls in zip(pairs, found):
        assert cls is _partition_class(region, p, q), (p, q)
    for classes in CLASS_SETS:
        expected = next(
            ((p, q, cls) for (p, q), cls in zip(pairs, found)
             if cls not in classes),
            None,
        )
        assert first_pair_outside(region, probes, classes) == expected, classes


def _pair_scan_case(kind, seed):
    """(region, boundary probes) of a seeded kind on each path of the pair
    scan: a hole-free polygon (ring tables), a convex kind (`supports`), or
    a polygon as the hole of a frame one unit around it (the rational
    partition), its probes shuffled and cut to 12."""
    if kind in CONVEX_KINDS:
        return _convex_case(kind, seed)
    rng = rng_from_seed(f"pair-scan:{kind}:{seed}")
    if kind != "holed":
        region = PolygonRegion(POLYGON_KINDS[kind](rng))
        return region, region.boundary_probes(16)
    poly = POLYGON_KINDS[rng.choice(sorted(POLYGON_KINDS))](rng)
    xmin, ymin, xmax, ymax = poly.bounding_box()
    frame = SimplePolygon([point(xmin - 1, ymin - 1), point(xmax + 1, ymin - 1),
                           point(xmax + 1, ymax + 1), point(xmin - 1, ymax + 1)])
    region = PolygonRegion(frame, (poly,))
    probes = region.boundary_probes(16)
    rng.shuffle(probes)
    return region, probes[:12]


def _pairs_by_classify_pair(region, probes):
    """classify_pair on the probe pairs in combinations order: the
    (p, q, class) of each pair up to the first that raises, and the type
    and message of that error, or None."""
    found = []
    for p, q in itertools.combinations(probes, 2):
        try:
            found.append((p, q, classify_pair(region, p, q)))
        except NotOnBoundaryError as exc:
            return found, (type(exc), str(exc))
    return found, None


@given(
    st.sampled_from(sorted(POLYGON_KINDS) + ["holed"] + CONVEX_KINDS),
    st.integers(0, 10**9),
    st.one_of(st.none(), st.integers(0, 60)),
)
@settings(max_examples=60, deadline=None)
def test_pair_scan_agrees_with_classify_pair_on_every_class_set(kind, seed, at):
    # The pair scan against classify_pair pair by pair on every class set,
    # on ring tables, on supporting rows in E^2 and E^3 and on the
    # partition, with a probe off the boundary (beyond every probe's
    # coordinates) at a drawn place in the list or none. Each suffix of
    # the list is scanned too, so every probe starts row 0 and row 1 of
    # some scan.
    region, probes = _pair_scan_case(kind, seed)
    far = 1 + max(abs(c) for x in probes for c in x.coords)
    off = Point([far] * region.dim)
    if at is not None and region.locate2(off)[0] is not PointLocation.BOUNDARY:
        probes.insert(at % (len(probes) + 1), off)
    for start in range(len(probes) - 1):
        tail = probes[start:]
        found, error = _pairs_by_classify_pair(region, tail)
        for classes in CLASS_SETS:
            expected = next((w for w in found if w[2] not in classes), error)
            assert _scan_outcome(first_pair_outside, region, tail, classes) == (
                expected), (start, classes)


def test_supporting_rows_cover_every_class_of_a_convex_kind():
    # The hand cases: a corner pair on one square edge, a frame pair on
    # none, a no-interior polyhedron whose every pair shares its equality
    # row, duplicated rows, and a slab with lineality.
    box = PointedOpenBox()
    crossing = partition_segment(_FractionRows(box, UNIT_SQUARE),
                                 Segment(point(-1, Q(1, 2)), point(2, Q(1, 2))))
    E, B, I = PointLocation.EXTERIOR, PointLocation.BOUNDARY, PointLocation.INTERIOR
    assert crossing.locations() == (E, B, I, B, E)
    assert classify_pair(box, point(0, 0), point(Q(1, 2), 0)) is PairClass.FLAT
    assert classify_pair(box, point(0, 1), point(1, Q(1, 3))) is PairClass.HYPERBOLIC
    H, V = Halfspace, core.vector
    segment = HPolyhedron((H(V(0, 1), 0), H(V(0, -1), 0), H(V(1, 0), 1),
                           H(V(-1, 0), 0)), 2)
    assert classify_pair(segment, point(Q(1, 3), 0), point(Q(2, 3), 0)) is (
        PairClass.FLAT
    )
    doubled = HPolyhedron((H(V(1, 0), 1), H(V(2, 0), 2), H(V(-1, 0), 0)), 2)
    assert regions2d._probe(doubled, point(1, 5))[1] == 0b011
    assert classify_pair(doubled, point(1, 5), point(0, 5)) is PairClass.HYPERBOLIC
    assert classify_pair(doubled, point(1, 5), point(1, -5)) is PairClass.FLAT
    with pytest.raises(NotOnBoundaryError):
        classify_pair(doubled, point(Q(1, 2), 0), point(1, 0))


def _refuse_partition_on_built_in_kinds(monkeypatch):
    """Refuse `partition_segment` on every built-in kind but a polygon with
    holes; return the counter of its calls on other kinds."""
    real, calls = regions2d.partition_segment, collections.Counter()
    built_in = (PolygonRegion, Disk, DiskComplement, PointedOpenBox, HPolyhedron)

    def guarded(region, seg):
        if isinstance(region, built_in) and not getattr(region, "holes", ()):
            raise AssertionError(f"partition_segment on a {region.kind}")
        calls[region.kind] += 1
        return real(region, seg)

    monkeypatch.setattr(regions2d, "partition_segment", guarded)
    return calls


@pytest.mark.parametrize("settings, report", [
    ([], "b4896042aac551f4d8b1e173a54d3d01b01b5b0025726903283c1bf7b29f2556"),
    (["--instances", "8", "--samples", "12", "--probe-density", "8",
      "--seed", "7"],
     "94ad738d8797a4b25e83758db5d0ee8d45b0e85b5246c3171adbb982bcc6483b"),
], ids=["defaults", "bench-settings"])
def test_convex_kinds_reach_no_rational_partition(settings, report, capsys,
                                                  monkeypatch):
    # `check all` at the defaults and at the benchmark's settings, with the
    # partition refused on every built-in kind but a polygon with holes:
    # the full reports are the pinned ones (tests/test_cli.py).
    import hashlib

    monkeypatch.delenv("CONVEX_PROFILE_SEED", raising=False)
    calls = _refuse_partition_on_built_in_kinds(monkeypatch)
    assert run(["check", "all", *settings]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == report
    assert not calls


def test_a_kind_without_supports_classifies_by_the_partition(monkeypatch):
    from test_kinds import HalfPlane

    calls = _refuse_partition_on_built_in_kinds(monkeypatch)
    plane = HalfPlane()
    assert classify_pair(plane, point(0, 0), point(3, 0)) is PairClass.FLAT
    assert calls == {"half-plane": 1}

