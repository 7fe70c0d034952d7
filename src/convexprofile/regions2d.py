"""Possibly non-convex planar regions with exact point location.

Home of the boundary-pair trichotomy (flat / hyperbolic / elliptic, plus
Mixed for everything else), convexity-by-pairs, starshapedness, and
kernels. All decisions are exact: polygon predicates run on each point's
own homogeneous integer form and each edge's cached integer line row, and
convex kinds decide a pair by their integer supporting rows.

The region protocol. A region kind (PolygonRegion, Disk, DiskComplement,
PointedOpenBox here, and polyhedra.HPolyhedron in any dimension) has a
`kind` (its name in geometry JSON) and a `dim`, and answers two
questions; every function below works through them:

- `locate2(x)` -> (PointLocation, membership) of a point of E^dim;
- `boundary_probes(density)` -> a finite list of boundary points.

A kind that runs the convexity corollary (cor-5) also answers
`convexity_witness()`: None for a convex set, else a record of Points it
has re-checked in rationals (a reflex vertex, or members p, q whose
midpoint is not one). A midpoint on the boundary shows that the set is not
closed; cor-5 reports such a kind (the pointed open box) as the expected
counterexample of closedness.

A convex kind (Disk, DiskComplement, PointedOpenBox, HPolyhedron) also
answers `supports(x)`: the bit mask of its supporting rows `_rows` that are
0 at x, or None when x is not a boundary point; and it names in `chord` the
class of a pair that shares no row. A pair x != y is Flat iff the masks
share a row (Rockafellar 1970, Thm 6.1 and Sec. 18): a disk's rows are its
tangents, which no two points share; the chord of a convex body is
Hyperbolic, that of its complement Elliptic. The lowest common row of a
Flat pair is re-checked in integers at both ends.

A kind without `supports` (a polygon with holes, a kind defined outside
the package) classifies a pair by the rational partition of its open
segment, and so answers `breakpoints(a, b)`: the sorted exact parameters
in (0,1) where the segment a + t(b - a) may change location. Only such a
kind can be partitioned (`partition_segment`, `sees`).

`_classify` is the one pair routine: it takes two `_probe` results and
returns their class from a shared supporting row, from the ring tables of
a hole-free polygon or from the rational partition. `classify_pair` calls
it once; the pair scan calls it pair by pair on row 0 and on every row of
a kind without ring tables. On a hole-free polygon the later rows run on
per-edge bit columns of the probes' sign masks: a row ORs columns into the
set of q's that need a sight line, which go through `_classify`, and reads
every other q's class, the side of q at p's site, from the columns there.

A simple polygon's kernel has two forms. `kernel` is the H-polyhedron of
its edge halfplanes, whose membership the visibility oracle is checked
against. `kernel_vertices` and `is_starshaped` read the kernel ring that
`intgeom.kernel_ring` intersects in the plane from the cached edge rows,
re-checked in integers; no polygon kernel runs the double description.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from . import intgeom
from .core import (
    Point,
    Q,
    Segment,
    Vector,
    ZERO,
    _combine,
    _dot,
    cross2,
    interpolate,
    rational,
)
from .errors import (
    CertificateError,
    DegenerateSegmentError,
    DimensionMismatchError,
    InvalidPolygonError,
    InvalidRegionError,
    NotAMemberError,
    NotOnBoundaryError,
)
from .polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    locate_point,
)

# point_in_polygon's codes as locations
_LOCATIONS = {
    -1: PointLocation.EXTERIOR,
    0: PointLocation.BOUNDARY,
    1: PointLocation.INTERIOR,
}


class SimplePolygon:
    """A simple polygon with CCW rational vertices.

    Invariants enforced at construction: at least three vertices, strictly
    positive signed area, no three consecutive collinear vertices, no
    self-intersection. It dumps as a polygon region with no holes.
    """

    kind = "polygon"

    __slots__ = ("vertices", "_verts", "_rows", "_turns", "_vtables", "_probes")

    def __init__(self, vertices):
        vs = tuple(v if isinstance(v, Point) else Point(v) for v in vertices)
        if len(vs) < 3:
            raise InvalidPolygonError("a polygon needs at least 3 vertices")
        for v in vs:
            if v.dim != 2:
                raise DimensionMismatchError("polygon vertices must be 2D")
        # Every check runs on the vertices' primitive integer forms, which
        # keep equalities and orientation signs.
        hv = [v.form for v in vs]
        n = len(hv)
        turns = []
        for i in range(n):
            if hv[i] == hv[(i + 1) % n]:
                raise InvalidPolygonError("repeated consecutive vertex")
            turns.append(intgeom.orient(hv[i - 1], hv[i], hv[(i + 1) % n]))
            if turns[i] == 0:
                raise InvalidPolygonError(
                    "three consecutive collinear vertices"
                )
        area2 = _twice_area(hv)[0]
        if area2 == 0:
            raise InvalidPolygonError("degenerate polygon (zero area)")
        if area2 < 0:
            raise InvalidPolygonError("vertices must be counterclockwise")
        edges = _boxed_edges(hv)
        for i in range(n):
            for j in range(i + 2, n - (i == 0)):  # edges not next to edge i
                if _edges_touch(edges[i], edges[j]):
                    raise InvalidPolygonError("polygon edges intersect")
        self.vertices = vs
        self._verts, self._rows = hv, intgeom.edge_rows(hv)
        # +1 / -1: vertex i turns left (convex) / right (reflex)
        self._turns = turns
        self._vtables = self._probes = None

    @property
    def n(self):
        return len(self.vertices)

    def rings(self):
        return (self,)

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def signed_area(self):
        num, den = _twice_area(self._verts)
        return Q(num, 2 * den)

    def centroid(self):
        vs = self.vertices
        a = ZERO
        cx = ZERO
        cy = ZERO
        for i in range(len(vs)):
            p, q = vs[i], vs[(i + 1) % len(vs)]
            w = cross2(Vector(p.coords), Vector(q.coords))
            a += w
            cx += (p.coords[0] + q.coords[0]) * w
            cy += (p.coords[1] + q.coords[1]) * w
        return Point((cx / (3 * a), cy / (3 * a)))

    def bounding_box(self):
        xs = [v.coords[0] for v in self.vertices]
        ys = [v.coords[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def table(self, x):
        """(location, homogeneous x, x's edge table, x's site) of a 2D point.

        The table is `intgeom.edge_dets` of x's own integer form over the
        cached edge rows: the predicates that take two points reuse it, as
        `intgeom.edge_signs` masks, instead of re-deriving the edge
        orientations of x. The site (k, at_vertex) of a boundary x is its
        vertex k or edge k; None off the boundary.
        """
        if len(x.coords) != 2:
            raise DimensionMismatchError("query point must be 2D")
        h = x.form
        dets = intgeom.edge_dets(self._rows, h)
        code, site = intgeom.point_in_polygon(h, self._verts, dets)
        return _LOCATIONS[code], h, dets, site

    def locate(self, x):
        return self.table(x)[0]

    def _vertex_tables(self):
        """(edge tables, sign masks) of the ring's vertices, built on the
        first call: the visibility oracle and `probe_tables` read them."""
        if self._vtables is None:
            dets = [intgeom.edge_dets(self._rows, v) for v in self._verts]
            self._vtables = dets, [intgeom.edge_signs(d) for d in dets]
        return self._vtables

    def probe_tables(self):
        """id(x) -> (x, `_probe`'s table of x) for the ring's vertices and
        edge midpoints x in ring order, built once. A midpoint's form and
        masks (`intgeom.midpoint_signs`) come from its edge's ends, and its
        form is re-checked to lie on the edge strictly between them."""
        if self._probes is None:
            (dets, signs), verts, probes = self._vertex_tables(), self._verts, {}
            for k, (v, (a, b, c)) in enumerate(zip(self.vertices, self._rows)):
                j = (k + 1) % len(verts)
                h = x, y, w = _combine(verts[j][2], verts[k], verts[k][2], verts[j])
                if a * x + b * y + c * w or not intgeom.strictly_between(
                        h, verts[k], verts[j]):
                    raise CertificateError(f"edge {k}'s midpoint is off the edge")
                masks = intgeom.midpoint_signs(dets[k], dets[j], signs[k], signs[j],
                                               verts[k][2], verts[j][2])
                mid = Point._from_form(h)
                probes[id(v)] = v, (verts[k], signs[k], (k, True))
                probes[id(mid)] = mid, (h, masks, (k, False))
            self._probes = probes
        return self._probes

    def __eq__(self, other):
        return (
            isinstance(other, SimplePolygon) and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"SimplePolygon({list(self.vertices)!r})"


def _twice_area(verts):
    """Twice the signed area of a ring of point forms as (num, den), den > 0."""
    num, den = 0, 1
    for (ax, ay, aw), (bx, by, bw) in zip(verts, verts[1:] + verts[:1]):
        num, den = num * aw * bw + (ax * by - ay * bx) * den, den * aw * bw
    return num, den


def _segments_touch(a, b, c, d):
    """Whether closed segments [a,b] and [c,d] of point forms share a point."""
    o1 = intgeom.orient(a, b, c)
    o2 = intgeom.orient(a, b, d)
    o3 = intgeom.orient(c, d, a)
    o4 = intgeom.orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    # a collinear endpoint touches when it lies on the other closed segment
    for p, u, v, o in ((c, a, b, o1), (d, a, b, o2), (a, c, d, o3), (b, c, d, o4)):
        if o == 0 and (p == u or p == v or intgeom.strictly_between(p, u, v)):
            return True
    return False


def _boxed_edges(verts):
    """A ring's edges (a, b, s, x_lo, x_hi, y_lo, y_hi) over its point forms:
    the bounding box scaled by s = a_w * b_w."""
    edges = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        (ax, ay, aw), (bx, by, bw) = a, b
        xs, ys = (ax * bw, bx * aw), (ay * bw, by * aw)
        edges.append((a, b, aw * bw, min(xs), max(xs), min(ys), max(ys)))
    return edges


def _edges_touch(e, f):
    """Whether closed `_boxed_edges` edges e and f share a point.

    Edges whose bounding boxes are disjoint cannot touch, which settles
    most pairs of a large ring without an orientation test.
    """
    s, t = e[2], f[2]
    return (
        e[3] * t <= f[4] * s and f[3] * s <= e[4] * t
        and e[5] * t <= f[6] * s and f[5] * s <= e[6] * t
        and _segments_touch(e[0], e[1], f[0], f[1])
    )


def _rings_touch(edges1, edges2):
    """Whether some edge of one `_boxed_edges` ring touches one of another."""
    return any(_edges_touch(e1, e2) for e1 in edges1 for e2 in edges2)


class PolygonRegion:
    """A closed polygon with optional holes (holes strictly inside, disjoint)."""

    kind = "polygon"
    dim = 2

    __slots__ = ("outer", "holes")

    def __init__(self, outer, holes=()):
        self.outer = outer
        self.holes = tuple(holes)
        if not self.holes:
            return
        outer_edges, *hole_edges = (_boxed_edges(r._verts) for r in self.rings())
        for h, h_edges in zip(self.holes, hole_edges):
            for v in h.vertices:
                if self.outer.locate(v) is not PointLocation.INTERIOR:
                    raise InvalidRegionError("hole must be strictly inside")
            if _rings_touch(h_edges, outer_edges):
                raise InvalidRegionError("hole touches the outer ring")
        for (h1, edges1), (h2, edges2) in itertools.combinations(
            zip(self.holes, hole_edges), 2
        ):
            if _rings_touch(edges1, edges2):
                raise InvalidRegionError("holes touch each other")
            # with no edges touching, a vertex each way settles nesting
            if (h1.locate(h2.vertices[0]) is not PointLocation.EXTERIOR
                    or h2.locate(h1.vertices[0]) is not PointLocation.EXTERIOR):
                raise InvalidRegionError("holes are nested")

    def rings(self):
        return (self.outer,) + self.holes

    def locate2(self, x):
        outer_loc = self.outer.locate(x)
        if outer_loc is PointLocation.BOUNDARY:
            return PointLocation.BOUNDARY, True
        if outer_loc is PointLocation.EXTERIOR:
            return PointLocation.EXTERIOR, False
        for h in self.holes:
            loc = h.locate(x)
            if loc is PointLocation.BOUNDARY:
                return PointLocation.BOUNDARY, True
            if loc is PointLocation.INTERIOR:
                return PointLocation.EXTERIOR, False
        return PointLocation.INTERIOR, True

    def breakpoints(self, a, b):
        edges = [e for ring in self.rings() for e in ring.edges()]
        return _polyline_breakpoints(edges, a, b)

    def boundary_probes(self, density):
        """Every ring's `probe_tables` points, ring by ring: distinct points,
        because the rings are simple and disjoint."""
        return [x for ring in self.rings() for x, _ in ring.probe_tables().values()]

    def convexity_witness(self):
        """None for a convex region, else {"reflex_vertex": v}: an outer-ring
        right turn or a hole's left turn, re-checked in rationals."""
        # A ring is counterclockwise, so a right turn of the outer ring and a
        # left turn of a hole are both reflex angles of the region.
        rings = [(self.outer, -1)] + [(hole, 1) for hole in self.holes]
        for ring, reflex in rings:
            for i, turn in enumerate(ring._turns):
                if turn != reflex:
                    continue
                vs = ring.vertices
                u, v, w = vs[i - 1], vs[i], vs[(i + 1) % ring.n]
                if (cross2(v - u, w - v) > 0) != (reflex > 0):
                    raise CertificateError(f"{v!r} is not a reflex vertex")
                return {"reflex_vertex": v}
        return None


def _midpoint_witness(region, p, q):
    """{"p", "q", "midpoint"}: members p and q whose midpoint is not one,
    re-checked in rationals."""
    mid = interpolate(p, q, Q(1, 2))
    if not (region.locate2(p)[1] and region.locate2(q)[1]
            and not region.locate2(mid)[1]):
        raise CertificateError(f"{region.kind} pair does not witness")
    return {"p": p, "q": q, "midpoint": mid}


class _Circle:
    """Shared body of the disk and its complement: one circle, two sides.

    A subclass maps the sign of |x - center|^2 - radius^2 (-1, 0, 1) to
    (location, membership) in `SIDES`.
    """

    dim = 2

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        self.center = center if isinstance(center, Point) else Point(center)
        self.radius = rational(radius)
        if self.center.dim != 2:
            raise DimensionMismatchError(f"{self.kind} center must be 2D")
        if self.radius <= 0:
            raise InvalidRegionError(f"{self.kind} radius must be positive")

    def locate2(self, x):
        dx = x.coords[0] - self.center.coords[0]
        dy = x.coords[1] - self.center.coords[1]
        value = dx * dx + dy * dy - self.radius * self.radius
        return self.SIDES[(value > 0) - (value < 0)]

    def boundary_probes(self, density):
        return circle_points(self.center, self.radius, density)

    def supports(self, x):
        """No row, or None off the circle: no tangent holds two points."""
        return 0 if self.locate2(x)[0] is PointLocation.BOUNDARY else None


class Disk(_Circle):
    """The closed disk {x : |x - center| <= radius}."""

    kind = "disk"
    chord = "hyperbolic"
    SIDES = {
        -1: (PointLocation.INTERIOR, True),
        0: (PointLocation.BOUNDARY, True),
        1: (PointLocation.EXTERIOR, False),
    }

    __slots__ = ()

    def convexity_witness(self):
        return None


class DiskComplement(_Circle):
    """The open exterior {x : |x - center| > radius} of a closed disk."""

    kind = "disk-complement"
    chord = "elliptic"
    SIDES = {
        -1: (PointLocation.EXTERIOR, False),
        0: (PointLocation.BOUNDARY, False),
        1: (PointLocation.INTERIOR, True),
    }

    __slots__ = ()

    def convexity_witness(self):
        """The members center -/+ (2r, 0), whose midpoint, the center, is
        not one."""
        offset = Vector((2 * self.radius, ZERO))
        return _midpoint_witness(self, self.center - offset, self.center + offset)


class PointedOpenBox:
    """The fixed set (0,1)^2 union its four corner points.

    Neither closed nor open; exists to exercise how the pair criteria
    behave when closedness fails.
    """

    kind = "pointed-open-box"
    dim = 2

    __slots__ = ()

    CORNERS = (
        Point((0, 0)),
        Point((1, 0)),
        Point((1, 1)),
        Point((0, 1)),
    )

    # Its locations are the closed unit square's, and so are its pairs'
    # classes: a corner's supporting rows are the two edges through it.
    SQUARE = HPolyhedron(tuple(
        Halfspace(Vector(normal), offset)
        for normal, offset in (((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1))
    ), 2)
    _rows = SQUARE._rows
    chord = "hyperbolic"

    def locate2(self, x):
        loc = locate_point(self.SQUARE, x)
        return loc, loc is PointLocation.INTERIOR or x in self.CORNERS

    def boundary_probes(self, density):
        return list(self.CORNERS)

    def supports(self, x):
        return self.SQUARE.supports(x)

    def convexity_witness(self):
        """The corners (0,0) and (1,0), whose midpoint is a frame point."""
        return _midpoint_witness(self, *self.CORNERS[:2])


def locate_point2(region, x):
    """(topological location, set membership) of x relative to the region.

    Location and membership only disagree on non-closed variants: the
    pointed open box has Boundary non-members (frame edge points) and the
    disk complement's circle is Boundary but excluded.
    """
    if x.dim != region.dim:
        raise DimensionMismatchError(f"query point must be {region.dim}D")
    return region.locate2(x)


@dataclass(frozen=True)
class SegmentPiece:
    """One piece of a partitioned open segment, in segment parameters.

    lo == hi encodes a single parameter point.

    Pieces are maximal: a breakpoint whose location matches an adjacent
    piece is absorbed by it (that endpoint belongs to the piece); a
    breakpoint whose location differs from both neighbors stays as its
    own single-parameter piece.
    """

    lo: object
    hi: object
    location: PointLocation

    def is_point(self):
        return self.lo == self.hi

    def representative(self):
        if self.is_point():
            return self.lo
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class SegmentPartition:
    segment: Segment
    pieces: tuple

    def locations(self):
        return tuple(p.location for p in self.pieces)


def _polyline_breakpoints(edges, a, b):
    """Exact parameters in (0,1) where [a,b] meets any edge of the polyline."""
    d = b - a
    ts = set()
    for e1, e2 in edges:
        ed = e2 - e1
        w = e1 - a
        denom = cross2(d, ed)
        if denom != 0:
            t = cross2(w, ed) / denom
            u = cross2(w, d) / denom
            if 0 < t < 1 and 0 <= u <= 1:
                ts.add(t)
        elif cross2(w, d) == 0:
            dd = d.dot(d)
            t1 = d.dot(e1 - a) / dd
            t2 = d.dot(e2 - a) / dd
            for t in (t1, t2):
                if 0 < t < 1:
                    ts.add(t)
    return sorted(ts)


def _breakpoints(region):
    """The region's `breakpoints`, or TypeError: a kind that classifies
    its pairs by `supports` has no segment partition."""
    breakpoints = getattr(region, "breakpoints", None)
    if breakpoints is None:
        raise TypeError(f"a {region.kind} region has no breakpoints to "
                        "partition a segment by")
    return breakpoints


def partition_segment(region, seg):
    """Exact decomposition of the open segment by region location.

    Pieces cover (0,1) in order; adjacent pieces never share a location.
    The region must answer `breakpoints` (a polygon or a kind without
    `supports`), else TypeError.
    """
    breakpoints = _breakpoints(region)
    a, b = seg.a, seg.b
    if a == b:
        raise DegenerateSegmentError("cannot partition a degenerate segment")
    if a.dim != region.dim:
        raise DimensionMismatchError(f"segment must be {region.dim}D")

    pieces = []

    def add(lo, hi, t):
        # a piece with the location of the last one extends it
        loc = region.locate2(interpolate(a, b, t))[0]
        if pieces and pieces[-1].location is loc:
            lo = pieces.pop().lo
        pieces.append(SegmentPiece(lo, hi, loc))

    cursor = ZERO
    for t in breakpoints(a, b):
        add(cursor, t, (cursor + t) / 2)
        add(t, t, t)
        cursor = t
    add(cursor, Q(1), (cursor + 1) / 2)
    return SegmentPartition(seg, tuple(pieces))


class PairClass(Enum):
    FLAT = "flat"
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    MIXED = "mixed"


# The class of a one-piece pair by the side of q at p's site.
_CLASSES = {0: PairClass.FLAT, 1: PairClass.HYPERBOLIC, -1: PairClass.ELLIPTIC}


def classify_pair(region, p, q):
    """The trichotomy class of a boundary pair, or Mixed.

    Flat: the open segment lies in the boundary. Hyperbolic: in the
    interior. Elliptic: in the complement of the set (membership, so for
    non-closed variants boundary non-members count as complement). Mixed:
    anything else. Both endpoints must be boundary points.
    """
    if p == q:
        raise DegenerateSegmentError("pair endpoints must differ")
    return _classify(region, _probe(region, p), _probe(region, q))


def _probe(region, x):
    """Validate that x is a boundary point, once per point.

    Returns (x, table): on a hole-free polygon table is (homogeneous x,
    x's edge signs, x's boundary site) for the integer classifier, which
    decides every pair, through vertices too; on a convex kind it is x's
    `supports` mask; every other kind has None and goes through the
    rational partition. Ring-built points and polyhedron probes are looked up.
    """
    if x.dim != region.dim:
        raise DimensionMismatchError(f"query point must be {region.dim}D")
    if isinstance(region, PolygonRegion) and not region.holes:
        built = region.outer.probe_tables().get(id(x))
        if built is not None:
            return built
        loc, h, dets, site = region.outer.table(x)
        table = h, intgeom.edge_signs(dets), site
    elif hasattr(region, "supports"):
        table = region.supports(x)
        loc = table is not None and PointLocation.BOUNDARY
    else:
        loc, table = region.locate2(x)[0], None
    if loc is not PointLocation.BOUNDARY:
        raise NotOnBoundaryError(f"{x!r} is not a boundary point")
    return x, table


def _classify_from_partition(region, partition):
    locs = set(partition.locations())
    if locs == {PointLocation.BOUNDARY}:
        return PairClass.FLAT
    if locs == {PointLocation.INTERIOR}:
        return PairClass.HYPERBOLIC
    a, b = partition.segment.a, partition.segment.b
    all_non_member = True
    for piece in partition.pieces:
        if piece.location is PointLocation.INTERIOR:
            all_non_member = False
            break
        if piece.location is PointLocation.EXTERIOR:
            continue
        x = interpolate(a, b, piece.representative())
        if region.locate2(x)[1]:
            all_non_member = False
            break
    if all_non_member:
        return PairClass.ELLIPTIC
    return PairClass.MIXED


def _supported_class(region, p, q, common):
    """The class of a convex kind's pair whose `supports` masks share the
    rows `common`: Flat once the lowest is re-checked in integers to be 0
    at both ends, else the kind's chord class."""
    if not common:
        return PairClass(region.chord)
    k = (common & -common).bit_length() - 1
    for x in (p, q):
        if _dot(region._rows[k], x.form):
            raise CertificateError(f"supporting row {k} is not 0 at {x!r}")
    return PairClass.FLAT


def _classify(region, p_probe, q_probe):
    """The class of a pair of `_probe` results: the one pair routine.

    On a convex kind a pair's class is read from the two `supports` masks;
    without tables it comes from the rational partition. On a hole-free
    polygon a pair needs a sight line only where some edge's line may meet
    the open segment: p and q strictly on opposite sides of it (see
    `intgeom`). For every other pair `sight_blocked` would return False,
    and the class is the side of q at p's site. A vertex inside the open
    segment is a boundary member, so a pair through vertices is Flat when
    every piece between them is boundary, else Mixed.
    """
    (p, p_table), (q, q_table) = p_probe, q_probe
    if type(p_table) is not tuple:  # a `supports` mask, or no table
        if p_table is None:
            return _classify_from_partition(
                region, partition_segment(region, Segment(p, q)))
        return _supported_class(region, p, q, p_table & q_table)
    ring = region.outer
    verts, rows, turns = ring._verts, ring._rows, ring._turns
    (p_h, p_signs, p_site), (q_h, q_signs, _) = p_table, q_table
    (pp, pn), (qp, qn) = p_signs, q_signs
    touching = 0
    if (pp & qn) | (pn & qp):
        touching = intgeom.sight_blocked(verts, p_h, q_h, p_signs, q_signs)
        if touching is True:
            return PairClass.MIXED
    side = intgeom.side_at(verts, rows, turns, p_site, q_h, q_signs)
    # One piece, or boundary pieces only (a boundary piece can only run
    # along an edge from its start): the side at p's site is the class.
    for k in _bits(touching):
        if side or intgeom.side_at(verts, rows, turns, (k, True), q_h, q_signs):
            return PairClass.MIXED
    return _CLASSES[side]


def convexity_oracle(polygon):
    """Classical convex-polygon test on the vertex turns.

    A valid ring is counterclockwise, so it is convex iff every integer
    turn of its vertex forms, stored at construction, is a left turn.
    """
    return all(turn > 0 for turn in polygon._turns)


def circle_points(center, radius, count):
    """Deterministic rational points on the circle (tan half-angle ladder)."""
    pts = []
    seen = set()
    for j in range(count):
        t = Q(2 * j - (count - 1), 2)
        den = 1 + t * t
        x = center.coords[0] + radius * (1 - t * t) / den
        y = center.coords[1] + radius * 2 * t / den
        p = Point((x, y))
        if p.coords not in seen:
            seen.add(p.coords)
            pts.append(p)
    antipode = Point((center.coords[0] - radius, center.coords[1]))
    if antipode.coords not in seen:
        pts.append(antipode)
    return pts


def is_convex_by_pairs(region, probe_density=16):
    """(verdict, witness) of the pairwise boundary criterion.

    False comes with an (p, q, PairClass) witness whose class is Elliptic
    or Mixed. True means every probed pair was Flat or Hyperbolic — for
    closed regions that certifies convexity (cross-validated against the
    vertex-turn oracle); for the pointed open box it deliberately does not.
    """
    probes = region.boundary_probes(probe_density)
    witness = first_pair_outside(
        region, probes, {PairClass.FLAT, PairClass.HYPERBOLIC}
    )
    return witness is None, witness


def first_pair_outside(region, probes, classes):
    """The first probe pair (p, q, PairClass) whose class is not in `classes`.

    Pairs are scanned in itertools.combinations order; None when every
    pair's class is in `classes`. Equal probes are refused before any probe
    is located. Each probe is validated (and given its edge table) once,
    when its first pair comes up, so errors surface as classify_pair would
    raise them pair by pair.
    """
    # keyed on integers: hashing a Fraction costs a modular inverse
    if len({tuple((c.numerator, c.denominator) for c in p.coords)
            for p in probes}) < len(probes):
        raise DegenerateSegmentError("pair endpoints must differ")
    if len(probes) < 2:
        return None
    prepared = [_probe(region, probes[0])]
    for q in probes[1:]:
        prepared.append(_probe(region, q))
        cls = _classify(region, prepared[0], prepared[-1])
        if cls not in classes:
            return probes[0], q, cls
    if type(prepared[0][1]) is tuple:
        hit = _first_outside_by_columns(region, prepared, classes)
        return hit and (probes[hit[0]], probes[hit[1]], hit[2])
    for p_probe, q_probe in itertools.combinations(prepared[1:], 2):
        cls = _classify(region, p_probe, q_probe)
        if cls not in classes:
            return p_probe[0], q_probe[0], cls
    return None


def _bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _columns(masks, n):
    """Per-edge probe columns: bit j of column k is bit k of masks[j]
    (`format`, `zip` and `int` transpose the n-bit masks in C)."""
    strings = [format(mask, f"0{n}b") for mask in reversed(masks)]
    return [int("".join(col), 2) for col in zip(*strings)][::-1]


def _first_outside_by_columns(region, prepared, classes):
    """(i, j, class) of the first pair i >= 1, j > i of prepared probes on
    a hole-free polygon with a class not in `classes`; None if none.

    Column P_k (N_k) holds the probes strictly left (right) of edge k. Row
    i's `across` q's are the OR of N_k over p's left edges and P_k over its
    right ones. Every other q gets `intgeom.side_at` from the columns: P_k /
    N_k inside edge k, P_k and P_k-1 by the turn at vertex k less the q's
    on an incident ray. Only the `across` q's before the first other q
    that stops go, in order, through `_classify`, which draws their sight
    lines."""
    ring, m = region.outer, len(prepared)
    verts, rows, turns = ring._verts, ring._rows, ring._turns
    P = _columns([table[1][0] for _, table in prepared], ring.n)
    N = _columns([table[1][1] for _, table in prepared], ring.n)
    # the edges whose column holds a probe, the only ones `across` visits
    has_left = sum(1 << k for k, col in enumerate(P) if col)
    has_right = sum(1 << k for k, col in enumerate(N) if col)
    for i in range(1, m - 1):
        _, (pp, pn), (k, at_vertex) = prepared[i][1]
        ahead = (1 << m) - (2 << i)  # the q's of row i
        across = 0
        for e in _bits(pp & has_right):
            across |= N[e]
        for e in _bits(pn & has_left):
            across |= P[e]
        across &= ahead
        rest = ahead & ~across
        if not at_vertex:
            plus, minus = P[k] & rest, N[k] & rest
        else:  # the q's on the ray along edge k or back along k-1: boundary
            inner = rest
            for e, sign in ((k, 1), (k - 1, -1)):
                for j in _bits(inner & ~(P[e] | N[e])):
                    d = intgeom.along(rows[e], verts[k], prepared[j][1][0])
                    inner ^= (sign * d >= 0) << j
            wedge = P[k] & P[k - 1] if turns[k] > 0 else P[k] | P[k - 1]
            plus = wedge & inner
            minus = inner & ~plus
        sides = (rest & ~(plus | minus), plus, minus)  # by code 0, 1, -1
        stopping = sum(sides[code] for code, cls in _CLASSES.items()
                       if cls not in classes)
        first = stopping & -stopping
        for j in _bits(across & (first - 1) if first else across):
            cls = _classify(region, prepared[i], prepared[j])
            if cls not in classes:
                return i, j, cls
        if first:
            code = next(code for code in _CLASSES if first & sides[code])
            return i, first.bit_length() - 1, _CLASSES[code]
    return None


def sees(region, p, q):
    """Whether p sees q via the region: the closed segment stays in the set.

    The region must answer `breakpoints`, as for `partition_segment`.
    """
    _breakpoints(region)
    for endpoint in (p, q):
        if not locate_point2(region, endpoint)[1]:
            raise NotAMemberError(f"{endpoint!r} is not a member of the region")
    if p == q:
        return True
    partition = partition_segment(region, Segment(p, q))
    for piece in partition.pieces:
        if piece.location is PointLocation.EXTERIOR:
            return False
        if piece.location is PointLocation.BOUNDARY:
            x = interpolate(p, q, piece.representative())
            if not locate_point2(region, x)[1]:
                return False
    return True


def kernel(polygon):
    """The kernel of a simple polygon as an exact H-polyhedron.

    Intersection of the inner halfplanes of all edge supporting lines;
    empty iff the polygon is not starshaped. Built from the vertex forms
    alone: the visibility oracle, checked against it, reads the edge rows.
    """
    verts, halfspaces = polygon._verts, []
    for (vx, vy, vw), (wx, wy, ww) in zip(verts, verts[1:] + verts[:1]):
        s = vw * ww
        normal = Vector((Q(wy * vw - vy * ww, s), Q(vx * ww - wx * vw, s)))
        halfspaces.append(Halfspace(normal, Q(vx * wy - vy * wx, s)))
    return HPolyhedron(tuple(halfspaces), 2)


def kernel_contains_by_visibility(polygon, x, boundary_samples):
    """Visibility oracle for kernel membership.

    True iff x sees every vertex and every edge point k/m, 0 < k < m, for
    m = `boundary_samples`. Independent of the halfplane construction in
    kernel(); the two must agree on closed polygons (Prop 8).

    The answer is the same at every m >= 1, and only the vertex sight lines
    are drawn, in ring order, up to the first that leaves the polygon. If x
    sees both ends a and b of an edge, the closed curve xa, ab, bx lies in
    the polygon; its complement is connected and unbounded, so it misses
    the inside of that curve, and the triangle xab, with every segment from
    x to a point of ab, lies in the polygon (Jordan curve theorem; Lee and
    Preparata 1979). No edge line's side is read as the answer.
    """
    if boundary_samples < 1:
        raise ValueError("need at least one sample per edge")
    loc, x_h, x_dets, _ = polygon.table(x)
    if loc is PointLocation.EXTERIOR:
        raise NotAMemberError(f"{x!r} is not a member of the polygon")
    x_signs = intgeom.edge_signs(x_dets)
    verts, rows, turns = polygon._verts, polygon._rows, polygon._turns
    return all(
        intgeom.segment_in_polygon(
            verts, rows, turns, x_h, v, x_signs, v_signs, (i, True)
        )
        for i, (v, v_signs) in enumerate(zip(verts, polygon._vertex_tables()[1]))
    )


def kernel_vertices(polygon):
    """The vertices of the polygon's kernel as points in CCW order: one for
    a point, two for a segment, () when the kernel is empty.

    `intgeom.kernel_ring` intersects the cached edge rows in the plane and
    re-checks its answer in integers: the ring against every row, or, for
    an empty kernel, a Farkas certificate of at most three rows.
    """
    ring, _ = intgeom.kernel_ring(polygon._rows)
    return tuple(Point._from_form(v) for v in ring)


def is_starshaped(polygon):
    """True iff the kernel is non-empty."""
    return bool(kernel_vertices(polygon))
