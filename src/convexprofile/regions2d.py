"""Possibly non-convex planar regions with exact point location.

Home of the boundary-pair trichotomy (flat / hyperbolic / elliptic, plus
Mixed for everything else), convexity-by-pairs, starshapedness, and
kernels. All decisions are exact: polygon predicates run on
denominator-cleared integers, circle crossings either land on rationals or
are bracketed between certified rational parameters.

The region protocol. A region kind (PolygonRegion, Disk, DiskComplement,
PointedOpenBox here, and polyhedra.HPolyhedron in any dimension) has a
`dim` and answers three questions; every function below works through them
and holds no per-kind code:

- `locate2(x)` -> (PointLocation, membership) of a point of E^dim;
- `breakpoints(a, b)` -> (sorted exact parameters in (0,1), brackets): the
  parameters where the segment a + t(b - a) may change location, and
  (lo, hi) rational intervals each holding one irrational boundary crossing;
- `boundary_probes(density)` -> a finite list of boundary points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from . import intgeom
from .core import (
    Point,
    Q,
    Segment,
    Vector,
    ZERO,
    cross2,
    interpolate,
    orientation,
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
from .polyhedra import Halfspace, HPolyhedron, PointLocation, is_empty

BRACKET_WIDTH = Q(1, 2**20)


class SimplePolygon:
    """A simple polygon with CCW rational vertices.

    Invariants enforced at construction: at least three vertices, strictly
    positive signed area, no three consecutive collinear vertices, no
    self-intersection.
    """

    __slots__ = ("vertices", "_ivertices", "_scale")

    def __init__(self, vertices):
        vs = tuple(v if isinstance(v, Point) else Point(v) for v in vertices)
        if len(vs) < 3:
            raise InvalidPolygonError("a polygon needs at least 3 vertices")
        for v in vs:
            if v.dim != 2:
                raise DimensionMismatchError("polygon vertices must be 2D")
        n = len(vs)
        for i in range(n):
            if vs[i] == vs[(i + 1) % n]:
                raise InvalidPolygonError("repeated consecutive vertex")
            if orientation(vs[i - 1], vs[i], vs[(i + 1) % n]) == 0:
                raise InvalidPolygonError(
                    "three consecutive collinear vertices"
                )
        area2 = sum(
            (cross2(Vector(vs[i].coords), Vector(vs[(i + 1) % n].coords))
             for i in range(n)),
            ZERO,
        )
        if area2 == 0:
            raise InvalidPolygonError("degenerate polygon (zero area)")
        if area2 < 0:
            raise InvalidPolygonError("vertices must be counterclockwise")
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_touch(
                    vs[i], vs[(i + 1) % n], vs[j], vs[(j + 1) % n]
                ):
                    raise InvalidPolygonError("polygon edges intersect")
        self.vertices = vs
        self._ivertices, self._scale = intgeom.clear_denominators(vs)

    @property
    def n(self):
        return len(self.vertices)

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def signed_area(self):
        vs = self.vertices
        twice = sum(
            (cross2(Vector(vs[i].coords), Vector(vs[(i + 1) % len(vs)].coords))
             for i in range(len(vs))),
            ZERO,
        )
        return twice / 2

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

    def locate(self, x):
        code = intgeom.point_in_polygon(
            intgeom.homogenize(x, self._scale), self._ivertices
        )
        if code == 0:
            return PointLocation.BOUNDARY
        return PointLocation.INTERIOR if code > 0 else PointLocation.EXTERIOR

    def __eq__(self, other):
        return (
            isinstance(other, SimplePolygon) and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"SimplePolygon({list(self.vertices)!r})"


def _segments_touch(a, b, c, d):
    """Whether closed segments [a,b] and [c,d] share any point (exact)."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    for p, u, v, o in ((c, a, b, o1), (d, a, b, o2), (a, c, d, o3), (b, c, d, o4)):
        if o == 0 and _collinear_on(p, u, v):
            return True
    return False


def _collinear_on(p, a, b):
    """p (known collinear with a,b) lies on the closed segment [a,b]."""
    ax, ay = a.coords
    bx, by = b.coords
    px, py = p.coords
    if ax != bx:
        lo, hi = (ax, bx) if ax < bx else (bx, ax)
        return lo <= px <= hi
    lo, hi = (ay, by) if ay < by else (by, ay)
    return lo <= py <= hi


class PolygonRegion:
    """A closed polygon with optional holes (holes strictly inside, disjoint)."""

    kind = "polygon"
    dim = 2

    __slots__ = ("outer", "holes")

    def __init__(self, outer, holes=()):
        self.outer = outer
        self.holes = tuple(holes)
        for h in self.holes:
            for v in h.vertices:
                if self.outer.locate(v) is not PointLocation.INTERIOR:
                    raise InvalidRegionError("hole must be strictly inside")
            for e1 in h.edges():
                for e2 in self.outer.edges():
                    if _segments_touch(e1[0], e1[1], e2[0], e2[1]):
                        raise InvalidRegionError("hole touches the outer ring")
        for h1, h2 in itertools.combinations(self.holes, 2):
            for e1 in h1.edges():
                for e2 in h2.edges():
                    if _segments_touch(e1[0], e1[1], e2[0], e2[1]):
                        raise InvalidRegionError("holes touch each other")
            if h1.locate(h2.vertices[0]) is not PointLocation.EXTERIOR:
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
        return _polyline_breakpoints(edges, a, b), []

    def boundary_probes(self, density):
        """Every ring's vertices and edge midpoints, ring by ring."""
        pts = []
        seen = set()
        for ring in self.rings():
            for a, b in ring.edges():
                for cand in (a, interpolate(a, b, Q(1, 2))):
                    if cand.coords not in seen:
                        seen.add(cand.coords)
                        pts.append(cand)
        return pts


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

    def breakpoints(self, a, b):
        return _circle_breakpoints(self.center, self.radius, a, b)

    def boundary_probes(self, density):
        return circle_points(self.center, self.radius, density)


class Disk(_Circle):
    """The closed disk {x : |x - center| <= radius}."""

    kind = "disk"
    SIDES = {
        -1: (PointLocation.INTERIOR, True),
        0: (PointLocation.BOUNDARY, True),
        1: (PointLocation.EXTERIOR, False),
    }

    __slots__ = ()


class DiskComplement(_Circle):
    """The open exterior {x : |x - center| > radius} of a closed disk."""

    kind = "disk-complement"
    SIDES = {
        -1: (PointLocation.EXTERIOR, False),
        0: (PointLocation.BOUNDARY, False),
        1: (PointLocation.INTERIOR, True),
    }

    __slots__ = ()


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

    def locate2(self, x):
        xv, yv = x.coords
        if 0 < xv < 1 and 0 < yv < 1:
            return PointLocation.INTERIOR, True
        on_frame = (
            (xv == 0 or xv == 1) and 0 <= yv <= 1
        ) or ((yv == 0 or yv == 1) and 0 <= xv <= 1)
        if on_frame:
            is_corner = xv in (ZERO, Q(1)) and yv in (ZERO, Q(1))
            return PointLocation.BOUNDARY, bool(is_corner)
        return PointLocation.EXTERIOR, False

    def breakpoints(self, a, b):
        c = self.CORNERS
        frame = [(c[i], c[(i + 1) % 4]) for i in range(4)]
        return _polyline_breakpoints(frame, a, b), []

    def boundary_probes(self, density):
        return list(self.CORNERS)


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

    lo == hi encodes a single parameter point. location None marks a
    bracketed irrational boundary crossing: the open interval (lo, hi)
    contains exactly one boundary point, and lo / hi are certified to lie
    in the regions of the adjacent pieces.

    Pieces are maximal: a breakpoint whose location matches an adjacent
    piece is absorbed by it (that endpoint belongs to the piece); a
    breakpoint whose location differs from both neighbors stays as its
    own single-parameter piece.
    """

    lo: object
    hi: object
    location: PointLocation | None

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

    def has_bracket(self):
        return any(p.location is None for p in self.pieces)


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


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None if irrational."""
    num = int(q.numerator)
    den = int(q.denominator)
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return Q(rn, rd)


def _circle_breakpoints(center, radius, a, b):
    """(exact rational crossing params, irrational-root brackets) in (0,1).

    The segment is a + t(b - a); crossings are roots of a rational
    quadratic. A double root is always rational; a pair of irrational
    roots is bracketed between rationals with certified signs.
    """
    d = b - a
    w = a - center
    qa = d.dot(d)
    qb = 2 * d.dot(Vector(w.coords))
    qc = Vector(w.coords).dot(Vector(w.coords)) - radius * radius

    def f(t):
        return (qa * t + qb) * t + qc

    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return [], []
    if disc == 0:
        t = -qb / (2 * qa)
        return ([t] if 0 < t < 1 else []), []
    s = _rational_sqrt(disc)
    if s is not None:
        r1 = (-qb - s) / (2 * qa)
        r2 = (-qb + s) / (2 * qa)
        return sorted(t for t in (r1, r2) if 0 < t < 1), []
    # Irrational conjugate pair: the vertex separates the two roots and the
    # quadratic cannot vanish at any rational parameter.
    m = -qb / (2 * qa)
    samples = [ZERO, Q(1)]
    if 0 < m < 1:
        samples = [ZERO, m, Q(1)]
    brackets = []
    for lo, hi in zip(samples, samples[1:]):
        flo, fhi = f(lo), f(hi)
        if flo == 0 or fhi == 0:
            raise CertificateError("irrational roots vanished at a rational")
        if (flo > 0) == (fhi > 0):
            continue
        want = flo > 0
        while hi - lo > BRACKET_WIDTH or lo == 0 or hi == 1:
            mid = (lo + hi) / 2
            fm = f(mid)
            if fm == 0:
                raise CertificateError("irrational roots vanished at a rational")
            if (fm > 0) == want:
                lo = mid
            else:
                hi = mid
        brackets.append((lo, hi))
    return [], brackets


def partition_segment(region, seg):
    """Exact decomposition of the open segment by region location.

    Pieces cover (0,1) in order; adjacent pieces never share a location.
    Circle crossings at irrational parameters appear as location-None
    bracket pieces (see SegmentPiece).
    """
    if isinstance(seg, Segment):
        a, b = seg.a, seg.b
    else:
        a, b = seg
        seg = Segment(a, b)
    if a == b:
        raise DegenerateSegmentError("cannot partition a degenerate segment")
    if a.dim != region.dim:
        raise DimensionMismatchError(f"segment must be {region.dim}D")

    exact, brackets = region.breakpoints(a, b)
    events = [("point", t, t) for t in exact]
    events.extend(("bracket", lo, hi) for lo, hi in brackets)
    events.sort(key=lambda e: e[1])

    def loc_at(t):
        return region.locate2(interpolate(a, b, t))[0]

    raw = []
    cursor = ZERO
    for kindname, lo, hi in events:
        if lo > cursor:
            raw.append(SegmentPiece(cursor, lo, loc_at((cursor + lo) / 2)))
        if kindname == "point":
            raw.append(SegmentPiece(lo, lo, loc_at(lo)))
            cursor = lo
        else:
            raw.append(SegmentPiece(lo, hi, None))
            cursor = hi
    if cursor < 1:
        raw.append(SegmentPiece(cursor, Q(1), loc_at((cursor + 1) / 2)))

    merged = []
    for piece in raw:
        if (
            merged
            and piece.location is not None
            and merged[-1].location is piece.location
        ):
            merged[-1] = SegmentPiece(
                merged[-1].lo, piece.hi, piece.location
            )
        else:
            merged.append(piece)
    return SegmentPartition(seg, tuple(merged))


class PairClass(Enum):
    FLAT = "flat"
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    MIXED = "mixed"


def classify_pair(region, p, q):
    """The trichotomy class of a boundary pair, or Mixed.

    Flat: the open segment lies in the boundary. Hyperbolic: in the
    interior. Elliptic: in the complement of the set (membership, so for
    non-closed variants boundary non-members count as complement). Mixed:
    anything else. Both endpoints must be boundary points.
    """
    if p == q:
        raise DegenerateSegmentError("pair endpoints must differ")
    for endpoint in (p, q):
        loc, _ = locate_point2(region, endpoint)
        if loc is not PointLocation.BOUNDARY:
            raise NotOnBoundaryError(f"{endpoint!r} is not a boundary point")

    fast = _classify_polygon_fast(region, p, q)
    if fast is not None:
        return fast

    partition = partition_segment(region, Segment(p, q))
    return _classify_from_partition(region, partition)


def _classify_from_partition(region, partition):
    if partition.has_bracket():
        # A bracketed crossing has interior points on one side and
        # exterior on the other, plus the boundary point itself.
        return PairClass.MIXED
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


def _classify_polygon_fast(region, p, q):
    """Integer fast path for hole-free closed polygons; None = fall back."""
    if not isinstance(region, PolygonRegion) or region.holes:
        return None
    poly = region.outer
    p_h = intgeom.homogenize(p, poly._scale)
    q_h = intgeom.homogenize(q, poly._scale)
    blocked = intgeom.sight_blocked(poly._ivertices, p_h, q_h)
    if blocked is True:
        return PairClass.MIXED
    if blocked is None:
        return None
    mid = intgeom.midpoint_h(p_h, q_h)
    code = intgeom.point_in_polygon(mid, poly._ivertices)
    # No crossing and no vertex inside the open segment: one uniform piece.
    # A boundary midpoint can then only mean collinear containment in an
    # edge, so the whole open segment lies in the boundary.
    if code > 0:
        return PairClass.HYPERBOLIC
    if code < 0:
        return PairClass.ELLIPTIC
    return PairClass.FLAT


def convexity_oracle(polygon):
    """Classical convex-polygon test: all vertex turns share one sign."""
    vs = polygon.vertices
    n = len(vs)
    signs = {
        int(orientation(vs[i - 1], vs[i], vs[(i + 1) % n])) for i in range(n)
    }
    return signs == {1} or signs == {-1}


def boundary_probe_points(region, density=16):
    """Finite boundary probe set used by the pair-based convexity test."""
    return region.boundary_probes(density)


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
    probes = boundary_probe_points(region, probe_density)
    witness = first_pair_outside(
        region, probes, {PairClass.FLAT, PairClass.HYPERBOLIC}
    )
    return witness is None, witness


def first_pair_outside(region, probes, classes):
    """The first probe pair (p, q, PairClass) whose class is not in `classes`.

    Pairs are scanned in itertools.combinations order; None when every
    pair's class is in `classes`.
    """
    for p, q in itertools.combinations(probes, 2):
        cls = classify_pair(region, p, q)
        if cls not in classes:
            return p, q, cls
    return None


def sees(region, p, q):
    """Whether p sees q via the region: the closed segment stays in the set."""
    for endpoint in (p, q):
        if not locate_point2(region, endpoint)[1]:
            raise NotAMemberError(f"{endpoint!r} is not a member of the region")
    if p == q:
        return True
    partition = partition_segment(region, Segment(p, q))
    if partition.has_bracket():
        return False
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
    empty iff the polygon is not starshaped.
    """
    halfspaces = []
    for v, w in polygon.edges():
        d = w - v
        normal = Vector((d.coords[1], -d.coords[0]))
        offset = d.coords[1] * v.coords[0] - d.coords[0] * v.coords[1]
        halfspaces.append(Halfspace(normal, offset))
    return HPolyhedron(tuple(halfspaces), 2)


def kernel_contains_by_visibility(polygon, x, boundary_samples):
    """Visibility oracle for kernel membership.

    True iff x sees every vertex and every sampled edge point (rational
    parameters k/m along each edge). Independent of the halfplane
    construction in kernel(); the two must agree on closed polygons.
    """
    if boundary_samples < 1:
        raise ValueError("need at least one sample per edge")
    loc = polygon.locate(x)
    if loc is PointLocation.EXTERIOR:
        raise NotAMemberError(f"{x!r} is not a member of the polygon")
    m = boundary_samples
    region = PolygonRegion(polygon)
    verts = polygon._ivertices
    scale = polygon._scale
    x_h = intgeom.homogenize(x, scale)
    nverts = len(verts)
    for i in range(nverts):
        vx, vy = verts[i]
        wx, wy = verts[(i + 1) % nverts]
        for k in range(m):
            t_h = (
                (m - k) * vx + k * wx,
                (m - k) * vy + k * wy,
                m,
            )
            inside = intgeom.segment_in_polygon(verts, x_h, t_h)
            if inside is None:
                target = interpolate(
                    polygon.vertices[i],
                    polygon.vertices[(i + 1) % nverts],
                    Q(k, m),
                )
                inside = sees(region, x, target)
            if not inside:
                return False
    return True


def is_starshaped(polygon):
    """True iff the kernel is non-empty."""
    return not is_empty(kernel(polygon))
