"""Seeded random instance generators for the property harness.

Everything is driven by a caller-supplied random.Random so identical seeds
reproduce identical instances byte for byte. Coordinates are rationals
with small denominators (exact arithmetic stays cheap).
"""

from __future__ import annotations

import random

from . import intgeom
from .core import (Point, Q, Vector, ZERO, _cleared, _primitive, interpolate,
                   midpoint, orientation)
from .errors import GeneratorExhaustedError, InvalidPolygonError
from .polyhedra import Halfspace, HPolyhedron, PointLocation, box_halfspaces
from .regions2d import SimplePolygon, convexity_oracle

_DENOMS = (1, 2, 4, 8, 16, 32, 64)

# Draws a polygon generator makes before it gives up: far above any
# seeded run's, so a broken predicate (say, an orientation of the wrong
# sign, which no hull passes) fails fast instead of looping forever.
ATTEMPTS = 1000


def rng_from_seed(seed):
    return random.Random(seed)


def random_rational(rng):
    """A rational in [-8, 8] with a denominator from _DENOMS."""
    den = rng.choice(_DENOMS)
    return Q(rng.randint(-8 * den, 8 * den), den)


def random_point2(rng):
    return Point((random_rational(rng), random_rational(rng)))


def _nonzero_vector(rng, dim, r):
    """A nonzero integer vector with coordinates drawn from [-r, r]."""
    coords = [ZERO] * dim
    while all(c == 0 for c in coords):
        coords = [Q(rng.randint(-r, r)) for _ in range(dim)]
    return Vector(coords)


def _convex_hull_ccw(points):
    """Exact 2D convex hull (monotone chain), strict turns only."""
    pts = sorted(set(p.coords for p in points))
    pts = [Point(c) for c in pts]
    if len(pts) < 3:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_convex_polygon(rng, max_vertices=10):
    """Hull of k random rational points; retries until a valid polygon."""
    for _ in range(ATTEMPTS):
        k = rng.randint(3, max_vertices)
        pts = [random_point2(rng) for _ in range(k)]
        hull = _convex_hull_ccw(pts)
        if len(hull) < 3:
            continue
        try:
            return SimplePolygon(hull)
        except InvalidPolygonError:
            continue
    raise GeneratorExhaustedError(f"no convex polygon in {ATTEMPTS} draws")


def random_staircase_polygon(rng):
    """Orthogonal skyline polygon: 2 to 5 columns with distinct adjacent
    heights, on a grid of quarters."""
    for _ in range(ATTEMPTS):
        k = rng.randint(2, 5)
        xs = [ZERO]
        for _ in range(k):
            xs.append(xs[-1] + Q(rng.randint(1, 4 * 4), 4))
        heights = []
        for _ in range(k):
            h = Q(rng.randint(1, 6 * 4), 4)
            while heights and h == heights[-1]:
                h = Q(rng.randint(1, 6 * 4), 4)
            heights.append(h)
        verts = [Point((xs[0], ZERO)), Point((xs[-1], ZERO))]
        for i in range(k - 1, -1, -1):
            verts.append(Point((xs[i + 1], heights[i])))
            verts.append(Point((xs[i], heights[i])))
        # drop duplicated corner x-positions where adjacent columns meet
        cleaned = [verts[0]]
        for v in verts[1:]:
            if v != cleaned[-1]:
                cleaned.append(v)
        if cleaned[-1] == cleaned[0]:
            cleaned.pop()
        try:
            return SimplePolygon(cleaned)
        except InvalidPolygonError:
            continue
    raise GeneratorExhaustedError(f"no skyline polygon in {ATTEMPTS} draws")


def random_notched_polygon(rng, max_vertices=9):
    """Convex polygon with one edge dented toward the centroid (one reflex)."""
    for _ in range(ATTEMPTS):
        convex = random_convex_polygon(rng, max_vertices)
        vs = list(convex.vertices)
        n = len(vs)
        i = rng.randrange(n)
        a, b = vs[i], vs[(i + 1) % n]
        g = convex.centroid()
        depth = Q(rng.randint(1, 3), 4)
        c = interpolate(midpoint(a, b), g, depth)
        candidate = vs[: i + 1] + [c] + vs[i + 1 :]
        try:
            poly = SimplePolygon(candidate)
        except InvalidPolygonError:
            continue
        if not convexity_oracle(poly):
            return poly
    raise GeneratorExhaustedError(f"no notched polygon in {ATTEMPTS} draws")


def random_simple_polygon(rng, max_vertices=10):
    """Mixed diet: convex hulls, skylines, and notched convex polygons."""
    kind = rng.randrange(4)
    if kind <= 1:
        return random_convex_polygon(rng, max_vertices)
    if kind == 2:
        return random_staircase_polygon(rng)
    return random_notched_polygon(rng, max_vertices=min(max_vertices, 9))


def random_hpolyhedron(rng, dim=2):
    """Random non-empty H-polyhedron of 1 to 12 cuts, boxed 40% of the time;
    mixes pointed, lineal, and bounded shapes.

    A feasible anchor point is drawn first and every cut keeps positive
    slack at the anchor, so emptiness never needs retrying.
    """
    anchor = Point([Q(rng.randint(-4 * 8, 4 * 8), 8) for _ in range(dim)])
    k = rng.randint(1, 12)
    halfspaces = []
    for _ in range(k):
        normal = _nonzero_vector(rng, dim, 4)
        slack = Q(rng.randint(0, 24), 4)
        halfspaces.append(Halfspace(normal, normal.dot(Vector(anchor.coords)) + slack))
    if rng.random() < 0.4:  # force boundedness with a box
        halfspaces += box_halfspaces(dim, Q(rng.randint(6, 12)))
    return HPolyhedron(tuple(halfspaces), dim)


def random_bounded_polytope(rng, dim=2):
    """Non-empty bounded polytope: a box plus 0 to 4 random cuts through an
    anchor."""
    halfspaces = box_halfspaces(dim, Q(rng.randint(4, 8)))
    anchor = Point(
        [Q(rng.randint(-2 * 4, 2 * 4), 4) for _ in range(dim)]
    )
    for _ in range(rng.randint(0, 4)):
        normal = _nonzero_vector(rng, dim, 3)
        slack = Q(rng.randint(1, 16), 4)
        halfspaces.append(
            Halfspace(normal, normal.dot(Vector(anchor.coords)) + slack)
        )
    return HPolyhedron(tuple(halfspaces), dim)


def random_direction(rng, dim):
    return _nonzero_vector(rng, dim, 5)


def sample_member_points(polygon, rng, count):
    """Deterministic member samples of a simple polygon.

    Rejection sampling from the bounding box, topped up with inward-nudged
    edge midpoints when the polygon is thin. Each draw is located as its
    integer form; a `Point` is built only for an accepted one.
    """
    (x0, y0, x1, y1), d = _cleared(polygon.bounding_box())
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 40:
        attempts += 1
        # the form of (xmin + (xmax - xmin) i / 256, ymin + (ymax - ymin) j / 256)
        h = _primitive((256 * x0 + (x1 - x0) * rng.randint(0, 256),
                        256 * y0 + (y1 - y0) * rng.randint(0, 256), 256 * d))
        dets = intgeom.edge_dets(polygon._rows, h)
        if intgeom.point_in_polygon(h, polygon._verts, dets)[0] >= 0:
            out.append(Point._from_form(h))
    edges = polygon.edges()
    i = 0
    while len(out) < count:
        a, b = edges[i % len(edges)]
        m = midpoint(a, b)
        eps = Q(1, 8)
        d = b - a
        inward = Vector((-d.coords[1], d.coords[0]))
        cand = Point(
            (m.coords[0] + inward.coords[0] * eps,
             m.coords[1] + inward.coords[1] * eps)
        )
        while polygon.locate(cand) is PointLocation.EXTERIOR and eps > Q(1, 2**20):
            eps /= 4
            cand = Point(
                (m.coords[0] + inward.coords[0] * eps,
                 m.coords[1] + inward.coords[1] * eps)
            )
        out.append(cand if polygon.locate(cand) is not PointLocation.EXTERIOR else m)
        i += 1
    return out[:count]
