"""Deterministic SVG rendering of 2D instances.

Presentation only: coordinates are rounded to 6 decimals for display and
never feed back into any predicate. Identical (instance, overlays) input
produces a byte-identical document.
"""

from __future__ import annotations

import functools
import math

from .core import Point, Q, ZERO
from .errors import DimensionMismatchError, DisplayRangeError
from .intgeom import _angle_cmp
from .polyhedra import (
    HPolyhedron,
    box_halfspaces,
    extreme_points,
    feasible_point,
    is_bounded,
    is_empty,
)
from .regions2d import PairClass

CANVAS = 800
MARGIN = 60

FILL = "#dbe9f6"
STROKE = "#1f3b57"
KERNEL_FILL = "#ffd8a8"
EXTREME_COLOR = "#d62728"
PAIR_COLORS = {
    PairClass.FLAT: "#1f77b4",
    PairClass.HYPERBOLIC: "#2ca02c",
    PairClass.ELLIPTIC: "#d62728",
    PairClass.MIXED: "#ff7f0e",
}


def _fmt(v):
    return f"{v:.6f}"


class _Frame:
    """Affine map from geometry coordinates to the fixed 800x800 canvas."""

    def __init__(self, xmin, ymin, xmax, ymax):
        # The drawing and the overlays the CLI builds lie within these
        # bounds, so a coordinate past the float range shows here first.
        try:
            xmin, ymin, xmax, ymax = (float(v) for v in (xmin, ymin, xmax, ymax))
        except OverflowError:
            raise DisplayRangeError("a coordinate is too large to draw") from None
        if xmax <= xmin:
            xmax = xmin + 1.0
        if ymax <= ymin:
            ymax = ymin + 1.0
        span = max(xmax - xmin, ymax - ymin)
        self.scale = (CANVAS - 2 * MARGIN) / span
        self.xmin = xmin - (span - (xmax - xmin)) / 2
        self.ymax = ymax + (span - (ymax - ymin)) / 2
        # Each bound is a float, but the span or the centred frame may not be.
        if not all(map(math.isfinite, (span, self.xmin, self.ymax))):
            raise DisplayRangeError("a coordinate is too large to draw")

    def map(self, p):
        x = MARGIN + (float(p.coords[0]) - self.xmin) * self.scale
        y = MARGIN + (self.ymax - float(p.coords[1])) * self.scale
        return x, y

    def pt(self, p):
        x, y = self.map(p)
        return f"{_fmt(x)},{_fmt(y)}"


def _padded_bounds(pts):
    """The bounding box of the points, padded by a tenth of its larger side."""
    if not pts:
        return Q(-1), Q(-1), Q(1), Q(1)
    xs = [p.coords[0] for p in pts]
    ys = [p.coords[1] for p in pts]
    pad = max((max(xs) - min(xs)), (max(ys) - min(ys)), Q(1)) / 10
    return min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad


def _angular_sort(points):
    """CCW order around the centroid using exact orientation comparisons."""
    if len(points) <= 2:
        return list(points)
    cx = sum((p.coords[0] for p in points), ZERO) / len(points)
    cy = sum((p.coords[1] for p in points), ZERO) / len(points)

    def cmp(a, b):
        # by the angle of p - centroid, as `_angle_cmp` orders row normals;
        # both callers pass a convex polygon's vertices, no two at one angle
        return _angle_cmp(*((p.coords[0] - cx, p.coords[1] - cy) for p in (a, b)))

    return sorted(points, key=functools.cmp_to_key(cmp))


def render_svg(instance, pair_overlays=(), kernel_region=(), extreme_overlay=()):
    """A deterministic SVG document for a 2D instance with overlay layers.

    pair_overlays: iterable of (Point, Point, PairClass) chords.
    kernel_region: the kernel's vertices, shaded when there are 3 or more.
    extreme_overlay: points drawn as dots.
    """
    kernel_verts = _angular_sort(list(kernel_region))
    draw = _DRAWINGS.get(getattr(instance, "kind", None))
    if draw is None:
        raise DimensionMismatchError(f"cannot render {type(instance).__name__}")
    overlay = [p for pair in pair_overlays for p in (pair[0], pair[1])]
    overlay += [*extreme_overlay, *kernel_verts]

    def frame_for(bounds=None, points=()):
        return _Frame(*(bounds or _padded_bounds([*overlay, *points])))

    frame, element = draw(instance, frame_for)
    body = [element]
    if len(kernel_verts) >= 3:
        pts = " ".join(frame.pt(v) for v in kernel_verts)
        body.append(
            f'<polygon points="{pts}" fill="{KERNEL_FILL}" '
            f'fill-opacity="0.8" stroke="#b8860b" stroke-width="1.5"/>'
        )
    for p, q, cls in pair_overlays:
        color = PAIR_COLORS[cls]
        x1, y1 = frame.map(p)
        x2, y2 = frame.map(q)
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="2"/>'
        )
    for p in extreme_overlay:
        x, y = frame.map(p)
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" '
            f'fill="{EXTREME_COLOR}"/>'
        )
    content = "\n".join(body)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">\n'
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>\n'
        f"{content}\n"
        "</svg>\n"
    )


def _draw_polygon(polygon, frame_for):
    rings = polygon.rings()
    frame = frame_for(points=rings[0].vertices)
    path = [
        "M " + " L ".join(frame.pt(v) for v in ring.vertices) + " Z"
        for ring in rings
    ]
    return frame, (
        f'<path d="{" ".join(path)}" fill="{FILL}" fill-rule="evenodd" '
        f'stroke="{STROKE}" stroke-width="2"/>'
    )


def _frame_circle(region, frame_for):
    """(frame, cx, cy, r): the circle's bounding box and its canvas circle."""
    (x, y), r = region.center.coords, region.radius
    frame = frame_for((x - r, y - r, x + r, y + r))
    return (frame, *frame.map(region.center), float(r) * frame.scale)


def _draw_disk(disk, frame_for):
    frame, cx, cy, r = _frame_circle(disk, frame_for)
    return frame, (
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
        f'fill="{FILL}" stroke="{STROKE}" stroke-width="2"/>'
    )


def _draw_disk_complement(region, frame_for):
    frame, cx, cy, r = _frame_circle(region, frame_for)
    return frame, (
        f'<path d="M 0 0 H {CANVAS} V {CANVAS} H 0 Z '
        f"M {_fmt(cx - r)} {_fmt(cy)} "
        f"a {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(2 * r)} 0 "
        f'a {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(-2 * r)} 0 Z" '
        f'fill="{FILL}" fill-rule="evenodd" '
        f'stroke="{STROKE}" stroke-width="2"/>'
    )


def _draw_box(box, frame_for):
    frame = frame_for((Q(-1, 2), Q(-1, 2), Q(3, 2), Q(3, 2)))
    pts = " ".join(frame.pt(c) for c in box.CORNERS)
    dots = "".join(
        f'<circle cx="{_fmt(frame.map(c)[0])}" cy="{_fmt(frame.map(c)[1])}" '
        f'r="4" fill="{STROKE}"/>'
        for c in box.CORNERS
    )
    return frame, (
        f'<polygon points="{pts}" fill="{FILL}" fill-opacity="0.5" '
        f'stroke="{STROKE}" stroke-width="2" stroke-dasharray="6 4"/>'
        + dots
    )


def _draw_polyhedron(P, frame_for):
    """P's vertices clipped to the box |x|, |y| <= 12, in CCW order.

    Unbounded sets get cropped; only 2D ones render. A P that misses that
    box is clipped to the least box |x|, |y| <= 2^k holding its member point.
    """
    if P.dim != 2:
        raise DimensionMismatchError("can only render 2D polyhedra")
    points = []
    if not is_empty(P):
        clipped = HPolyhedron((*P.halfspaces, *box_halfspaces(2, Q(12))), 2)
        if is_empty(clipped):
            far = math.ceil(max(abs(c) for c in feasible_point(P).coords))
            box = box_halfspaces(2, Q(1 << (far - 1).bit_length()))
            clipped = HPolyhedron((*P.halfspaces, *box), 2)
        points = _angular_sort(list(extreme_points(clipped)))
    frame = frame_for(points=points)
    if not points:
        return frame, "<!-- empty polyhedron -->"
    pts = " ".join(frame.pt(v) for v in points)
    if len(points) < 3:
        return frame, (
            f'<polyline points="{pts}" fill="none" stroke="{STROKE}" '
            f'stroke-width="3"/>'
        )
    suffix = "" if is_bounded(P) else "<!-- cropped to viewport -->"
    return frame, (
        f'<polygon points="{pts}" fill="{FILL}" stroke="{STROKE}" '
        f'stroke-width="2"/>{suffix}'
    )


def _draw_epigraph(epi, frame_for):
    """The graph sampled at x = -4, -15/4, ..., 4."""
    points = [Point((x, epi.value(x))) for x in (Q(k, 4) for k in range(-16, 17))]
    frame = frame_for(points=points)
    return frame, (
        f'<polyline points="{" ".join(frame.pt(p) for p in points)}" '
        f'fill="none" stroke="{STROKE}" stroke-width="2"/>'
    )


# Each drawable kind -> draw(instance, frame_for) -> (frame, its SVG element).
# A kind frames itself through frame_for: by fixed bounds, which overlays do
# not move, or by the points it draws together with every overlay point.
_DRAWINGS = {
    "polygon": _draw_polygon,
    "disk": _draw_disk,
    "disk-complement": _draw_disk_complement,
    "pointed-open-box": _draw_box,
    "h-polyhedron": _draw_polyhedron,
    "epigraph1d": _draw_epigraph,
}
