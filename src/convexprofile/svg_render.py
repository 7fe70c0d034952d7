"""Deterministic SVG rendering of 2D instances.

Presentation only: coordinates are rounded to 6 decimals for display and
never feed back into any predicate. Identical (instance, overlays) input
produces a byte-identical document.
"""

from __future__ import annotations

from .core import Q
from .epigraph import Epigraph1D
from .errors import DimensionMismatchError
from .polyhedra import (
    HPolyhedron,
    Halfspace,
    extreme_points,
    is_bounded,
    is_empty,
)
from .core import Vector, ZERO
from .regions2d import (
    Disk,
    DiskComplement,
    PairClass,
    PointedOpenBox,
    PolygonRegion,
)

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
        xmin, ymin, xmax, ymax = (
            float(xmin),
            float(ymin),
            float(xmax),
            float(ymax),
        )
        if xmax <= xmin:
            xmax = xmin + 1.0
        if ymax <= ymin:
            ymax = ymin + 1.0
        span = max(xmax - xmin, ymax - ymin)
        self.scale = (CANVAS - 2 * MARGIN) / span
        self.xmin = xmin - (span - (xmax - xmin)) / 2
        self.ymax = ymax + (span - (ymax - ymin)) / 2

    def map(self, p):
        x = MARGIN + (float(p.coords[0]) - self.xmin) * self.scale
        y = MARGIN + (self.ymax - float(p.coords[1])) * self.scale
        return x, y

    def pt(self, p):
        x, y = self.map(p)
        return f"{_fmt(x)},{_fmt(y)}"


def _bounds_of(instance, extra_points=()):
    pts = list(extra_points)
    if isinstance(instance, PolygonRegion):
        pts.extend(instance.outer.vertices)
    elif isinstance(instance, (Disk, DiskComplement)):
        c, r = instance.center, instance.radius
        xs = (c.coords[0] - r, c.coords[0] + r)
        ys = (c.coords[1] - r, c.coords[1] + r)
        return min(xs), min(ys), max(xs), max(ys)
    elif isinstance(instance, PointedOpenBox):
        return Q(-1, 2), Q(-1, 2), Q(3, 2), Q(3, 2)
    elif isinstance(instance, HPolyhedron):
        pts.extend(_polyhedron_outline(instance))
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

    def half(p):
        dx, dy = p.coords[0] - cx, p.coords[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    import functools

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        ax, ay = a.coords[0] - cx, a.coords[1] - cy
        bx, by = b.coords[0] - cx, b.coords[1] - cy
        cross = ax * by - ay * bx
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return -1 if a.coords < b.coords else (0 if a == b else 1)

    return sorted(points, key=functools.cmp_to_key(cmp))


def _polyhedron_outline(P, box=12):
    """Vertices of P clipped to a display box (unbounded sets get cropped)."""
    if is_empty(P):
        return []
    box = Q(box)
    halfspaces = list(P.halfspaces)
    for j in range(2):
        e = [ZERO] * 2
        e[j] = Q(1)
        halfspaces.append(Halfspace(Vector(e), box))
        e2 = [ZERO] * 2
        e2[j] = Q(-1)
        halfspaces.append(Halfspace(Vector(e2), box))
    clipped = HPolyhedron(tuple(halfspaces), 2)
    return _angular_sort(list(extreme_points(clipped)))


def render_svg(instance, pair_overlays=(), kernel_region=None, extreme_overlay=()):
    """A deterministic SVG document for a 2D instance with overlay layers.

    pair_overlays: iterable of (Point, Point, PairClass) chords.
    kernel_region: an HPolyhedron to shade (or None).
    extreme_overlay: points drawn as dots.
    """
    extra = [p for pair in pair_overlays for p in (pair[0], pair[1])]
    extra.extend(extreme_overlay)
    if kernel_region is not None and not is_empty(kernel_region):
        extra.extend(extreme_points(kernel_region))
    frame = _Frame(*_bounds_of(instance, extra))
    body = []
    body.append(_render_region(instance, frame))
    if kernel_region is not None and not is_empty(kernel_region):
        verts = _angular_sort(list(extreme_points(kernel_region)))
        if len(verts) >= 3:
            pts = " ".join(frame.pt(v) for v in verts)
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


def _render_region(instance, frame):
    if isinstance(instance, PolygonRegion):
        path = []
        for ring in instance.rings():
            coords = [frame.pt(v) for v in ring.vertices]
            path.append("M " + " L ".join(coords) + " Z")
        return (
            f'<path d="{" ".join(path)}" fill="{FILL}" fill-rule="evenodd" '
            f'stroke="{STROKE}" stroke-width="2"/>'
        )
    if isinstance(instance, Disk):
        cx, cy = frame.map(instance.center)
        r = float(instance.radius) * frame.scale
        return (
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{FILL}" stroke="{STROKE}" stroke-width="2"/>'
        )
    if isinstance(instance, DiskComplement):
        cx, cy = frame.map(instance.center)
        r = float(instance.radius) * frame.scale
        return (
            f'<path d="M 0 0 H {CANVAS} V {CANVAS} H 0 Z '
            f"M {_fmt(cx - r)} {_fmt(cy)} "
            f"a {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(2 * r)} 0 "
            f'a {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(-2 * r)} 0 Z" '
            f'fill="{FILL}" fill-rule="evenodd" '
            f'stroke="{STROKE}" stroke-width="2"/>'
        )
    if isinstance(instance, PointedOpenBox):
        corners = PointedOpenBox.CORNERS
        pts = " ".join(frame.pt(c) for c in corners)
        dots = "".join(
            f'<circle cx="{_fmt(frame.map(c)[0])}" cy="{_fmt(frame.map(c)[1])}" '
            f'r="4" fill="{STROKE}"/>'
            for c in corners
        )
        return (
            f'<polygon points="{pts}" fill="{FILL}" fill-opacity="0.5" '
            f'stroke="{STROKE}" stroke-width="2" stroke-dasharray="6 4"/>'
            + dots
        )
    if isinstance(instance, HPolyhedron):
        if instance.dim != 2:
            raise DimensionMismatchError("can only render 2D polyhedra")
        outline = _polyhedron_outline(instance)
        if len(outline) < 3:
            if not outline:
                return "<!-- empty polyhedron -->"
            pts = " ".join(frame.pt(v) for v in outline)
            return (
                f'<polyline points="{pts}" fill="none" stroke="{STROKE}" '
                f'stroke-width="3"/>'
            )
        pts = " ".join(frame.pt(v) for v in outline)
        suffix = "" if is_bounded(instance) else "<!-- cropped to viewport -->"
        return (
            f'<polygon points="{pts}" fill="{FILL}" stroke="{STROKE}" '
            f'stroke-width="2"/>{suffix}'
        )
    if isinstance(instance, Epigraph1D):
        samples = [Q(k, 4) for k in range(-16, 17)]
        pts = " ".join(
            frame.pt(_EpiPoint(x, instance.value(x))) for x in samples
        )
        return (
            f'<polyline points="{pts}" fill="none" stroke="{STROKE}" '
            f'stroke-width="2"/>'
        )
    raise DimensionMismatchError(f"cannot render {type(instance).__name__}")


class _EpiPoint:
    __slots__ = ("coords",)

    def __init__(self, x, y):
        self.coords = (x, y)
