"""Exact integer predicates for the planar hot paths.

Rational polygon vertices are cleared to a common denominator once; after
that every predicate is pure big-integer arithmetic (no divisions), so the
results are exact. Query points travel in homogeneous form (x, y, w) with
w > 0; integer vertices are the special case w = 1.

Each query point touches the polygon's edges once: `edge_dets` gives its
table of edge determinants det(e_k, e_k+1, h), one linear form per edge
because the vertices have w = 1. The table's signs say on which side of
every edge line the point lies. Point location, sight-line tests and
midpoint location all read the tables of their points instead of calling
`orient` per edge; a midpoint's table is a combination of its endpoints'
tables, since det is linear in its third argument.

These functions back the high-volume operations (point-in-polygon,
visibility) and leave degenerate queries (vertex touches, collinear
overlaps) to the rational partition machinery.
"""

from __future__ import annotations

import math


def clear_denominators(points):
    """(integer (x, y) pairs, common multiplier L) for rational 2D points."""
    denoms = []
    for p in points:
        for c in p.coords:
            denoms.append(int(c.denominator))
    L = 1
    for d in denoms:
        L = L * d // math.gcd(L, d)
    scaled = []
    for p in points:
        x, y = p.coords
        scaled.append(
            (
                int(x.numerator) * (L // int(x.denominator)),
                int(y.numerator) * (L // int(y.denominator)),
            )
        )
    return scaled, L


def homogenize(point, L):
    """Homogeneous integer triple (x, y, w), w > 0, for point * L."""
    x, y = point.coords
    xn, xd = int(x.numerator), int(x.denominator)
    yn, yd = int(y.numerator), int(y.denominator)
    w = xd * yd // math.gcd(xd, yd)
    return (xn * L * (w // xd), yn * L * (w // yd), w)


def orient(p, q, r):
    """Orientation sign of the homogeneous triple (all w > 0)."""
    px, py, pw = p
    qx, qy, qw = q
    rx, ry, rw = r
    det = (
        px * (qy * rw - ry * qw)
        - py * (qx * rw - rx * qw)
        + pw * (qx * ry - rx * qy)
    )
    return (det > 0) - (det < 0)


def as_h(v):
    """Lift an integer pair to a homogeneous triple."""
    return (v[0], v[1], 1)


def strictly_between(p, a, b):
    """Whether collinear p lies strictly inside segment (a, b); all homogeneous."""
    if a[0] * b[2] != b[0] * a[2]:  # compare on x
        lo, hi = (a, b) if a[0] * b[2] < b[0] * a[2] else (b, a)
        return lo[0] * p[2] < p[0] * lo[2] and p[0] * hi[2] < hi[0] * p[2]
    lo, hi = (a, b) if a[1] * b[2] < b[1] * a[2] else (b, a)
    return lo[1] * p[2] < p[1] * lo[2] and p[1] * hi[2] < hi[1] * p[2]


def _edges(verts):
    """The ring's directed edges as ((ax, ay), (bx, by)) pairs."""
    return zip(verts, verts[1:] + verts[:1])


def edge_dets(verts, h):
    """The table of det(e_k, e_k+1, h) over the ring's edges, for homogeneous h.

    With w = 1 vertices a -> b the determinant is the linear form
    w * (ax * by - ay * bx) + x * (ay - by) + y * (bx - ax): positive when h
    lies strictly left of the edge, zero on its supporting line.
    """
    x, y, w = h
    return [
        w * (ax * by - ay * bx) + x * (ay - by) + y * (bx - ax)
        for (ax, ay), (bx, by) in _edges(verts)
    ]


def _locate(verts, h, dets):
    """-1 exterior / 0 boundary / +1 interior for h with edge table `dets`.

    Parity by the half-open crossing rule on the ray to +x: an upward edge
    counts when h is strictly left of it, a downward one when strictly right.
    """
    x, y, w = h
    inside = False
    for ((ax, ay), (bx, by)), d in zip(_edges(verts), dets):
        if d == 0:  # on the edge's line: on the closed edge?
            if ax != bx:
                if min(ax, bx) * w <= x <= max(ax, bx) * w:
                    return 0
            elif min(ay, by) * w <= y <= max(ay, by) * w:
                return 0
        a_above = ay * w > y
        if a_above != (by * w > y) and (d < 0 if a_above else d > 0):
            inside = not inside
    return 1 if inside else -1


def point_in_polygon(q, verts, dets):
    """-1 exterior / 0 boundary / +1 interior for homogeneous q.

    `verts` are integer pairs of a simple polygon and `dets` is q's
    `edge_dets` table. Fully exact.
    """
    return _locate(verts, q, dets)


def sight_blocked(verts, x_h, t_h, x_dets, t_dets):
    """Visibility of t from x inside a simple polygon (both homogeneous).

    `x_dets` and `t_dets` are the endpoints' `edge_dets` tables. Returns
    True when an edge properly crosses the open sight segment, False when
    the open segment is free of boundary contact (the caller then
    classifies the single piece by its midpoint), and None when a
    degenerate contact (vertex inside the open segment) requires the exact
    rational partition fallback.

    An edge can cross the segment only if x and t lie strictly on opposite
    sides of its line, and a vertex v_k can lie inside the open segment only
    if they do so for edge k or both lie on its line. Only those edges look
    at the sight line, whose side of a w = 1 vertex v is the linear form
    A * vx + B * vy + C = det(x, t, v).
    """
    xx, xy, xw = x_h
    tx, ty, tw = t_h
    A = xy * tw - xw * ty
    B = xw * tx - xx * tw
    C = xx * ty - xy * tx
    degenerate = False
    n = len(verts)
    for i, (d1, d2) in enumerate(zip(x_dets, t_dets)):
        if d1 > 0:
            if d2 >= 0:
                continue
        elif d1 < 0:
            if d2 <= 0:
                continue
        elif d2 != 0:
            continue
        ax, ay = verts[i]
        o3 = A * ax + B * ay + C
        if o3 == 0 and strictly_between(as_h(verts[i]), x_h, t_h):
            degenerate = True
        if d1 != 0:
            bx, by = verts[(i + 1) % n]
            o4 = A * bx + B * by + C
            if (o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0):
                return True
    return None if degenerate else False


def midpoint_h(p, q):
    """Homogeneous midpoint of two homogeneous points."""
    return (
        p[0] * q[2] + q[0] * p[2],
        p[1] * q[2] + q[1] * p[2],
        2 * p[2] * q[2],
    )


def midpoint_in_polygon(verts, x_h, t_h, x_dets, t_dets):
    """`point_in_polygon` of the midpoint of x and t, from their tables.

    The midpoint is t_w * x + x_w * t, so its table is
    t_w * x_dets + x_w * t_dets.
    """
    xw, tw = x_h[2], t_h[2]
    return _locate(
        verts,
        midpoint_h(x_h, t_h),
        [tw * a + xw * b for a, b in zip(x_dets, t_dets)],
    )


def segment_in_polygon(verts, x_h, t_h, x_dets, t_dets):
    """Whether the closed segment [x, t] stays inside the closed polygon.

    Both endpoints must already be members; `x_dets` and `t_dets` are their
    `edge_dets` tables. Returns True/False, or None when the query needs
    the rational partition fallback.
    """
    blocked = sight_blocked(verts, x_h, t_h, x_dets, t_dets)
    if blocked is True:
        return False
    if blocked is None:
        return None
    return midpoint_in_polygon(verts, x_h, t_h, x_dets, t_dets) >= 0
