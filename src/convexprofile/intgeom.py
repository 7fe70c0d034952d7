"""Exact integer predicates for the planar hot paths.

Every point travels in its own primitive homogeneous form (x, y, w), w > 0,
and every ring edge as its cached primitive line row (a, b, c); with no
ring-wide denominator a predicate's bit size is bounded by its own inputs
(Fortune and Van Wyk 1996). a * x + b * y + c * w > 0 when (x, y, w) lies
strictly left of the edge, whose direction is (b, -a). Every predicate is
pure integer arithmetic (no divisions), so the results are exact.

Each query point touches the polygon's edges once: `edge_dets` gives its
table a * x + b * y + c * w over the edge rows, and `edge_signs` packs the
table's signs, which say on which side of every edge line the point lies,
into two bit masks. Point location reads the table; sight-line tests read
the masks of their endpoints instead of calling `orient` per edge, so a
sight line costs a few mask operations plus one linear form per edge that
can meet it.

A sight line runs from a boundary point t, whose site is the edge or
vertex that holds it, to a point x. Once `sight_blocked` has shown that no
edge crosses the open segment, the vertices it finds strictly inside cut
the segment into pieces t..v1, v1..v2, ..., vj..x, each free of boundary
contact. `side_at` reads a piece's location in O(1) from x's masks at the
piece's start site and the ring's vertex turns: the local wedge test at a
boundary point of exact visibility-polygon algorithms (Lee 1983; Joe and
Simpson 1987). Every sight-line query on a simple polygon is decided here,
in integers, vertex contacts and collinear overlaps included.

A second rule says when no sight line is needed: on a ring with no three
consecutive collinear vertices an edge properly crosses the open segment
(x, t), or a vertex lies strictly inside it, only if an edge line strictly
separates x from t (for a vertex, that of an incident edge not along it).
When `(xp & tn) | (xn & tp)` is 0, `segment_in_polygon` is `side_at` at
t's site. The pair scan draws a sight line only when it is not 0; so does
the kernel oracle for edge samples, after returning False at the first edge
whose line has x strictly right (its first interior sample fails there).
"""

from __future__ import annotations

import math

from .core import _cleared


def homogenize(point):
    """The primitive integer form (x, y, w), w > 0, of a 2D point: w is the
    lcm of its denominators, so equal points have equal forms."""
    (x, y), w = _cleared(point.coords)
    return x, y, w


def edge_rows(verts):
    """The primitive line rows (a, b, c) of the ring's directed edges: the
    cross product of vertex forms k and k + 1 divided by its gcd."""
    rows = []
    for (ax, ay, aw), (bx, by, bw) in zip(verts, verts[1:] + verts[:1]):
        a, b, c = ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx
        g = math.gcd(a, b, c)
        rows.append((a // g, b // g, c // g))
    return rows


def midpoint(a, b):
    """The primitive form of the midpoint of point forms a and b."""
    (ax, ay, aw), (bx, by, bw) = a, b
    x, y, w = ax * bw + bx * aw, ay * bw + by * aw, 2 * aw * bw
    g = math.gcd(x, y, w)
    return x // g, y // g, w // g


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


def strictly_between(p, a, b):
    """Whether collinear p lies strictly inside segment (a, b); all homogeneous."""
    if a[0] * b[2] != b[0] * a[2]:  # compare on x
        lo, hi = (a, b) if a[0] * b[2] < b[0] * a[2] else (b, a)
        return lo[0] * p[2] < p[0] * lo[2] and p[0] * hi[2] < hi[0] * p[2]
    lo, hi = (a, b) if a[1] * b[2] < b[1] * a[2] else (b, a)
    return lo[1] * p[2] < p[1] * lo[2] and p[1] * hi[2] < hi[1] * p[2]


def edge_dets(rows, h):
    """The table of h's edge determinants over the ring's `edge_rows`.

    Entry k is a * x + b * y + c * w for row k and h = (x, y, w): positive
    when h lies strictly left of edge k, zero on its supporting line.
    """
    x, y, w = h
    return [a * x + b * y + c * w for a, b, c in rows]


def edge_signs(dets):
    """The sign masks (pos, neg) of an `edge_dets` table.

    Bit k of pos (neg) is set when the point lies strictly left (right) of
    edge k's line; neither bit is set when it lies on the line.
    """
    pos = neg = 0
    bit = 1
    for d in dets:
        if d > 0:
            pos |= bit
        elif d < 0:
            neg |= bit
        bit <<= 1
    return pos, neg


def sample_signs(v_dets, w_dets, v_signs, w_signs, m, v_w, w_w):
    """The sign masks of the samples ((m - k) * v + k * w) / m, 0 <= k < m.

    v and w are points with tables `v_dets` / `w_dets`, masks `v_signs` /
    `w_signs` and homogeneous weights `v_w` / `w_w`. Sample k is the
    homogeneous point (m - k) * w_w * v + k * v_w * w, and its determinants
    are (m - k) * w_w * v_dets + k * v_w * w_dets, because det is linear in
    the point. Where v and w lie on one side of an edge line, or one of
    them on it, every sample with k > 0 takes that side; only the edges
    that separate v and w are evaluated per sample.
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


def point_in_polygon(q, verts, dets):
    """(code, site) of homogeneous q: -1 exterior / 0 boundary / +1 interior.

    `verts` are the vertex forms of a simple polygon and `dets` is q's
    `edge_dets` table. A boundary q also gets its site (k, at_vertex): at
    vertex k, or inside edge k; None off the boundary. Fully exact.

    Parity by the half-open crossing rule on the ray to +x: an upward edge
    counts when q is strictly left of it, a downward one when strictly
    right. The first edge that holds a boundary q ends the scan.
    """
    n = len(verts)
    x, y, w = q
    above = [vy * w > y * vw for _, vy, vw in verts]
    inside = False
    for k, d in enumerate(dets):
        if d == 0:  # on the edge's line: on the closed edge?
            a, b = verts[k], verts[k + 1 - n]
            # compare q with both ends along x (along y if the edge is vertical)
            i = 0 if a[0] * b[2] != b[0] * a[2] else 1
            to_a, to_b = q[i] * a[2] - a[i] * w, q[i] * b[2] - b[i] * w
            if to_a == 0:
                return 0, (k, True)
            if to_b == 0:
                return 0, ((k + 1) % n, True)
            if (to_a > 0) != (to_b > 0):
                return 0, (k, False)
        if above[k] != above[k + 1 - n] and (d < 0 if above[k] else d > 0):
            inside = not inside
    return (1 if inside else -1), None


def sight_blocked(verts, x_h, t_h, x_signs, t_signs):
    """Visibility of t from x inside a simple polygon (both homogeneous).

    `x_signs` and `t_signs` are the endpoints' `edge_signs` masks. Returns
    True when an edge properly crosses the open sight segment, False when
    the open segment is free of boundary contact, and otherwise the bit
    mask of the vertices strictly inside it (tell it from True with `is`).

    An edge can cross the segment only if x and t lie strictly on opposite
    sides of its line, and a vertex v_k can lie inside the open segment only
    if they do so for edge k or both lie on its line. The masks pick out
    those edges, and only they look at the sight line, whose side of a
    vertex form v is the linear form A * vx + B * vy + C * vw = det(x, t, v).
    """
    (xp, xn), (tp, tn) = x_signs, t_signs
    n = len(verts)
    across = (xp & tn) | (xn & tp)
    candidates = across | (~(xp | xn | tp | tn) & ((1 << n) - 1))
    if not candidates:
        return False
    xx, xy, xw = x_h
    tx, ty, tw = t_h
    A = xy * tw - xw * ty
    B = xw * tx - xx * tw
    C = xx * ty - xy * tx
    touching = 0
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        i = bit.bit_length() - 1
        ax, ay, aw = verts[i]
        o3 = A * ax + B * ay + C * aw
        if o3 == 0 and strictly_between(verts[i], x_h, t_h):
            touching |= bit
        if across & bit:
            bx, by, bw = verts[i + 1 - n]
            o4 = A * bx + B * by + C * bw
            if (o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0):
                return True
    return touching or False


def along(row, v, x_h):
    """(x - v) . (b, -a) up to a positive factor: the sign of x's offset
    from the point form v in the direction of `row`'s edge."""
    a, b, _ = row
    vx, vy, vw = v
    x, y, w = x_h
    return (x * vw - vx * w) * b - (y * vw - vy * w) * a


def side_at(verts, rows, turns, site, x_h, x_signs):
    """-1 / 0 / +1: (t, x) leaves t into the exterior / boundary / interior.

    The side of x as seen from the boundary point t locates the whole open
    segment when `sight_blocked` returned False for x and t, and its piece
    up to the first vertex inside when it returned a mask. `site` is t's
    (k, at_vertex), `rows` and `turns` the ring's edge rows and vertex turn
    signs and `x_signs` x's `edge_signs` masks. Inside edge k that side is
    x's sign for edge k. At vertex k, x on the ray along edge k or back
    along edge k - 1 is boundary; otherwise the segment is interior iff x
    lies strictly left of both incident edge lines at a convex vertex, or
    of either one at a reflex vertex. x == t is boundary.
    """
    k, at_vertex = site
    xp, xn = x_signs
    out = 1 << k
    if not at_vertex:
        return 1 if xp & out else -1 if xn & out else 0
    into = 1 << (k - 1) % len(verts)
    if not (xp | xn) & out and along(rows[k], verts[k], x_h) >= 0:
        return 0
    if not (xp | xn) & into and along(rows[k - 1], verts[k], x_h) <= 0:
        return 0
    if turns[k] > 0:
        return 1 if xp & out and xp & into else -1
    return 1 if xp & (out | into) else -1


def segment_in_polygon(verts, rows, turns, x_h, t_h, x_signs, t_signs, t_site):
    """Whether the closed segment [x, t] stays inside the closed polygon.

    Both endpoints must already be members, t on the boundary at site
    `t_site`; `x_signs` and `t_signs` are their `edge_signs` masks, and
    `rows` and `turns` the ring's edge rows and vertex turn signs. True iff
    no edge crosses the open segment and no piece from t or a vertex inside
    toward x is exterior.
    """
    touching = sight_blocked(verts, x_h, t_h, x_signs, t_signs)
    if touching is True:
        return False
    if side_at(verts, rows, turns, t_site, x_h, x_signs) < 0:
        return False
    while touching:
        k = (touching & -touching).bit_length() - 1
        touching &= touching - 1
        if side_at(verts, rows, turns, (k, True), x_h, x_signs) < 0:
            return False
    return True
