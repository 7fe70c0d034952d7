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

`kernel_ring` intersects a ring's edge rows in the plane: its kernel's
vertex ring, or a Farkas certificate of at most three rows when it is
empty, each re-checked in integers before it is returned. A det-1 shear
x' = x + s y leaves no edge row with b = 0, so the kernel is the region
between a lower and an upper chain of rows, with no vertical special case.
"""

from __future__ import annotations

import functools
import itertools
import math

from .core import _cleared
from .errors import CertificateError


def homogenize(point):
    """The primitive integer form (x, y, w), w > 0, of a 2D point: w is the
    lcm of its denominators, so equal points have equal forms."""
    (x, y), w = _cleared(point.coords)
    return x, y, w


def _cross3(u, v):
    """The cross product of two integer triples: the line row through two
    point forms, or the point form where the lines of two rows meet. Its
    last entry is the cross product of the first two entries of each."""
    (a, b, c), (d, e, f) = u, v
    return b * f - c * e, c * d - a * f, a * e - b * d


def _primitive(t):
    """The integer triple t divided by the gcd of its entries."""
    x, y, w = t
    g = math.gcd(x, y, w) or 1
    return x // g, y // g, w // g


def edge_rows(verts):
    """The primitive line rows (a, b, c) of the ring's directed edges: the
    cross product of vertex forms k and k + 1 divided by its gcd."""
    return [_primitive(_cross3(a, b)) for a, b in zip(verts, verts[1:] + verts[:1])]


def midpoint(a, b):
    """The primitive form of the midpoint of point forms a and b."""
    (ax, ay, aw), (bx, by, bw) = a, b
    return _primitive((ax * bw + bx * aw, ay * bw + by * aw, 2 * aw * bw))


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


# -- the kernel of a ring's edge rows ----------------------------------------

def _half(row):
    """0 when the normal (a, b) of the row points into [0, pi), else 1."""
    return 0 if row[1] > 0 or (row[1] == 0 and row[0] > 0) else 1


def _cross(r, s):
    """The cross product of the normals of rows r and s."""
    return r[0] * s[1] - r[1] * s[0]


def _angle_cmp(r, s):
    """-1 / 0 / +1 as the normal of row r points before / with / after
    that of row s, by angle from the +x axis over [0, 2 pi)."""
    h = _half(r) - _half(s)
    if h:
        return h
    cross = _cross(r, s)
    return (cross < 0) - (cross > 0)


def _value(row, p):
    return row[0] * p[0] + row[1] * p[1] + row[2] * p[2]


def _chain(rows, ks):
    """The rows ks, one per direction in angle order within less than pi,
    less every row that holds where its neighbours meet: the rows whose
    lines carry an edge of their intersection, in order along it."""
    chain = []
    for k in ks:
        while len(chain) > 1 and _value(
                rows[chain[-1]], _cross3(rows[chain[-2]], rows[k])) >= 0:
            chain.pop()
        chain.append(k)
    return chain


def _farkas(rows, ks):
    """{row index: multiplier} of the first pair, then triple, of rows ks
    whose nonnegative integer combination has normal 0 and a negative
    constant; None when there is none. A pair must be antiparallel; a
    triple's multipliers are the cross products of the other two normals."""
    for size in (2, 3):
        for combo in itertools.combinations(ks, size):
            picked = [rows[k] for k in combo]
            if size == 2:
                (a, b, _), (d, e, _) = picked
                lam = [abs(d) + abs(e), abs(a) + abs(b)]
            else:
                r, s, t = picked
                lam = [_cross(s, t), _cross(t, r), _cross(r, s)]
                if max(lam) <= 0:
                    lam = [-x for x in lam]
            if min(lam) < 0:
                continue
            sums = [sum(x * row[c] for x, row in zip(lam, picked)) for c in range(3)]
            if sums[0] == sums[1] == 0 and sums[2] < 0:
                g = math.gcd(*lam)
                return {k: x // g for k, x in zip(combo, lam)}
    return None


def _kernel_answer(rows, order):
    """The kernel's edge cycle [(row index, form)], or a Farkas
    certificate {row index: multiplier} when the kernel is empty (None
    when none is found); `order` holds the row indices by angle.

    The rows are sheared first, by x' = x + s y: (a, b, c) becomes
    (a, b - s a, c), with s the least integer >= 0 that leaves no row with
    b = 0. The shear has determinant 1, so it keeps the rows' cyclic angle
    order and every Farkas multiplier; it only chooses the rows, and the
    cycle's forms and the certificate come from the given rows. One
    sheared row per direction is kept, the tightest. Rows with b > 0 bound
    y from below and rows with b < 0 from above, so the sheared kernel is
    {L(x) <= y <= U(x)}: L is the convex chain of the first (`_chain`,
    left to right), U the concave chain of the second. f = U - L is
    concave and linear between events, the chains' breakpoints. f >= 0 at
    some event iff the kernel is non-empty; its edge rows are then the
    rows active at such events, in angle order. Otherwise f peaks at the
    first event with no rise to its right, and the rows active there hold
    a certificate of at most three rows (Helly).
    """
    s, cut = 0, {b // a for a, b, _ in rows if a and not b % a}
    while s in cut:
        s += 1
    given, rows = rows, [(a, b - s * a, c) for a, b, c in rows]
    dirs = []
    for k in order:
        if dirs and not _angle_cmp(rows[dirs[-1]], rows[k]):
            (a, b, c), (d, e, f) = rows[dirs[-1]], rows[k]
            if c * (abs(d) + abs(e)) > f * (abs(a) + abs(b)):
                dirs[-1] = k  # the tighter of two rows with one direction
        else:
            dirs.append(k)
    start = next(t for t, k in enumerate(dirs) if rows[k][1] > 0)
    dirs = dirs[start:] + dirs[:start]  # by the sheared angle
    lower = _chain(rows, [k for k in dirs if rows[k][1] > 0])
    upper = _chain(rows, [k for k in dirs if rows[k][1] < 0])[::-1]
    bl = [_cross3(rows[p], rows[q]) for p, q in zip(lower, lower[1:])]
    bu = [_cross3(rows[q], rows[p]) for p, q in zip(upper, upper[1:])]
    # an event: (i, j, di, dj, p): lower[i] and upper[j] are active at and
    # left of it, the chains break there when di / dj, and p is a form on
    # L or U there
    events, i, j = [], 0, 0
    while i < len(bl) or j < len(bu):
        di, dj = i < len(bl), j < len(bu)
        if di and dj:
            d = bl[i][0] * bu[j][2] - bu[j][0] * bl[i][2]
            di, dj = d <= 0, d >= 0
        events.append((i, j, di, dj, bl[i] if di else bu[j]))
        i, j = i + di, j + dj

    def active(e):
        i, j, di, dj, _ = e
        return lower[i:i + 1 + di] + upper[j:j + 1 + dj]

    tight = set()
    for e in events:
        i, j, di, dj, p = e
        if _value(rows[lower[i]] if dj and not di else rows[upper[j]], p) >= 0:
            tight.update(active(e))
    if not tight:
        peak = next((e for e in events if _cross(
            rows[lower[e[0] + e[2]]], rows[upper[e[1] + e[3]]]) >= 0), events[-1])
        return _farkas(given, active(peak))
    cycle = [k for k in order if k in tight]
    return [(k, _primitive(_cross3(given[h], given[k])))
            for h, k in zip(cycle[-1:] + cycle[:-1], cycle)]


def _check_cycle(rows, order, cycle):
    """The kernel's distinct vertex forms in CCW order, once the edge
    cycle [(row index, form)] is re-checked in integers; CertificateError
    if it fails.

    The cycle's rows must turn left and wind once, and its distinct
    vertices turn left; each form must lie on its edge's row and the next
    form ahead along it. The intersection of the cycle's rows is then the
    convex ring, and every row holds on the ring iff it holds at its
    extreme vertex: the vertex between the cycle rows whose normals enclose
    its own. One walk over `order`, every row's index sorted by angle,
    finds them all.
    """
    n = len(cycle)
    nxt = cycle[1:] + cycle[:1]
    wraps = 0
    for (k, _), (h, _) in zip(cycle, nxt):
        if _cross(rows[k], rows[h]) <= 0:
            raise CertificateError(f"kernel edge rows {k} and {h} do not turn left")
        wraps += _half(rows[k]) > _half(rows[h])
    if wraps != 1:
        raise CertificateError(f"the kernel's edge rows wind {wraps} times")
    ring = [v for (_, v), (_, w) in zip(cycle, nxt)
            if v[0] * w[2] != w[0] * v[2] or v[1] * w[2] != w[1] * v[2]]
    ring = ring or [cycle[0][1]]
    if len(ring) > 2 and any(orient(ring[t - 2], ring[t - 1], ring[t]) <= 0
                             for t in range(len(ring))):
        raise CertificateError("the kernel ring turns right")
    for (k, v), (_, w) in zip(cycle, nxt):
        row = rows[k]
        if v[2] <= 0 or _value(row, v) or _value(row, w):
            raise CertificateError(f"a kernel vertex is off edge row {k}")
        if along(row, v, w) < 0:
            raise CertificateError(f"kernel edge {k} runs against its row")
    start = next(t for t in range(n)
                 if _half(rows[cycle[t - 1][0]]) > _half(rows[cycle[t][0]]))
    walk, t = cycle[start:] + cycle[:start], 0
    for k in order:
        row = rows[k]
        while t < n and _angle_cmp(rows[walk[t][0]], row) < 0:
            t += 1
        if _value(row, walk[t % n][1]) < 0:
            raise CertificateError(f"row {k} fails at its extreme kernel vertex")
    return tuple(ring)


def _check_farkas(rows, lam):
    """Raise CertificateError unless the multipliers {row index: lam}
    are nonnegative and sum the rows to (0, 0, negative): then no point
    satisfies every row (Farkas)."""
    if not lam:
        raise CertificateError("an empty kernel without a Farkas certificate")
    if any(x < 0 for x in lam.values()):
        raise CertificateError(f"a Farkas multiplier is negative: {lam}")
    a, b, c = (sum(x * rows[k][i] for k, x in lam.items()) for i in range(3))
    if a or b:
        raise CertificateError(f"Farkas multipliers {lam} leave a normal")
    if c >= 0:
        raise CertificateError(f"Farkas multipliers {lam} sum to {c} >= 0")


def kernel_ring(rows):
    """(ring, certificate): the kernel {p : a x + b y + c w >= 0 for each
    row} of a ring's `edge_rows`, re-checked in integers.

    For a non-empty kernel ring is its CCW vertex forms, one for a point
    and two for a segment, and certificate its edge cycle (see
    `_check_cycle`); for an empty one ring is () and certificate at most
    three {row index: multiplier}, with `_check_farkas`. The rows are
    sorted by angle once (Preparata and Shamos 1985, Sec. 7.2) and the
    rest is linear, the check included (Mehlhorn et al. 1999).
    """
    order = sorted(range(len(rows)), key=functools.cmp_to_key(
        lambda i, j: _angle_cmp(rows[i], rows[j])))
    answer = _kernel_answer(rows, order)
    if type(answer) is list:
        return _check_cycle(rows, order, answer), answer
    _check_farkas(rows, answer)
    return (), answer
