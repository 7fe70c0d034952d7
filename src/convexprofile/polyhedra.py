"""Closed convex sets as halfspace intersections and point hulls.

Each polyhedron caches its halfspaces as primitive integer rows and one
integer double description of its homogenized cone (no cap on the number of
constraints or on the dimension), built with `core`'s integer forms. Every
question about an H-polyhedron is read from it with no LP: emptiness and a
member point, full-dimensionality, an interior point, the vertices,
boundedness and a recession direction, the boundary-ray test, exposed
faces, redundancy and the facet probes. Membership, point location and the
vertex test read the signs of the rows at the point's cached `Point.form`;
a member is a boundary point iff some row is 0 there.
The facet probes are built as homogeneous integer forms (X, T) from the
incident rays, each with the mask of the rows at 0 there, and cached on the
polyhedron; that mask is its answer to `supports`. Every certificate
(member point, vertex, interior point, face optimum, recession ray, probe)
is re-verified by substitution. The one LP left is V-polytope membership,
`hull_contains`; `profile` reads the polar cone's double description and
re-checks each kept generator's exposing row in integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .core import (
    Matrix,
    Point,
    Q,
    Vector,
    ZERO,
    _cleared,
    _combine,
    _dot,
    _primitive,
    nullspace_basis,
    rank,
    rational,
)
from .errors import (
    CertificateError,
    DimensionMismatchError,
    EmptyPolyhedronError,
    NonFullDimensionalError,
    UnboundedPolyhedronError,
)
from .linprog import solve_nonneg_feasibility


@dataclass(frozen=True)
class Halfspace:
    """The closed halfspace {x : normal . x <= offset}."""

    normal: Vector
    offset: object  # rational

    def __post_init__(self):
        object.__setattr__(self, "offset", rational(self.offset))
        if self.normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")

    def value(self, x):
        return self.normal.dot(Vector(x.coords))

    @cached_property
    def _row(self):
        """a . x <= b as the primitive integer row (a, -b), so that x is in
        the halfspace iff row . (x, 1) <= 0."""
        return _primitive(_cleared([*self.normal.coords, -self.offset])[0])

    def contains(self, x):
        """The sign of the integer row at x's cached `Point.form`."""
        if x.dim != self.normal.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.normal.dim} vs {x.dim}"
            )
        return _dot(self._row, x.form) <= 0


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of closed halfspaces in E^dim (closed, convex).

    Implements the region protocol of `regions2d` (locate2,
    boundary_probes, supports, chord) in any dimension. A pair of boundary
    points is Flat iff one row is 0 at both, else its open chord is
    interior: Hyperbolic.
    """

    kind = "h-polyhedron"
    chord = "hyperbolic"
    halfspaces: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for h in self.halfspaces:
            if h.normal.dim != self.dim:
                raise DimensionMismatchError("halfspace dimension mismatch")
        object.__setattr__(self, "_probes", None)  # see `probe_tables`

    def contains(self, x):
        return all(v <= 0 for v in self._values(x))

    def _check_point(self, x):
        if x.dim != self.dim:
            raise DimensionMismatchError("point dimension mismatch")

    @cached_property
    def _rows(self):
        """Each halfspace's primitive integer row (a, -b): `Halfspace._row`."""
        return [h._row for h in self.halfspaces]

    def _values(self, x):
        """Each row . x.form: the sign of a . x - b at the point x."""
        self._check_point(x)
        xs = x.form
        return [_dot(row, xs) for row in self._rows]

    @cached_property
    def _dd(self):
        """(lineality, rays): the double description of the cone
        {(x, t) : row . (x, t) <= 0, t >= 0}."""
        n = self.dim
        return _double_description(self._rows + [(0,) * n + (-1,)], n + 1)

    @cached_property
    def _member(self):
        """The first ray (x, t) of `_dd` with t > 0 as the point x / t, or
        None when P is empty. The ray is re-checked against every row."""
        y = next((y for y in self._dd[1] if y[-1] > 0), None)
        if y is None:
            return None
        if any(_dot(row, y) > 0 for row in self._rows):
            raise CertificateError(f"member ray {y} violates a halfspace")
        return Point._from_form(y)

    @cached_property
    def _rank(self):
        """The rank of `_dd`'s generators: n + 1 iff P has an interior."""
        lineality, rays = self._dd
        return _integer_rank(lineality + rays, self.dim + 1)

    @cached_property
    def _facets(self):
        """(halfspace, incident) for each row that the input-order redundancy
        loop keeps, with the rays y of `_dd` on the row (row . y = 0), no LP.

        A row on every ray is an implicit equality; it is kept iff the
        equalities kept so far and those not yet tested leave {d : a . d
        <= 0} wider than the directions of P's affine hull. Any other row
        is kept iff it is the last with its incident rays and they cut a
        facet: with the lineality they span one dimension less than the
        cone, and one has t > 0 (Fukuda & Prodon 1996).
        """
        _require_nonempty(self)
        n = self.dim
        lineality, rays = self._dd
        incident = [[y for y in rays if not _dot(row, y)] for row in self._rows]
        full = self._rank
        equalities = [i for i, inc in enumerate(incident) if inc == rays]
        kept = []
        for i, inc in enumerate(incident):
            if i in equalities:
                rest = [self._rows[j][:n] for j in equalities if j > i or j in kept]
                lin, cone = _double_description(rest, n)
                keep = cone or len(lin) != full - 1
            else:
                keep = (
                    any(y[n] for y in inc)
                    and inc not in incident[i + 1 :]
                    and _integer_rank(lineality + inc, n + 1) == full - 1
                )
            if keep:
                kept.append(i)
        return tuple((self.halfspaces[i], tuple(incident[i])) for i in kept)

    @property
    def full_dimensional(self):
        """Whether the interior is non-empty."""
        return self._rank == self.dim + 1

    def locate2(self, x):
        loc = locate_point(self, x)
        return loc, loc is not PointLocation.EXTERIOR

    def boundary_probes(self, density):
        return polyhedron_boundary_probes(self)

    def probe_tables(self):
        """id(x) -> (x, mask) of the boundary probes x, sorted, built once
        with no LP, where mask is x's `supports` answer.

        Per row of `_facets`: its incident vertices, their centroid, the
        centroid stepped along each incident ray and lineality direction
        (both signs) to a box of 8 around it, and the midpoints of the first
        four. Each is a primitive integer form (X, T), T > 0, so a point has
        one form; each distinct form is checked once, one `_dot` per row, to
        be a boundary point, and its rows at 0 are its mask.
        """
        if self._probes is not None:
            return self._probes
        n = self.dim
        lineality = self._dd[0]
        forms = set()
        for _, incident in self._facets:
            verts = [_primitive(y) for y in incident if y[n]]
            scale = math.lcm(*(y[n] for y in verts))
            total = [sum(y[i] * (scale // y[n]) for y in verts) for i in range(n)]
            witness = _primitive(total + [len(verts) * scale])
            *wx, wt = witness
            dirs = [y[:n] for y in incident if not y[n]]
            dirs += [tuple(s * c for c in v[:n]) for v in lineality for s in (1, -1)]
            facet_pts = [witness, *verts]
            for d in dirs:
                m = max(map(abs, d))
                facet_pts.append(_primitive(
                    [x * m + 8 * wt * c for x, c in zip(wx, d)] + [wt * m]
                ))
            # Facet midpoints stay on the facet (it is convex) and give
            # non-vertex probes, without which a simplex would look all-flat.
            for a, b in itertools.combinations(facet_pts[:4], 2):
                facet_pts.append(_combine(b[n], a, a[n], b))
            forms.update(facet_pts)
        # sorted by coordinates, as integers over the forms' common T
        scale = math.lcm(*(form[n] for form in forms))
        probes = {}
        for form in sorted(forms, key=lambda f: [c * (scale // f[n]) for c in f[:n]]):
            pt = Point._from_form(form)
            mask = _boundary_mask([_dot(row, form) for row in self._rows])
            if mask is None:
                raise CertificateError(f"probe {pt} is not a boundary point of P")
            probes[id(pt)] = pt, mask
        object.__setattr__(self, "_probes", probes)
        return probes

    def supports(self, x):
        """The mask of the rows that are 0 at x (bit k for row k), or None
        when x is not a boundary point. A probe's mask is looked up."""
        built = self._probes and self._probes.get(id(x))
        if built:
            return built[1]
        _require_nonempty(self)
        return _boundary_mask(self._values(x))


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a non-empty finite generator set in E^dim."""

    kind = "v-polytope"
    generators: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a V-polytope needs at least one generator")
        for g in self.generators:
            if g.dim != self.dim:
                raise DimensionMismatchError("generator dimension mismatch")


class PointLocation(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def is_empty(P):
    """Whether P has no point: no ray of `_dd` has t > 0."""
    return P._member is None


def feasible_point(P):
    """A member point of P (`HPolyhedron._member`), or EmptyPolyhedronError."""
    _require_nonempty(P)
    return P._member


def _require_nonempty(P):
    if is_empty(P):
        raise EmptyPolyhedronError("polyhedron is empty")


def interior_point(P):
    """A point with strictly positive slack on every constraint, or None:
    the sum of `_dd`'s rays over its t, at which no row of a full-dimensional
    cone vanishes (t >= 0 included). That is re-checked in integers."""
    if not P.full_dimensional:
        return None
    y = [sum(col) for col in zip(*P._dd[1])]
    if y[-1] <= 0 or any(_dot(row, y) >= 0 for row in P._rows):
        raise CertificateError(f"ray sum {y} is not an interior point")
    return Point([Q(c, y[-1]) for c in y[:-1]])


def locate_point(P, x):
    """Interior / Boundary / Exterior of x relative to P (ambient topology).

    Emptiness is surfaced as an error before any classification. A member
    is Boundary iff some row is 0 there, the rule of `_boundary_mask`, so
    every member of a P with no interior is Boundary.
    """
    P._check_point(x)
    _require_nonempty(P)
    values = P._values(x)
    if any(v > 0 for v in values):
        return PointLocation.EXTERIOR
    if 0 in values:
        return PointLocation.BOUNDARY
    return PointLocation.INTERIOR


def _signed_axes(dim):
    """The unit vectors e_1, -e_1, ..., e_dim, -e_dim, in that order."""
    axes = []
    for j in range(dim):
        for s in (1, -1):
            e = [ZERO] * dim
            e[j] = Q(s)
            axes.append(Vector(e))
    return axes


def box_halfspaces(dim, bound):
    """The box |x_j| <= bound as halfspaces, one per signed axis."""
    return [Halfspace(u, bound) for u in _signed_axes(dim)]


def _recession_generators(P):
    """The vectors (d, 0) of `_dd` whose d generate P's recession cone, in
    order: the lineality vectors, their negations, the rays with t = 0."""
    lineality, rays = P._dd
    negated = [tuple(-c for c in v) for v in lineality]
    return lineality + negated + [y for y in rays if not y[-1]]


def is_bounded(P):
    """Whether the non-empty P is bounded: it has no recession generator.
    The first one is re-checked in integers as a recession direction."""
    _require_nonempty(P)
    dirs = _recession_generators(P)
    if dirs:
        _check_direction(P, dirs[0])
    return not dirs


def _check_direction(P, y):
    """Raise CertificateError unless the cone vector y = (d, 0) has d != 0
    and a . d <= 0 for every halfspace, i.e. d is a recession direction."""
    if y[-1] or not any(y) or any(_dot(row, y) > 0 for row in P._rows):
        raise CertificateError(f"cone vector {y} is not a recession direction")


def recession_direction(P):
    """Some nonzero recession direction, or None when P is bounded: for the
    first signed axis u that is positive on a recession generator, the first
    such generator d, scaled to u . d = 1 and re-checked. A linear form is
    positive somewhere on a cone iff it is positive on a generator, so u is
    the first axis whose max u . d over {d : A d <= 0, u . d <= 1} is
    positive, and 1 is that max."""
    _require_nonempty(P)
    dirs = _recession_generators(P)
    for j in range(P.dim):
        for s in (1, -1):
            d = next((d for d in dirs if s * d[j] > 0), None)
            if d is not None:
                _check_direction(P, d)
                return Vector([Q(c, s * d[j]) for c in d[:-1]])
    return None


def _normal_matrix(P):
    return Matrix([h.normal for h in P.halfspaces])


def lineality_dim(P):
    """Dimension of {d : normal_i . d = 0 for all i}: the number of `_dd`'s
    lineality vectors, which are the (d, 0) with every normal_i . d = 0."""
    _require_nonempty(P)
    return len(P._dd[0])


def lineality_direction(P):
    """A direction of a full line contained in P, or None."""
    _require_nonempty(P)
    if not P.halfspaces:
        return _signed_axes(P.dim)[0]
    basis = nullspace_basis(_normal_matrix(P))
    return basis[0] if basis else None


def contains_hyperplane(P):
    """Whether an (n-1)-dimensional affine flat fits inside P."""
    return lineality_dim(P) >= P.dim - 1


def extreme_points(P):
    """The exact vertex set: points with n independent tight constraints.

    The vertices are the extreme rays (x, t) with t > 0 of the cone
    {(x, t) : a . x <= b t for every halfspace, t >= 0}, read from the
    polyhedron's cached integer double description; there is no cap on
    the number of constraints or on the dimension. Each vertex is re-checked before it is
    returned: it satisfies every constraint and its tight normals have rank
    n. Empty iff P contains a line. Deterministic output order (sorted by
    coordinates).
    """
    n = P.dim
    _require_nonempty(P)
    lineality, rays = P._dd
    if lineality:
        return ()
    verts = []
    for y in rays:
        if y[n] > 0:
            _check_vertex(P._rows, y, n)
            verts.append(Point._from_form(y))
    verts.sort(key=lambda p: p.coords)
    return tuple(verts)


def _double_description(rows, width):
    """(lineality, rays) generating the cone {y : row . y <= 0 for each row}.

    Motzkin's double-description method over the integers: start from the
    whole space (lineality basis e_1 .. e_width, no rays) and insert the
    rows in order. A row that some lineality vector crosses pivots that
    vector out as a ray and projects the other generators onto the row's
    hyperplane. Otherwise the rays split by the sign of row . y; the
    non-positive ones stay, and each adjacent (positive, negative) pair is
    joined on the hyperplane. Two rays are adjacent iff no third ray is
    tight on every row tight on both (the combinatorial test). All vectors
    are primitive integer tuples; the rays are one per extreme ray of the
    cone modulo its lineality space.
    """
    lineality = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    rays = []  # (vector, bitmask of the inserted rows tight on it)
    for i, row in enumerate(rows):
        bit = 1 << i
        dots = [_dot(row, v) for v in lineality]
        k = next((k for k, s in enumerate(dots) if s), None)
        if k is not None:
            pivot, s0 = lineality.pop(k), dots.pop(k)
            if s0 > 0:
                pivot, s0 = tuple(-c for c in pivot), -s0
            # Moving along pivot onto row . y = 0 keeps the lineality space;
            # the positive scale -s0 keeps each ray's sign on earlier rows.
            lineality = [
                _combine(s0, v, -s, pivot) for v, s in zip(lineality, dots)
            ]
            rays = [
                (_combine(-s0, y, _dot(row, y), pivot), tight | bit)
                for y, tight in rays
            ]
            # Lineality vectors are tight on every row inserted so far.
            rays.append((pivot, bit - 1))
            continue
        dots = [_dot(row, y) for y, _ in rays]
        masks = [tight for _, tight in rays]
        minus = [k for k, s in enumerate(dots) if s < 0]
        # Adjacent rays span a 2-face, so they share at least
        # width - dim(lineality) - 2 tight rows.
        least = width - len(lineality) - 2
        joined = []
        for p in (k for k, s in enumerate(dots) if s > 0):
            for q in minus:
                common = masks[p] & masks[q]
                if common.bit_count() < least or any(
                    common & m == common and w != p and w != q
                    for w, m in enumerate(masks)
                ):
                    continue
                y = _combine(dots[p], rays[q][0], -dots[q], rays[p][0])
                joined.append((y, common | bit))
        rays = [
            (y, tight | bit if s == 0 else tight)
            for (y, tight), s in zip(rays, dots)
            if s <= 0
        ] + joined
    return lineality, [y for y, _ in rays]


def _check_vertex(rows, y, n):
    """Raise CertificateError unless the ray y = (x, t), t > 0, satisfies
    every row and its tight rows have rank n, i.e. x / t is a vertex."""
    tight = []
    for row in rows:
        s = _dot(row, y)
        if s > 0:
            raise CertificateError(f"vertex ray {y} violates a halfspace")
        if s == 0:
            tight.append(row[:n])
    if _integer_rank(tight, n) != n:
        raise CertificateError(f"vertex ray {y}: tight rows have rank < {n}")


def _integer_rank(rows, ncols):
    """Exact rank of integer rows by fraction-free elimination."""
    rows = [list(r) for r in rows]
    r = 0
    for col in range(ncols):
        k = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r]
        for k in range(r + 1, len(rows)):
            f = rows[k][col]
            if f:
                rows[k] = [p[col] * a - f * b for a, b in zip(rows[k], p)]
        r += 1
    return r


def is_vertex(P, x):
    """Whether x is feasible with n linearly independent tight constraints
    (their rational normals' rank, an independent check of the rows)."""
    values = P._values(x)
    if any(v > 0 for v in values):
        return False
    tight = [h.normal for h, v in zip(P.halfspaces, values) if v == 0]
    return len(tight) >= P.dim and rank(Matrix(tight)) == P.dim


def hull_contains(V, x):
    """Whether x is a convex combination of the generators (LP feasibility)."""
    if x.dim != V.dim:
        raise DimensionMismatchError("point dimension mismatch")
    k = len(V.generators)
    rows = []
    rhs = []
    for j in range(V.dim):
        row = [g.coords[j] for g in V.generators]
        rows.append(row)
        rhs.append(x.coords[j])
        rows.append([-v for v in row])
        rhs.append(-x.coords[j])
    rows.append([Q(1)] * k)
    rhs.append(Q(1))
    rows.append([Q(-1)] * k)
    rhs.append(Q(-1))
    return solve_nonneg_feasibility(rows, rhs) is not None


def profile(V):
    """The extreme points of hull(V), sorted by coordinates. One double
    description of the polar cone {(a, b) : a . g <= b for every generator
    g}, its rows the distinct generators' forms (G, -w), keeps g iff the
    rays tight at g are not all tight at another generator; their sum h,
    which exposes g, is re-checked in integers (h . g = 0 and h . v < 0 at
    every other v). A dropped g must lie in the others' hull (an LP).
    """
    unique = list(dict.fromkeys(V.generators))
    if len(unique) == 1:
        return (unique[0],)
    rows = [(*g.form[:-1], -g.form[-1]) for g in unique]
    rays = _double_description(rows, V.dim + 1)[1]
    masks = [sum(1 << k for k, y in enumerate(rays) if not _dot(row, y))
             for row in rows]
    kept = []
    for i, g in enumerate(unique):
        if all(masks[i] & ~m for j, m in enumerate(masks) if j != i):
            h = [sum(c) for c in zip(*(y for k, y in enumerate(rays)
                                       if masks[i] >> k & 1))]
            if _dot(h, rows[i]) or any(
                _dot(h, row) >= 0 for j, row in enumerate(rows) if j != i
            ):
                raise CertificateError(f"row {h} does not expose {g!r}")
            kept.append(g)
        elif not hull_contains(VPolytope(unique[:i] + unique[i + 1 :], V.dim), g):
            raise CertificateError(f"dropped {g!r} is not in the others' hull")
    kept.sort(key=lambda p: p.coords)
    return tuple(kept)


def hull_equal(P, V):
    """Whether P (bounded) and hull(V) are the same set.

    Raises UnboundedPolyhedronError when P is unbounded: equality with a
    V-polytope is impossible there and callers must be able to distinguish
    hypothesis failure from a plain False.
    """
    if P.dim != V.dim:
        raise DimensionMismatchError("dimension mismatch")
    _require_nonempty(P)
    if not is_bounded(P):
        raise UnboundedPolyhedronError(
            "hull equality is only defined for bounded polyhedra"
        )
    if not all(P.contains(g) for g in V.generators):
        return False
    return all(
        v in V.generators or hull_contains(V, v) for v in extreme_points(P)
    )


def face_in_direction(P, w):
    """The exposed face of P maximizing w (P with the supporting hyperplane
    as two opposing halfspaces), or None when unbounded in w. No LP: w is
    unbounded iff it grows along a lineality vector (either sign) or a ray
    of `_dd` with t = 0, else it peaks at a ray with t > 0. The ray is
    re-checked against every row."""
    if w.is_zero():
        raise ValueError("direction must be nonzero")
    if w.dim != P.dim:
        raise DimensionMismatchError("direction dimension mismatch")
    _require_nonempty(P)
    n = P.dim
    ws = _cleared(w.coords)[0] + [0]
    up = next((d for d in _recession_generators(P) if _dot(ws, d) > 0), None)
    if up is not None:
        _check_direction(P, up)
        return None
    rays = P._dd[1]
    y = max((y for y in rays if y[n] > 0), key=lambda y: Q(_dot(ws, y), y[n]))
    if any(_dot(row, y) > 0 for row in P._rows):
        raise CertificateError(f"face ray {y} violates a halfspace")
    opt = w.dot(Vector([Q(c, y[n]) for c in y[:n]]))
    extra = (Halfspace(w, opt), Halfspace(-w, -opt))
    return HPolyhedron(P.halfspaces + extra, P.dim)


def remove_redundant(P):
    """Drop halfspaces whose removal does not change the set (`_facets`)."""
    return HPolyhedron(tuple(h for h, _ in P._facets), P.dim)


def boundary_has_ray(P):
    """Whether some proper exposed face of P is unbounded.

    Requires a non-empty full-dimensional polyhedron. In E^1 every facet is
    a point. For n >= 2 the answer is "P is unbounded and not E^n": if
    every facet were bounded, the boundary would lie in a ball B; the
    complement of B is connected and misses the boundary, so an unbounded
    P would contain all of it, and a convex P would then be E^n.
    """
    _require_nonempty(P)
    if not P.full_dimensional:
        raise NonFullDimensionalError(
            "boundary ray test needs a full-dimensional polyhedron"
        )
    return P.dim >= 2 and bool(P.halfspaces) and not is_bounded(P)


def _boundary_mask(values):
    """The mask of the rows at 0 among a polyhedron's row values at a point,
    or None when the point is not on its boundary: a member is a boundary
    point iff some row is 0 there, also when P has no interior, since some
    row is then 0 on all of P (Schrijver 1986, Sec. 8.2)."""
    if any(v > 0 for v in values):
        return None
    return sum(1 << k for k, v in enumerate(values) if not v) or None


def polyhedron_boundary_probes(P):
    """Boundary probes with no LP, in sorted order: the points of
    `P.probe_tables()`, each re-checked as a boundary point when built."""
    return [pt for pt, _ in P.probe_tables().values()]
