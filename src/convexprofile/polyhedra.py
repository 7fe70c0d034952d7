"""Closed convex sets as halfspace intersections and point hulls.

Structural queries follow convex-analysis definitions directly: vertex
enumeration is exhaustive basis enumeration (desk scale, n <= 4), boundary
status is decided by exact constraint slack, and every certificate (vertex,
line direction, recession ray) can be re-verified by substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .core import (
    Matrix,
    Point,
    Q,
    SolveStatus,
    Vector,
    ZERO,
    interpolate,
    nullspace_basis,
    rank,
    rational,
    solve_linear,
)
from .errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    NonFullDimensionalError,
    UnboundedPolyhedronError,
    UnsupportedDimensionError,
)
from .linprog import (
    Constraint,
    LinearProgram,
    LpStatus,
    Relation,
    is_feasible,
    solve_lp,
    solve_nonneg_feasibility,
)

MAX_VERTEX_ENUM_DIM = 4
MAX_CONSTRAINTS = 64


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

    def contains(self, x):
        return self.value(x) <= self.offset

    def boundary_contains(self, x):
        return self.value(x) == self.offset


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of closed halfspaces in E^dim (closed, convex).

    Implements the region protocol of `regions2d` (locate2, breakpoints,
    boundary_probes) in any dimension.
    """

    halfspaces: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for h in self.halfspaces:
            if h.normal.dim != self.dim:
                raise DimensionMismatchError("halfspace dimension mismatch")

    def contains(self, x):
        self._check_point(x)
        return all(h.contains(x) for h in self.halfspaces)

    def _check_point(self, x):
        if x.dim != self.dim:
            raise DimensionMismatchError("point dimension mismatch")

    @cached_property
    def _slack(self):
        # cached_property writes the instance __dict__, so it works on a
        # frozen dataclass: the LP runs at most once per polyhedron.
        return _max_slack(self)

    @property
    def full_dimensional(self):
        """Whether the interior is non-empty."""
        return self._slack[0] > 0

    def locate2(self, x):
        loc = locate_point(self, x)
        return loc, loc is not PointLocation.EXTERIOR

    def breakpoints(self, a, b):
        """Exact parameters in (0,1) where [a,b] meets a constraint hyperplane."""
        d = b - a
        ts = set()
        for h in self.halfspaces:
            ad = h.normal.dot(d)
            if ad != 0:
                t = (h.offset - h.value(a)) / ad
                if 0 < t < 1:
                    ts.add(t)
        return sorted(ts), []

    def boundary_probes(self, density):
        return polyhedron_boundary_probes(self)


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a non-empty finite generator set in E^dim."""

    generators: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a V-polytope needs at least one generator")
        for g in self.generators:
            if g.dim != self.dim:
                raise DimensionMismatchError("generator dimension mismatch")


@dataclass(frozen=True)
class Ray:
    """The set {base + t * direction : t >= 0}."""

    base: Point
    direction: Vector

    def __post_init__(self):
        if self.direction.is_zero():
            raise ValueError("ray direction must be nonzero")


class PointLocation(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def _constraints(P):
    return tuple(
        Constraint(h.normal, Relation.LE, h.offset) for h in P.halfspaces
    )


def is_empty(P):
    return P._slack[0] < 0


def feasible_point(P):
    ok, witness = is_feasible(_constraints(P), dim=P.dim)
    if not ok:
        raise EmptyPolyhedronError("polyhedron is empty")
    return witness


def _require_nonempty(P):
    if is_empty(P):
        raise EmptyPolyhedronError("polyhedron is empty")


def _max_slack(P):
    """(t, x) maximizing a uniform slack t <= 1: normal_i . x + t <= offset_i.

    The program is always feasible (t may go to -infinity) and bounded, so
    one solve settles both questions: the interior is non-empty iff t > 0,
    and P is non-empty iff t >= 0.
    """
    n = P.dim
    if not P.halfspaces:
        return Q(1), Point([ZERO] * n)
    cons = []
    for h in P.halfspaces:
        cons.append(
            Constraint(
                Vector(list(h.normal.coords) + [Q(1)]), Relation.LE, h.offset
            )
        )
    t_cap = [ZERO] * n + [Q(1)]
    cons.append(Constraint(Vector(t_cap), Relation.LE, Q(1)))
    out = solve_lp(LinearProgram(Vector(t_cap), tuple(cons)))
    return out.value, Point(out.point.coords[:n])


def interior_point(P):
    """A point with strictly positive slack on every constraint, or None."""
    slack, x = P._slack
    return x if slack > 0 else None


def locate_point(P, x):
    """Interior / Boundary / Exterior of x relative to P (ambient topology).

    Emptiness is surfaced as an error before any classification. For
    non-full-dimensional P every member point is Boundary.
    """
    P._check_point(x)
    _require_nonempty(P)
    if any(not h.contains(x) for h in P.halfspaces):
        return PointLocation.EXTERIOR
    if not P.full_dimensional:
        return PointLocation.BOUNDARY
    # Full-dimensional: a member is on the boundary iff some constraint is
    # tight (a redundant constraint can only be tight at boundary points).
    if any(h.boundary_contains(x) for h in P.halfspaces):
        return PointLocation.BOUNDARY
    return PointLocation.INTERIOR


def recession_cone(P):
    """{d : normal_i . d <= 0 for all i}; P is bounded iff this is {0}."""
    _require_nonempty(P)
    return HPolyhedron(
        tuple(Halfspace(h.normal, ZERO) for h in P.halfspaces), P.dim
    )


def _cone_has_nonzero(halfspaces, dim, extra_eq=None):
    """Whether the cone {d : A d <= 0 (and eq . d = 0)} contains d != 0."""
    base = [Constraint(h.normal, Relation.LE, ZERO) for h in halfspaces]
    if extra_eq is not None:
        base.append(Constraint(extra_eq, Relation.EQ, ZERO))
    for j in range(dim):
        for s in (1, -1):
            e = [ZERO] * dim
            e[j] = Q(s)
            probe = Vector(e)
            cons = base + [Constraint(probe, Relation.LE, Q(1))]
            out = solve_lp(LinearProgram(probe, tuple(cons)))
            if out.status is LpStatus.OPTIMAL and out.value > 0:
                return True, Vector(out.point.coords)
    return False, None


def is_bounded(P):
    _require_nonempty(P)
    nontrivial, _ = _cone_has_nonzero(P.halfspaces, P.dim)
    return not nontrivial


def recession_direction(P):
    """Some nonzero recession direction, or None when P is bounded."""
    _require_nonempty(P)
    nontrivial, d = _cone_has_nonzero(P.halfspaces, P.dim)
    return d if nontrivial else None


def _normal_matrix(P):
    return Matrix([h.normal for h in P.halfspaces])


def lineality_dim(P):
    """Dimension of {d : normal_i . d = 0 for all i} = n - rank(normals)."""
    _require_nonempty(P)
    if not P.halfspaces:
        return P.dim
    return P.dim - rank(_normal_matrix(P))


def lineality_direction(P):
    """A direction of a full line contained in P, or None."""
    _require_nonempty(P)
    if not P.halfspaces:
        e = [ZERO] * P.dim
        e[0] = Q(1)
        return Vector(e)
    basis = nullspace_basis(_normal_matrix(P))
    return basis[0] if basis else None


def has_extreme_point(P):
    return lineality_dim(P) == 0


def contains_hyperplane(P):
    """Whether an (n-1)-dimensional affine flat fits inside P."""
    return lineality_dim(P) >= P.dim - 1


def extreme_points(P):
    """The exact vertex set: points with n independent tight constraints.

    Exhaustive n-subset basis enumeration with exact feasibility filtering;
    empty iff P contains a line. Deterministic output order (sorted by
    coordinates).
    """
    n = P.dim
    if n > MAX_VERTEX_ENUM_DIM:
        raise UnsupportedDimensionError(
            f"vertex enumeration supports n <= {MAX_VERTEX_ENUM_DIM}"
        )
    if len(P.halfspaces) > MAX_CONSTRAINTS:
        raise UnsupportedDimensionError(
            f"vertex enumeration supports at most {MAX_CONSTRAINTS} constraints"
        )
    _require_nonempty(P)
    hs = P.halfspaces
    seen = set()
    verts = []
    for subset in itertools.combinations(range(len(hs)), n):
        m = Matrix([hs[i].normal for i in subset])
        rhs = Vector([hs[i].offset for i in subset])
        sol = solve_linear(m, rhs)
        if sol.status is not SolveStatus.UNIQUE:
            continue
        x = Point(sol.solution.coords)
        key = x.coords
        if key in seen:
            continue
        if all(h.contains(x) for h in hs):
            seen.add(key)
            verts.append(x)
    verts.sort(key=lambda p: p.coords)
    return tuple(verts)


def tight_constraints(P, x):
    """Indices of constraints exactly tight at x."""
    return tuple(
        i for i, h in enumerate(P.halfspaces) if h.boundary_contains(x)
    )


def is_vertex(P, x):
    """Whether x is feasible with n linearly independent tight constraints."""
    if not P.contains(x):
        return False
    tight = tight_constraints(P, x)
    if len(tight) < P.dim:
        return False
    m = Matrix([P.halfspaces[i].normal for i in tight])
    return rank(m) == P.dim


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
    """The minimal generator subset whose hull equals hull(V).

    A generator is kept iff it is not a convex combination of the other
    (distinct) generators; this equals the extreme-point set of the hull.
    """
    unique = []
    seen = set()
    for g in V.generators:
        if g.coords not in seen:
            seen.add(g.coords)
            unique.append(g)
    if len(unique) == 1:
        return (unique[0],)
    kept = []
    for i, g in enumerate(unique):
        others = VPolytope(
            tuple(unique[:i] + unique[i + 1 :]), V.dim
        )
        if not hull_contains(others, g):
            kept.append(g)
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
    return all(hull_contains(V, v) for v in extreme_points(P))


def face_in_direction(P, w):
    """The exposed face of P maximizing w, or None when unbounded in w.

    The face is P with the supporting hyperplane added as an equality
    (encoded as two opposing halfspaces).
    """
    if w.is_zero():
        raise ValueError("direction must be nonzero")
    if w.dim != P.dim:
        raise DimensionMismatchError("direction dimension mismatch")
    _require_nonempty(P)
    out = solve_lp(LinearProgram(w, _constraints(P)))
    if out.status is LpStatus.UNBOUNDED:
        return None
    opt = out.value
    extra = (
        Halfspace(w, opt),
        Halfspace(Vector([-v for v in w.coords]), -opt),
    )
    return HPolyhedron(P.halfspaces + extra, P.dim)


def remove_redundant(P):
    """Drop halfspaces whose removal does not change the set.

    Constraint i is redundant iff max normal_i . x over the others (with
    the constraint relaxed by 1 to keep the LP bounded) stays <= offset_i.
    Deterministic: constraints tested in input order.
    """
    _require_nonempty(P)
    hs = list(P.halfspaces)
    i = 0
    while i < len(hs):
        h = hs[i]
        others = hs[:i] + hs[i + 1 :]
        cons = [Constraint(o.normal, Relation.LE, o.offset) for o in others]
        cons.append(Constraint(h.normal, Relation.LE, h.offset + 1))
        out = solve_lp(LinearProgram(h.normal, tuple(cons)))
        if out.status is LpStatus.OPTIMAL and out.value <= h.offset:
            hs.pop(i)
        else:
            i += 1
    return HPolyhedron(tuple(hs), P.dim)


def boundary_has_ray(P):
    """Whether some proper exposed face of P is unbounded.

    Tests, for each facet-defining constraint, whether the face P with
    that constraint tightened to equality has a nontrivial recession cone.
    Requires a non-empty full-dimensional polyhedron.
    """
    _require_nonempty(P)
    if not P.full_dimensional:
        raise NonFullDimensionalError(
            "boundary ray test needs a full-dimensional polyhedron"
        )
    reduced = remove_redundant(P)
    for i, h in enumerate(reduced.halfspaces):
        nontrivial, _ = _cone_has_nonzero(
            reduced.halfspaces, reduced.dim, extra_eq=h.normal
        )
        if nontrivial:
            return True
    return False


def clip_line(P, base, direction):
    """Exact parameter interval of {base + t*direction} inside P.

    Returns None when the line misses P, else (lo, hi) where either end
    may be None for an unbounded side.
    """
    if direction.is_zero():
        raise ValueError("direction must be nonzero")
    P._check_point(base)
    lo, hi = None, None
    for h in P.halfspaces:
        ad = h.normal.dot(direction)
        av = h.value(base)
        if ad == 0:
            if av > h.offset:
                return None
            continue
        bound = (h.offset - av) / ad
        if ad > 0:
            if hi is None or bound < hi:
                hi = bound
        else:
            if lo is None or bound > lo:
                lo = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def polyhedron_boundary_probes(P):
    """Deterministic boundary probe points: vertices plus per-facet spreads.

    Each facet contributes a feasible witness and coordinate-extreme
    points within a box around the witness, so unbounded facets (a
    halfspace boundary, say) still yield several spread-out probes.
    """
    probes = []
    seen = set()

    def add(pt):
        if pt.coords not in seen:
            seen.add(pt.coords)
            probes.append(pt)

    if P.dim <= 4 and lineality_dim(P) == 0:
        for v in extreme_points(P):
            add(v)
    reduced = remove_redundant(P)
    box = Q(8)
    for h in reduced.halfspaces:
        neg = Vector([-c for c in h.normal.coords])
        face_cons = [
            Constraint(g.normal, Relation.LE, g.offset)
            for g in reduced.halfspaces
        ]
        face_cons.append(Constraint(h.normal, Relation.GE, h.offset))
        out = solve_lp(LinearProgram(neg, tuple(face_cons)))
        if out.status is not LpStatus.OPTIMAL:
            continue
        witness = out.point
        facet_pts = [witness]
        boxed = list(face_cons)
        for j in range(P.dim):
            e = [ZERO] * P.dim
            e[j] = Q(1)
            boxed.append(
                Constraint(Vector(e), Relation.LE, witness.coords[j] + box)
            )
            boxed.append(
                Constraint(Vector(e), Relation.GE, witness.coords[j] - box)
            )
        for j in range(P.dim):
            for s in (1, -1):
                e = [ZERO] * P.dim
                e[j] = Q(s)
                opt = solve_lp(LinearProgram(Vector(e), tuple(boxed)))
                if opt.status is LpStatus.OPTIMAL:
                    facet_pts.append(opt.point)
        # Facet midpoints stay on the facet (it is convex) and give
        # non-vertex probes, without which a simplex would look all-flat.
        for a, b in itertools.combinations(facet_pts[:4], 2):
            facet_pts.append(interpolate(a, b, Q(1, 2)))
        for pt in facet_pts:
            add(pt)
    probes.sort(key=lambda pt: pt.coords)
    return probes
