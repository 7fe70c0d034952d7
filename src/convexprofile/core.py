"""Exact rational scalars, points, vectors, and small dense linear algebra.

Every coordinate in the library is an exact `fractions.Fraction`, reduced
with a positive denominator; no predicate ever touches floating point. The
integer forms the predicates run on are built here alone: `_cleared`,
`_primitive`, `_dot`, `_combine` and `_orient`. A `Point` carries its own
primitive homogeneous form (X_1, ..., X_n, W), W > 0, in a slot: built by
`_cleared` on the first read of `Point.form`, or given to
`Point._from_form`, so no point is cleared twice. `interpolate`,
`midpoint` and `orientation` read the forms of their points, with no
rational arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction as Q

from .errors import DimensionMismatchError

ZERO = Q(0)
ONE = Q(1)


def rational(value, den=None):
    """Build an exact rational from an int, a 'p/q' or 'p' string, or a rational.

    Floats are rejected: silently converting them would smuggle rounding
    into the exact predicates. A rational is returned as it is: it is
    immutable.
    """
    if den is None and type(value) is Q:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to build an exact rational from a float")
    if den is not None:
        return Q(value, den)
    if isinstance(value, str):
        return Q(value.strip())
    return Q(value)


def _cleared(values):
    """(integers scale * v, scale) for rationals v, where scale is the lcm
    of their denominators. The one place rationals become Python ints."""
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    return ints, scale


def _primitive(v):
    """The integer vector v divided by the gcd of its entries, as a tuple."""
    g = math.gcd(*v)
    return tuple([c // g for c in v]) if g > 1 else tuple(v)


def _dot(u, v):
    """The dot product of two integer vectors."""
    return sum(map(operator.mul, u, v))


def _combine(a, u, b, v):
    """The primitive integer vector along a * u + b * v."""
    return _primitive([a * x + b * y for x, y in zip(u, v)])


def format_rational(q):
    """Render as 'p/q', or 'p' when the denominator is 1."""
    return str(q)


class _Coords:
    """Shared implementation for the Point / Vector coordinate tuples."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(rational(c) for c in coords)
        if not self.coords:
            raise ValueError("need at least one coordinate")

    @property
    def dim(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return type(other) is type(self) and self.coords == other.coords

    def __hash__(self):
        return hash((type(self).__name__, self.coords))

    def __repr__(self):
        inner = ", ".join(format_rational(c) for c in self.coords)
        return f"{type(self).__name__}({inner})"


class Point(_Coords):
    """A point of E^n with exact rational coordinates."""

    __slots__ = ("_form",)

    @property
    def form(self):
        """The primitive integer form (X_1, ..., X_n, W), W > 0, of the
        point: W is the lcm of its denominators, so equal points have equal
        forms. Built once, on the first read."""
        form = getattr(self, "_form", None)
        if form is None:
            xs, w = _cleared(self.coords)
            self._form = form = (*xs, w)
        return form

    @classmethod
    def _from_form(cls, form):
        """The point X / W of a primitive integer form (X_1, ..., X_n, W),
        W > 0, with its form cached; ValueError for any other form."""
        *xs, w = form = tuple(form)
        if not xs or w <= 0 or math.gcd(*form) != 1:
            raise ValueError(f"{form} is not a primitive form with W > 0")
        p = cls.__new__(cls)
        p.coords, p._form = tuple([Q(x, w) for x in xs]), form
        return p

    def __sub__(self, other):
        if isinstance(other, Point):
            _check_same_dim(self, other)
            return Vector(a - b for a, b in zip(self.coords, other.coords))
        if isinstance(other, Vector):
            _check_same_dim(self, other)
            return Point(a - b for a, b in zip(self.coords, other.coords))
        return NotImplemented

    def __add__(self, vec):
        if not isinstance(vec, Vector):
            return NotImplemented
        _check_same_dim(self, vec)
        return Point(a + b for a, b in zip(self.coords, vec.coords))


class Vector(_Coords):
    """A direction of E^n with exact rational coordinates."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _check_same_dim(self, other)
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _check_same_dim(self, other)
        return Vector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return Vector(-a for a in self.coords)

    def __mul__(self, scalar):
        s = rational(scalar)
        return Vector(a * s for a in self.coords)

    __rmul__ = __mul__

    def dot(self, other):
        _check_same_dim(self, other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), ZERO)

    def is_zero(self):
        return all(a == 0 for a in self.coords)


def point(*coords):
    return Point(coords)


def vector(*coords):
    return Vector(coords)


def _check_same_dim(a, b):
    if len(a.coords) != len(b.coords):
        raise DimensionMismatchError(
            f"dimension mismatch: {len(a.coords)} vs {len(b.coords)}"
        )


def midpoint(a, b):
    return interpolate(a, b, Q(1, 2))


def interpolate(a, b, t):
    """a + t*(b - a) for rational t = p/q, built from the two forms as the
    primitive form of ((q - p) w_b X_a + p w_a X_b, q w_a w_b)."""
    _check_same_dim(a, b)
    t = rational(t)
    p, q = t.numerator, t.denominator
    fa, fb = a.form, b.form
    return Point._from_form(_combine((q - p) * fb[-1], fa, p * fa[-1], fb))


@dataclass(frozen=True)
class Segment:
    """A segment between two points.

    Degenerate segments (a == b) are permitted at construction; operations
    that need a non-degenerate segment reject them explicitly.
    """

    a: Point
    b: Point

    def __post_init__(self):
        _check_same_dim(self.a, self.b)

    @property
    def dim(self):
        return self.a.dim


class Orientation(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


def _orient(p, q, r):
    """Sign of det(q - p, r - p) for the points of three forms (x, y, w), w > 0."""
    px, py, pw = p
    qx, qy, qw = q
    rx, ry, rw = r
    det = (
        px * (qy * rw - ry * qw)
        - py * (qx * rw - rx * qw)
        + pw * (qx * ry - rx * qy)
    )
    return (det > 0) - (det < 0)


def orientation(a, b, c):
    """Sign of det(b - a, c - a) for 2D points, read from their forms."""
    for p in (a, b, c):
        if p.dim != 2:
            raise DimensionMismatchError("orientation is a 2D predicate")
    return Orientation(_orient(a.form, b.form, c.form))


def cross2(u, v):
    """2D cross product u.x*v.y - u.y*v.x."""
    _check_same_dim(u, v)
    if len(u.coords) != 2:
        raise DimensionMismatchError("cross2 is a 2D operation")
    return u.coords[0] * v.coords[1] - u.coords[1] * v.coords[0]


class Matrix:
    """A small dense matrix of rationals, stored as a tuple of row Vectors."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(r if isinstance(r, Vector) else Vector(r) for r in rows)
        if not rs:
            raise ValueError("matrix needs at least one row")
        width = rs[0].dim
        if any(r.dim != width for r in rs):
            raise DimensionMismatchError("matrix rows differ in length")
        self.rows = rs

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return self.rows[0].dim

    def transpose(self):
        return Matrix(
            Vector(r.coords[j] for r in self.rows) for j in range(self.ncols)
        )

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({list(self.rows)!r})"


def _row_echelon(rows, ncols):
    """In-place forward elimination; returns the list of pivot columns.

    `rows` is a list of mutable lists of rationals (may be wider than
    `ncols`; the extra columns ride along, e.g. an augmented RHS).
    """
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(m):
    """Exact rank over the rationals."""
    rows = [list(r.coords) for r in m.rows]
    return len(_row_echelon(rows, m.ncols))


class SolveStatus(Enum):
    UNIQUE = "unique"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LinearSolution:
    status: SolveStatus
    solution: Vector | None = None
    nullspace_dim: int = 0


def solve_linear(m, rhs):
    """Exact solution classification for m * x = rhs.

    Unique carries the solution; Underdetermined carries one particular
    solution plus the nullspace dimension; Inconsistent carries neither.
    """
    if not isinstance(rhs, Vector):
        rhs = Vector(rhs)
    if m.nrows != rhs.dim:
        raise DimensionMismatchError("rhs length must equal the row count")
    rows = [list(r.coords) + [v] for r, v in zip(m.rows, rhs.coords)]
    pivots = _row_echelon(rows, m.ncols)
    for i in range(len(pivots), m.nrows):
        if rows[i][m.ncols] != 0:
            return LinearSolution(SolveStatus.INCONSISTENT)
    x = [ZERO] * m.ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][m.ncols]
    free = m.ncols - len(pivots)
    if free == 0:
        return LinearSolution(SolveStatus.UNIQUE, Vector(x))
    return LinearSolution(SolveStatus.UNDERDETERMINED, Vector(x), free)


def nullspace_basis(m):
    """A basis for the exact nullspace of m, one Vector per free column."""
    rows = [list(r.coords) for r in m.rows]
    pivots = _row_echelon(rows, m.ncols)
    pivot_set = set(pivots)
    basis = []
    for free_col in range(m.ncols):
        if free_col in pivot_set:
            continue
        v = [ZERO] * m.ncols
        v[free_col] = ONE
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free_col]
        basis.append(Vector(v))
    return basis
