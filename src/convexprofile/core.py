"""Exact rational scalars, points, vectors, and small dense linear algebra.

Every coordinate in the library is an exact rational; no predicate ever
touches floating point. Rationals are kept in reduced form with a positive
denominator, so equality and hashing are cheap. `gmpy2.mpq` is used when
available (same semantics as `fractions.Fraction`, roughly an order of
magnitude faster); the stdlib Fraction is the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    from fractions import Fraction as Q

from .errors import DimensionMismatchError

ZERO = Q(0)
ONE = Q(1)


def rational(value, den=None):
    """Build an exact rational from an int, a 'p/q' or 'p' string, or a rational.

    Floats are rejected: silently converting them would smuggle rounding
    into the exact predicates.
    """
    if isinstance(value, float):
        raise TypeError("refusing to build an exact rational from a float")
    if den is not None:
        return Q(value, den)
    if isinstance(value, str):
        return Q(value.strip())
    return Q(value)


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
    _check_same_dim(a, b)
    half = Q(1, 2)
    return Point((x + y) * half for x, y in zip(a.coords, b.coords))


def interpolate(a, b, t):
    """a + t*(b - a) for rational t."""
    t = rational(t)
    return Point(x + t * (y - x) for x, y in zip(a.coords, b.coords))


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


def orientation(a, b, c):
    """Sign of det(b - a, c - a) for 2D points; exact, no tolerance."""
    for p in (a, b, c):
        if p.dim != 2:
            raise DimensionMismatchError("orientation is a 2D predicate")
    d = (b.coords[0] - a.coords[0]) * (c.coords[1] - a.coords[1]) - (
        b.coords[1] - a.coords[1]
    ) * (c.coords[0] - a.coords[0])
    return Orientation((d > 0) - (d < 0))


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
