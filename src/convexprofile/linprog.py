"""Exact rational linear programming via two-phase tableau simplex.

Sizes here are desk scale (a few variables, tens to hundreds of
constraints), so a dense tableau with Bland's anti-cycling rule is both
affordable and certifiably terminating. Optima come with an attaining
point, unbounded programs with an improving recession ray and feasible
ones with a witness point; every certificate is re-checked against the
constraints, in integers, before being returned.

The tableau holds integers, fraction-free (Edmonds, J. Res. NBS 71B,
1967; Bareiss, Math. Comp. 22, 1968): one multiplier clears the
constraint rows, another the cost row, and every row is kept as d times
its true value, d > 0 the last pivot element, so a pivot divides
exactly by the old d and needs no gcd. Only the answers become
rationals. The pivots are those of a rational tableau under the same
rule: the entering test reads signs of reduced costs, the ratio test
cross-multiplies with the lowest-basic-index tie-break, and clearing
every constraint row by one multiplier rescales only the slack and
artificial variables, by the same positive factor. So the attaining
points, rays and the reports built on them do not depend on the
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Point, Q, Vector, ZERO, _cleared, rational
from .errors import CertificateError, DimensionMismatchError


class Relation(Enum):
    LE = "<="
    EQ = "="
    GE = ">="


@dataclass(frozen=True)
class Constraint:
    coeffs: Vector
    relation: Relation
    rhs: object  # rational

    def __post_init__(self):
        object.__setattr__(self, "rhs", rational(self.rhs))

    def satisfied_by(self, x):
        val = self.coeffs.dot(Vector(x.coords))
        if self.relation is Relation.LE:
            return val <= self.rhs
        if self.relation is Relation.GE:
            return val >= self.rhs
        return val == self.rhs


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to the constraints; x is free."""

    objective: Vector
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if c.coeffs.dim != self.objective.dim:
                raise DimensionMismatchError(
                    "constraint dimension differs from the objective"
                )


class LpStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: object = None  # rational, for OPTIMAL
    point: Point | None = None  # attaining point, for OPTIMAL
    ray: Vector | None = None  # improving recession direction, for UNBOUNDED


def _as_le_rows(constraints, dim):
    """Normalize mixed-relation constraints to rows of A x <= b."""
    rows, rhs = [], []
    for c in constraints:
        if c.coeffs.dim != dim:
            raise DimensionMismatchError("constraint dimension mismatch")
        a = list(c.coeffs.coords)
        if c.relation is Relation.LE:
            rows.append(a)
            rhs.append(c.rhs)
        elif c.relation is Relation.GE:
            rows.append([-v for v in a])
            rhs.append(-c.rhs)
        else:  # EQ -> two inequalities, one code path downstream
            rows.append(a)
            rhs.append(c.rhs)
            rows.append([-v for v in a])
            rhs.append(-c.rhs)
    return rows, rhs


def _pivot(tableau, basis, prow, pcol, d):
    """Fraction-free pivot on (prow, pcol); returns the new denominator.

    Every row of `tableau`, an objective row included, holds d times its
    true value. Edmonds' update keeps each entry a minor of the starting
    integer tableau, so the division by the old d is exact. A negative
    pivot negates every row, which keeps the denominator positive.
    """
    pivot_row = tableau[prow]
    p = pivot_row[pcol]
    if p < 0:
        p = -p
        pivot_row = tableau[prow] = [-v for v in pivot_row]
    for i, row in enumerate(tableau):
        if i == prow:
            continue
        f = row[pcol]
        if f:
            tableau[i] = [(p * v - f * w) // d for v, w in zip(row, pivot_row)]
        elif p != d:
            tableau[i] = [p * v // d for v in row]
    basis[prow] = pcol
    return p


def _run_simplex(tableau, basis, allowed, m, d):
    """Bland's rule iterations for the reduced-cost row `tableau[m]`.

    The first m rows are the constraints. Returns (entering, d): entering
    is None at optimality (every reduced cost <= 0 on allowed columns) or
    the column along which the program is unbounded, and d is the common
    denominator after the last pivot.
    """
    while True:
        obj = tableau[m]
        entering = next((j for j in allowed if obj[j] > 0), None)
        if entering is None:
            return None, d
        leaving = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                # the ratios num / coef, compared by cross-multiplying
                num = tableau[i][-1]
                if leaving is None or num * best_coef < best_num * coef or (
                    num * best_coef == best_num * coef
                    and basis[i] < basis[leaving]
                ):
                    leaving, best_num, best_coef = i, num, coef
        if leaving is None:
            return entering, d
        d = _pivot(tableau, basis, leaving, entering, d)


def _solve_max(cost, rows, rhs, nonneg):
    """Maximize cost.x s.t. rows[i].x <= rhs[i], x_j >= 0 where nonneg[j].

    Free variables are split into positive and negative parts. Returns
    (status, x, ray) with x the attaining coordinates (list of rationals)
    or ray an improving recession direction.
    """
    n = len(cost)
    m = len(rows)
    # column map: (orig var, sign); nonneg vars get one column, free two
    col_var = []
    for j in range(n):
        col_var.append((j, 1))
        if not nonneg[j]:
            col_var.append((j, -1))
    ncols = len(col_var)
    nslack = m

    flipped = [rhs[i] < 0 for i in range(m)]
    art_of_row = {}
    art_cols = []
    next_col = ncols + nslack
    for i in range(m):
        if flipped[i]:
            art_of_row[i] = next_col
            art_cols.append(next_col)
            next_col += 1
    total = next_col

    # One multiplier clears every row and keeps the slack and artificial
    # coefficients 1: the program with those variables scaled by `scale`,
    # on which Bland's rule picks the same pivots.
    cleared, scale = _cleared([v for row, b in zip(rows, rhs) for v in (*row, b)])
    tableau = []
    basis = [0] * m
    for i in range(m):
        sign = -1 if flipped[i] else 1
        *a, b = cleared[i * (n + 1) : (i + 1) * (n + 1)]
        row = [0] * (total + 1)
        for c, (j, s) in enumerate(col_var):
            row[c] = sign * a[j] * s
        row[ncols + i] = sign
        row[-1] = sign * b
        if flipped[i]:
            row[art_of_row[i]] = 1
            basis[i] = art_of_row[i]
        else:
            basis[i] = ncols + i
        tableau.append(row)
    d = 1

    # Phase 1: maximize -sum(artificials); price out the basic artificials.
    if art_cols:
        art_set = set(art_cols)
        obj1 = [sum(col) for col in zip(*(tableau[i] for i in art_of_row))]
        for c in art_cols:
            obj1[c] = 0
        allowed1 = [c for c in range(total) if c not in art_set]
        tableau.append(obj1)
        unb, d = _run_simplex(tableau, basis, allowed1, m, d)
        tableau.pop()
        if unb is not None:
            raise CertificateError("phase-1 objective came out unbounded")
        if any(basis[i] in art_set and tableau[i][-1] != 0 for i in range(m)):
            return LpStatus.INFEASIBLE, None, None
        # Drive the zero-valued artificials out of the basis. Each such row
        # has a non-artificial entry: the slack columns make the starting
        # rows independent, so no row is ever redundant.
        for i in range(m):
            if basis[i] in art_set:
                pcol = next(
                    c for c in range(total)
                    if c not in art_set and tableau[i][c] != 0
                )
                d = _pivot(tableau, basis, i, pcol, d)

    # Phase 2, on the cost row cleared by its own multiplier
    cleared_cost, _ = _cleared(cost)
    cost_of_col = [cleared_cost[j] * s for (j, s) in col_var]
    obj = [0] * (total + 1)
    for c in range(ncols):
        obj[c] = d * cost_of_col[c]
    for i in range(m):
        b = basis[i]
        if b < ncols and cost_of_col[b] != 0:
            f = cost_of_col[b]
            obj = [v - f * w for v, w in zip(obj, tableau[i])]
    tableau.append(obj)
    allowed = list(range(ncols + nslack))
    entering, d = _run_simplex(tableau, basis, allowed, m, d)
    tableau.pop()

    num = [0] * n
    if entering is not None:
        # A cleared slack is `scale` times the stated one, so its column
        # reads the stated column divided by `scale`.
        col_scale = 1 if entering < ncols else scale
        if entering < ncols:
            j, s = col_var[entering]
            num[j] += s * d
        for i in range(m):
            b = basis[i]
            if b < ncols:
                bj, bs = col_var[b]
                num[bj] -= bs * col_scale * tableau[i][entering]
        return LpStatus.UNBOUNDED, None, [Q(v, d) for v in num]

    for i in range(m):
        b = basis[i]
        if b < ncols:
            j, s = col_var[b]
            num[j] += s * tableau[i][-1]
    return LpStatus.OPTIMAL, [Q(v, d) for v in num], None


def _satisfies(rows, rhs, x):
    """Whether x meets every row: rows[i] . x <= rhs[i], compared in
    integers. With x = num / d and each row (a, b) cleared by its own lcm,
    the row holds iff a . num <= b d."""
    num, d = _cleared(x)
    cleared = (_cleared([*row, b])[0] for row, b in zip(rows, rhs))
    return all(sum(u * v for u, v in zip(a, num)) <= b * d for *a, b in cleared)


def solve_lp(lp):
    """Exact optimum with attaining point, certified improving ray, or infeasible.

    Deterministic: Bland's smallest-index rule for entering columns and
    lowest-basic-index tie-breaking on leaving rows.
    """
    n = lp.objective.dim
    rows, rhs = _as_le_rows(lp.constraints, n)
    cost = list(lp.objective.coords)
    status, x, ray = _solve_max(cost, rows, rhs, [False] * n)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    if status is LpStatus.UNBOUNDED:
        if not _satisfies(rows, [ZERO] * len(rows), ray):
            raise CertificateError("unbounded ray is not a recession direction")
        d = Vector(ray)
        if lp.objective.dot(d) <= 0:
            raise CertificateError("unbounded ray does not improve the objective")
        return LpOutcome(LpStatus.UNBOUNDED, ray=d)
    if not _satisfies(rows, rhs, x):
        raise CertificateError("optimal point violates a constraint")
    return LpOutcome(
        LpStatus.OPTIMAL, value=lp.objective.dot(Vector(x)), point=Point(x)
    )


def is_feasible(constraints, dim=None):
    """Phase-one feasibility; returns (True, witness Point) or (False, None).

    `dim` is required when the constraint list is empty (the whole space
    is feasible; the witness is the origin of E^dim).
    """
    constraints = tuple(constraints)
    if not constraints:
        if dim is None:
            raise ValueError("dim is required for an empty constraint set")
        return True, Point([ZERO] * dim)
    n = constraints[0].coeffs.dim
    if dim is not None and dim != n:
        raise DimensionMismatchError("constraints do not match the stated dim")
    rows, rhs = _as_le_rows(constraints, n)
    status, x, _ = _solve_max([ZERO] * n, rows, rhs, [False] * n)
    if status is LpStatus.INFEASIBLE:
        return False, None
    if not _satisfies(rows, rhs, x):
        raise CertificateError("feasibility witness violates a constraint")
    return True, Point(x)


def solve_nonneg_feasibility(rows, rhs):
    """Feasibility of rows.x <= rhs with all x >= 0; returns witness list or None.

    Internal helper for hull-membership style programs whose variables are
    naturally sign-constrained (avoids the free-variable split).
    """
    n = len(rows[0]) if rows else 0
    status, x, _ = _solve_max([ZERO] * n, rows, rhs, [True] * n)
    if status is LpStatus.INFEASIBLE:
        return None
    if any(v < 0 for v in x):
        raise CertificateError("feasibility witness has a negative coordinate")
    if not _satisfies(rows, rhs, x):
        raise CertificateError("feasibility witness violates a constraint")
    return x

