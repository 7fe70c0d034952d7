"""Exact rational linear programming via two-phase tableau simplex.

Sizes here are desk scale (a few variables, tens of constraints), so a
dense tableau over exact rationals with Bland's anti-cycling rule is both
affordable and certifiably terminating. Optima come with an attaining
point, unbounded programs with an improving recession ray and feasible
ones with a witness point; every certificate is re-checked against the
constraints before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Point, Q, Vector, ZERO, rational
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


def _pivot(tableau, basis, prow, pcol):
    piv = tableau[prow][pcol]
    inv = Q(1) / piv
    tableau[prow] = [v * inv for v in tableau[prow]]
    prow_vals = tableau[prow]
    for i in range(len(tableau)):
        if i == prow:
            continue
        f = tableau[i][pcol]
        if f != 0:
            row = tableau[i]
            tableau[i] = [v - f * w for v, w in zip(row, prow_vals)]
    basis[prow] = pcol


def _run_simplex(tableau, basis, obj, allowed, m):
    """Bland's rule iterations on `tableau` for reduced-cost row `obj`.

    `obj` is maintained in place (reduced costs; optimal when all <= 0 on
    allowed columns). Returns None on optimality or the entering column
    index when the program is unbounded in that direction.
    """
    while True:
        entering = None
        for j in allowed:
            if obj[j] > 0:
                entering = j
                break
        if entering is None:
            return None
        leaving = None
        best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return entering
        _pivot(tableau, basis, leaving, entering)
        f = obj[entering]
        obj[:] = [v - f * w for v, w in zip(obj, tableau[leaving])]


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

    tableau = []
    basis = [0] * m
    for i in range(m):
        row = [ZERO] * (total + 1)
        sign = -1 if flipped[i] else 1
        for c, (j, s) in enumerate(col_var):
            v = rows[i][j] * s
            if v != 0:
                row[c] = v * sign
        row[ncols + i] = Q(sign)
        row[-1] = rhs[i] * sign
        if flipped[i]:
            row[art_of_row[i]] = Q(1)
            basis[i] = art_of_row[i]
        else:
            basis[i] = ncols + i
        tableau.append(row)

    # Phase 1: maximize -sum(artificials); price out the basic artificials.
    if art_cols:
        obj1 = [ZERO] * (total + 1)
        for i in range(m):
            if flipped[i]:
                obj1 = [v + w for v, w in zip(obj1, tableau[i])]
        for c in art_cols:
            obj1[c] = ZERO
        allowed1 = [c for c in range(total) if c not in art_of_row.values()]
        unb = _run_simplex(tableau, basis, obj1, allowed1, m)
        if unb is not None:
            raise CertificateError("phase-1 objective came out unbounded")
        art_set = set(art_cols)
        if any(basis[i] in art_set and tableau[i][-1] != 0 for i in range(m)):
            return LpStatus.INFEASIBLE, None, None
        # drive remaining zero-valued artificials out of the basis
        for i in range(m):
            if basis[i] in art_set:
                pcol = None
                for c in range(total):
                    if c not in art_set and tableau[i][c] != 0:
                        pcol = c
                        break
                if pcol is not None:
                    _pivot(tableau, basis, i, pcol)
        keep = [i for i in range(m) if basis[i] not in art_set]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(tableau)

    # Phase 2
    cost_of_col = [cost[j] * s for (j, s) in col_var]
    obj = [ZERO] * (total + 1)
    for c in range(ncols):
        obj[c] = cost_of_col[c]
    for i in range(m):
        b = basis[i]
        if b < ncols and cost_of_col[b] != 0:
            f = cost_of_col[b]
            obj = [v - f * w for v, w in zip(obj, tableau[i])]
            obj[b] = ZERO
    allowed = list(range(ncols + nslack))
    entering = _run_simplex(tableau, basis, obj, allowed, m)

    if entering is not None:
        direction = [ZERO] * n
        j, s = col_var[entering] if entering < ncols else (None, None)
        if j is not None:
            direction[j] += Q(s)
        for i in range(m):
            b = basis[i]
            if b < ncols:
                bj, bs = col_var[b]
                direction[bj] -= Q(bs) * tableau[i][entering]
        return LpStatus.UNBOUNDED, None, direction

    x = [ZERO] * n
    for i in range(m):
        b = basis[i]
        if b < ncols:
            j, s = col_var[b]
            x[j] += Q(s) * tableau[i][-1]
    return LpStatus.OPTIMAL, x, None


def _satisfies(rows, rhs, x):
    """Whether x meets every row: rows[i] . x <= rhs[i]."""
    return all(
        sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(rows, rhs)
    )


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

