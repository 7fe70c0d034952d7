"""Test-only copies of the LP code that the double description replaced.

`lp_remove_redundant` is the old redundancy loop (one LP per row, rows
tested in input order) and `lp_boundary_probes` the old probe builder
(that loop, then 1 + 2n LPs per facet). `lp_max_slack` is the old
emptiness and interior LP, `lp_face_optimum` the old exposed-face LP,
`lp_feasible_point` the old phase-one member point, `lp_recession_direction`
the old signed-axis recession LPs and `lp_two_sided_direction` the old
per-pair chord direction LP. They referee `HPolyhedron._facets`,
`is_empty`, `full_dimensional`, `interior_point`, `face_in_direction`,
`feasible_point`, `recession_direction`, `is_bounded`, `boundary_has_ray`
and `theorems._two_sided_direction`, and keep the programs they hand the
simplex in the engine's differential corpus.
"""

import itertools

from convexprofile.core import Point, Q, Vector, ZERO, interpolate
from convexprofile.linprog import (
    Constraint,
    LinearProgram,
    LpStatus,
    Relation,
    is_feasible,
    solve_lp,
)
from convexprofile.polyhedra import (
    _require_nonempty,
    _signed_axes,
    extreme_points,
)


def lp_remove_redundant(P):
    """The indices of the halfspaces the LP loop keeps, in input order.

    Constraint i is redundant iff max normal_i . x over the others (with
    the constraint relaxed by 1 to keep the LP bounded) stays <= offset_i.
    """
    _require_nonempty(P)
    kept = list(range(len(P.halfspaces)))
    i = 0
    while i < len(kept):
        h = P.halfspaces[kept[i]]
        others = [P.halfspaces[k] for k in kept[:i] + kept[i + 1 :]]
        cons = [Constraint(o.normal, Relation.LE, o.offset) for o in others]
        cons.append(Constraint(h.normal, Relation.LE, h.offset + 1))
        out = solve_lp(LinearProgram(h.normal, tuple(cons)))
        if out.status is LpStatus.OPTIMAL and out.value <= h.offset:
            kept.pop(i)
        else:
            i += 1
    return kept


def lp_boundary_probes(P):
    """Vertices plus, per facet, an LP witness and the optima of each
    signed axis over the facet cut by a box of 8 around the witness."""
    probes = []
    seen = set()

    def add(pt):
        if pt.coords not in seen:
            seen.add(pt.coords)
            probes.append(pt)

    for v in extreme_points(P):
        add(v)
    reduced = [P.halfspaces[i] for i in lp_remove_redundant(P)]
    box = Q(8)
    axes = _signed_axes(P.dim)
    for h in reduced:
        neg = Vector([-c for c in h.normal.coords])
        face_cons = [Constraint(g.normal, Relation.LE, g.offset) for g in reduced]
        face_cons.append(Constraint(h.normal, Relation.GE, h.offset))
        out = solve_lp(LinearProgram(neg, tuple(face_cons)))
        if out.status is not LpStatus.OPTIMAL:
            continue
        witness = out.point
        facet_pts = [witness]
        boxed = face_cons + [
            Constraint(u, Relation.LE, u.dot(Vector(witness.coords)) + box)
            for u in axes
        ]
        for u in axes:
            opt = solve_lp(LinearProgram(u, tuple(boxed)))
            if opt.status is LpStatus.OPTIMAL:
                facet_pts.append(opt.point)
        for a, b in itertools.combinations(facet_pts[:4], 2):
            facet_pts.append(interpolate(a, b, Q(1, 2)))
        for pt in facet_pts:
            add(pt)
    probes.sort(key=lambda pt: pt.coords)
    return probes


def lp_max_slack(P):
    """(t, x) maximizing a uniform slack t <= 1: normal_i . x + t <= offset_i.

    The program is always feasible (t may go to -infinity) and bounded, so
    one solve settles both questions: the interior is non-empty iff t > 0,
    and P is non-empty iff t >= 0.
    """
    n = P.dim
    if not P.halfspaces:
        return Q(1), Point([ZERO] * n)
    cons = [
        Constraint(Vector([*h.normal.coords, Q(1)]), Relation.LE, h.offset)
        for h in P.halfspaces
    ]
    t_cap = Vector([ZERO] * n + [Q(1)])
    cons.append(Constraint(t_cap, Relation.LE, Q(1)))
    out = solve_lp(LinearProgram(t_cap, tuple(cons)))
    return out.value, Point(out.point.coords[:n])


def lp_face_optimum(P, w):
    """(status, value) of max w . x over P by the simplex."""
    cons = [Constraint(h.normal, Relation.LE, h.offset) for h in P.halfspaces]
    out = solve_lp(LinearProgram(w, tuple(cons)))
    return out.status, out.value


def lp_feasible_point(P):
    """The phase-one witness of P's halfspaces, or None when P is empty."""
    cons = [Constraint(h.normal, Relation.LE, h.offset) for h in P.halfspaces]
    ok, witness = is_feasible(tuple(cons), dim=P.dim)
    return witness if ok else None


def lp_recession_direction(P, extra_eq=None):
    """(u, d) for the first signed axis u with a positive max u . d over
    {d : A d <= 0, u . d <= 1} (and extra_eq . d = 0), d its optimum; or
    None when that cone is {0}."""
    base = [Constraint(h.normal, Relation.LE, ZERO) for h in P.halfspaces]
    if extra_eq is not None:
        base.append(Constraint(extra_eq, Relation.EQ, ZERO))
    for u in _signed_axes(P.dim):
        cons = base + [Constraint(u, Relation.LE, Q(1))]
        out = solve_lp(LinearProgram(u, tuple(cons)))
        if out.status is LpStatus.OPTIMAL and out.value > 0:
            return u, Vector(out.point.coords)
    return None


def lp_two_sided_direction(a, b):
    """A direction d with a . d >= 1 and b . d <= -1 by phase one, or None."""
    ok, d = is_feasible(
        (
            Constraint(a, Relation.GE, Q(1)),
            Constraint(b, Relation.LE, Q(-1)),
        ),
        dim=a.dim,
    )
    return Vector(d.coords) if ok else None
