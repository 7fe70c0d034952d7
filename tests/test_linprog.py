import collections
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile import linprog
from convexprofile.core import Point, Q, Vector, ZERO, midpoint, vector
from convexprofile.generators import random_bounded_polytope, random_hpolyhedron
from convexprofile.errors import CertificateError
from convexprofile.linprog import (
    Constraint,
    LinearProgram,
    LpStatus,
    Relation,
    _as_le_rows,
    is_feasible,
    solve_lp,
    solve_nonneg_feasibility,
)
from convexprofile.polyhedra import (
    VPolytope,
    _signed_axes,
    extreme_points,
    hull_contains,
)
from lp_reference import (
    lp_boundary_probes,
    lp_face_optimum,
    lp_feasible_point,
    lp_max_slack,
    lp_recession_direction,
    lp_two_sided_direction,
)


def dual_of(lp):
    """The dual min{b.y : A^T y = c, y >= 0} of max{c.x : Ax <= b, x free},
    as the LP maximize -b.y, for the strong-duality check."""
    n = lp.objective.dim
    rows, rhs = _as_le_rows(lp.constraints, n)
    m = len(rows)
    constraints = []
    for j in range(n):
        col = Vector([rows[i][j] for i in range(m)])
        constraints.append(Constraint(col, Relation.EQ, lp.objective.coords[j]))
    for i in range(m):
        e = [ZERO] * m
        e[i] = Q(1)
        constraints.append(Constraint(Vector(e), Relation.GE, ZERO))
    return LinearProgram(Vector([-v for v in rhs]), tuple(constraints))


def le(coeffs, rhs):
    return Constraint(vector(*coeffs), Relation.LE, rhs)


def ge(coeffs, rhs):
    return Constraint(vector(*coeffs), Relation.GE, rhs)


def test_bounded_maximum():
    out = solve_lp(LinearProgram(vector(1), (le([1], 3),)))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 3
    assert out.point == Point([3])


def test_unbounded_with_ray():
    out = solve_lp(LinearProgram(vector(1), (ge([1], 0),)))
    assert out.status is LpStatus.UNBOUNDED
    assert out.ray.coords[0] > 0


def test_infeasible():
    out = solve_lp(LinearProgram(vector(1), (le([1], 0), ge([1], 1))))
    assert out.status is LpStatus.INFEASIBLE


def test_feasibility_examples():
    ok, witness = is_feasible((ge([1], 0), le([1], 1)))
    assert ok and 0 <= witness.coords[0] <= 1
    ok, _ = is_feasible((le([1], 0), ge([1], 1)))
    assert not ok
    ok, witness = is_feasible((), dim=2)
    assert ok and witness == Point([0, 0])


def test_equality_constraints():
    out = solve_lp(
        LinearProgram(vector(1, 1), (Constraint(vector(1, 1), Relation.EQ, 5), le([1, 0], 2)))
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 5


# the classic degenerate program that cycles under naive pivoting
BEALE_LP = LinearProgram(
    vector(Q(3, 4), -150, Q(1, 50), -6),
    (
        le([Q(1, 4), -60, Q(-1, 25), 9], 0),
        le([Q(1, 2), -90, Q(-1, 50), 3], 0),
        le([0, 0, 1, 0], 1),
        ge([1, 0, 0, 0], 0),
        ge([0, 1, 0, 0], 0),
        ge([0, 0, 1, 0], 0),
        ge([0, 0, 0, 1], 0),
    ),
)

DEGENERATE_SQUARE_LP = LinearProgram(
    vector(1, 1),
    (le([1, 0], 1), le([-1, 0], 0), le([0, 1], 1), le([0, -1], 0),
     le([1, 1], 2)),
)


def test_beale_cycling_example_terminates():
    # Bland's rule must terminate at the optimum 1/20
    out = solve_lp(BEALE_LP)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == Q(1, 20)


def test_degenerate_square_is_deterministic():
    out1 = solve_lp(DEGENERATE_SQUARE_LP)
    out2 = solve_lp(DEGENERATE_SQUARE_LP)
    assert out1 == out2
    assert out1.value == 2


def _random_lp(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 6)
    cons = []
    for _ in range(m):
        coeffs = [Q(rng.randint(-4, 4)) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(n)] = Q(1)
        cons.append(Constraint(Vector(coeffs), Relation.LE, Q(rng.randint(-3, 6))))
    # box to keep a decent share of instances bounded
    if rng.random() < 0.7:
        for j in range(n):
            e = [Q(0)] * n
            e[j] = Q(1)
            cons.append(Constraint(Vector(e), Relation.LE, Q(8)))
            e2 = [Q(0)] * n
            e2[j] = Q(-1)
            cons.append(Constraint(Vector(e2), Relation.LE, Q(8)))
    objective = Vector([Q(rng.randint(-4, 4)) for _ in range(n)])
    return LinearProgram(objective, tuple(cons))


@given(st.integers(0, 10**9))
@settings(max_examples=120)
def test_optimal_points_satisfy_constraints_exactly(seed):
    lp = _random_lp(seed)
    out = solve_lp(lp)
    if out.status is LpStatus.OPTIMAL:
        for c in lp.constraints:
            assert c.satisfied_by(out.point)
        assert lp.objective.dot(Vector(out.point.coords)) == out.value


@given(st.integers(0, 10**9))
@settings(max_examples=100)
def test_strong_duality_on_random_lps(seed):
    lp = _random_lp(seed)
    out = solve_lp(lp)
    if out.status is not LpStatus.OPTIMAL:
        return
    dual = dual_of(lp)
    dual_out = solve_lp(dual)
    assert dual_out.status is LpStatus.OPTIMAL
    # dual is encoded as max -b.y, so its optimum is the negated min
    assert -dual_out.value == out.value


@given(st.integers(0, 10**9))
@settings(max_examples=100)
def test_unbounded_certificates_verify(seed):
    lp = _random_lp(seed)
    out = solve_lp(lp)
    if out.status is not LpStatus.UNBOUNDED:
        return
    ok, witness = is_feasible(lp.constraints, dim=lp.objective.dim)
    assert ok
    base_value = lp.objective.dot(Vector(witness.coords))
    gain = lp.objective.dot(out.ray)
    assert gain > 0
    for t in (1, 10, 100):
        moved = witness + t * out.ray
        for c in lp.constraints:
            assert c.satisfied_by(moved)
        assert lp.objective.dot(Vector(moved.coords)) == base_value + t * gain


# max x s.t. x <= 1, y free: (0, 1) is a recession direction that does not
# improve the objective, and (2, 0) violates the constraint.
FORGED_LP = LinearProgram(vector(1, 0), (le([1, 0], 1),))


def test_forged_certificates_raise(monkeypatch):
    def forged(status, x=None, ray=None):
        return lambda cost, rows, rhs, nonneg: (status, x, ray)

    monkeypatch.setattr(
        linprog, "_solve_max", forged(LpStatus.UNBOUNDED, ray=[Q(0), Q(1)])
    )
    with pytest.raises(CertificateError, match="improve"):
        solve_lp(FORGED_LP)
    monkeypatch.setattr(
        linprog, "_solve_max", forged(LpStatus.OPTIMAL, x=[Q(2), Q(0)])
    )
    with pytest.raises(CertificateError, match="violates"):
        solve_lp(FORGED_LP)


@pytest.mark.parametrize("solve, x, match", [
    (lambda: is_feasible(FORGED_LP.constraints), [Q(2), Q(0)], "violates"),
    (lambda: solve_nonneg_feasibility([[Q(1), Q(0)]], [Q(1)]), [Q(2), Q(0)],
     "violates"),
    (lambda: solve_nonneg_feasibility([[Q(1), Q(0)]], [Q(1)]), [Q(0), Q(-1)],
     "negative"),
], ids=["is-feasible", "nonneg-row", "nonneg-sign"])
def test_forged_feasibility_witnesses_raise(solve, x, match, monkeypatch):
    monkeypatch.setattr(
        linprog, "_solve_max", lambda *args: (LpStatus.OPTIMAL, x, None)
    )
    with pytest.raises(CertificateError, match=match):
        solve()


def test_forged_certificates_raise_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        from convexprofile import linprog
        from convexprofile.core import Q, vector
        from convexprofile.errors import CertificateError
        from convexprofile.linprog import (
            Constraint, LinearProgram, LpStatus, Relation, is_feasible,
            solve_lp, solve_nonneg_feasibility,
        )

        print(sys.flags.optimize)
        lp = LinearProgram(
            vector(1, 0), (Constraint(vector(1, 0), Relation.LE, 1),)
        )
        for solve, status, x, ray in (
            (lambda: solve_lp(lp), LpStatus.UNBOUNDED, None, [Q(0), Q(1)]),
            (lambda: solve_lp(lp), LpStatus.OPTIMAL, [Q(2), Q(0)], None),
            (lambda: is_feasible(lp.constraints), LpStatus.OPTIMAL,
             [Q(2), Q(0)], None),
            (lambda: solve_nonneg_feasibility([[Q(1), Q(0)]], [Q(1)]),
             LpStatus.OPTIMAL, [Q(0), Q(-1)], None),
        ):
            linprog._solve_max = lambda *args: (status, x, ray)
            try:
                solve()
                print("accepted")
            except CertificateError:
                print("CertificateError")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["CertificateError"] * 4


# --- The Fraction engine the integer tableau replaced, kept as a reference:
# the integer engine must take the same pivots and return the same answers.

def _fraction_pivot(tableau, basis, prow, pcol):
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


def _fraction_run_simplex(tableau, basis, obj, allowed, m):
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
        _fraction_pivot(tableau, basis, leaving, entering)
        f = obj[entering]
        obj[:] = [v - f * w for v, w in zip(obj, tableau[leaving])]


def _fraction_solve_max(cost, rows, rhs, nonneg):
    n = len(cost)
    m = len(rows)
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

    if art_cols:
        obj1 = [ZERO] * (total + 1)
        for i in range(m):
            if flipped[i]:
                obj1 = [v + w for v, w in zip(obj1, tableau[i])]
        for c in art_cols:
            obj1[c] = ZERO
        allowed1 = [c for c in range(total) if c not in art_of_row.values()]
        unb = _fraction_run_simplex(tableau, basis, obj1, allowed1, m)
        if unb is not None:
            raise CertificateError("phase-1 objective came out unbounded")
        art_set = set(art_cols)
        if any(basis[i] in art_set and tableau[i][-1] != 0 for i in range(m)):
            return LpStatus.INFEASIBLE, None, None
        for i in range(m):
            if basis[i] in art_set:
                pcol = None
                for c in range(total):
                    if c not in art_set and tableau[i][c] != 0:
                        pcol = c
                        break
                if pcol is not None:
                    _fraction_pivot(tableau, basis, i, pcol)
        keep = [i for i in range(m) if basis[i] not in art_set]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(tableau)

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
    entering = _fraction_run_simplex(tableau, basis, obj, allowed, m)

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


def _program(lp):
    """The (cost, rows, rhs, nonneg) arguments `solve_lp` hands the engine."""
    n = lp.objective.dim
    rows, rhs = _as_le_rows(lp.constraints, n)
    return list(lp.objective.coords), rows, rhs, [False] * n


def _polyhedral_programs():
    """The engine's arguments in the max-slack LP, the LP redundancy loop,
    the LP boundary probes, the LP face optima along the signed axes, the
    phase-one member point, the recession LPs, the chord direction LP of
    the first two rows and hull membership, on seeded polyhedra and
    polytopes in E^2..E^4."""
    programs = []
    engine = linprog._solve_max

    def capture(*args):
        programs.append(args)
        return engine(*args)

    rng = random.Random(11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog, "_solve_max", capture)
        for dim in (2, 3, 4):
            for _ in range(2):
                P = random_hpolyhedron(rng, dim)
                lp_max_slack(P)
                lp_boundary_probes(P)
                for w in _signed_axes(dim):
                    lp_face_optimum(P, w)
                lp_feasible_point(P)
                lp_recession_direction(P)
                hs = P.halfspaces
                if len(hs) > 1:
                    lp_two_sided_direction(hs[0].normal, hs[1].normal)
            P = random_bounded_polytope(rng, dim)
            lp_max_slack(P)
            gens = extreme_points(P)
            hull = VPolytope(gens, dim)
            for _ in range(6):
                x = Point([Q(rng.randint(-24, 24), 4) for _ in range(dim)])
                hull_contains(hull, x)
                hull_contains(hull, midpoint(x, rng.choice(gens)))
    return programs


@pytest.fixture(scope="module")
def engine_programs():
    lps = [_random_lp(seed) for seed in range(120)]
    lps += [dual_of(lp) for lp in lps]  # equality rows
    lps += [
        BEALE_LP,
        DEGENERATE_SQUARE_LP,
        FORGED_LP,
        LinearProgram(vector(1), (le([1], 0), ge([1], 1))),  # infeasible
        LinearProgram(vector(1, -1), (ge([1, 0], 0), le([1, -1], 3))),
        LinearProgram(vector(0, 0), ()),
    ]
    return [_program(lp) for lp in lps] + _polyhedral_programs()


def _logged(fn, log, entry):
    def wrapper(*args):
        log.append(entry(args))
        return fn(*args)
    return wrapper


def test_integer_engine_pivots_as_the_fraction_engine(engine_programs,
                                                      monkeypatch):
    # Same pivots, same simplex phases (by row count), same answers.
    log, ref_log = [], []
    monkeypatch.setattr(linprog, "_pivot", _logged(
        linprog._pivot, log, lambda a: (a[2], a[3])))
    monkeypatch.setattr(linprog, "_run_simplex", _logged(
        linprog._run_simplex, log, lambda a: ("simplex", a[3])))
    here = sys.modules[__name__]
    monkeypatch.setattr(here, "_fraction_pivot", _logged(
        _fraction_pivot, ref_log, lambda a: (a[2], a[3])))
    monkeypatch.setattr(here, "_fraction_run_simplex", _logged(
        _fraction_run_simplex, ref_log, lambda a: ("simplex", a[4])))
    seen = collections.Counter()
    for cost, rows, rhs, nonneg in engine_programs:
        log.clear()
        ref_log.clear()
        answer = linprog._solve_max(cost, rows, rhs, nonneg)
        assert answer == _fraction_solve_max(cost, rows, rhs, nonneg)
        assert log == ref_log
        seen[answer[0]] += 1
        seen["nonneg"] += all(nonneg)
        phases = [i for i, entry in enumerate(log) if entry[0] == "simplex"]
        if len(phases) == 2:
            seen["drive-out"] += phases[1] - phases[0] > 1
    assert seen[LpStatus.OPTIMAL] > 300
    assert seen[LpStatus.UNBOUNDED] > 20
    assert seen[LpStatus.INFEASIBLE] > 20
    assert seen["nonneg"] > 20
    assert seen["drive-out"] > 20


def test_integer_pivots_divide_exactly(engine_programs, monkeypatch):
    # Every division by the old denominator leaves no remainder, and every
    # basic column reads the new denominator in its row and 0 elsewhere,
    # the objective rows included.
    pivot = linprog._pivot
    count = collections.Counter()

    def checked(tableau, basis, prow, pcol, d):
        before = [list(row) for row in tableau]
        new_d = pivot(tableau, basis, prow, pcol, d)
        pivot_row = before[prow]
        if pivot_row[pcol] < 0:
            pivot_row = [-v for v in pivot_row]
            count["negative"] += 1
        p = pivot_row[pcol]
        assert new_d == p > 0
        assert tableau[prow] == pivot_row
        for i, row in enumerate(before):
            if i == prow:
                continue
            f = row[pcol]
            expected = []
            for v, w in zip(row, pivot_row):
                quotient, remainder = divmod(p * v - f * w, d)
                assert remainder == 0
                expected.append(quotient)
            assert tableau[i] == expected
        for k, b in enumerate(basis):
            assert [row[b] for row in tableau] == [
                new_d if i == k else 0 for i in range(len(tableau))
            ]
        count["pivots"] += 1
        return new_d

    monkeypatch.setattr(linprog, "_pivot", checked)
    for program in engine_programs:
        linprog._solve_max(*program)
    assert count["pivots"] > 2000
    assert count["negative"] > 0
