import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile import linprog
from convexprofile.core import Point, Q, Vector, ZERO, vector
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


def test_beale_cycling_example_terminates():
    # the classic degenerate program that cycles under naive pivoting;
    # Bland's rule must terminate at the optimum 1/20
    cons = (
        le([Q(1, 4), -60, Q(-1, 25), 9], 0),
        le([Q(1, 2), -90, Q(-1, 50), 3], 0),
        le([0, 0, 1, 0], 1),
        ge([1, 0, 0, 0], 0),
        ge([0, 1, 0, 0], 0),
        ge([0, 0, 1, 0], 0),
        ge([0, 0, 0, 1], 0),
    )
    objective = vector(Q(3, 4), -150, Q(1, 50), -6)
    out = solve_lp(LinearProgram(objective, cons))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == Q(1, 20)


def test_degenerate_square_is_deterministic():
    cons = (le([1, 0], 1), le([-1, 0], 0), le([0, 1], 1), le([0, -1], 0),
            le([1, 1], 2))
    out1 = solve_lp(LinearProgram(vector(1, 1), cons))
    out2 = solve_lp(LinearProgram(vector(1, 1), cons))
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
