import ast
import fractions
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import convexprofile
from convexprofile.core import (
    Matrix,
    Orientation,
    Q,
    SolveStatus,
    format_rational,
    midpoint,
    nullspace_basis,
    orientation,
    point,
    rank,
    rational,
    solve_linear,
    vector,
)
from convexprofile.errors import DimensionMismatchError

rationals = st.builds(
    Q, st.integers(-1000, 1000), st.integers(1, 200)
)


def test_rational_parsing_and_formatting():
    assert rational("3/4") == Q(3, 4)
    assert rational("-5") == Q(-5)
    assert rational(7) == Q(7)
    assert format_rational(Q(1, 2)) == "1/2"
    assert format_rational(Q(6, 3)) == "2"
    assert format_rational(Q(-2, 4)) == "-1/2"


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_orientation_examples():
    assert orientation(point(0, 0), point(1, 0), point(0, 1)) is Orientation.POSITIVE
    assert orientation(point(0, 0), point(1, 1), point(2, 2)) is Orientation.ZERO
    assert orientation(point(0, 0), point(0, 1), point(1, 0)) is Orientation.NEGATIVE


def test_orientation_requires_2d():
    with pytest.raises(DimensionMismatchError):
        orientation(point(0, 0, 0), point(1, 0, 0), point(0, 1, 0))


coords2 = st.tuples(rationals, rationals)


@given(coords2, coords2, coords2)
def test_orientation_antisymmetry(a, b, c):
    pa, pb, pc = point(*a), point(*b), point(*c)
    assert orientation(pa, pb, pc) == -orientation(pa, pc, pb)


def test_rank_examples():
    identity = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(identity) == 3
    assert rank(Matrix([[2, 3], [2, 3]])) == 1
    assert rank(Matrix([[1, 0], [0, 1], [1, 1]])) == 2


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrices)
def test_rank_bounds_and_transpose(rows):
    m = Matrix(rows)
    r = rank(m)
    assert r <= min(m.nrows, m.ncols)
    assert r == rank(m.transpose())


def test_solve_linear_examples():
    unique = solve_linear(Matrix([[1]]), vector(2))
    assert unique.status is SolveStatus.UNIQUE
    assert unique.solution == vector(2)

    inconsistent = solve_linear(Matrix([[0]]), vector(1))
    assert inconsistent.status is SolveStatus.INCONSISTENT

    under = solve_linear(Matrix([[1, 1]]), vector(1))
    assert under.status is SolveStatus.UNDERDETERMINED
    assert under.nullspace_dim == 1
    assert under.solution.coords[0] + under.solution.coords[1] == 1


@given(small_matrices)
def test_nullspace_vectors_annihilate(rows):
    m = Matrix(rows)
    for v in nullspace_basis(m):
        assert not v.is_zero()
        for row in m.rows:
            assert row.dot(v) == 0
    assert len(nullspace_basis(m)) == m.ncols - rank(m)


def test_point_vector_arithmetic():
    p = point(1, 2)
    q = point(Q(1, 2), 0)
    v = p - q
    assert v == vector(Q(1, 2), 2)
    assert q + v == p
    assert midpoint(p, q) == point(Q(3, 4), 1)
    assert (2 * v).coords == (Q(1), Q(4))
    assert v.dot(vector(2, 1)) == 3


def test_vector_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        vector(1, 2).dot(vector(1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        Matrix([[1, 2], [1, 2, 3]])


# The integer forms and the angle order that the exact predicates share.
SHARED_HELPERS = ("_cleared", "_primitive", "_dot", "_angle_cmp")


def test_each_shared_helper_is_defined_in_one_module():
    homes = {name: [] for name in SHARED_HELPERS}
    for path in sorted(Path(convexprofile.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
        for name in names & set(SHARED_HELPERS):
            homes[name].append(path.stem)
    assert homes == {
        "_cleared": ["core"], "_primitive": ["core"], "_dot": ["core"],
        "_angle_cmp": ["intgeom"],
    }


def test_rationals_are_fractions():
    assert Q is fractions.Fraction
    assert type(rational("3/4")) is fractions.Fraction
