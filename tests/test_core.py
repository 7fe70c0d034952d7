import ast
import fractions
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import convexprofile
from convexprofile.core import (
    Matrix,
    Orientation,
    Point,
    Q,
    _cleared,
    SolveStatus,
    format_rational,
    interpolate,
    midpoint,
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
SHARED_HELPERS = (
    "_cleared", "_primitive", "_dot", "_combine", "_orient", "_angle_cmp",
)


def _defined_names():
    """(module, the function names and stored names it defines), per module."""
    for path in sorted(Path(convexprofile.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
        yield path.stem, names


def test_each_shared_helper_is_defined_in_one_module():
    homes = {name: [] for name in SHARED_HELPERS}
    for stem, names in _defined_names():
        for name in names & set(SHARED_HELPERS):
            homes[name].append(stem)
    assert homes == {
        "_cleared": ["core"], "_primitive": ["core"], "_dot": ["core"],
        "_combine": ["core"], "_orient": ["core"], "_angle_cmp": ["intgeom"],
    }


# The calls outside `core` that may clear an object's `.coords`, each with
# its reason; a point's integer form is read as its cached `Point.form`.
CLEARED_COORDS_ALLOWED = {
    ("polyhedra", "face_in_direction"): "w is a direction (a Vector), with no form",
}


def test_only_core_clears_a_points_coords():
    found = set()

    def visit(stem, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(stem, child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and child.args:
                func, arg = child.func, child.args[0]
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "_cleared" and isinstance(arg, ast.Attribute) and (
                        arg.attr == "coords"):
                    found.add((stem, ".".join(scope)))
            visit(stem, child, scope)

    for path in sorted(Path(convexprofile.__file__).parent.glob("*.py")):
        if path.stem != "core":
            visit(path.stem, ast.parse(path.read_text(), str(path)), ())
    assert found == set(CLEARED_COORDS_ALLOWED)


# The segment machine of the convex kinds, whose pairs their supporting
# rows decide: the rational references live in tests/test_polyhedra_rows.py.
RETIRED_NAMES = ("clip_line", "_circle_breakpoints", "_rational_sqrt", "BRACKET_WIDTH")


def test_convex_kinds_keep_no_segment_machine():
    from convexprofile.polyhedra import HPolyhedron
    from convexprofile.regions2d import Disk, DiskComplement, PointedOpenBox

    for kind in (Disk, DiskComplement, PointedOpenBox, HPolyhedron):
        assert hasattr(kind, "supports") and not hasattr(kind, "breakpoints"), kind
    assert {stem: names & set(RETIRED_NAMES) for stem, names in _defined_names()
            if names & set(RETIRED_NAMES)} == {}


def test_rationals_are_fractions():
    assert Q is fractions.Fraction
    assert type(rational("3/4")) is fractions.Fraction


# negative, zero and integral coordinates as well as fractions
coordinates = st.one_of(st.integers(-50, 50).map(Q), rationals)


@given(st.lists(coordinates, min_size=1, max_size=5))
def test_a_point_carries_its_primitive_form(coords):
    x = Point(coords)
    ints, w = _cleared(x.coords)
    assert x.form == (*ints, w)
    assert x.form[-1] > 0 and math.gcd(*x.form) == 1
    y = Point._from_form(x.form)
    assert (y, hash(y), y.form) == (x, hash(x), x.form)
    for g in (2, 3, 12):
        with pytest.raises(ValueError):
            Point._from_form([g * c for c in x.form])
    for bad_w in (0, -w):
        with pytest.raises(ValueError):
            Point._from_form((*ints, bad_w))
    assert not hasattr(x, "__dict__")
    assert not hasattr(vector(*coords), "__dict__")


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5),
       st.integers(1, 10**6))
def test_a_point_built_from_its_form_equals_the_rational_point(xs, w):
    g = math.gcd(*xs, w)
    form = tuple(c // g for c in (*xs, w))
    x = Point._from_form(form)
    rational_point = Point([Q(c, w) for c in xs])
    assert x.form == rational_point.form == form
    assert (x, hash(x), repr(x)) == (
        rational_point, hash(rational_point), repr(rational_point))


# Each check runs after the point's form is cached; the printed names are
# the errors raised, under plain python and python -O alike.
CACHED_FORM_CHECKS = (
    "from convexprofile.core import Point, point, vector\n"
    "from convexprofile.polyhedra import Halfspace, HPolyhedron\n"
    "from convexprofile.regions2d import SimplePolygon\n"
    "h = Halfspace(vector(1, 0), 1)\n"
    "square = SimplePolygon([point(0, 0), point(1, 0), point(1, 1), point(0, 1)])\n"
    "checks = [(point(0, 0, 0), h.contains),\n"
    "          (point(0), HPolyhedron((h,), 2).contains),\n"
    "          (point(0, 0, 0), square.table),\n"
    "          (None, lambda _: Point._from_form((2, 4, 2))),\n"
    "          (None, lambda _: Point._from_form((1, 0, 0)))]\n"
    "for x, check in checks:\n"
    "    if x is not None:\n"
    "        x.form\n"
    "    try:\n"
    "        check(x)\n"
    "        print('accepted')\n"
    "    except Exception as exc:\n"
    "        print(type(exc).__name__)\n"
)
CACHED_FORM_ERRORS = "DimensionMismatchError\n" * 3 + "ValueError\n" * 2


def test_a_cached_form_skips_no_dimension_check(capsys):
    exec(CACHED_FORM_CHECKS, {})
    assert capsys.readouterr().out == CACHED_FORM_ERRORS


def test_a_cached_form_skips_no_dimension_check_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CACHED_FORM_CHECKS],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert (proc.returncode, proc.stdout) == (0, CACHED_FORM_ERRORS), proc.stderr


def _points(dim):
    return st.lists(coordinates, min_size=dim, max_size=dim).map(Point)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_points(n), _points(n))),
       st.one_of(rationals, st.integers(-3, 3).map(Q)))
def test_interpolate_matches_the_fraction_formula(ends, t):
    # t < 0, t > 1, t = 0 and t = 1 included; the result's cached form must
    # be the one `_cleared` gives its coordinates.
    a, b = ends
    for u, v in ((a, b), (a, a), (b, a)):
        for s, x in ((t, interpolate(u, v, t)), (Q(1, 2), midpoint(u, v))):
            assert x.coords == tuple(p + s * (q - p) for p, q in zip(u, v))
            ints, w = _cleared(x.coords)
            assert x.form == (*ints, w)
    assert interpolate(a, a, t) == a


def test_interpolate_rejects_a_dimension_mismatch():
    for f in (lambda a, b: interpolate(a, b, Q(1, 3)), midpoint):
        with pytest.raises(DimensionMismatchError):
            f(point(0, 1), point(0, 1, 2))


@given(st.tuples(_points(2), _points(2), _points(2)))
def test_orientation_matches_the_fraction_determinant(abc):
    a, b, c = abc
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    assert orientation(a, b, c) == (d > 0) - (d < 0)
