"""The polyhedron predicates read cached integer rows; they must answer
exactly as the rational dot products they replace.

Each `_fraction_*` function below is the rational version of a predicate,
kept here as the reference: it evaluates `Halfspace.value`, a `Fraction`
dot product, per halfspace.
"""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.core import Matrix, Point, Q, Vector, point, rank, vector
from convexprofile.errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
)
from convexprofile.generators import random_hpolyhedron, rng_from_seed
from convexprofile.polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    box_halfspaces,
    extreme_points,
    interior_point,
    is_empty,
    is_vertex,
    locate_point,
)

DENOMINATORS = (1, 2, 3, 4, 5, 7, 9)


def _check_point(P, x):
    if x.dim != P.dim:
        raise DimensionMismatchError("point dimension mismatch")


def _fraction_contains(P, x):
    _check_point(P, x)
    return all(h.value(x) <= h.offset for h in P.halfspaces)


def _fraction_locate_point(P, x):
    _check_point(P, x)
    if is_empty(P):
        raise EmptyPolyhedronError("polyhedron is empty")
    if any(h.value(x) > h.offset for h in P.halfspaces):
        return PointLocation.EXTERIOR
    if not P.full_dimensional:
        return PointLocation.BOUNDARY
    if any(h.value(x) == h.offset for h in P.halfspaces):
        return PointLocation.BOUNDARY
    return PointLocation.INTERIOR


def _fraction_is_vertex(P, x):
    if not _fraction_contains(P, x):
        return False
    tight = [h.normal for h in P.halfspaces if h.value(x) == h.offset]
    if len(tight) < P.dim:
        return False
    return rank(Matrix(tight)) == P.dim


def _fraction_breakpoints(P, a, b):
    d = b - a
    ts = set()
    for h in P.halfspaces:
        ad = h.normal.dot(d)
        if ad != 0:
            t = (h.offset - h.value(a)) / ad
            if 0 < t < 1:
                ts.add(t)
    return sorted(ts)


def _fraction_clip_line(P, base, direction):
    if direction.is_zero():
        raise ValueError("direction must be nonzero")
    _check_point(P, base)
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


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:  # the exception itself is the outcome
        return "raises", type(exc), str(exc)


def _segment():
    # [0, 1] x {0} in E^2: members exist, the interior is empty
    H, V = Halfspace, vector
    return HPolyhedron(
        (H(V(0, 1), 0), H(V(0, -1), 0), H(V(1, 0), 1), H(V(-1, 0), 0)), 2
    )


def _with_extra_rows(P):
    """P with its first row repeated, scaled by 3/2, and a redundant row."""
    h = P.halfspaces[0]
    return HPolyhedron(
        P.halfspaces
        + (h, Halfspace(h.normal * Q(3, 2), h.offset * Q(3, 2)),
           Halfspace(h.normal, h.offset + 5)),
        P.dim,
    )


def _polyhedra():
    for dim in range(1, 5):
        rng = rng_from_seed(f"rows:{dim}")
        for _ in range(5):
            yield random_hpolyhedron(rng, dim)
        box = HPolyhedron(tuple(box_halfspaces(dim, Q(3, 2))), dim)
        yield box
        yield _with_extra_rows(box)
        yield _with_extra_rows(random_hpolyhedron(rng, dim))
        yield HPolyhedron((), dim)
    yield _segment()
    yield _with_extra_rows(_segment())
    yield HPolyhedron((Halfspace(vector(1), 0), Halfspace(vector(-1), -1)), 1)


def _rational(rng, bound=12):
    return Q(rng.randint(-bound * 9, bound * 9), rng.choice(DENOMINATORS))


def _points(P, rng):
    """Vertices, interior, boundary and exterior points, with mixed
    denominators, and one point of the wrong dimension."""
    pts = [Point([_rational(rng) for _ in range(P.dim)]) for _ in range(6)]
    pts.append(Point([Q(0)] * P.dim))
    if is_empty(P):
        return pts + [Point([Q(0)] * (P.dim + 1))]
    vertices = list(extreme_points(P))
    pts += vertices[:6]
    pts += [
        Point([(a + b) / 2 for a, b in zip(u.coords, v.coords)])
        for u, v in itertools.combinations(vertices[:4], 2)
    ]
    centre = interior_point(P) or (vertices[0] if vertices else pts[-1])
    pts.append(centre)
    for _ in range(4):
        d = Vector([_rational(rng, 2) for _ in range(P.dim)])
        if d.is_zero():
            continue
        span = _fraction_clip_line(P, centre, d)
        for t in span or ():
            if t is not None:
                pts.append(centre + d * t)  # on the boundary
                pts.append(centre + d * (t * Q(11, 10) + Q(1, 7)))
    return pts + [Point([Q(0)] * (P.dim + 1))]


@pytest.mark.parametrize("P", list(_polyhedra()), ids=lambda P: f"E{P.dim}")
def test_row_predicates_match_the_rational_predicates(P):
    rng = rng_from_seed(f"rows-points:{len(P.halfspaces)}:{P.dim}")
    pts = _points(P, rng)
    assert len(pts) >= 8
    for x in pts:
        for new, old in (
            (P.contains, lambda x: _fraction_contains(P, x)),
            (lambda x: locate_point(P, x), lambda x: _fraction_locate_point(P, x)),
            (lambda x: is_vertex(P, x), lambda x: _fraction_is_vertex(P, x)),
        ):
            assert _outcome(new, x) == _outcome(old, x), x


def test_polyhedron_predicates_do_not_evaluate_rational_dot_products(monkeypatch):
    box = HPolyhedron(tuple(box_halfspaces(2, 1)), 2)

    def refuse(self, x):
        raise AssertionError("Halfspace.value evaluated")

    monkeypatch.setattr(Halfspace, "value", refuse)
    a, b = point(Q(-3, 2), Q(1, 3)), point(Q(1, 2), Q(1, 5))
    assert box.contains(b) and not box.contains(a)
    assert locate_point(box, b) is PointLocation.INTERIOR
    assert not is_vertex(box, b)


def _reference_row(h):
    """(a, -b) scaled to coprime integers, for the halfspace a . x <= b."""
    values = [*h.normal.coords, -h.offset]
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


_FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@given(st.integers(1, 4), st.data())
@settings(max_examples=80)
def test_halfspace_contains_matches_the_rational_comparison(dim, data):
    coords = st.lists(_FRACTIONS, min_size=dim, max_size=dim)
    h = Halfspace(Vector(data.draw(coords.filter(any))), data.draw(_FRACTIONS))
    x = Point(data.draw(coords))
    # the foot of x on the hyperplane, and a step past it either way
    n = h.normal
    t = (h.offset - h.value(x)) / n.dot(n)
    foot = x + n * t
    assert h.value(foot) == h.offset and h.contains(foot)
    for y in (x, foot, foot + n * Q(1, 97), foot + n * Q(-1, 97)):
        assert h.contains(y) is (h.value(y) <= h.offset), (h, y)


def test_halfspace_of_the_wrong_dimension_raises_also_under_python_O():
    h = Halfspace(vector(1, Q(-2, 3)), Q(1, 2))
    for x in (point(1), point(0, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            h.contains(x)
    script = textwrap.dedent(
        """
        import sys
        from convexprofile.core import Q, point, vector
        from convexprofile.errors import DimensionMismatchError
        from convexprofile.polyhedra import Halfspace

        print(sys.flags.optimize)
        h = Halfspace(vector(1, Q(-2, 3)), Q(1, 2))
        for x in (point(1), point(0, 0, 0)):
            try:
                h.contains(x)
                print("accepted")
            except DimensionMismatchError:
                print("DimensionMismatchError")
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
    assert proc.stdout.split() == ["1"] + ["DimensionMismatchError"] * 2


@pytest.mark.parametrize("P", list(_polyhedra()), ids=lambda P: f"E{P.dim}")
def test_polyhedron_rows_are_the_halfspace_rows(P):
    assert P._rows == [_reference_row(h) for h in P.halfspaces]
    assert all(row is h._row for row, h in zip(P._rows, P.halfspaces))
