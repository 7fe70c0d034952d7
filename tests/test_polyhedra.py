import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.core import Point, Q, orientation, point, vector
from convexprofile.errors import (
    EmptyPolyhedronError,
    UnboundedPolyhedronError,
    UnsupportedDimensionError,
)
from convexprofile.generators import (
    random_bounded_polytope,
    random_direction,
    random_hpolyhedron,
    rng_from_seed,
)
from convexprofile.polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    VPolytope,
    boundary_has_ray,
    contains_hyperplane,
    extreme_points,
    face_in_direction,
    has_extreme_point,
    hull_contains,
    hull_equal,
    is_bounded,
    is_empty,
    is_vertex,
    lineality_dim,
    locate_point,
    profile,
    recession_cone,
    remove_redundant,
)

H = Halfspace
V = vector


def unit_square():
    return HPolyhedron(
        (H(V(-1, 0), 0), H(V(1, 0), 1), H(V(0, -1), 0), H(V(0, 1), 1)), 2
    )


def cone():
    # y >= |x|
    return HPolyhedron((H(V(1, -1), 0), H(V(-1, -1), 0)), 2)


def halfplane():
    # y >= 0
    return HPolyhedron((H(V(0, -1), 0),), 2)


def slab():
    return HPolyhedron((H(V(0, -1), 0), H(V(0, 1), 1)), 2)


def test_locate_point_examples():
    sq = unit_square()
    assert locate_point(sq, point(Q(1, 2), Q(1, 2))) is PointLocation.INTERIOR
    assert locate_point(sq, point(0, Q(1, 2))) is PointLocation.BOUNDARY
    assert locate_point(sq, point(2, 2)) is PointLocation.EXTERIOR


def test_locate_point_redundant_constraint_does_not_flip_interior():
    sq = HPolyhedron(unit_square().halfspaces + (H(V(1, 1), 10),), 2)
    assert locate_point(sq, point(Q(1, 2), Q(1, 2))) is PointLocation.INTERIOR
    # redundant constraint tight exactly at the corner: still boundary
    sq2 = HPolyhedron(unit_square().halfspaces + (H(V(1, 1), 2),), 2)
    assert locate_point(sq2, point(1, 1)) is PointLocation.BOUNDARY


def test_locate_point_non_full_dimensional_members_are_boundary():
    seg = HPolyhedron(
        (H(V(0, 1), 0), H(V(0, -1), 0), H(V(1, 0), 1), H(V(-1, 0), 0)), 2
    )
    assert locate_point(seg, point(Q(1, 2), 0)) is PointLocation.BOUNDARY
    assert locate_point(seg, point(0, 0)) is PointLocation.BOUNDARY
    assert locate_point(seg, point(Q(1, 2), Q(1, 10))) is PointLocation.EXTERIOR


def test_locate_point_empty_is_an_error():
    empty = HPolyhedron((H(V(1), 0), H(V(-1), -1)), 1)
    assert is_empty(empty)
    with pytest.raises(EmptyPolyhedronError):
        locate_point(empty, point(0))


def test_emptiness_and_location_solve_one_lp_per_polyhedron(monkeypatch):
    from convexprofile import linprog, polyhedra

    solves = []
    solve = linprog.solve_lp
    monkeypatch.setattr(
        polyhedra, "solve_lp", lambda lp: solves.append(lp) or solve(lp)
    )
    monkeypatch.setattr(
        polyhedra, "is_feasible", lambda *a, **k: pytest.fail("extra LP")
    )
    seg = HPolyhedron(
        (H(V(0, 1), 0), H(V(0, -1), 0), H(V(1, 0), 1), H(V(-1, 0), 0)), 2
    )
    for k in range(5):
        assert not is_empty(seg)
        assert locate_point(seg, point(Q(k, 4), 0)) is PointLocation.BOUNDARY
    empty = HPolyhedron((H(V(1), 0), H(V(-1), -1)), 1)
    for _ in range(3):
        assert is_empty(empty)
        with pytest.raises(EmptyPolyhedronError):
            locate_point(empty, point(0))
    assert len(solves) == 2


def test_recession_cone_examples():
    c = cone()
    rc = recession_cone(c)
    assert [(h.normal, h.offset) for h in rc.halfspaces] == [
        (h.normal, Q(0)) for h in c.halfspaces
    ]
    assert is_bounded(unit_square())
    assert not is_bounded(halfplane())
    rc_half = recession_cone(halfplane())
    assert locate_point(rc_half, point(3, 1)) is not PointLocation.EXTERIOR
    assert locate_point(rc_half, point(0, -1)) is PointLocation.EXTERIOR


def test_lineality_examples():
    assert lineality_dim(halfplane()) == 1
    assert lineality_dim(unit_square()) == 0
    assert lineality_dim(slab()) == 1
    assert has_extreme_point(cone())
    assert not has_extreme_point(halfplane())
    assert not has_extreme_point(slab())


def test_contains_hyperplane_examples():
    assert contains_hyperplane(halfplane())
    assert contains_hyperplane(slab())
    assert not contains_hyperplane(unit_square())
    assert not contains_hyperplane(cone())


def test_extreme_points_examples():
    assert extreme_points(cone()) == (Point([0, 0]),)
    assert set(extreme_points(unit_square())) == {
        point(0, 0), point(1, 0), point(0, 1), point(1, 1)
    }
    assert extreme_points(halfplane()) == ()


def test_extreme_points_at_the_4d_limit():
    hs = []
    for j in range(4):
        e = [0] * 4
        e[j] = 1
        hs.append(H(V(*e), 1))
        e2 = [0] * 4
        e2[j] = -1
        hs.append(H(V(*e2), 0))
    cube4 = HPolyhedron(tuple(hs), 4)
    verts = extreme_points(cube4)
    assert len(verts) == 16
    assert hull_equal(cube4, VPolytope(verts, 4))
    cross = HPolyhedron(
        tuple(
            H(V(*signs), 1)
            for signs in itertools.product((1, -1), repeat=4)
        ),
        4,
    )
    assert len(extreme_points(cross)) == 8


def test_constraint_count_guard():
    many = HPolyhedron(
        tuple(H(V(1, k), 100 + k) for k in range(65)), 2
    )
    with pytest.raises(UnsupportedDimensionError):
        extreme_points(many)


def test_extreme_points_dimension_guard():
    box5 = HPolyhedron(
        tuple(
            H(V(*[(1 if j == i else 0) for j in range(5)]), 1)
            for i in range(5)
        )
        + tuple(
            H(V(*[(-1 if j == i else 0) for j in range(5)]), 0)
            for i in range(5)
        ),
        5,
    )
    with pytest.raises(UnsupportedDimensionError):
        extreme_points(box5)


def _hull_contains_bruteforce(generators, x):
    """Independent 2D oracle: x is in the hull iff inside some triangle
    (or on some segment) spanned by the generators. Orientation tests only."""
    pts = list(generators)
    for a, b in itertools.combinations(pts, 2):
        if a == b:
            continue
        if orientation(a, b, x) == 0:
            lo_x, hi_x = sorted((a.coords[0], b.coords[0]))
            lo_y, hi_y = sorted((a.coords[1], b.coords[1]))
            if lo_x <= x.coords[0] <= hi_x and lo_y <= x.coords[1] <= hi_y:
                return True
    for a, b, c in itertools.combinations(pts, 3):
        o = orientation(a, b, c)
        if o == 0:
            continue
        s1 = orientation(a, b, x)
        s2 = orientation(b, c, x)
        s3 = orientation(c, a, x)
        if o > 0 and min(s1, s2, s3) >= 0:
            return True
        if o < 0 and max(s1, s2, s3) <= 0:
            return True
    return x in pts


def test_hull_contains_examples():
    square = VPolytope(
        (point(0, 0), point(1, 0), point(0, 1), point(1, 1)), 2
    )
    assert hull_contains(square, point(Q(1, 2), Q(1, 2)))
    assert not hull_contains(square, point(2, 0))
    seg = VPolytope((point(0, 0), point(1, 1)), 2)
    assert hull_contains(seg, point(Q(1, 3), Q(1, 3)))
    assert not hull_contains(seg, point(Q(1, 3), Q(1, 2)))


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_hull_contains_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 6)
    gens = tuple(
        point(Q(rng.randint(-8, 8), 2), Q(rng.randint(-8, 8), 2))
        for _ in range(k)
    )
    V2 = VPolytope(gens, 2)
    for _ in range(6):
        x = point(Q(rng.randint(-10, 10), 2), Q(rng.randint(-10, 10), 2))
        assert hull_contains(V2, x) == _hull_contains_bruteforce(gens, x)


def test_profile_examples():
    square_plus_center = VPolytope(
        (point(0, 0), point(1, 0), point(0, 1), point(1, 1),
         point(Q(1, 2), Q(1, 2))),
        2,
    )
    assert set(profile(square_plus_center)) == {
        point(0, 0), point(1, 0), point(0, 1), point(1, 1)
    }
    single = VPolytope((point(3, 4),), 2)
    assert profile(single) == (point(3, 4),)
    duplicated = VPolytope((point(0, 0), point(0, 0), point(1, 0)), 2)
    assert set(profile(duplicated)) == {point(0, 0), point(1, 0)}


def test_profile_random_points_in_triangle():
    # DERIVED oracle: points strictly inside the triangle are convex
    # combinations of the vertices, so only the vertices survive.
    tri = (point(0, 0), point(8, 0), point(0, 8))
    rng = random.Random(7)
    inner = []
    while len(inner) < 7:
        x = Q(rng.randint(1, 15), 2)
        y = Q(rng.randint(1, 15), 2)
        if x + y < 8:
            p = point(x, y)
            if _hull_contains_bruteforce(tri, p) and p not in tri:
                inner.append(p)
    V2 = VPolytope(tri + tuple(inner), 2)
    assert set(profile(V2)) == set(tri)


def test_hull_equal_examples():
    sq = unit_square()
    corners = VPolytope(
        (point(0, 0), point(1, 0), point(0, 1), point(1, 1)), 2
    )
    assert hull_equal(sq, corners)
    assert not hull_equal(
        sq, VPolytope((point(0, 0), point(1, 0), point(0, 1)), 2)
    )
    with_center = VPolytope(
        corners.generators + (point(Q(1, 2), Q(1, 2)),), 2
    )
    assert hull_equal(sq, with_center)
    with pytest.raises(UnboundedPolyhedronError):
        hull_equal(halfplane(), corners)


def test_face_in_direction_examples():
    sq = unit_square()
    edge = face_in_direction(sq, V(1, 0))
    assert set(extreme_points(edge)) == {point(1, 0), point(1, 1)}
    corner = face_in_direction(sq, V(1, 1))
    assert extreme_points(corner) == (point(1, 1),)
    # DERIVED: minimizing y over the cone attains 0 only at the apex
    apex = face_in_direction(cone(), V(0, -1))
    assert extreme_points(apex) == (Point([0, 0]),)
    assert face_in_direction(halfplane(), V(0, 1)) is None


def test_boundary_has_ray_examples():
    assert not boundary_has_ray(unit_square())
    assert boundary_has_ray(cone())
    assert boundary_has_ray(halfplane())


def test_remove_redundant():
    sq = HPolyhedron(unit_square().halfspaces + (H(V(1, 1), 5),), 2)
    reduced = remove_redundant(sq)
    assert len(reduced.halfspaces) == 4


def test_ray_and_halfspace_invariants():
    from convexprofile.polyhedra import Ray

    r = Ray(point(0, 0), V(1, 1))
    assert r.direction == V(1, 1)
    with pytest.raises(ValueError):
        Ray(point(0, 0), V(0, 0))
    with pytest.raises(ValueError):
        H(V(0, 0), 1)


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_prop11_law_extreme_points_iff_no_line(seed):
    rng = rng_from_seed(seed)
    P = random_hpolyhedron(rng, dim=rng.choice((2, 3)))
    verts = extreme_points(P)
    assert (len(verts) > 0) == (lineality_dim(P) == 0)
    for v in verts:
        assert is_vertex(P, v)


@given(st.integers(0, 10**9))
@settings(max_examples=50)
def test_lemma12_law_face_extremes_are_set_extremes(seed):
    rng = rng_from_seed(seed)
    dim = rng.choice((2, 3))
    P = random_bounded_polytope(rng, dim)
    w = random_direction(rng, dim)
    face = face_in_direction(P, w)
    assert face is not None
    assert set(extreme_points(face)) <= set(extreme_points(P))


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_krein_milman_on_random_polytopes(seed):
    rng = rng_from_seed(seed)
    P = random_bounded_polytope(rng, rng.choice((2, 3)))
    verts = extreme_points(P)
    assert verts
    assert hull_equal(P, VPolytope(verts, P.dim))


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_profile_minimality_on_random_generators(seed):
    rng = random.Random(seed)
    gens = tuple(
        point(Q(rng.randint(-12, 12), 4), Q(rng.randint(-12, 12), 4))
        for _ in range(rng.randint(1, 8))
    )
    V2 = VPolytope(gens, 2)
    kept = profile(V2)
    hull = VPolytope(kept, 2)
    for g in gens:
        assert hull_contains(hull, g)
    for v in kept:
        rest = tuple(u for u in kept if u != v)
        if rest:
            assert not hull_contains(VPolytope(rest, 2), v)


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_locate_point_partitions_and_interior_slack(seed):
    rng = rng_from_seed(seed)
    P = random_hpolyhedron(rng, dim=2)
    for _ in range(8):
        x = point(Q(rng.randint(-40, 40), 4), Q(rng.randint(-40, 40), 4))
        loc = locate_point(P, x)
        member = P.contains(x)
        assert (loc is PointLocation.EXTERIOR) == (not member)
        if loc is PointLocation.INTERIOR:
            # every constraint has strictly positive slack, so a small
            # rational box around x stays inside
            slacks = [h.offset - h.value(x) for h in P.halfspaces]
            assert all(s > 0 for s in slacks)
