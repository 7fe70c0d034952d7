import collections
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile import intgeom, polyhedra
from convexprofile.core import (
    Matrix,
    Point,
    Q,
    SolveStatus,
    Vector,
    interpolate,
    orientation,
    point,
    solve_linear,
    vector,
)
from convexprofile.errors import (
    CertificateError,
    EmptyPolyhedronError,
    UnboundedPolyhedronError,
)
from convexprofile.generators import (
    random_bounded_polytope,
    random_direction,
    random_hpolyhedron,
    rng_from_seed,
)
from convexprofile.linprog import LpStatus
from convexprofile.polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    VPolytope,
    boundary_has_ray,
    contains_hyperplane,
    extreme_points,
    face_in_direction,
    feasible_point,
    hull_contains,
    hull_equal,
    interior_point,
    is_bounded,
    is_empty,
    is_vertex,
    lineality_dim,
    locate_point,
    polyhedron_boundary_probes,
    profile,
    recession_direction,
    remove_redundant,
)
from convexprofile.regions2d import (
    PairClass,
    SimplePolygon,
    circle_points,
    classify_pair,
    kernel,
    kernel_vertices,
)
from convexprofile.theorems import _two_sided_direction
from lp_reference import (
    lp_face_optimum,
    lp_feasible_point,
    lp_max_slack,
    lp_recession_direction,
    lp_remove_redundant,
    lp_two_sided_direction,
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


def test_locate_point_and_supports_share_one_boundary_rule():
    # A member is a boundary point iff some row is 0 there: the rule of
    # `supports`, also on faces with no interior, where every member is a
    # boundary point (some row is 0 on all of P).
    points = faces = flat_members = 0
    for dim in (1, 2, 3):
        for seed in range(12):
            rng = rng_from_seed(f"boundary-rule:{dim}:{seed}")
            P = random_hpolyhedron(rng, dim)
            face = face_in_direction(P, random_direction(rng, dim))
            for S in (P,) if face is None else (P, face):
                faces += not S.full_dimensional
                tests = [feasible_point(S)]
                for x in polyhedron_boundary_probes(S):
                    tests.append(x)
                    for j, k, sign in itertools.product(range(dim), (1, 2), (1, -1)):
                        step = [Q(0)] * dim
                        step[j] = Q(sign * k, 4)
                        tests.append(x + Vector(step))
                for x in tests:
                    loc = locate_point(S, x)
                    member = S.contains(x)
                    assert (loc is not PointLocation.EXTERIOR) == member, (S, x)
                    boundary = member and S.supports(x) is not None
                    assert (loc is PointLocation.BOUNDARY) == boundary, (S, x)
                    if member and not S.full_dimensional:
                        assert boundary, (S, x)
                        flat_members += 1
                    points += 1
    assert faces >= 20 and flat_members >= 50 and points >= 5000


def test_locate_point_empty_is_an_error():
    empty = HPolyhedron((H(V(1), 0), H(V(-1), -1)), 1)
    assert is_empty(empty)
    with pytest.raises(EmptyPolyhedronError):
        locate_point(empty, point(0))


def test_emptiness_and_location_solve_no_lp(monkeypatch):
    from convexprofile import linprog

    monkeypatch.setattr(
        linprog, "_solve_max", lambda *a: pytest.fail("LP solved")
    )
    seg = HPolyhedron(
        (H(V(0, 1), 0), H(V(0, -1), 0), H(V(1, 0), 1), H(V(-1, 0), 0)), 2
    )
    for k in range(5):
        assert not is_empty(seg)
        assert locate_point(seg, point(Q(k, 4), 0)) is PointLocation.BOUNDARY
    assert not seg.full_dimensional and interior_point(seg) is None
    assert face_in_direction(seg, V(1, 0)).halfspaces[-1].offset == -1
    assert interior_point(unit_square()) == point(Q(1, 2), Q(1, 2))
    assert face_in_direction(halfplane(), V(1, 0)) is None
    empty = HPolyhedron((H(V(1), 0), H(V(-1), -1)), 1)
    for _ in range(3):
        assert is_empty(empty) and not empty.full_dimensional
        with pytest.raises(EmptyPolyhedronError):
            locate_point(empty, point(0))


def test_is_bounded_examples():
    assert is_bounded(unit_square())
    assert not is_bounded(halfplane())


def test_lineality_examples():
    assert lineality_dim(halfplane()) == 1
    assert lineality_dim(unit_square()) == 0
    assert lineality_dim(slab()) == 1


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


def _basis_vertices(P):
    """Reference oracle: solve every n-subset of the constraints exactly and
    keep the unique solutions that satisfy all of them, sorted."""
    hs = P.halfspaces
    verts = set()
    for subset in itertools.combinations(range(len(hs)), P.dim):
        sol = solve_linear(
            Matrix([hs[i].normal for i in subset]),
            Vector([hs[i].offset for i in subset]),
        )
        if sol.status is SolveStatus.UNIQUE:
            x = Point(sol.solution.coords)
            if P.contains(x):
                verts.add(x)
    return tuple(sorted(verts, key=lambda p: p.coords))


def _pyramid():
    # a square pyramid: its apex lies on all four side facets
    sides = tuple(
        H(V(a, b, 1), 1) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))
    )
    return HPolyhedron((H(V(0, 0, -1), 0),) + sides, 3)


def _with_copies(P):
    """P with every row followed by a copy scaled by 2."""
    return HPolyhedron(
        tuple(c for h in P.halfspaces for c in (h, H(h.normal * 2, h.offset * 2))),
        P.dim,
    )


def _with_redundant_rows(P):
    """P after each sum of two rows and each row moved out by 5; a sum is
    tight where both rows are, so vertices become degenerate."""
    hs = P.halfspaces
    far = tuple(H(h.normal, h.offset + 5) for h in hs)
    sums = tuple(
        H(a.normal + b.normal, a.offset + b.offset)
        for a, b in itertools.combinations(hs, 2)
        if not (a.normal + b.normal).is_zero()
    )
    return HPolyhedron(sums + far + hs, P.dim)


def _differential_instances():
    """Polyhedra in dims 1-4 with degenerate, duplicated and redundant rows."""
    for dim, seeds in ((1, 10), (2, 10), (3, 10), (4, 4)):
        for seed in range(seeds):
            rng = rng_from_seed(1000 * dim + seed)
            for P in (random_hpolyhedron(rng, dim),
                      random_bounded_polytope(rng, dim)):
                yield P
                if dim <= 3:
                    yield _with_copies(P)
                face = face_in_direction(P, random_direction(rng, dim))
                if face is not None:
                    yield face
    cube = HPolyhedron(tuple(polyhedra.box_halfspaces(3, Q(1))), 3)
    for P in (unit_square(), cone(), halfplane(), slab(), cube, _pyramid()):
        yield P
        yield _with_copies(P)
        yield _with_redundant_rows(P)


def test_extreme_points_match_the_basis_oracle():
    count = 0
    for P in _differential_instances():
        assert extreme_points(P) == _basis_vertices(P), P
        count += 1
    assert count > 200


def test_kernel_extreme_points_match_the_basis_oracle():
    poly = SimplePolygon(circle_points(Point((Q(3, 8), Q(-5, 8))), Q(41, 16), 47))
    ker = kernel(poly)
    verts = extreme_points(ker)
    assert verts == _basis_vertices(ker)
    assert set(verts) == set(poly.vertices)


def test_extreme_points_of_an_empty_polyhedron_raise():
    empty = HPolyhedron((H(V(1, 0), 0), H(V(-1, 0), -1)), 2)
    with pytest.raises(EmptyPolyhedronError):
        extreme_points(empty)


def test_many_constraints_need_no_cap():
    # 65 lines through (100, 1), all tight there; the old enumeration
    # refused more than 64 constraints.
    many = HPolyhedron(
        tuple(H(V(1, k), 100 + k) for k in range(65)), 2
    )
    assert extreme_points(many) == _basis_vertices(many) == (point(100, 1),)


UNIT_SQUARE_FORGERIES = [
    ((2, 0, 1), "violates"),  # (2, 0) lies outside x <= 1
    ((1, 0, 2), "rank"),  # (1/2, 0) is on one edge only
]
# Rays with t = 0 that are not recession directions of the unit square.
RECESSION_FORGERIES = [
    ((1, 0, 0), "recession"),  # x grows past x <= 1
    ((0, 0, 0), "recession"),  # the zero direction
]


def _forge(ray):
    """A _double_description that appends the forged ray to the real rays."""
    real = polyhedra._double_description

    def forged(rows, width):
        lineality, rays = real(rows, width)
        return lineality, list(rays) + [ray]

    return forged


@pytest.mark.parametrize("ray, match", UNIT_SQUARE_FORGERIES,
                         ids=["infeasible", "not-a-vertex"])
def test_forged_vertex_rays_raise(ray, match, monkeypatch):
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match=match):
        extreme_points(unit_square())


@pytest.mark.parametrize("ray, match", RECESSION_FORGERIES,
                         ids=["unbounded", "zero"])
def test_forged_recession_rays_raise(ray, match, monkeypatch):
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match=match):
        is_bounded(unit_square())


UNIT_SQUARE_ROWS = (((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1))


def _forgery_verdicts_under_python_O(function, forgeries, args="",
                                     rows=UNIT_SQUARE_ROWS, plant=None):
    """Run <function>(shape<args>), polyhedra.<function> unless it names its
    module, on a fresh polyhedron with the (normal, offset) rows, the unit
    square by default, per forgery under python -O; return the printed
    optimize flag and one verdict per forgery. A forgery is a ray appended
    to the double description, or, given `plant`, a statement run on the
    fresh shape with the forgery bound to `forged`."""
    call = function if "." in function else f"polyhedra.{function}"
    script = textwrap.dedent(
        f"""
        import sys
        from convexprofile import polyhedra, regions2d
        from convexprofile.core import vector
        from convexprofile.errors import CertificateError
        from convexprofile.polyhedra import Halfspace, HPolyhedron

        print(sys.flags.optimize)
        real = polyhedra._double_description

        def forge(ray):
            def forged(rows, width):
                lineality, rays = real(rows, width)
                return lineality, rays + [ray]
            return forged

        for forged, _ in {forgeries!r}:
            if {plant is None}:
                polyhedra._double_description = forge(forged)
            # A fresh shape: each polyhedron caches its description.
            shape = HPolyhedron(
                tuple(Halfspace(vector(*n), o) for n, o in {rows!r}),
                {len(rows[0][0])},
            )
            {plant or "pass"}
            try:
                {call}(shape{args})
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
    return proc.stdout.split()


def test_forged_vertex_rays_raise_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "extreme_points", UNIT_SQUARE_FORGERIES
    )
    assert verdicts == ["1"] + ["CertificateError"] * 2


def test_forged_recession_rays_raise_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "is_bounded", RECESSION_FORGERIES
    )
    assert verdicts == ["1"] + ["CertificateError"] * 2


def test_forged_recession_direction_raises(monkeypatch):
    ray, match = RECESSION_FORGERIES[0]
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match=match):
        recession_direction(unit_square())
    verdicts = _forgery_verdicts_under_python_O(
        "recession_direction", RECESSION_FORGERIES[:1]
    )
    assert verdicts == ["1", "CertificateError"]


# {x <= 0, x >= 1} is empty; the forged ray (0, 1) would put 0 in it.
EMPTY_ROWS = (((1,), 0), ((-1,), -1))
MEMBER_FORGERIES = [((0, 1), "member")]


def test_forged_member_ray_raises(monkeypatch):
    ray, match = MEMBER_FORGERIES[0]
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    for query in (is_empty, lambda E: locate_point(E, point(0))):
        with pytest.raises(CertificateError, match=match):
            query(HPolyhedron(tuple(H(V(*n), o) for n, o in EMPTY_ROWS), 1))


def test_forged_member_ray_raises_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "is_empty", MEMBER_FORGERIES, rows=EMPTY_ROWS
    )
    assert verdicts == ["1", "CertificateError"]


# Rays incident to the unit square's top row y <= 1 whose probes leave it.
PROBE_FORGERIES = [
    ((2, 1, 1), "vertex"),  # (2, 1) lies outside x <= 1
    ((1, 0, 0), "direction"),  # the top edge stepped to x = 17/2
]


@pytest.mark.parametrize("ray, _", PROBE_FORGERIES, ids=["vertex", "direction"])
def test_forged_probe_rays_raise(ray, _, monkeypatch):
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match="not a boundary point"):
        polyhedron_boundary_probes(unit_square())


def test_forged_interior_probe_raises():
    # an incidence list naming the square's centre as the top row's vertex
    sq = unit_square()
    sq.__dict__["_facets"] = ((sq.halfspaces[3], ((1, 1, 2),)),)
    with pytest.raises(CertificateError, match="not a boundary point"):
        polyhedron_boundary_probes(sq)


def test_forged_probe_rays_raise_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "polyhedron_boundary_probes", PROBE_FORGERIES
    )
    assert verdicts == ["1"] + ["CertificateError"] * 2


def _fraction_boundary_probes(P):
    """Test-only copy of the rational probe builder that the integer one
    replaced: per facet, its vertices, their centroid, the centroid stepped
    to a box of 8 and the midpoints of the first four, as Fraction points,
    each located as a boundary point."""
    n = P.dim
    lineality = P._dd[0]
    box = Q(8)
    probes = set()
    for _, incident in P._facets:
        verts = [Point([Q(c, y[n]) for c in y[:n]]) for y in incident if y[n]]
        witness = Point([sum(col) / len(verts) for col in zip(*verts)])
        dirs = [y[:n] for y in incident if not y[n]]
        dirs += [tuple(s * c for c in v[:n]) for v in lineality for s in (1, -1)]
        facet_pts = [witness, *verts] + [
            witness + Vector([box * c / max(map(abs, d)) for c in d])
            for d in dirs
        ]
        for a, b in itertools.combinations(facet_pts[:4], 2):
            facet_pts.append(interpolate(a, b, Q(1, 2)))
        probes.update(facet_pts)
    for pt in probes:
        if locate_point(P, pt) is not PointLocation.BOUNDARY:
            raise CertificateError(f"probe {pt} is not a boundary point of P")
    return sorted(probes, key=lambda pt: pt.coords)


def _probe_instances():
    """At least 200 seeded polyhedra in dims 1-4: random and bounded ones,
    their faces (no interior), with rows doubled and with redundant rows."""
    for dim, seeds in ((1, 12), (2, 16), (3, 12), (4, 8)):
        for seed in range(seeds):
            rng = rng_from_seed(f"probes:{dim}:{seed}")
            for P in (random_hpolyhedron(rng, dim),
                      random_bounded_polytope(rng, dim)):
                yield P
                yield _with_copies(P) if seed % 2 else _with_redundant_rows(P)
                face = face_in_direction(P, random_direction(rng, dim))
                if face is not None:
                    yield face


def test_integer_probes_match_the_fraction_probes():
    shapes = 0
    for P in _probe_instances():
        shapes += 1
        probes = polyhedron_boundary_probes(P)
        assert probes == _fraction_boundary_probes(P)
        assert polyhedron_boundary_probes(P) == probes  # the cached table
        for x, mask in P.probe_tables().values():
            zeros = sum(1 << k for k, v in enumerate(P._values(x)) if v == 0)
            assert mask == zeros == P.supports(Point(x.coords))
            assert P.supports(x) == mask
    assert shapes >= 200


# The unit square's probes (0, 0) and (1, 1) share no row; the forged mask
# of (1, 1) adds row 0, x >= 0, which is 0 at (0, 0) only.
FLAT_FORGERIES = [(0b0001, "flat")]
PLANT_FLAT = (
    "p, *_, q = polyhedra.polyhedron_boundary_probes(shape); "
    "table = shape.probe_tables(); table[id(q)] = (q, table[id(q)][1] | forged)"
)


def test_forged_flat_certificate_raises():
    sq = unit_square()
    probes = polyhedron_boundary_probes(sq)
    p, q = probes[0], probes[-1]
    table = sq.probe_tables()
    assert (table[id(p)][1], table[id(q)][1]) == (0b0101, 0b1010)
    table[id(q)] = (q, table[id(q)][1] | FLAT_FORGERIES[0][0])
    with pytest.raises(CertificateError, match="row 0 is not 0"):
        classify_pair(sq, p, q)
    # (1/2, 0) shares row 2, y >= 0, with (0, 0); a forged row 0 comes
    # first, and the lowest common row is the one re-checked.
    mid = next(x for x in probes if x == point(Q(1, 2), 0))
    assert classify_pair(sq, p, mid) is PairClass.FLAT
    table[id(mid)] = (mid, table[id(mid)][1] | FLAT_FORGERIES[0][0])
    with pytest.raises(CertificateError, match="row 0 is not 0"):
        classify_pair(sq, p, mid)


def test_forged_flat_certificate_raises_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "regions2d.classify_pair", FLAT_FORGERIES, ", p, q", plant=PLANT_FLAT
    )
    assert verdicts == ["1", "CertificateError"]


# The L-shaped ring L_RING has the edge rows 0: y >= 0, 1: x <= 2, 2: y <= 1,
# 3: x <= 1, 4: y <= 2 and 5: x >= 0, and its kernel, the unit square, the
# edge cycle L_CYCLE of (row index, the form where the edge on it starts).
L_RING = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
L_CYCLE = [(5, (0, 1, 1)), (0, (0, 0, 1)), (3, (1, 0, 1)), (2, (1, 1, 1))]
# Four blades around [-1, 1]^2 with the kernel x = 0, 0 <= y <= 1: row 1 is
# y <= 1, row 2 x <= 0, row 8 x >= 0 and row 11 y >= 0.
SEGMENT_RING = [(2, 0), (2, 1), (0, 1), (0, 2), (-1, 2), (-1, 1), (-2, 1),
                (-2, -1), (0, -1), (0, -2), (1, -2), (1, 0)]
# The same rows 2, 8 and 11, with row 5 now y <= -1: an empty kernel.
BLADES_RING = [(2, 0), (2, 1), (0, 1), (0, 2), (-1, 2), (-1, -1), (-2, -1),
               (-2, -2), (0, -2), (0, -3), (1, -3), (1, 0)]
# ((ring, forged answer), match): each answer, given for its ring, must raise
KERNEL_FORGERIES = [
    # (1, 0) moved to (2, 0): the ring still turns left, but leaves x <= 1
    ((L_RING, [(5, (0, 1, 1)), (0, (0, 0, 1)), (3, (2, 0, 1)), (2, (1, 1, 1))]),
     "off edge row 3"),
    # the vertices in clockwise order
    ((L_RING, [(5, (1, 1, 1)), (0, (1, 0, 1)), (3, (0, 0, 1)), (2, (0, 1, 1))]),
     "turns right"),
    ((L_RING, L_CYCLE * 2), "wind 2 times"),
    # the square [0, 2]^2 of the outer rows, which x <= 1 (first by angle)
    # and y <= 1 cut
    ((L_RING, [(5, (0, 2, 1)), (0, (0, 0, 1)), (1, (2, 0, 1)), (4, (2, 2, 1))]),
     "row 3 fails at its extreme kernel vertex"),
    # the segment from (0, 1/2) to (0, 1), turning by pi from x >= 0 to
    # x <= 0: every row holds on it, but y >= 0 is missing from the cycle
    ((SEGMENT_RING, [(1, (0, 1, 1)), (8, (0, 1, 1)), (2, (0, 1, 2))]),
     "rows 8 and 2 do not turn left"),
    # the rows x >= 0, y >= 0, x <= 0, y <= -1 turn left and meet at (0, -1)
    # and (0, 0), every row holds there, but x >= 0 runs down, not up
    ((BLADES_RING, [(8, (0, -1, 1)), (11, (0, 0, 1)), (2, (0, 0, 1)),
                    (5, (0, -1, 1))]), "kernel edge 8 runs against its row"),
    ((L_RING, {0: 1, 2: -1}), "negative"),
    ((L_RING, {0: 1, 2: 1}), "sum to 1 >= 0"),  # y >= 0 and y <= 1 add to 1
    ((SEGMENT_RING, {8: 1, 2: 1}), "sum to 0 >= 0"),  # x >= 0 and x <= 0
    ((L_RING, {0: 1, 3: 1}), "leave a normal"),
]
PLANT_KERNEL = (
    "shape = regions2d.SimplePolygon(forged[0]); "
    "regions2d.intgeom._kernel_answer = lambda rows, order: forged[1]"
)


def test_forged_kernel_certificates_raise(monkeypatch):
    assert intgeom.kernel_ring(SimplePolygon(L_RING)._rows)[1] == L_CYCLE
    for (ring, forged), match in KERNEL_FORGERIES:
        monkeypatch.setattr(intgeom, "_kernel_answer", lambda rows, order: forged)
        with pytest.raises(CertificateError, match=match):
            kernel_vertices(SimplePolygon(ring))


def test_forged_kernel_certificates_raise_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "regions2d.kernel_vertices", KERNEL_FORGERIES, plant=PLANT_KERNEL
    )
    assert verdicts == ["1"] + ["CertificateError"] * len(KERNEL_FORGERIES)


# A ray whose addition puts the unit square's ray sum (5, 3, 5) on x <= 1.
INTERIOR_FORGERIES = [((3, 1, 1), "interior")]
# Rays that would make the unit square's face in direction (1, 0) leave it.
FACE_FORGERIES = [
    ((2, 0, 1), "violates"),  # the optimum at (2, 0), outside x <= 1
    ((1, 0, 0), "recession"),  # x unbounded along (1, 0)
]


def test_forged_ray_sum_raises(monkeypatch):
    ray, match = INTERIOR_FORGERIES[0]
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match=match):
        interior_point(unit_square())


@pytest.mark.parametrize("ray, match", FACE_FORGERIES,
                         ids=["outside", "unbounded"])
def test_forged_face_rays_raise(ray, match, monkeypatch):
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match=match):
        face_in_direction(unit_square(), V(1, 0))


def test_forged_ray_sum_and_face_rays_raise_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "interior_point", INTERIOR_FORGERIES
    )
    assert verdicts == ["1", "CertificateError"]
    verdicts = _forgery_verdicts_under_python_O(
        "face_in_direction", FACE_FORGERIES, ", vector(1, 0)"
    )
    assert verdicts == ["1"] + ["CertificateError"] * 2


def test_probes_and_redundancy_solve_no_lp(monkeypatch):
    from convexprofile import linprog

    shapes = [unit_square(), cone(), halfplane(), slab(), _pyramid()]
    rng = rng_from_seed(4000)
    for dim in (1, 2, 3, 4, 5):
        P = random_hpolyhedron(rng, dim)
        face = face_in_direction(P, random_direction(rng, dim))
        shapes += [P, _with_copies(P)] + ([face] if face is not None else [])
    monkeypatch.setattr(
        linprog, "_solve_max", lambda *a: pytest.fail("LP solved")
    )
    for P in shapes:
        assert polyhedron_boundary_probes(P)
        assert remove_redundant(P).halfspaces
    assert not all(P.full_dimensional for P in shapes)


def test_extreme_points_of_the_5_box():
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
    verts = extreme_points(box5)
    assert verts == tuple(
        Point(c) for c in itertools.product((0, 1), repeat=5)
    )


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


def _profile_by_lp(V):
    """The LP loop `profile` once ran, as a differential oracle: a distinct
    generator is kept iff it is not in the hull of the others."""
    unique = list(dict.fromkeys(V.generators))
    kept = [
        g for i, g in enumerate(unique)
        if len(unique) == 1
        or not hull_contains(VPolytope(unique[:i] + unique[i + 1:], V.dim), g)
    ]
    return tuple(sorted(kept, key=lambda p: p.coords))


def _generator_sets(seed, count):
    """Seeded generator sets in d = 1..5: general, collinear, coplanar,
    0/1/2 grid points with interior points, duplicated and single ones."""
    rng = random.Random(seed)

    def coords(d, span=6):
        return [Q(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(d)]

    def flat(d, k, m):
        # k points on the m-flat through a random base and m directions
        base, dirs = coords(d), [coords(d, 3) for _ in range(m)]
        return [Point([b + sum(Q(rng.randint(-4, 4), 2) * u[c] for u in dirs)
                       for c, b in enumerate(base)]) for _ in range(k)]

    for n in range(count):
        d, family, k = 1 + n % 5, n // 5 % 6, rng.randint(2, 9)
        if family == 0:
            gens = [Point(coords(d)) for _ in range(k)]
        elif family in (1, 2):
            gens = flat(d, k, family)
        elif family == 3:
            gens = [Point([rng.randint(0, 2) for _ in range(d)]) for _ in range(k)]
            gens += [Point([Q(rng.randint(1, 3), 2) for _ in range(d)])]
        elif family == 4:
            gens = [Point(coords(d)) for _ in range(k)]
            gens += rng.sample(gens, rng.randint(1, k))
            rng.shuffle(gens)
        else:
            gens = [Point(coords(d))] * rng.randint(1, 3)
        yield VPolytope(tuple(gens), d)


def test_profile_matches_the_lp_loop():
    for V2 in _generator_sets(3101, 300):
        assert profile(V2) == _profile_by_lp(V2), V2


def test_profile_of_extreme_points_solves_no_lp(monkeypatch):
    from convexprofile import linprog

    rng = rng_from_seed(3102)
    polytopes = [VPolytope(extreme_points(random_bounded_polytope(rng, d)), d)
                 for d in (1, 2, 3, 4)]
    monkeypatch.setattr(
        linprog, "_solve_max", lambda *a: pytest.fail("LP solved")
    )
    for V2 in polytopes:
        assert profile(V2) == V2.generators


def test_a_dropped_generator_outside_the_others_hull_raises(monkeypatch):
    monkeypatch.setattr(polyhedra, "hull_contains", lambda V, x: False)
    square_plus_center = VPolytope(
        (point(0, 0), point(1, 0), point(0, 1), point(1, 1),
         point(Q(1, 2), Q(1, 2))),
        2,
    )
    with pytest.raises(CertificateError, match="dropped"):
        profile(square_plus_center)


# (generators, ray appended to the polar double description): each makes
# the sum of the rays tight at a kept generator fail to expose it.
PROFILE_FORGERIES = [
    # tight at 0 beside (-1, 0): the sum is the zero row, 0 at 1 as well
    (((0,), (1,)), (1, 0)),
    # tight at (0, 0), but positive at (1, 0)
    (((0, 0), (1, 0), (0, 1), (1, 1)), (2, 0, 0)),
]


@pytest.mark.parametrize("gens, ray", PROFILE_FORGERIES,
                         ids=["zero-row", "positive"])
def test_forged_polar_rays_raise(gens, ray, monkeypatch):
    monkeypatch.setattr(polyhedra, "_double_description", _forge(ray))
    with pytest.raises(CertificateError, match="expose"):
        profile(VPolytope(tuple(Point(g) for g in gens), len(gens[0])))


def test_forged_polar_rays_raise_under_python_O():
    verdicts = _forgery_verdicts_under_python_O(
        "profile", [(forgery, None) for forgery in PROFILE_FORGERIES],
        plant="polyhedra._double_description = forge(forged[1]); "
              "shape = polyhedra.VPolytope(tuple(polyhedra.Point(g) "
              "for g in forged[0]), len(forged[0][0]))",
    )
    assert verdicts == ["1"] + ["CertificateError"] * 2


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


def _lp_boundary_has_ray(P):
    """Reference oracle: whether some facet of P has a nonzero recession
    direction, one cone LP family per irredundant constraint."""
    reduced = remove_redundant(P)
    return any(
        lp_recession_direction(reduced, extra_eq=h.normal) is not None
        for h in reduced.halfspaces
    )


def _axis_slab(dim):
    """0 <= x_dim <= 1 in E^dim."""
    top = V(*[int(j == dim - 1) for j in range(dim)])
    return HPolyhedron((H(top, 1), H(-top, 0)), dim)


def _boundedness_instances():
    """Seeded polyhedra in dims 1-5, bounded and not, with lines,
    duplicated rows and lower-dimensional faces, plus the planar fixtures,
    all of E^3, and a 5-D box and slab."""
    for dim, seeds in ((1, 8), (2, 8), (3, 6), (4, 4), (5, 3)):
        for seed in range(seeds):
            rng = rng_from_seed(2000 * dim + seed)
            P = random_hpolyhedron(rng, dim)
            yield P
            if dim <= 2:
                yield _with_copies(P)
            face = face_in_direction(P, random_direction(rng, dim))
            if face is not None:
                yield face
            # The rows that x_dim -> +infinity keeps: unbounded, often pointed.
            up = tuple(h for h in P.halfspaces if h.normal.coords[-1] < 0)
            if up:
                yield HPolyhedron(up, dim)
    box5 = HPolyhedron(tuple(polyhedra.box_halfspaces(5, Q(1))), 5)
    for P in (unit_square(), cone(), halfplane(), slab(), _axis_slab(1),
              HPolyhedron((), 3), box5, _axis_slab(5)):
        yield P
        yield _with_copies(P)


def test_boundedness_and_boundary_rays_match_the_lp_oracles():
    count = full = unbounded = rays = 0
    for P in _boundedness_instances():
        bounded = is_bounded(P)
        assert bounded == (lp_recession_direction(P) is None), P
        if P.full_dimensional:
            ray = boundary_has_ray(P)
            assert ray == _lp_boundary_has_ray(P), P
            full += 1
            rays += ray
        count += 1
        unbounded += not bounded
    assert count > 100 and full > 80 and unbounded > 40 and rays > 30


def test_one_double_description_and_no_lp_per_polyhedron(monkeypatch):
    from convexprofile import linprog

    runs = []
    real = polyhedra._double_description
    monkeypatch.setattr(
        polyhedra,
        "_double_description",
        lambda rows, width: runs.append(width) or real(rows, width),
    )
    shapes = (unit_square(), cone(), halfplane(), slab())
    for P in shapes:
        assert P.full_dimensional  # the double description, cached
    monkeypatch.setattr(
        linprog, "_solve_max", lambda *a: pytest.fail("LP solved")
    )
    for _ in range(3):
        assert [is_bounded(P) for P in shapes] == [True, False, False, False]
        assert [boundary_has_ray(P) for P in shapes] == [
            False, True, True, True
        ]
        assert [len(extreme_points(P)) for P in shapes] == [4, 1, 0, 0]
    assert runs == [3] * 4


def test_remove_redundant():
    sq = HPolyhedron(unit_square().halfspaces + (H(V(1, 1), 5),), 2)
    reduced = remove_redundant(sq)
    assert len(reduced.halfspaces) == 4


def _repeated(P, rng):
    """P's rows and an equal copy of each (a distinct object), shuffled."""
    hs = list(P.halfspaces) + [H(h.normal, h.offset) for h in P.halfspaces]
    rng.shuffle(hs)
    return HPolyhedron(tuple(hs), P.dim)


def _redundancy_instances():
    """Seeded polyhedra in E^1..E^4 and their faces (not full-dimensional),
    each also with repeated rows and with rows scaled by 2, and the planar
    halfspace, slab, cone, segment and square, a cube and a square pyramid,
    these also with degenerate redundant rows."""
    for dim, seeds in ((1, 6), (2, 8), (3, 6), (4, 3)):
        for seed in range(seeds):
            rng = rng_from_seed(3000 * dim + seed)
            for P in (random_hpolyhedron(rng, dim),
                      random_bounded_polytope(rng, dim)):
                face = face_in_direction(P, random_direction(rng, dim))
                for X in (P, face) if face is not None else (P,):
                    yield X
                    yield _repeated(X, rng)
                    yield _with_copies(X)
    rng = rng_from_seed(3999)
    segment = HPolyhedron(
        (H(V(0, 1), 0), H(V(0, -1), 0), H(V(1, 0), 1), H(V(-1, 0), 0)), 2
    )
    cube = HPolyhedron(tuple(polyhedra.box_halfspaces(3, Q(1))), 3)
    for P in (halfplane(), slab(), cone(), segment, unit_square(), cube,
              _pyramid()):
        yield P
        yield _repeated(P, rng)
        yield _with_copies(P)
        yield _with_redundant_rows(P)


# sha256 of the LP oracle's kept indices over `_redundancy_instances`,
# taken before the incidence rule replaced the LP loop.
LP_FACETS_DIGEST = (
    "a6783348c54e05ec09eb2a91f2efea6d7241805069b596b9f412090e637e9a37"
)


def test_facets_match_the_lp_redundancy_oracle():
    kept_lists = []
    count = flat = repeats = 0
    for P in _redundancy_instances():
        kept = lp_remove_redundant(P)
        reduced = remove_redundant(P)
        # the same halfspace objects in the same order: among equal rows,
        # the one the LP loop keeps
        assert [id(h) for h in reduced.halfspaces] == [
            id(P.halfspaces[i]) for i in kept
        ], P
        kept_lists.append(kept)
        count += 1
        flat += not P.full_dimensional
        repeats += len(set(P.halfspaces)) < len(P.halfspaces)
    digest = hashlib.sha256(json.dumps(kept_lists).encode()).hexdigest()
    assert digest == LP_FACETS_DIGEST
    assert count > 200 and flat > 60 and repeats > 100


def _oracle_instances():
    """`_redundancy_instances`, empty polyhedra (one with a lineality
    direction) and lower-dimensional ones: a point, a line, E^2 itself."""
    yield from _redundancy_instances()
    yield HPolyhedron((H(V(1), 0), H(V(-1), -1)), 1)
    yield HPolyhedron((H(V(1, 0), 0), H(V(-1, 0), -1)), 2)
    yield HPolyhedron((H(V(-1, 0), 0), H(V(0, -1), 0), H(V(1, 1), -1)), 2)
    yield HPolyhedron((H(V(1, 1, 1), 1), H(V(-1, -1, -1), -2)), 3)
    yield HPolyhedron(
        (H(V(1, 0), 2), H(V(-1, 0), -2), H(V(0, 1), 3), H(V(0, -1), -3)), 2
    )
    yield HPolyhedron((H(V(1, -1), 1), H(V(-1, 1), -1)), 2)
    yield HPolyhedron((), 2)


def test_dd_answers_match_the_lp_oracles(monkeypatch):
    from convexprofile import linprog

    rng = rng_from_seed(4100)
    cases = []
    for P in _oracle_instances():
        ws = [random_direction(rng, P.dim), *polyhedra._signed_axes(P.dim)]
        cases.append(
            (P, ws, lp_max_slack(P)[0], [lp_face_optimum(P, w) for w in ws])
        )
    monkeypatch.setattr(
        linprog, "_solve_max", lambda *a: pytest.fail("LP solved")
    )
    seen = collections.Counter()
    for P, ws, slack, optima in cases:
        assert is_empty(P) == (slack < 0), P
        assert P.full_dimensional == (slack > 0), P
        x = interior_point(P)
        assert (x is None) == (slack <= 0), P
        if x is not None:
            assert all(h.value(x) < h.offset for h in P.halfspaces), P
            assert locate_point(P, x) is PointLocation.INTERIOR
        seen["empty" if slack < 0 else "flat" if slack == 0 else "full"] += 1
        for w, (status, value) in zip(ws, optima):
            seen[status] += 1
            if status is LpStatus.INFEASIBLE:
                with pytest.raises(EmptyPolyhedronError):
                    face_in_direction(P, w)
                continue
            face = face_in_direction(P, w)
            if status is LpStatus.UNBOUNDED:
                assert face is None, (P, w)
            else:
                assert face.halfspaces == P.halfspaces + (
                    H(w, value), H(-w, -value)
                ), (P, w)
    assert seen["empty"] == 4 and seen["flat"] > 120 and seen["full"] > 150
    assert seen[LpStatus.INFEASIBLE] == 20
    assert seen[LpStatus.OPTIMAL] > 1000 and seen[LpStatus.UNBOUNDED] > 100


def test_member_recession_and_chord_directions_match_the_lp_oracles(
    monkeypatch,
):
    from convexprofile import linprog

    cases = [
        (P, lp_feasible_point(P), lp_recession_direction(P))
        for P in _oracle_instances()
    ]
    # Every ordered pair of rows, each distinct pair of normals once.
    pairs = dict.fromkeys(
        pair
        for P, _, _ in cases
        for pair in itertools.permutations([h.normal for h in P.halfspaces], 2)
    )
    for a, b in pairs:
        pairs[a, b] = lp_two_sided_direction(a, b)
    monkeypatch.setattr(
        linprog, "_solve_max", lambda *a: pytest.fail("LP solved")
    )
    seen = collections.Counter()
    for P, member, ray in cases:
        if member is None:
            assert is_empty(P), P
            for query in (feasible_point, recession_direction):
                with pytest.raises(EmptyPolyhedronError):
                    query(P)
            seen["empty"] += 1
            continue
        assert P.contains(feasible_point(P)), P
        d = recession_direction(P)
        if ray is None:
            assert d is None and is_bounded(P), P
            seen["bounded"] += 1
            continue
        u, lp_d = ray
        first = next(v for v in polyhedra._signed_axes(P.dim) if v.dot(d) > 0)
        assert first == u and u.dot(d) == u.dot(lp_d) == 1, P
        assert all(h.normal.dot(d) <= 0 for h in P.halfspaces), P
        seen["unbounded"] += 1
        seen["past e_1"] += u != polyhedra._signed_axes(P.dim)[0]
    for (a, b), lp_d in pairs.items():
        d = _two_sided_direction(a, b)
        assert (d is None) == (lp_d is None), (a, b)
        if d is not None:
            assert a.dot(Vector(d)) > 0 > b.dot(Vector(d)), (a, b)
        seen["two-sided" if d is not None else "one-sided"] += 1
    assert seen["empty"] == 4 and seen["bounded"] > 250
    assert seen["unbounded"] > 30 and seen["past e_1"] > 5
    assert seen["two-sided"] > 9900 and seen["one-sided"] > 600


def test_halfspace_invariants():
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
