import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from convexprofile import generators
from convexprofile.errors import GeneratorExhaustedError, InvalidPolygonError
from convexprofile.generators import (
    random_bounded_polytope,
    random_convex_polygon,
    random_hpolyhedron,
    random_notched_polygon,
    random_simple_polygon,
    random_staircase_polygon,
    rng_from_seed,
    sample_member_points,
)
from convexprofile.polyhedra import PointLocation, is_bounded, is_empty
from convexprofile.regions2d import convexity_oracle


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_convex_generator_produces_convex_ccw_polygons(seed):
    poly = random_convex_polygon(rng_from_seed(seed))
    assert poly.signed_area() > 0
    assert convexity_oracle(poly)
    assert 3 <= poly.n <= 10
    for v in poly.vertices:
        assert v.coords[0].denominator <= 64
        assert v.coords[1].denominator <= 64


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_staircase_generator_is_valid_and_nonconvex(seed):
    poly = random_staircase_polygon(rng_from_seed(seed))
    assert poly.signed_area() > 0
    assert poly.n <= 12
    assert not convexity_oracle(poly)


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_notched_generator_is_nonconvex(seed):
    poly = random_notched_polygon(rng_from_seed(seed))
    assert not convexity_oracle(poly)


@given(st.integers(0, 10**9))
@example(4221518)  # all 12 draws take the convex-hull branch
@settings(max_examples=30)
def test_mixed_polygon_diet_realizes_both_classes(seed):
    # Each draw is convex iff its first `randrange(4)`, read from a copy of
    # the rng, picks the convex-hull branch; skylines and notched polygons
    # never are.
    rng = rng_from_seed(seed)
    for _ in range(12):
        ahead = random.Random()
        ahead.setstate(rng.getstate())
        convex_branch = ahead.randrange(4) <= 1
        assert convexity_oracle(random_simple_polygon(rng)) == convex_branch


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_random_polyhedra_are_nonempty(seed):
    rng = rng_from_seed(seed)
    P = random_hpolyhedron(rng, dim=rng.choice((2, 3)))
    assert not is_empty(P)
    assert len(P.halfspaces) >= 1


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_random_bounded_polytopes_are_bounded_nonempty(seed):
    rng = rng_from_seed(seed)
    P = random_bounded_polytope(rng, rng.choice((2, 3)))
    assert not is_empty(P)
    assert is_bounded(P)


@given(st.integers(0, 10**9))
@settings(max_examples=25)
def test_member_samples_are_members(seed):
    rng = rng_from_seed(seed)
    poly = random_simple_polygon(rng)
    pts = sample_member_points(poly, rng, 20)
    assert len(pts) == 20
    for p in pts:
        assert poly.locate(p) is not PointLocation.EXTERIOR


def test_generators_are_deterministic_per_seed():
    a = random_simple_polygon(rng_from_seed(424242))
    b = random_simple_polygon(rng_from_seed(424242))
    assert a.vertices == b.vertices


def test_polygon_generators_give_up_after_their_attempts(monkeypatch):
    # A broken predicate makes every draw invalid; each polygon generator
    # then raises after `ATTEMPTS` draws instead of retrying forever.
    def refuse(vertices):
        raise InvalidPolygonError("refused")

    start = time.monotonic()
    for name, stub, generate in (
        ("orientation", lambda *points: 0, random_convex_polygon),
        ("orientation", lambda *points: 0, random_notched_polygon),
        ("SimplePolygon", refuse, random_staircase_polygon),
        ("convexity_oracle", lambda poly: True, random_notched_polygon),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(generators, name, stub)
            with pytest.raises(GeneratorExhaustedError, match="1000 draws"):
                generate(rng_from_seed(name))
    assert time.monotonic() - start < 10
