import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.core import Point, Q, point
from convexprofile.epigraph import CHORD_TOLERANCE, Epigraph1D, chord_find
from convexprofile.errors import BelowGraphError, InvalidRegionError
from convexprofile.polyhedra import PointLocation


def parabola():
    return Epigraph1D((0, 0, 1))


def test_construction_rejects_non_convex_polynomials():
    with pytest.raises(InvalidRegionError):
        Epigraph1D((0, 1))  # affine
    with pytest.raises(InvalidRegionError):
        Epigraph1D((0, 0, -1))  # concave
    with pytest.raises(InvalidRegionError):
        Epigraph1D((0, 0, 0, 1))  # x^3 has negative curvature at x < 0
    Epigraph1D((1, -2, 3))  # strictly convex quadratic is fine
    Epigraph1D((0, 0, 1, 0, Q(1, 100)))  # x^2 + x^4/100


def test_cubic_negative_curvature_far_from_origin_is_rejected():
    # f'' = 6x + 50 is negative for every x < -25/3.
    with pytest.raises(InvalidRegionError):
        Epigraph1D((0, 0, 25, 1))


def test_quartic_with_vanishing_curvature_is_strictly_convex():
    # f = x^4: f'' = 12x^2 vanishes at 0 only, and f is strictly convex.
    epi = Epigraph1D((0, 0, 0, 0, 1))
    assert chord_find(epi, point(0, 1)) == (Q(-1), Q(1))


def test_evaluation_and_location():
    epi = Epigraph1D((Q(1), Q(-1), Q(2)))  # 2x^2 - x + 1
    assert epi.value(Q(1, 2)) == 1
    assert epi.locate(point(Q(1, 2), 1)) is PointLocation.BOUNDARY
    assert epi.locate(point(0, 5)) is PointLocation.INTERIOR
    assert epi.locate(point(0, 0)) is PointLocation.EXTERIOR


def test_chord_find_symmetric_example():
    a, b = chord_find(parabola(), point(0, 1))
    assert (a, b) == (Q(-1), Q(1))


def test_chord_find_boundary_point_degenerates():
    a, b = chord_find(parabola(), point(0, 0))
    assert a == b == 0


def test_chord_find_exact_asymmetric_example():
    # DERIVED: the chord of x^2 from (0,0) to (2,4) passes through (1,2)
    # exactly; the search must land within tolerance of it
    a, b = chord_find(parabola(), point(1, 2))
    assert (a, b) == (Q(0), Q(2))


def test_chord_find_rejects_points_below_graph():
    with pytest.raises(BelowGraphError):
        chord_find(parabola(), point(1, 0))


@given(st.integers(-12, 12), st.integers(1, 40))
@settings(max_examples=40)
def test_chord_find_postcondition(xn, lift):
    epi = parabola()
    px = Q(xn, 4)
    py = epi.value(px) + Q(lift, 4)
    a, b = chord_find(epi, Point((px, py)))
    assert a <= px <= b
    # endpoints are exactly on the graph by construction; the chord height
    # at px brackets py within the tolerance
    height = epi.chord_value(a, b, px)
    assert 0 <= height - py <= CHORD_TOLERANCE


@given(st.integers(-8, 8), st.integers(1, 24))
@settings(max_examples=20)
def test_chord_find_on_quartic(xn, lift):
    epi = Epigraph1D((Q(1), Q(0), Q(1), Q(0), Q(1, 10)))  # 1 + x^2 + x^4/10
    px = Q(xn, 2)
    py = epi.value(px) + Q(lift, 8)
    a, b = chord_find(epi, Point((px, py)))
    height = epi.chord_value(a, b, px)
    assert 0 <= height - py <= CHORD_TOLERANCE
