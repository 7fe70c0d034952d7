import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.core import point, vector
from convexprofile.errors import UnboundedPolyhedronError
from convexprofile.generators import (
    random_bounded_polytope,
    random_direction,
    rng_from_seed,
)
from convexprofile.polyhedra import polyhedron_boundary_probes
from convexprofile.regions2d import (
    Disk,
    PairClass,
    PointedOpenBox,
    PolygonRegion,
    classify_pair,
)
from convexprofile.theorems import (
    ConclusionStatus,
    HypothesisStatus,
    THEOREM_IDS,
    TheoremReport,
    check_boundary_hull,
    check_convexity_corollary,
    check_extreme_existence,
    check_face_lemma,
    check_flat_theorem,
    check_hyperbolic_theorem,
    check_kernel_characterization,
    check_krein_milman,
    cone_fixture,
    halfspace_fixture,
    l_polygon_fixture,
    parabola_fixture,
    run_suite,
    segment_fixture,
    slab_fixture,
    unit_square_fixture,
    z_polygon_fixture,
)

SAT = HypothesisStatus.SATISFIED
VIO = HypothesisStatus.VIOLATED
HOLDS = ConclusionStatus.HOLDS
NA = ConclusionStatus.NOT_APPLICABLE


def test_report_invariant_not_applicable_needs_violation():
    with pytest.raises(ValueError):
        TheoremReport("thm-2", SAT, NA, "x", "h-polyhedron")


def test_report_serialization_shape():
    r = check_flat_theorem(halfspace_fixture())
    doc = r.to_json_dict()
    assert doc["theorem"] == "thm-2"
    assert doc["hypothesis"] == "satisfied"
    assert doc["conclusion"] == "holds"
    assert set(doc["instance"]) == {"digest", "kind"}


def test_classify_pair_polyhedron_cases():
    sq = unit_square_fixture()
    assert classify_pair(sq, point(0, 0), point(1, 0)) is PairClass.FLAT
    assert classify_pair(sq, point(0, 0), point(1, 1)) is PairClass.HYPERBOLIC
    seg = segment_fixture()
    assert classify_pair(seg, point(0, 0), point(1, 0)) is PairClass.FLAT


def test_polyhedron_probes_are_boundary_points():
    from convexprofile.polyhedra import PointLocation, locate_point

    for P in (halfspace_fixture(), slab_fixture(), unit_square_fixture(), cone_fixture()):
        probes = polyhedron_boundary_probes(P)
        assert len(probes) >= 3
        for p in probes:
            assert locate_point(P, p) is PointLocation.BOUNDARY


# --- thm-2 -------------------------------------------------------------------

def test_flat_theorem_halfspace_holds():
    r = check_flat_theorem(halfspace_fixture())
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)
    assert r.facts["unbounded"] is True
    assert r.facts["boundary_affine"] is True
    assert r.facts["complement_convex_probed"] is True


def test_flat_theorem_slab_hypothesis_violated():
    r = check_flat_theorem(slab_fixture())
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.hypothesis_witness["class"] == "hyperbolic"


def test_flat_theorem_segment_interior_empty_branch():
    r = check_flat_theorem(segment_fixture())
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)
    assert r.facts["interior_nonempty"] is False
    assert "unbounded" not in r.facts


def test_flat_theorem_square_violated():
    r = check_flat_theorem(unit_square_fixture())
    assert (r.hypothesis, r.conclusion) == (VIO, NA)


# --- thm-4 -------------------------------------------------------------------

def test_hyperbolic_theorem_disk_holds():
    r = check_hyperbolic_theorem(Disk(point(0, 0), 1), 10)
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)
    assert r.facts["no_flat_probe_pair"] is True


def test_hyperbolic_theorem_square_violated_by_flat_edge():
    r = check_hyperbolic_theorem(
        PolygonRegion(unit_square_polygon()), 10
    )
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.hypothesis_witness["class"] == "flat"


def unit_square_polygon():
    from convexprofile.regions2d import SimplePolygon

    return SimplePolygon([point(0, 0), point(1, 0), point(1, 1), point(0, 1)])


def test_hyperbolic_theorem_l_polygon_violated():
    r = check_hyperbolic_theorem(PolygonRegion(l_polygon_fixture()), 10)
    assert (r.hypothesis, r.conclusion) == (VIO, NA)


# --- cor-5 -------------------------------------------------------------------

def test_convexity_corollary_convex_and_nonconvex_polygons():
    r = check_convexity_corollary(PolygonRegion(unit_square_polygon()))
    assert r.conclusion is HOLDS
    assert r.facts == {"convex_by_pairs": True, "convex_ground_truth": True}
    r = check_convexity_corollary(PolygonRegion(l_polygon_fixture()))
    assert r.conclusion is HOLDS
    assert r.facts == {"convex_by_pairs": False, "convex_ground_truth": False}


def test_convexity_corollary_pointed_open_box_flagged():
    r = check_convexity_corollary(PointedOpenBox())
    assert r.conclusion is ConclusionStatus.EXPECTED_COUNTEREXAMPLE
    assert not r.is_counterexample()
    classes = set(r.facts["corner_pair_classes"].values())
    assert classes == {"flat", "hyperbolic"}


# --- prop-8 ------------------------------------------------------------------

def test_kernel_characterization_fixtures():
    r = check_kernel_characterization(l_polygon_fixture(), samples=30, seed=11)
    assert r.conclusion is HOLDS
    assert r.facts["samples_in_kernel"] > 0
    assert r.facts["samples_in_kernel"] < r.facts["samples"]
    r = check_kernel_characterization(z_polygon_fixture(), samples=20, seed=11)
    assert r.conclusion is HOLDS
    assert r.facts["kernel_empty"] is True
    assert r.facts["samples_in_kernel"] == 0


def test_kernel_characterization_convex_polygon_every_member_in_kernel():
    r = check_kernel_characterization(unit_square_polygon(), samples=20, seed=3)
    assert r.conclusion is HOLDS
    assert r.facts["samples_in_kernel"] == r.facts["samples"]


# --- prop-11 / lem-12 ---------------------------------------------------------

def test_extreme_existence_fixtures():
    r = check_extreme_existence(cone_fixture())
    assert r.conclusion is HOLDS
    assert r.facts == {"extreme_count": 1, "lineality_dim": 0}
    r = check_extreme_existence(slab_fixture())
    assert r.conclusion is HOLDS
    assert r.facts["lineality_dim"] == 1
    assert any("line_direction" in w for w in r.witnesses)
    r = check_extreme_existence(unit_square_fixture())
    assert r.facts["extreme_count"] == 4


def test_face_lemma_fixture_and_unbounded_error():
    r = check_face_lemma(unit_square_fixture(), vector(1, 0))
    assert r.conclusion is HOLDS
    assert r.facts["face_extremes"] == [["1", "0"], ["1", "1"]]
    with pytest.raises(UnboundedPolyhedronError):
        check_face_lemma(halfspace_fixture(), vector(0, 1))


@given(st.integers(0, 10**9))
@settings(max_examples=25)
def test_face_lemma_random_3d(seed):
    rng = rng_from_seed(seed)
    P = random_bounded_polytope(rng, 3)
    r = check_face_lemma(P, random_direction(rng, 3))
    assert r.conclusion is HOLDS


# --- thm-10 ------------------------------------------------------------------

def test_boundary_hull_cone_chords():
    r = check_boundary_hull(cone_fixture(), interior_samples=10, seed=5)
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)
    assert r.facts["chords_found"] == 10


def test_boundary_chord_through_cone_point_is_symmetric():
    from convexprofile.theorems import _find_boundary_chord

    a, b = _find_boundary_chord(cone_fixture(), point(0, 5))
    assert {a, b} == {point(-5, 5), point(5, 5)}


def test_boundary_hull_halfspace_records_failure_of_equality():
    r = check_boundary_hull(halfspace_fixture(), interior_samples=5, seed=5)
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.facts["boundary_hull_equals_set"] is False


def test_boundary_hull_slab_records_equality_anyway():
    # documents that the no-hyperplane hypothesis is sufficient, not necessary
    r = check_boundary_hull(slab_fixture(), interior_samples=5, seed=5)
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.facts["boundary_hull_equals_set"] is True


def test_boundary_hull_epigraph():
    r = check_boundary_hull(parabola_fixture(), interior_samples=10, seed=5)
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)
    assert r.facts["chords_verified"] == 10


# --- thm-13 ------------------------------------------------------------------

def test_krein_milman_cone_violated_with_recorded_fact():
    r = check_krein_milman(cone_fixture(), samples=10, seed=5)
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.facts["boundary_has_ray"] is True
    assert r.facts["hull_of_extremes_equals_set"] is False
    assert r.facts["extreme_count"] == 1
    assert r.hypothesis_witness is not None


def test_krein_milman_square_and_epigraph_hold():
    r = check_krein_milman(unit_square_fixture(), samples=10, seed=5)
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)
    assert r.facts["profile_minimal"] is True
    r = check_krein_milman(parabola_fixture(), samples=10, seed=5)
    assert (r.hypothesis, r.conclusion) == (SAT, HOLDS)


def test_krein_milman_halfspace_violated_no_extremes():
    r = check_krein_milman(halfspace_fixture(), samples=5, seed=5)
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.facts["hull_of_extremes_equals_set"] is False
    assert r.facts["extreme_count"] == 0


# --- harness invariants --------------------------------------------------------

@given(st.sampled_from(THEOREM_IDS), st.integers(0, 10**6))
@settings(max_examples=16)
def test_no_generated_instance_is_a_counterexample(theorem_id, seed):
    reports = run_suite(theorem_id, seed=seed, instances=3, samples=10,
                        probe_density=8)
    assert reports
    for r in reports:
        assert not r.is_counterexample(), r.to_json_dict()


def test_suite_rejects_unknown_ids():
    with pytest.raises(ValueError):
        run_suite("thm-99")
