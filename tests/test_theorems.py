import ast
import collections
import itertools
import json
import os
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.core import Q, interpolate, point, vector
from convexprofile.errors import CertificateError, UnboundedPolyhedronError
from convexprofile.generators import (
    random_bounded_polytope,
    random_direction,
    random_hpolyhedron,
    rng_from_seed,
)
from convexprofile import geometry_io, linprog, theorems
from convexprofile.polyhedra import (
    PointLocation,
    interior_point,
    locate_point,
    polyhedron_boundary_probes,
)
from convexprofile.regions2d import (
    Disk,
    DiskComplement,
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
from test_polyhedra_rows import _fraction_clip_line

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


def test_cor5_non_convexity_witness_is_rechecked(monkeypatch):
    # A forged right turn at a corner of the square names a vertex that is
    # not reflex; the rational re-check refuses it.
    square = unit_square_polygon()
    square._turns = [-1] + square._turns[1:]
    monkeypatch.setattr(
        theorems, "is_convex_by_pairs", lambda region, d: (True, None)
    )
    with pytest.raises(CertificateError, match="not a reflex vertex"):
        check_convexity_corollary(PolygonRegion(square), 8)


def test_convexity_corollary_pointed_open_box_flagged():
    r = check_convexity_corollary(PointedOpenBox())
    assert r.conclusion is ConclusionStatus.EXPECTED_COUNTEREXAMPLE
    assert not r.is_counterexample()
    classes = set(r.facts["corner_pair_classes"].values())
    assert classes == {"flat", "hyperbolic"}


# A box whose first two corners are (0,0) and (1,1) names an interior
# member as the midpoint of its witness pair; the re-check refuses it, in
# the kind and through cor-5, also under python -O.
FORGED_BOX = textwrap.dedent("""
    from convexprofile.core import point
    from convexprofile.errors import CertificateError
    from convexprofile.regions2d import PointedOpenBox
    from convexprofile.theorems import check_convexity_corollary

    class ForgedBox(PointedOpenBox):
        CORNERS = (point(0, 0), point(1, 1), point(1, 0), point(0, 1))

    for check in (lambda: ForgedBox().convexity_witness(),
                  lambda: check_convexity_corollary(ForgedBox(), 8)):
        try:
            check()
            print("accepted")
        except CertificateError as exc:
            print(exc)
""")
FORGED_BOX_ERRORS = "pointed-open-box pair does not witness\n" * 2


def test_a_forged_midpoint_witness_raises(capsys):
    exec(FORGED_BOX, {})
    assert capsys.readouterr().out == FORGED_BOX_ERRORS


def test_a_forged_midpoint_witness_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_BOX],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert (proc.returncode, proc.stdout) == (0, FORGED_BOX_ERRORS), proc.stderr


def test_the_checkers_ask_the_kind_not_its_name():
    # A checker reads what a kind answers (`convexity_witness`,
    # `chord_value`), so it compares no `.kind` and tests no kind's class.
    kinds = {cls.__name__ for cls, _, _ in geometry_io.KINDS.values()}
    kinds.add("SimplePolygon")
    tree = ast.parse(Path(theorems.__file__).read_text())
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            if any(isinstance(x, ast.Attribute) and x.attr == "kind"
                   for x in (node.left, *node.comparators)):
                sites.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "isinstance"):
            if any(isinstance(x, ast.Name) and x.id in kinds
                   for x in ast.walk(node.args[1])):
                sites.append(node.lineno)
    assert sites == []


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
    from convexprofile.theorems import _boundary_chord_search

    a, b = _boundary_chord_search(cone_fixture())(point(0, 5))
    assert {a, b} == {point(-5, 5), point(5, 5)}


def _clip_line_chord(P, x):
    """The rational chord search that `_boundary_chord_search` replaced:
    the same direction order built as rational vectors, each line clipped
    with the `Fraction` reference `_fraction_clip_line` and both ends
    located with `locate_point`."""
    dim = P.dim
    units = [vector(*(int(i == j) for j in range(dim))) for i in range(dim)]
    dirs = units + [units[i] + s * units[j]
                    for i, j in itertools.combinations(range(dim), 2)
                    for s in (1, -1)]
    for a, b in itertools.permutations([h.normal for h in P.halfspaces], 2):
        aa, ab, bb = a.dot(a), a.dot(b), b.dot(b)
        if aa * bb != ab * ab:
            dirs.append((bb + ab) * a - (aa + ab) * b)
        elif ab < 0:
            dirs.append(a)
    for d in dirs:
        clipped = _fraction_clip_line(P, x, d)
        if clipped is None or None in clipped or not clipped[0] < 0 < clipped[1]:
            continue
        ends = x + clipped[0] * d, x + clipped[1] * d
        if all(locate_point(P, e) is PointLocation.BOUNDARY for e in ends):
            return ends
    return None


def _chord_queries(P, rng):
    """Interior, member, probe and exterior points of a non-empty P."""
    probes = polyhedron_boundary_probes(P)
    xs = theorems._member_samples_polyhedron(P, rng, 6, probes) + probes[:6]
    if P.full_dimensional:
        center = interior_point(P)
        xs += theorems._interior_samples_polyhedron(rng, 6, probes, center)
        xs += [interpolate(center, p, Q(3, 2)) for p in probes[:3]]
    return xs


def test_the_integer_chord_search_matches_the_clip_line_search():
    # Found / None and the chord itself agree with the rational search on
    # seeded polyhedra of dimensions 1 to 4 and on every fixture; each
    # chord's ends are boundary points with x strictly between them.
    rng = rng_from_seed("chord-search")
    cases = [random_hpolyhedron(rng, dim) for dim in (1, 2, 3, 4) for _ in range(6)]
    cases += [cone_fixture(), halfspace_fixture(), slab_fixture(),
              unit_square_fixture(), segment_fixture()]
    seen = collections.Counter()
    for P in cases:
        find = theorems._boundary_chord_search(P)
        for x in _chord_queries(P, rng):
            chord = find(x)
            assert chord == _clip_line_chord(P, x), (P, x)
            seen[locate_point(P, x), chord is not None] += 1
            if chord is None:
                continue
            a, b = chord
            assert locate_point(P, a) is locate_point(P, b) is PointLocation.BOUNDARY
            # x = a + lam (b - a) with 0 < lam < 1, in every coordinate
            k = next(k for k in range(P.dim) if a[k] != b[k])
            lam = (x[k] - a[k]) / (b[k] - a[k])
            assert 0 < lam < 1 and x == interpolate(a, b, lam), (P, x)
    interior, boundary = PointLocation.INTERIOR, PointLocation.BOUNDARY
    assert seen[interior, True] > 200 and seen[interior, False] > 10
    assert seen[boundary, True] > 50 and seen[boundary, False] > 100
    assert seen[PointLocation.EXTERIOR, False] > 50


def test_the_chord_search_rechecks_both_ends(monkeypatch):
    # Each end must pass `_boundary_mask` before its `Point` is built; an
    # end it rejects sends the search on to the next direction.
    seen = []
    monkeypatch.setattr(theorems, "_boundary_mask", seen.append)
    assert theorems._boundary_chord_search(cone_fixture())(point(0, 5)) is None
    assert len(seen) > 1


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


def test_only_hull_membership_solves_lps(monkeypatch):
    """At criterion 10's settings the one LP of every theorem's suite is the
    V-polytope membership program of thm-13's doubling loop on the cone
    fixture: `profile` and the H-polyhedron queries solve none."""
    engine = linprog._solve_max
    callers = collections.Counter()

    def record(*args):
        # the two innermost callers in the library outside the LP module
        frames = [f for f in traceback.extract_stack()[:-1]
                  if "convexprofile" in f.filename
                  and not f.filename.endswith("linprog.py")]
        callers[tuple(f.name for f in frames[-2:])] += 1
        return engine(*args)

    monkeypatch.setattr(linprog, "_solve_max", record)
    for tid in THEOREM_IDS:
        assert run_suite(tid, seed=42, instances=8, samples=12,
                         probe_density=8)
    assert callers == {("_hull_of_extremes_equals", "hull_contains"): 1}


# --- failing conclusions --------------------------------------------------------
# No generated instance makes a conclusion fail, so each case breaks one
# predicate in the checker's namespace and pins the counterexample report.

def _set(name, fn):
    return lambda monkeypatch: monkeypatch.setattr(theorems, name, fn)


_SQUARE = unit_square_fixture()


def _square_loses_face_vertex(monkeypatch):
    """extreme_points(_SQUARE) omits (1, 0), which its face x = 1 keeps."""
    real = theorems.extreme_points
    monkeypatch.setattr(
        theorems,
        "extreme_points",
        lambda P: tuple(v for v in real(P) if v != point(1, 0))
        if P is _SQUARE else real(P),
    )


def _chord_too_high(epi, p):
    return p.coords[0] - 1, p.coords[0] + 1


EPIGRAPH_CHORD_FAILURES = (
    {"chord": ["1/4", "9/4"], "height_excess": "-3/4", "sample": ["5/4", "53/16"]},
    {"chord": ["1/2", "5/2"], "height_excess": "-3", "sample": ["3/2", "25/4"]},
)


@pytest.mark.parametrize("patch, check, witnesses", [
    (_set("is_bounded", lambda P: True),
     lambda: check_flat_theorem(halfspace_fixture()),
     ({"unbounded": "recession cone is trivial"},)),
    (_set("_region_convex_probed", lambda region, probes: False),
     lambda: check_hyperbolic_theorem(Disk(point(0, 0), 1), 10),
     ({"convexity": "a member midpoint left the set"},)),
    (_set("is_convex_by_pairs", lambda region, density: (True, None)),
     lambda: check_convexity_corollary(PolygonRegion(l_polygon_fixture()), 8),
     ({"reflex_vertex": ["1", "1"]},)),
    (_set("is_convex_by_pairs", lambda region, density: (True, None)),
     lambda: check_convexity_corollary(DiskComplement(point(1, 0), 2), 8),
     ({"midpoint": ["1", "0"], "p": ["-3", "0"], "q": ["5", "0"]},)),
    (_set("is_convex_by_pairs",
          lambda region, density: (False, (point(0, 0), point(1, 1), PairClass.MIXED))),
     lambda: check_convexity_corollary(PointedOpenBox(), 8),
     ({"class": "mixed", "p": ["0", "0"], "q": ["1", "1"]},)),
    (_set("kernel_contains_by_visibility", lambda polygon, x, m: True),
     lambda: check_kernel_characterization(l_polygon_fixture(), samples=4, seed=11),
     tuple(
         {"density": m, "halfplane_membership": False, "point": x,
          "visibility": True}
         for x in (["231/128", "97/128"], ["47/64", "243/128"])
         for m in (8, 32)
     )),
    (_set("is_vertex", lambda P, v: False),
     lambda: check_extreme_existence(unit_square_fixture()),
     ({"extreme_points": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]},)
     + tuple({"bad_vertex_witness": v}
             for v in (["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]))),
    (_square_loses_face_vertex,
     lambda: check_face_lemma(_SQUARE, vector(1, 0)),
     (["1", "0"],)),
    (_set("_boundary_chord_search", lambda P: lambda x: None),
     lambda: check_boundary_hull(cone_fixture(), 3, 5),
     tuple({"no_chord_through": x}
           for x in (["0", "2"], ["11/4", "27/8"], ["5", "23/4"]))),
    (_set("chord_find", _chord_too_high),
     lambda: check_boundary_hull(parabola_fixture(), 2, 5),
     EPIGRAPH_CHORD_FAILURES),
    (_set("hull_equal", lambda P, V: False),
     lambda: check_krein_milman(unit_square_fixture(), 3, 5),
     ({"hull_equal": False, "profile_minimal": True},)),
    (_set("chord_find", _chord_too_high),
     lambda: check_krein_milman(parabola_fixture(), 2, 5),
     EPIGRAPH_CHORD_FAILURES),
], ids=["thm-2", "thm-4", "cor-5", "cor-5-complement", "cor-5-box", "prop-8",
        "prop-11", "lem-12", "thm-10", "thm-10-epigraph", "thm-13",
        "thm-13-epigraph"])
def test_failing_conclusion_is_a_counterexample(patch, check, witnesses,
                                                monkeypatch):
    patch(monkeypatch)
    r = check()
    assert (r.hypothesis, r.conclusion) == (SAT, ConclusionStatus.FAILS)
    assert r.is_counterexample()
    assert r.witnesses == witnesses
    assert r.to_json_dict()["witnesses"] == list(witnesses)


def test_check_exits_1_on_a_counterexample(monkeypatch, capsys):
    from convexprofile.cli import run

    monkeypatch.setattr(theorems, "_region_convex_probed", lambda r, p: False)
    assert run(["check", "thm-4", "--instances", "0", "--probe-density", "8"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["conclusion"] for r in results] == ["fails", "fails", "not-applicable"]


@pytest.mark.parametrize("region, witness", [
    (Disk(point(0, 0), 1),
     {"class": "hyperbolic", "p": ["-45/53", "-28/53"], "q": ["-21/29", "-20/29"]}),
    (PolygonRegion(l_polygon_fixture()),
     {"class": "hyperbolic", "p": ["0", "0"], "q": ["2", "1/2"]}),
    (DiskComplement(point(0, 0), 1),
     {"class": "elliptic", "p": ["-45/53", "-28/53"], "q": ["-21/29", "-20/29"]}),
    (PointedOpenBox(),
     {"class": "hyperbolic", "p": ["0", "0"], "q": ["1", "1"]}),
])
def test_flat_theorem_planar_kinds_violate_the_hypothesis(region, witness):
    # Every planar kind has a non-flat probe pair, so thm-2's conclusion is
    # checked on polyhedra only.
    r = check_flat_theorem(region, 8)
    assert (r.hypothesis, r.conclusion) == (VIO, NA)
    assert r.hypothesis_witness == witness
    assert r.witnesses == ()
