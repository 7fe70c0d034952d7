"""Acceptance suite: the ten exit criteria, one test each.

Each test prints a single PASS/FAIL line (run with `pytest -s` to watch
them stream). Tolerances and sample counts are pinned here, not
configurable: the criteria are the contract.
"""

import itertools
import json

from convexprofile.cli import run
from convexprofile.core import Point, Q, point
from convexprofile.epigraph import CHORD_TOLERANCE, Epigraph1D, chord_find
from convexprofile.generators import (
    random_bounded_polytope,
    random_direction,
    random_hpolyhedron,
    random_simple_polygon,
    rng_from_seed,
    sample_member_points,
)
from convexprofile.polyhedra import (
    VPolytope,
    boundary_has_ray,
    extreme_points,
    face_in_direction,
    hull_contains,
    hull_equal,
    is_vertex,
    lineality_dim,
    lineality_direction,
    profile,
)
from convexprofile.regions2d import (
    PairClass,
    PointedOpenBox,
    PolygonRegion,
    classify_pair,
    convexity_oracle,
    is_convex_by_pairs,
    kernel,
    kernel_contains_by_visibility,
    locate_point2,
)
from convexprofile.theorems import (
    ConclusionStatus,
    HypothesisStatus,
    check_convexity_corollary,
    check_flat_theorem,
    check_krein_milman,
    cone_fixture,
    halfspace_fixture,
    slab_fixture,
)

SEED = 0xC0FFEE


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_cor5_biconditional_500_polygons():
    rng = rng_from_seed(f"{SEED}:acc1")
    n = 500
    disagreements = 0
    convex_count = 0
    for _ in range(n):
        poly = random_simple_polygon(rng, max_vertices=12)
        truth = convexity_oracle(poly)
        convex_count += truth
        verdict, _ = is_convex_by_pairs(PolygonRegion(poly))
        if verdict != truth:
            disagreements += 1
    _verdict(
        "criterion-1 (Cor. 5 biconditional)",
        disagreements == 0,
        f"{n} polygons ({convex_count} convex), {disagreements} disagreements",
    )


def test_criterion_2_prop8_kernel_vs_visibility():
    rng = rng_from_seed(f"{SEED}:acc2")
    polygons = 100
    per_polygon = 50
    densities = (8, 32)
    disagreements = 0
    checked = 0
    for _ in range(polygons):
        poly = random_simple_polygon(rng, max_vertices=10)
        ker = kernel(poly)
        pts = sample_member_points(poly, rng, per_polygon)
        for x in pts:
            member = all(h.contains(x) for h in ker.halfspaces)
            for m in densities:
                checked += 1
                if kernel_contains_by_visibility(poly, x, m) != member:
                    disagreements += 1
    _verdict(
        "criterion-2 (Prop. 8 kernel characterization)",
        disagreements == 0,
        f"{polygons} polygons x {per_polygon} points x densities {densities}: "
        f"{checked} comparisons, {disagreements} disagreements",
    )


def test_criterion_3_prop11_extremes_iff_pointed():
    rng = rng_from_seed(f"{SEED}:acc3")
    n = 300
    bad = 0
    with_lines = 0
    for _ in range(n):
        dim = rng.choice((2, 2, 3))
        P = random_hpolyhedron(rng, dim)
        verts = extreme_points(P)
        ld = lineality_dim(P)
        ok = (len(verts) > 0) == (ld == 0)
        if verts:
            ok = ok and all(is_vertex(P, v) for v in verts)
        if ld > 0:
            with_lines += 1
            d = lineality_direction(P)
            ok = ok and d is not None and all(
                h.normal.dot(d) == 0 for h in P.halfspaces
            )
        if not ok:
            bad += 1
    _verdict(
        "criterion-3 (Prop. 11 existence + witnesses)",
        bad == 0,
        f"{n} polyhedra ({with_lines} with lines), {bad} failures",
    )


def test_criterion_4_lemma12_face_extremes():
    rng = rng_from_seed(f"{SEED}:acc4")
    n = 300
    bad = 0
    for _ in range(n):
        dim = rng.choice((2, 2, 3))
        P = random_bounded_polytope(rng, dim)
        w = random_direction(rng, dim)
        face = face_in_direction(P, w)
        if face is None or not (
            set(extreme_points(face)) <= set(extreme_points(P))
        ):
            bad += 1
    _verdict(
        "criterion-4 (Lemma 12 face extremes)",
        bad == 0,
        f"{n} (polytope, direction) cases, {bad} failures",
    )


def test_criterion_5_thm13_polytope_reconstruction():
    rng = rng_from_seed(f"{SEED}:acc5")
    n = 300
    bad = 0
    for _ in range(n):
        dim = rng.choice((2, 2, 3))
        P = random_bounded_polytope(rng, dim)
        verts = extreme_points(P)
        if not verts or not hull_equal(P, VPolytope(verts, dim)):
            bad += 1
            continue
        kept = profile(VPolytope(verts, dim))
        for v in kept:
            rest = tuple(u for u in kept if u != v)
            if rest and hull_contains(VPolytope(rest, dim), v):
                bad += 1
                break
    _verdict(
        "criterion-5 (Thm. 13 polytopes + profile minimality)",
        bad == 0,
        f"{n} bounded polytopes, {bad} failures",
    )


def test_criterion_6_cone_fixture():
    cone = cone_fixture()
    verts = extreme_points(cone)
    ok = verts == (Point([0, 0]),)
    ray = boundary_has_ray(cone)
    report = check_krein_milman(cone, samples=10, seed=SEED)
    ok = (
        ok
        and ray is True
        and report.hypothesis is HypothesisStatus.VIOLATED
        and report.facts["boundary_has_ray"] is True
        and report.facts["hull_of_extremes_equals_set"] is False
    )
    _verdict(
        "criterion-6 (cone fixture)",
        ok,
        f"extremes={[(str(v.coords[0]), str(v.coords[1])) for v in verts]}, "
        f"boundary_has_ray={ray}, report={report.hypothesis.value}/"
        f"{report.conclusion.value}, C(E(A))=A recorded "
        f"{report.facts['hull_of_extremes_equals_set']}",
    )


def test_criterion_7_pointed_open_box_fixture():
    box = PointedOpenBox()
    corners = PointedOpenBox.CORNERS
    edges = {(0, 1), (1, 2), (2, 3), (0, 3)}
    ok = True
    for i, j in itertools.combinations(range(4), 2):
        cls = classify_pair(box, corners[i], corners[j])
        want = PairClass.FLAT if (i, j) in edges else PairClass.HYPERBOLIC
        ok = ok and cls is want
    # the set is still not convex: an edge midpoint between two members is out
    ok = ok and not locate_point2(box, point(Q(1, 2), 0))[1]
    report = check_convexity_corollary(box)
    ok = ok and report.conclusion is ConclusionStatus.EXPECTED_COUNTEREXAMPLE
    _verdict(
        "criterion-7 (pointed open box)",
        ok,
        f"edges flat, diagonals hyperbolic, non-convex, report flagged "
        f"{report.conclusion.value}",
    )


def test_criterion_8_epigraph_chords():
    epi = Epigraph1D((0, 0, 1))
    rng = rng_from_seed(f"{SEED}:acc8")
    n = 25
    bad = 0
    for _ in range(n):
        x = Q(rng.randint(-12, 12), 4)  # in [-3, 3]
        y_top = min(Q(10), epi.value(x) + Q(rng.randint(1, 40), 4))
        y = min(y_top, Q(10))
        p = Point((x, y))
        a, b = chord_find(epi, p)
        height = epi.chord_value(a, b, x)
        endpoints_exact = (
            epi.value(a) == epi.chord_value(a, b, a)
            and epi.value(b) == epi.chord_value(a, b, b)
        )
        if not endpoints_exact or not (0 <= height - y <= CHORD_TOLERANCE):
            bad += 1
    _verdict(
        "criterion-8 (epigraph chord search, tau = 2^-40)",
        bad == 0,
        f"{n} interior samples in [-3,3]x[0,10], {bad} failures",
    )


def test_criterion_9_thm2_fixtures():
    half = check_flat_theorem(halfspace_fixture(), seed=SEED)
    ok = (
        half.hypothesis is HypothesisStatus.SATISFIED
        and half.conclusion is ConclusionStatus.HOLDS
        and half.facts["unbounded"] is True
        and half.facts["boundary_affine"] is True
        and half.facts["complement_convex_probed"] is True
    )
    slab = check_flat_theorem(slab_fixture(), seed=SEED)
    ok = (
        ok
        and slab.hypothesis is HypothesisStatus.VIOLATED
        and slab.conclusion is ConclusionStatus.NOT_APPLICABLE
        and slab.hypothesis_witness["class"] == "hyperbolic"
    )
    _verdict(
        "criterion-9 (Thm. 2 fixtures)",
        ok,
        f"halfspace {half.hypothesis.value}/{half.conclusion.value}; slab "
        f"{slab.hypothesis.value} with a {slab.hypothesis_witness['class']} "
        f"cross pair",
    )


def test_criterion_10_check_all_determinism(capsys):
    argv = [
        "check", "all", "--instances", "8", "--seed", "42",
        "--samples", "12", "--probe-density", "8",
    ]
    code1 = run(argv)
    out1 = capsys.readouterr().out
    code2 = run(argv)
    out2 = capsys.readouterr().out
    identical = out1 == out2 and code1 == code2 == 0
    n_reports = len(json.loads(out1)["results"])
    with capsys.disabled():
        _verdict(
            "criterion-10 (check all determinism)",
            identical,
            f"two runs, {len(out1)} bytes each, {n_reports} reports, "
            f"byte-identical={out1 == out2}",
        )
