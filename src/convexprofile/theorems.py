"""Executable checkers for the structural results, one per theorem.

Each checker evaluates the hypothesis and the conclusion of one result on
a concrete instance and emits a structured TheoremReport. The epistemic
contract is property-testing: hypotheses quantifying over infinite sets
(all boundary pairs, all members) are probed at configurable density, and
a report of (hypothesis satisfied, conclusion fails) is a counterexample
flag that fails the whole run. A checker keeps the sampling, the seeds and
the report; every polyhedron fact, a boundary chord and a line's direction
among them, is asked of `polyhedra` by a public name. No checker solves an
LP: thm-13's member outside the hull of the extreme points is read in
closed form off a recession direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .core import (
    Matrix,
    Point,
    Q,
    Vector,
    ZERO,
    interpolate,
    rank,
)
from .epigraph import CHORD_TOLERANCE, Epigraph1D, chord_find
from .errors import CertificateError, UnboundedPolyhedronError
from .generators import (
    random_bounded_polytope,
    random_direction,
    random_hpolyhedron,
    random_simple_polygon,
    rng_from_seed,
    sample_member_points,
)
from .geometry_io import instance_digest, pair_to_json, point_to_json
from .polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    VPolytope,
    boundary_chord_search,
    boundary_has_ray,
    contains_hyperplane,
    extreme_points,
    face_in_direction,
    feasible_point,
    hull_equal,
    interior_point,
    is_bounded,
    is_vertex,
    lineality_dim,
    lineality_direction,
    locate_point,
    polyhedron_boundary_probes,
    profile,
    recession_direction,
    remove_redundant,
)
from .regions2d import (
    Disk,
    DiskComplement,
    PairClass,
    PointedOpenBox,
    PolygonRegion,
    SimplePolygon,
    classify_pair,
    first_pair_outside,
    is_convex_by_pairs,
    kernel,
    kernel_contains_by_visibility,
    kernel_vertices,
    locate_point2,
)

DEFAULT_SAMPLES = 50
DEFAULT_PROBE_DENSITY = 32
DEFAULT_SEED = 0xC0FFEE
DEFAULT_INSTANCES = 25


class HypothesisStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"


class ConclusionStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"
    # The designated closedness counterexample: pair criteria pass on the
    # probes yet the set is not convex. Expected, not a failure.
    EXPECTED_COUNTEREXAMPLE = "expected-counterexample-of-closedness"


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    hypothesis: HypothesisStatus
    conclusion: ConclusionStatus
    instance_digest: str
    instance_kind: str
    hypothesis_witness: object = None
    witnesses: tuple = ()
    facts: dict = field(default_factory=dict)

    def __post_init__(self):
        if (
            self.conclusion is ConclusionStatus.NOT_APPLICABLE
            and self.hypothesis is not HypothesisStatus.VIOLATED
        ):
            raise ValueError(
                "NotApplicable is only valid with a violated hypothesis"
            )

    def is_counterexample(self):
        """A satisfied hypothesis with a failing conclusion fails the run."""
        return (
            self.hypothesis is HypothesisStatus.SATISFIED
            and self.conclusion is ConclusionStatus.FAILS
        )

    def to_json_dict(self):
        doc = {
            "theorem": self.theorem_id,
            "hypothesis": self.hypothesis.value,
            "conclusion": self.conclusion.value,
            "witnesses": list(self.witnesses),
            "instance": {
                "digest": self.instance_digest,
                "kind": self.instance_kind,
            },
        }
        if self.hypothesis_witness is not None:
            doc["hypothesis_witness"] = self.hypothesis_witness
        if self.facts:
            doc["facts"] = self.facts
        return doc


def _report(theorem_id, instance, hypothesis, conclusion, **kw):
    return TheoremReport(
        theorem_id=theorem_id,
        hypothesis=hypothesis,
        conclusion=conclusion,
        instance_digest=instance_digest(instance),
        instance_kind=instance.kind,
        **kw,
    )


def _satisfied(theorem_id, instance, failures, facts, witnesses=None):
    """The report of a met hypothesis: Holds iff nothing failed.

    The witnesses default to the failures.
    """
    return _report(
        theorem_id,
        instance,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.FAILS if failures else ConclusionStatus.HOLDS,
        witnesses=tuple(failures if witnesses is None else witnesses),
        facts=facts,
    )


def _violated(theorem_id, instance, witness=None, facts=None):
    """The report of a hypothesis the instance does not meet."""
    return _report(
        theorem_id,
        instance,
        HypothesisStatus.VIOLATED,
        ConclusionStatus.NOT_APPLICABLE,
        hypothesis_witness=witness,
        facts=facts or {},
    )


# ---------------------------------------------------------------------------
# Sampling machinery for polyhedra
# ---------------------------------------------------------------------------

def _member_samples_polyhedron(P, rng, count, probes):
    """Member points as convex combinations of known members."""
    base = interior_point(P) if P.full_dimensional else feasible_point(P)
    pool = [base] + list(probes)
    pts = [base]
    while len(pts) < count:
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        t = Q(rng.randint(0, 16), 16)
        pts.append(interpolate(a, b, t))
    return pts[:count]


def _interior_samples_polyhedron(rng, count, probes, center):
    """Strictly interior points: slide members toward an interior center."""
    pool = [center] + list(probes)
    pts = [center]
    while len(pts) < count:
        m = pool[rng.randrange(len(pool))]
        lam = Q(rng.randint(1, 15), 16)
        pts.append(interpolate(center, m, Q(1) - lam))
    return pts[:count]


# ---------------------------------------------------------------------------
# Flat-pair theorem (closed all-flat sets are convex; affine boundary, ...)
# ---------------------------------------------------------------------------

def check_flat_theorem(instance, probe_density=DEFAULT_PROBE_DENSITY, seed=0):
    """All boundary pairs flat => the set and its boundary are convex;
    with interior: unbounded, affine boundary, convex complement.

    The hypothesis is scanned on any region kind, but the conclusion is
    checked on polyhedra only: every planar kind has a non-flat probe pair
    (a ring's vertex and the midpoint of an edge not incident to it, any
    chord of a circle, the pointed box's diagonal). Any other all-flat kind
    is refused with TypeError.
    """
    probes = instance.boundary_probes(probe_density)
    pair = first_pair_outside(instance, probes, {PairClass.FLAT})
    if pair is not None:
        return _violated("thm-2", instance, pair_to_json(*pair))
    if not (hasattr(instance, "full_dimensional") and hasattr(instance, "halfspaces")):
        raise TypeError(
            "thm-2's conclusion reads the polyhedron facts `full_dimensional`"
            f" and `halfspaces`, which the {instance.kind!r} kind does not answer"
        )
    P = instance
    full_dim = P.full_dimensional
    rng = rng_from_seed(seed)
    facts = {"interior_nonempty": full_dim}
    failures = []
    members = _member_samples_polyhedron(P, rng, 12, probes)
    for a, b in itertools.combinations(members[:8], 2):
        mid = interpolate(a, b, Q(1, 2))
        if not P.contains(mid):
            failures.append({"set_convex": point_to_json(mid)})
    facts["set_convex_probed"] = not failures
    facts["boundary_convex_probed"] = True  # all probed pairs flat
    if full_dim:
        unbounded = not is_bounded(P)
        facts["unbounded"] = unbounded
        if not unbounded:
            failures.append({"unbounded": "recession cone is trivial"})
        ok, detail = _boundary_affine(P, probes)
        facts["boundary_affine"] = ok
        if not ok:
            failures.append({"boundary_affine": detail})
        ok, detail = _complement_convex_probed(P, probes, rng)
        facts["complement_convex_probed"] = ok
        if not ok:
            failures.append({"complement_convex": detail})
    return _satisfied("thm-2", P, failures, facts)


def _boundary_affine(P, probes):
    """Probes span an (n-1)-flat whose extensions stay on the boundary."""
    if len(probes) < 2:
        return False, "not enough boundary probes"
    base = probes[0]
    diffs = [p - base for p in probes[1:]]
    r = rank(Matrix(diffs))
    if r != P.dim - 1:
        return False, f"boundary probes span affine dimension {r}"
    for p in probes[1:4]:
        for k in (Q(2), Q(-1), Q(5)):
            x = interpolate(base, p, k)
            if locate_point(P, x) is not PointLocation.BOUNDARY:
                return False, f"flat extension leaves the boundary at {point_to_json(x)}"
    return True, None


def _complement_convex_probed(P, probes, rng):
    """Midpoints of sampled exterior pairs stay exterior."""
    exterior = []
    for h in remove_redundant(P).halfspaces:
        for pt in probes[:6]:
            shift = Q(1 + rng.randint(0, 3))
            cand = pt + shift * h.normal
            if locate_point(P, cand) is PointLocation.EXTERIOR:
                exterior.append(cand)
    for a, b in itertools.combinations(exterior[:10], 2):
        mid = interpolate(a, b, Q(1, 2))
        if locate_point(P, mid) is not PointLocation.EXTERIOR:
            return False, f"complement midpoint {point_to_json(mid)} re-enters"
    return True, None


# ---------------------------------------------------------------------------
# Hyperbolic-pair theorem (all-hyperbolic closed sets are strictly convex)
# ---------------------------------------------------------------------------

def check_hyperbolic_theorem(region, probe_density=DEFAULT_PROBE_DENSITY):
    """All boundary pairs hyperbolic => strictly convex."""
    probes = region.boundary_probes(probe_density)
    pair = first_pair_outside(region, probes, {PairClass.HYPERBOLIC})
    if pair is not None:
        return _violated("thm-4", region, pair_to_json(*pair))
    convex = _region_convex_probed(region, probes)
    failures = [] if convex else [{"convexity": "a member midpoint left the set"}]
    # Every probed pair is hyperbolic, so none is flat: strictness holds on
    # the probes.
    facts = {"convex_probed": convex, "no_flat_probe_pair": True}
    return _satisfied("thm-4", region, failures, facts)


def _region_convex_probed(region, boundary_pts):
    """Independent convexity probe: member-pair midpoints stay members."""
    members = [p for p in boundary_pts if locate_point2(region, p)[1]]
    for a, b in itertools.combinations(members[:12], 2):
        mid = interpolate(a, b, Q(1, 2))
        if not locate_point2(region, mid)[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Convexity corollary (convex <=> every boundary pair flat or hyperbolic)
# ---------------------------------------------------------------------------

def check_convexity_corollary(region, probe_density=DEFAULT_PROBE_DENSITY):
    """Biconditional of the pair criterion against the kind's ground truth,
    its `convexity_witness()` (None for a convex set).

    The corollary needs a closed set. A witness whose midpoint is a
    boundary point shows that the set is not closed (the pointed open box):
    when the probes pass there, the report is the expected counterexample
    of closedness with the classes of the probe pairs, rather than Fails.
    """
    by_pairs, pair = is_convex_by_pairs(region, probe_density)
    witness = region.convexity_witness()
    mid = (witness or {}).get("midpoint")
    if mid is not None and locate_point2(region, mid)[0] is PointLocation.BOUNDARY:
        if not by_pairs:
            return _satisfied("cor-5", region, [pair_to_json(*pair)], {})
        probes = region.boundary_probes(probe_density)
        classes = {
            f"{point_to_json(p)}-{point_to_json(q)}": classify_pair(region, p, q).value
            for p, q in itertools.combinations(probes, 2)
        }
        return _report(
            "cor-5",
            region,
            HypothesisStatus.SATISFIED,
            ConclusionStatus.EXPECTED_COUNTEREXAMPLE,
            facts={
                "pairs_all_flat_or_hyperbolic": True,
                "convex": False,
                "non_convexity_witness": point_to_json(mid),
                "corner_pair_classes": classes,
            },
        )
    convex = witness is None
    facts = {"convex_by_pairs": by_pairs, "convex_ground_truth": convex}
    if pair is not None:
        shown = [pair_to_json(*pair)]
    else:  # the pairs pass, so only a witness can disagree
        shown = [] if convex else [{k: point_to_json(v) for k, v in witness.items()}]
    return _satisfied("cor-5", region, shown if by_pairs != convex else [],
                      facts, shown)


# ---------------------------------------------------------------------------
# Kernel characterization (p sees the boundary <=> p in the kernel)
# ---------------------------------------------------------------------------

def check_kernel_characterization(polygon, samples=DEFAULT_SAMPLES, seed=0):
    """H-representation kernel membership must match the visibility oracle
    at 8 and at 32 boundary samples per edge.

    The oracle decides from the sight lines to the vertices alone, as x
    sees an edge once it sees both its ends (the Jordan curve theorem); it
    reads the sample count only to validate it. So it runs once per point,
    at 32, and its answer is compared with the halfplanes for both
    densities. A kernel vertex (`kernel_vertices`) joins the member
    samples.
    """
    rng = rng_from_seed(seed)
    ker = kernel(polygon)
    pts = sample_member_points(polygon, rng, samples)
    pts += kernel_vertices(polygon)[:1]
    kernel_empty = len(pts) == samples
    disagreements = []
    inside = 0
    for x in pts:
        hrep = ker.contains(x)
        if hrep:
            inside += 1
        vis = kernel_contains_by_visibility(polygon, x, 32)
        if vis != hrep:
            disagreements += (
                {
                    "point": point_to_json(x),
                    "halfplane_membership": hrep,
                    "visibility": vis,
                    "density": m,
                }
                for m in (8, 32)
            )
    facts = {
        "kernel_empty": kernel_empty,
        "samples": len(pts),
        "samples_in_kernel": inside,
    }
    return _satisfied("prop-8", polygon, disagreements, facts)


# ---------------------------------------------------------------------------
# Extreme-point existence (extreme point exists <=> no line)
# ---------------------------------------------------------------------------

def check_extreme_existence(P):
    """extreme_points(P) non-empty <=> lineality_dim(P) == 0, with verified
    witnesses on whichever side applies."""
    verts = extreme_points(P)
    ld = lineality_dim(P)
    agree = (len(verts) > 0) == (ld == 0)
    failures = []
    witnesses = []
    if verts:
        for v in verts:
            if not is_vertex(P, v):
                failures.append(
                    {"bad_vertex_witness": point_to_json(v)}
                )
        witnesses.append({"extreme_points": [point_to_json(v) for v in verts]})
    if ld > 0:
        d = lineality_direction(P)
        if d is None or any(h.normal.dot(d) != 0 for h in P.halfspaces):
            failures.append({"bad_line_witness": True})
        else:
            witnesses.append({"line_direction": point_to_json(d)})
    if not agree:
        failures.append(
            {"biconditional": {"extreme_count": len(verts), "lineality": ld}}
        )
    facts = {"extreme_count": len(verts), "lineality_dim": ld}
    return _satisfied("prop-11", P, failures, facts, witnesses + failures)


# ---------------------------------------------------------------------------
# Face lemma (extreme points of an exposed face are extreme in the set)
# ---------------------------------------------------------------------------

def check_face_lemma(P, w):
    """E(face) subset of E(P), listing both sets exactly."""
    face = face_in_direction(P, w)
    if face is None:
        raise UnboundedPolyhedronError(
            "the polyhedron is unbounded in the probe direction"
        )
    face_verts = set(extreme_points(face))
    set_verts = set(extreme_points(P))
    missing = sorted(
        (v for v in face_verts if v not in set_verts), key=lambda p: p.coords
    )
    facts = {
        "direction": point_to_json(w),
        "face_extremes": sorted(point_to_json(v) for v in face_verts),
        "set_extremes": sorted(point_to_json(v) for v in set_verts),
    }
    return _satisfied("lem-12", P, [point_to_json(v) for v in missing], facts)


# ---------------------------------------------------------------------------
# Boundary-hull reconstruction (no hyperplane => A = C(boundary))
# ---------------------------------------------------------------------------

def check_boundary_hull(instance, interior_samples=DEFAULT_SAMPLES, seed=0):
    """Every sampled member is a convex combination of boundary points.

    Hypothesis-violated polyhedra (halfspace, slab) record whether the
    boundary hull happens to equal the set anyway. An epigraph (a kind with
    `chord_value`) is covered by graph chords.
    """
    if hasattr(instance, "chord_value"):
        return _check_epigraph_chords("thm-10", instance, interior_samples, seed)
    P = instance
    rng = rng_from_seed(seed)
    if contains_hyperplane(P):
        facts = {"contains_hyperplane": True}
        facts["boundary_hull_equals_set"] = _boundary_hull_fact(P, rng, facts)
        return _violated("thm-10", P, facts=facts)
    probes = polyhedron_boundary_probes(P)
    if P.full_dimensional:
        center = interior_point(P)
        pts = _interior_samples_polyhedron(
            rng, interior_samples, probes, center
        )
    else:
        pts = _member_samples_polyhedron(P, rng, interior_samples, probes)
    inner = [x for x in pts if locate_point(P, x) is not PointLocation.BOUNDARY]
    missing = _chordless(P, inner)
    facts = {
        "samples": len(pts),
        "chords_found": len(inner) - len(missing),
        "boundary_samples": len(pts) - len(inner),
    }
    failures = [{"no_chord_through": point_to_json(x)} for x in missing]
    return _satisfied("thm-10", P, failures, facts)


def _chordless(P, pts):
    """The points of pts through which no boundary chord of P passes."""
    find_chord = boundary_chord_search(P)
    return [x for x in pts if find_chord(x) is None]


def _boundary_hull_fact(P, rng, facts):
    """Whether C(boundary) = set for a hypothesis-violated polyhedron."""
    if not P.halfspaces:
        facts["reason"] = "whole space: the boundary is empty"
        return False
    if not P.full_dimensional:
        facts["reason"] = "no interior: every member is a boundary point"
        return True
    if len(remove_redundant(P).halfspaces) == 1:
        facts["reason"] = (
            "halfspace: the boundary hull is the supporting hyperplane"
        )
        return False
    # Two or more facets: chords through sampled interior points witness
    # that the boundary hull fills the set.
    pts = _interior_samples_polyhedron(
        rng, 10, polyhedron_boundary_probes(P), interior_point(P))
    missing = _chordless(P, pts)
    if missing:
        facts["reason"] = f"no boundary chord through {point_to_json(missing[0])}"
        return False
    facts["reason"] = "chord-verified on interior samples"
    return True


def _check_epigraph_chords(theorem_id, epi, interior_samples, seed):
    rng = rng_from_seed(seed)
    facts = {
        "no_hyperplane": True,
        "boundary_ray_free": True,
        "tolerance": str(CHORD_TOLERANCE),
    }
    failures = []
    strict_pairs_ok = _epigraph_strictness_probes(epi, rng)
    if not strict_pairs_ok:
        failures.append({"strictness": "a graph chord midpoint touched the graph"})
    facts["graph_pairs_hyperbolic"] = strict_pairs_ok
    count = 0
    for _ in range(interior_samples):
        x = Q(rng.randint(-12, 12), 4)
        lift = Q(rng.randint(1, 40), 4)
        p = Point((x, epi.value(x) + lift))
        a, b = chord_find(epi, p)
        height = epi.chord_value(a, b, x)
        if not 0 <= height - p.coords[1] <= CHORD_TOLERANCE:
            failures.append(
                {
                    "sample": point_to_json(p),
                    "chord": [str(a), str(b)],
                    "height_excess": str(height - p.coords[1]),
                }
            )
        else:
            count += 1
    facts["chords_verified"] = count
    return _satisfied(theorem_id, epi, failures, facts)


def _epigraph_strictness_probes(epi, rng):
    """Whether every graph chord over 12 drawn abscissae passes strictly
    above the graph at its midpoint; f is read once per abscissa."""
    xs = sorted({Q(rng.randint(-16, 16), 4) for _ in range(12)})
    fs = [epi.value(x) for x in xs]
    for (a, fa), (b, fb) in itertools.combinations(zip(xs, fs), 2):
        if (fa + fb) / 2 <= epi.value((a + b) / 2):
            return False
    return True


# ---------------------------------------------------------------------------
# Krein-Milman reconstruction (no hyperplane, boundary ray-free => A = C(E(A)))
# ---------------------------------------------------------------------------

def check_krein_milman(instance, samples=25, seed=0):
    """Bounded polyhedra: exact hull equality with the extreme points.
    Epigraphs (kinds with `chord_value`): the graph is the profile and
    chords cover interior samples.
    Violated hypotheses record whether C(E(A)) = A anyway."""
    if hasattr(instance, "chord_value"):
        return _check_epigraph_chords("thm-13", instance, samples, seed)
    P = instance
    bounded = is_bounded(P)
    verts = extreme_points(P)
    facts = {"bounded": bounded, "contains_hyperplane": contains_hyperplane(P),
             "boundary_has_ray": boundary_has_ray(P), "extreme_count": len(verts)}
    if facts["contains_hyperplane"] or facts["boundary_has_ray"]:
        equal, outside = _hull_of_extremes_equals(P, verts, bounded)
        facts["hull_of_extremes_equals_set"] = equal
        witness = None if outside is None else {
            "member_outside_extreme_hull": point_to_json(outside)}
        return _violated("thm-13", P, witness, facts)
    # A satisfied hypothesis bounds P (`boundary_has_ray`; E^1 holds a
    # hyperplane), so P has vertices and `hull_equal` applies.
    V = VPolytope(verts, P.dim)
    equal = hull_equal(P, V)
    # `profile` tests each (sorted, distinct) vertex against all the others.
    minimal = profile(V) == verts
    facts["profile_minimal"] = minimal
    failures = []
    if not (equal and minimal):
        failures.append({"hull_equal": equal, "profile_minimal": minimal})
    return _satisfied("thm-13", P, failures, facts)


def _hull_of_extremes_equals(P, verts, bounded):
    """(equality verdict, witness member outside the hull or None), no LP.
    With no vertex any member is a witness; a bounded P goes to `hull_equal`.
    An unbounded P holds the ray base + k d (base = `feasible_point(P)`,
    d = `recession_direction(P)`; Rockafellar 1970, Thm 8.4), and the hull
    lies in d . y <= top = max over the vertices of d . v: the witness is
    base + k d for the least power of two k >= 1 with d . x > top, re-checked.
    """
    if not verts:
        return False, feasible_point(P)
    if bounded:
        return hull_equal(P, VPolytope(verts, P.dim)), None
    base = feasible_point(P)
    d = recession_direction(P)
    top = max(d.dot(v) for v in verts)
    # k > (top - d . base) / d . d, whose floor n gives k = 2^bitlen(n)
    n = (top - d.dot(base)) // d.dot(d)
    x = base + 2 ** max(n, 0).bit_length() * d
    if not (P.contains(x) and d.dot(x) > top):
        raise CertificateError(f"{x!r} is not a member outside the extreme hull")
    return False, x


# ---------------------------------------------------------------------------
# Fixtures and the suite runner
# ---------------------------------------------------------------------------

def cone_fixture():
    """{(x, y) : y >= |x|} - one extreme point, boundary rays."""
    return HPolyhedron(
        (
            Halfspace(Vector((Q(1), Q(-1))), ZERO),
            Halfspace(Vector((Q(-1), Q(-1))), ZERO),
        ),
        2,
    )


def halfspace_fixture():
    """{(x, y) : y >= 0} - the canonical all-flat boundary."""
    return HPolyhedron((Halfspace(Vector((ZERO, Q(-1))), ZERO),), 2)


def slab_fixture():
    """{(x, y) : 0 <= y <= 1} - contains a hyperplane, boundary hull = set."""
    return HPolyhedron(
        (
            Halfspace(Vector((ZERO, Q(-1))), ZERO),
            Halfspace(Vector((ZERO, Q(1))), Q(1)),
        ),
        2,
    )


def unit_square_fixture():
    """The closed unit square [0, 1]^2: the pointed open box's closure."""
    return PointedOpenBox.SQUARE


def segment_fixture():
    """The segment [(0,0), (1,0)] as a degenerate (empty-interior) set."""
    return HPolyhedron(
        (
            Halfspace(Vector((ZERO, Q(1))), ZERO),
            Halfspace(Vector((ZERO, Q(-1))), ZERO),
            Halfspace(Vector((Q(1), ZERO)), Q(1)),
            Halfspace(Vector((Q(-1), ZERO)), ZERO),
        ),
        2,
    )


def l_polygon_fixture():
    return SimplePolygon(
        [
            Point((0, 0)),
            Point((2, 0)),
            Point((2, 1)),
            Point((1, 1)),
            Point((1, 2)),
            Point((0, 2)),
        ]
    )


def z_polygon_fixture():
    return SimplePolygon(
        [
            Point((0, 0)),
            Point((3, 0)),
            Point((3, 1)),
            Point((2, 1)),
            Point((2, 2)),
            Point((3, 2)),
            Point((3, 3)),
            Point((0, 3)),
            Point((0, 2)),
            Point((1, 2)),
            Point((1, 1)),
            Point((0, 1)),
        ]
    )


def parabola_fixture():
    """The epigraph of x^2."""
    return Epigraph1D((ZERO, ZERO, Q(1)))


def _draw_dim(rng):
    return rng.choice((2, 2, 3))


# One suite per theorem: fixture reports, then one report per generated
# instance. Every instance is drawn before any is checked, in the order
# dim, instance, then its seed or direction; the checkers never touch rng.

def _thm2_suite(rng, instances, seed, samples, probe_density):
    sets = [halfspace_fixture(), slab_fixture(), segment_fixture(),
            unit_square_fixture()]
    sets += [random_hpolyhedron(rng) for _ in range(instances)]
    return [check_flat_theorem(P, seed=seed) for P in sets]


def _thm4_suite(rng, instances, seed, samples, probe_density):
    regions = [Disk(Point((0, 0)), Q(1)),
               Disk(Point((Q(1, 2), Q(-3, 4))), Q(5, 2)),
               PolygonRegion(l_polygon_fixture())]
    regions += [PolygonRegion(random_simple_polygon(rng))
                for _ in range(instances)]
    return [check_hyperbolic_theorem(r, probe_density) for r in regions]


def _cor5_suite(rng, instances, seed, samples, probe_density):
    regions = [PointedOpenBox(), Disk(Point((0, 0)), Q(2)),
               DiskComplement(Point((0, 0)), Q(2))]
    regions += [PolygonRegion(random_simple_polygon(rng))
                for _ in range(instances)]
    return [check_convexity_corollary(r, probe_density) for r in regions]


def _prop8_suite(rng, instances, seed, samples, probe_density):
    cases = [(l_polygon_fixture(), seed), (z_polygon_fixture(), seed)]
    cases += [(random_simple_polygon(rng), rng.randrange(2**32))
              for _ in range(instances)]
    return [check_kernel_characterization(poly, samples, s) for poly, s in cases]


def _prop11_suite(rng, instances, seed, samples, probe_density):
    sets = [cone_fixture(), slab_fixture(), unit_square_fixture()]
    sets += [random_hpolyhedron(rng, _draw_dim(rng)) for _ in range(instances)]
    return [check_extreme_existence(P) for P in sets]


def _lem12_suite(rng, instances, seed, samples, probe_density):
    cases = [(unit_square_fixture(), Vector((Q(1), ZERO))),
             (unit_square_fixture(), Vector((Q(1), Q(1))))]
    for _ in range(instances):
        dim = _draw_dim(rng)
        cases.append((random_bounded_polytope(rng, dim), random_direction(rng, dim)))
    return [check_face_lemma(P, w) for P, w in cases]


def _thm10_suite(rng, instances, seed, samples, probe_density):
    cases = [(cone_fixture(), samples, seed),
             (halfspace_fixture(), samples, seed),
             (slab_fixture(), samples, seed),
             (parabola_fixture(), min(samples, 25), seed)]
    cases += [(random_hpolyhedron(rng, _draw_dim(rng)), min(samples, 12),
               rng.randrange(2**32)) for _ in range(instances)]
    return [check_boundary_hull(*case) for case in cases]


def _thm13_suite(rng, instances, seed, samples, probe_density):
    cases = [(cone_fixture(), samples, seed),
             (parabola_fixture(), min(samples, 25), seed)]
    cases += [(random_bounded_polytope(rng, _draw_dim(rng)), min(samples, 12),
               rng.randrange(2**32)) for _ in range(instances)]
    return [check_krein_milman(*case) for case in cases]


_SUITES = {
    "thm-2": _thm2_suite,
    "thm-4": _thm4_suite,
    "cor-5": _cor5_suite,
    "prop-8": _prop8_suite,
    "prop-11": _prop11_suite,
    "lem-12": _lem12_suite,
    "thm-10": _thm10_suite,
    "thm-13": _thm13_suite,
}

THEOREM_IDS = tuple(_SUITES)


def run_suite(
    theorem_id,
    seed=DEFAULT_SEED,
    instances=DEFAULT_INSTANCES,
    samples=DEFAULT_SAMPLES,
    probe_density=DEFAULT_PROBE_DENSITY,
):
    """Fixture reports plus `instances` generated instances for one theorem."""
    suite = _SUITES.get(theorem_id)
    if suite is None:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}"
        )
    rng = rng_from_seed(f"{seed}:{theorem_id}")
    return suite(rng, instances, seed, samples, probe_density)
