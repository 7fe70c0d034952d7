"""Executable checkers for the structural results, one per theorem.

Each checker evaluates the hypothesis and the conclusion of one result on
a concrete instance and emits a structured TheoremReport. The epistemic
contract is property-testing: hypotheses quantifying over infinite sets
(all boundary pairs, all members) are probed at configurable density, and
a report of (hypothesis satisfied, conclusion fails) is a counterexample
flag that fails the whole run.
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
from .errors import EmptyPolyhedronError, UnboundedPolyhedronError
from .generators import (
    random_bounded_polytope,
    random_direction,
    random_hpolyhedron,
    random_simple_polygon,
    rng_from_seed,
    sample_member_points,
)
from .geometry_io import (
    dump_geometry,
    instance_digest,
    pair_to_json,
    point_to_json,
    vector_to_json,
)
from .linprog import Constraint, Relation, is_feasible
from .polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    VPolytope,
    boundary_has_ray,
    clip_line,
    contains_hyperplane,
    extreme_points,
    face_in_direction,
    feasible_point,
    hull_contains,
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
    boundary_probe_points,
    classify_pair,
    convexity_oracle,
    first_pair_outside,
    is_convex_by_pairs,
    kernel,
    kernel_contains_by_visibility,
    locate_point2,
)

THEOREM_IDS = (
    "thm-2",
    "thm-4",
    "cor-5",
    "prop-8",
    "prop-11",
    "lem-12",
    "thm-10",
    "thm-13",
)

DEFAULT_SAMPLES = 50
DEFAULT_PROBE_DENSITY = 32


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
        instance_kind=dump_geometry(instance)["kind"],
        **kw,
    )


def _pair_hypothesis_violated(theorem_id, instance, pair):
    """The report of a probe pair whose class the hypothesis excludes."""
    return _report(
        theorem_id,
        instance,
        HypothesisStatus.VIOLATED,
        ConclusionStatus.NOT_APPLICABLE,
        hypothesis_witness=pair_to_json(*pair),
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


def _interior_samples_polyhedron(P, rng, count, probes, center):
    """Strictly interior points: slide members toward an interior center."""
    pool = [center] + list(probes)
    pts = [center]
    while len(pts) < count:
        m = pool[rng.randrange(len(pool))]
        lam = Q(rng.randint(1, 15), 16)
        pts.append(interpolate(center, m, Q(1) - lam))
    return pts[:count]


def _two_sided_directions(P):
    """Directions whose line through any interior point is clipped both ways.

    Cheap coordinate directions first; then the exact construction: a
    direction with a_i . d >= 1 and a_j . d <= -1 is bounded above by
    constraint i and below by constraint j. Whenever the set contains no
    hyperplane at least one constraint pair admits such a direction.
    """
    dim = P.dim
    for j in range(dim):
        e = [ZERO] * dim
        e[j] = Q(1)
        yield Vector(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            for s in (1, -1):
                e = [ZERO] * dim
                e[i] = Q(1)
                e[j] = Q(s)
                yield Vector(e)
    hs = P.halfspaces
    for i in range(len(hs)):
        for j in range(len(hs)):
            if i == j:
                continue
            ok, d = is_feasible(
                (
                    Constraint(hs[i].normal, Relation.GE, Q(1)),
                    Constraint(hs[j].normal, Relation.LE, Q(-1)),
                ),
                dim=dim,
            )
            if ok:
                yield Vector(d.coords)


def _find_boundary_chord(P, x):
    """A chord through x with both endpoints on the boundary, or None."""
    for d in _two_sided_directions(P):
        clipped = clip_line(P, x, d)
        if clipped is None:
            continue
        lo, hi = clipped
        if lo is None or hi is None:
            continue
        if not (lo < 0 < hi):
            continue
        a = x + lo * d
        b = x + hi * d
        if (
            locate_point(P, a) is PointLocation.BOUNDARY
            and locate_point(P, b) is PointLocation.BOUNDARY
        ):
            return a, b
    return None


# ---------------------------------------------------------------------------
# Flat-pair theorem (closed all-flat sets are convex; affine boundary, ...)
# ---------------------------------------------------------------------------

def check_flat_theorem(instance, probe_density=DEFAULT_PROBE_DENSITY, seed=0):
    """All boundary pairs flat => the set and its boundary are convex;
    with interior: unbounded, affine boundary, convex complement."""
    probes = boundary_probe_points(instance, probe_density)
    pair = first_pair_outside(instance, probes, {PairClass.FLAT})
    if pair is not None:
        return _pair_hypothesis_violated("thm-2", instance, pair)
    if isinstance(instance, HPolyhedron):
        return _flat_conclusion_polyhedron(instance, probes, seed)
    return _flat_conclusion_region(instance, probe_density)


def _flat_conclusion_polyhedron(P, probes, seed):
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
        ray = recession_direction(P)
        facts["unbounded"] = ray is not None
        if ray is None:
            failures.append({"unbounded": "recession cone is trivial"})
        ok, detail = _boundary_affine(P, probes)
        facts["boundary_affine"] = ok
        if not ok:
            failures.append({"boundary_affine": detail})
        ok, detail = _complement_convex_probed(P, probes, rng)
        facts["complement_convex_probed"] = ok
        if not ok:
            failures.append({"complement_convex": detail})
    conclusion = ConclusionStatus.HOLDS if not failures else ConclusionStatus.FAILS
    return _report(
        "thm-2",
        P,
        HypothesisStatus.SATISFIED,
        conclusion,
        witnesses=tuple(failures),
        facts=facts,
    )


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
    reduced = remove_redundant(P)
    for h in reduced.halfspaces:
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


def _flat_conclusion_region(region, probe_density):
    facts = {"interior_nonempty": True, "boundary_convex_probed": True}
    convex, cw = is_convex_by_pairs(region, probe_density)
    facts["set_convex_probed"] = convex
    conclusion = ConclusionStatus.HOLDS if convex else ConclusionStatus.FAILS
    return _report(
        "thm-2",
        region,
        HypothesisStatus.SATISFIED,
        conclusion,
        witnesses=() if convex else (pair_to_json(*cw),),
        facts=facts,
    )


# ---------------------------------------------------------------------------
# Hyperbolic-pair theorem (all-hyperbolic closed sets are strictly convex)
# ---------------------------------------------------------------------------

def check_hyperbolic_theorem(region, probe_density=DEFAULT_PROBE_DENSITY):
    """All boundary pairs hyperbolic => strictly convex."""
    probes = boundary_probe_points(region, probe_density)
    pair = first_pair_outside(region, probes, {PairClass.HYPERBOLIC})
    if pair is not None:
        return _pair_hypothesis_violated("thm-4", region, pair)
    convex = _region_convex_probed(region, probes)
    failures = [] if convex else [{"convexity": "a member midpoint left the set"}]
    # Every probed pair is hyperbolic, so none is flat: strictness holds on
    # the probes.
    facts = {"convex_probed": convex, "no_flat_probe_pair": True}
    return _report(
        "thm-4",
        region,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if not failures else ConclusionStatus.FAILS,
        witnesses=tuple(failures),
        facts=facts,
    )


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
    """Biconditional of the pair criterion against ground-truth convexity.

    The pointed open box is the designated closedness counterexample: the
    probes pass while the set is non-convex, reported with its own status
    rather than Fails.
    """
    by_pairs, witness = is_convex_by_pairs(region, probe_density)
    if isinstance(region, PointedOpenBox):
        if by_pairs:
            classes = {}
            corners = PointedOpenBox.CORNERS
            for p, q in itertools.combinations(corners, 2):
                cls = classify_pair(region, p, q)
                key = f"{point_to_json(p)}-{point_to_json(q)}"
                classes[key] = cls.value
            return _report(
                "cor-5",
                region,
                HypothesisStatus.SATISFIED,
                ConclusionStatus.EXPECTED_COUNTEREXAMPLE,
                facts={
                    "pairs_all_flat_or_hyperbolic": True,
                    "convex": False,
                    "non_convexity_witness": point_to_json(Point((Q(1, 2), ZERO))),
                    "corner_pair_classes": classes,
                },
            )
        return _report(
            "cor-5",
            region,
            HypothesisStatus.SATISFIED,
            ConclusionStatus.FAILS,
            witnesses=(pair_to_json(*witness),),
        )
    truth = _ground_truth_convex(region)
    agree = by_pairs == truth
    facts = {"convex_by_pairs": by_pairs, "convex_ground_truth": truth}
    witnesses = ()
    if witness is not None:
        witnesses = (pair_to_json(*witness),)
    return _report(
        "cor-5",
        region,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if agree else ConclusionStatus.FAILS,
        witnesses=witnesses,
        facts=facts,
    )


def _ground_truth_convex(region):
    if isinstance(region, PolygonRegion):
        return not region.holes and convexity_oracle(region.outer)
    if isinstance(region, Disk):
        return True
    if isinstance(region, DiskComplement):
        return False
    raise TypeError(f"no convexity ground truth for {region!r}")


# ---------------------------------------------------------------------------
# Kernel characterization (p sees the boundary <=> p in the kernel)
# ---------------------------------------------------------------------------

def check_kernel_characterization(
    polygon, samples=DEFAULT_SAMPLES, seed=0, densities=(8, 32)
):
    """H-representation kernel membership must match the visibility oracle."""
    rng = rng_from_seed(seed)
    ker = kernel(polygon)
    pts = sample_member_points(polygon, rng, samples)
    try:
        pts.append(feasible_point(ker))
    except EmptyPolyhedronError:
        pass
    kernel_empty = len(pts) == samples
    disagreements = []
    inside = 0
    for x in pts:
        hrep = all(h.contains(x) for h in ker.halfspaces)
        if hrep:
            inside += 1
        for m in densities:
            vis = kernel_contains_by_visibility(polygon, x, m)
            if vis != hrep:
                disagreements.append(
                    {
                        "point": point_to_json(x),
                        "halfplane_membership": hrep,
                        "visibility": vis,
                        "density": m,
                    }
                )
    facts = {
        "kernel_empty": kernel_empty,
        "samples": len(pts),
        "samples_in_kernel": inside,
    }
    return _report(
        "prop-8",
        polygon,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if not disagreements else ConclusionStatus.FAILS,
        witnesses=tuple(disagreements),
        facts=facts,
    )


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
            witnesses.append({"line_direction": vector_to_json(d)})
    if not agree:
        failures.append(
            {"biconditional": {"extreme_count": len(verts), "lineality": ld}}
        )
    facts = {"extreme_count": len(verts), "lineality_dim": ld}
    return _report(
        "prop-11",
        P,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if not failures else ConclusionStatus.FAILS,
        witnesses=tuple(witnesses) + tuple(failures),
        facts=facts,
    )


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
        "direction": vector_to_json(w),
        "face_extremes": sorted(point_to_json(v) for v in face_verts),
        "set_extremes": sorted(point_to_json(v) for v in set_verts),
    }
    return _report(
        "lem-12",
        P,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if not missing else ConclusionStatus.FAILS,
        witnesses=tuple(point_to_json(v) for v in missing),
        facts=facts,
    )


# ---------------------------------------------------------------------------
# Boundary-hull reconstruction (no hyperplane => A = C(boundary))
# ---------------------------------------------------------------------------

def check_boundary_hull(instance, interior_samples=DEFAULT_SAMPLES, seed=0):
    """Every sampled member is a convex combination of boundary points.

    Hypothesis-violated polyhedra (halfspace, slab) record whether the
    boundary hull happens to equal the set anyway.
    """
    if isinstance(instance, Epigraph1D):
        return _check_epigraph_chords("thm-10", instance, interior_samples, seed)
    P = instance
    rng = rng_from_seed(seed)
    hyp = not contains_hyperplane(P)
    if not hyp:
        facts = {"contains_hyperplane": True}
        facts["boundary_hull_equals_set"] = _boundary_hull_fact(P, rng, facts)
        return _report(
            "thm-10",
            P,
            HypothesisStatus.VIOLATED,
            ConclusionStatus.NOT_APPLICABLE,
            facts=facts,
        )
    probes = polyhedron_boundary_probes(P)
    if P.full_dimensional:
        center = interior_point(P)
        pts = _interior_samples_polyhedron(
            P, rng, interior_samples, probes, center
        )
    else:
        pts = _member_samples_polyhedron(P, rng, interior_samples, probes)
    failures = []
    chords = 0
    trivial = 0
    for x in pts:
        loc = locate_point(P, x)
        if loc is PointLocation.BOUNDARY:
            trivial += 1
            continue
        found = _find_boundary_chord(P, x)
        if found is None:
            failures.append({"no_chord_through": point_to_json(x)})
        else:
            chords += 1
    facts = {
        "samples": len(pts),
        "chords_found": chords,
        "boundary_samples": trivial,
    }
    return _report(
        "thm-10",
        P,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if not failures else ConclusionStatus.FAILS,
        witnesses=tuple(failures),
        facts=facts,
    )


def _boundary_hull_fact(P, rng, facts):
    """Whether C(boundary) = set for a hypothesis-violated polyhedron."""
    if not P.halfspaces:
        facts["reason"] = "whole space: the boundary is empty"
        return False
    if not P.full_dimensional:
        facts["reason"] = "no interior: every member is a boundary point"
        return True
    reduced = remove_redundant(P)
    if len(reduced.halfspaces) == 1:
        facts["reason"] = (
            "halfspace: the boundary hull is the supporting hyperplane"
        )
        return False
    # Two or more facets: chords through sampled interior points witness
    # that the boundary hull fills the set.
    center = interior_point(P)
    probes = polyhedron_boundary_probes(P)
    pts = _interior_samples_polyhedron(P, rng, 10, probes, center)
    for x in pts:
        if _find_boundary_chord(P, x) is None:
            facts["reason"] = f"no boundary chord through {point_to_json(x)}"
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
        ya, yb = epi.value(a), epi.value(b)
        on_graph = (
            epi.locate(Point((a, ya))) is PointLocation.BOUNDARY
            and epi.locate(Point((b, yb))) is PointLocation.BOUNDARY
        )
        if not on_graph or not (0 <= height - p.coords[1] <= CHORD_TOLERANCE):
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
    return _report(
        theorem_id,
        epi,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if not failures else ConclusionStatus.FAILS,
        witnesses=tuple(failures),
        facts=facts,
    )


def _epigraph_strictness_probes(epi, rng, count=12):
    xs = sorted({Q(rng.randint(-16, 16), 4) for _ in range(count)})
    for a, b in itertools.combinations(xs, 2):
        mid = (a + b) / 2
        chord_mid = (epi.value(a) + epi.value(b)) / 2
        if chord_mid <= epi.value(mid):
            return False
    return True


# ---------------------------------------------------------------------------
# Krein-Milman reconstruction (no hyperplane, boundary ray-free => A = C(E(A)))
# ---------------------------------------------------------------------------

def check_krein_milman(instance, samples=25, seed=0):
    """Bounded polyhedra: exact hull equality with the extreme points.
    Epigraphs: the graph is the profile and chords cover interior samples.
    Violated hypotheses record whether C(E(A)) = A anyway."""
    if isinstance(instance, Epigraph1D):
        return _check_epigraph_chords("thm-13", instance, samples, seed)
    P = instance
    rng = rng_from_seed(seed)
    bounded = is_bounded(P)
    no_hyperplane = not contains_hyperplane(P)
    facts = {"bounded": bounded, "contains_hyperplane": not no_hyperplane}
    if bounded:
        boundary_ray_free = True
    elif P.full_dimensional:
        boundary_ray_free = not boundary_has_ray(P)
    else:
        # Non-full-dimensional unbounded: the set is its own boundary and an
        # unbounded closed convex set contains a ray.
        boundary_ray_free = False
    facts["boundary_has_ray"] = not boundary_ray_free
    if not (no_hyperplane and boundary_ray_free):
        witness = None
        if P.dim <= 4:
            verts = extreme_points(P)
            equal, outside = _hull_of_extremes_equals(P, verts, bounded, rng)
            facts["hull_of_extremes_equals_set"] = equal
            facts["extreme_count"] = len(verts)
            if outside is not None:
                witness = {"member_outside_extreme_hull": point_to_json(outside)}
        return _report(
            "thm-13",
            P,
            HypothesisStatus.VIOLATED,
            ConclusionStatus.NOT_APPLICABLE,
            hypothesis_witness=witness,
            facts=facts,
        )
    verts = extreme_points(P)
    facts["extreme_count"] = len(verts)
    try:
        equal = hull_equal(P, VPolytope(verts, P.dim)) if verts else False
    except UnboundedPolyhedronError:
        equal = False
    minimal = True
    prof = profile(VPolytope(verts, P.dim)) if verts else ()
    for v in prof:
        rest = tuple(u for u in prof if u != v)
        if rest and hull_contains(VPolytope(rest, P.dim), v):
            minimal = False
            break
    facts["profile_minimal"] = minimal
    ok = equal and minimal
    return _report(
        "thm-13",
        P,
        HypothesisStatus.SATISFIED,
        ConclusionStatus.HOLDS if ok else ConclusionStatus.FAILS,
        witnesses=() if ok else ({"hull_equal": equal, "profile_minimal": minimal},),
        facts=facts,
    )


def _hull_of_extremes_equals(P, verts, bounded, rng):
    """(equality verdict, witness member outside the hull or None)."""
    if not verts:
        return False, feasible_point(P)
    V = VPolytope(verts, P.dim)
    if bounded:
        return hull_equal(P, V), None
    base = feasible_point(P)
    d = recession_direction(P)
    if d is None:  # pragma: no cover - unbounded implies a direction
        return False, None
    k = Q(1)
    for _ in range(64):
        cand = base + k * d
        if not hull_contains(V, cand):
            return False, cand
        k *= 2
    return False, None


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
    return HPolyhedron(
        (
            Halfspace(Vector((Q(-1), ZERO)), ZERO),
            Halfspace(Vector((Q(1), ZERO)), Q(1)),
            Halfspace(Vector((ZERO, Q(-1))), ZERO),
            Halfspace(Vector((ZERO, Q(1))), Q(1)),
        ),
        2,
    )


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


def run_suite(
    theorem_id,
    seed=0xC0FFEE,
    instances=25,
    samples=DEFAULT_SAMPLES,
    probe_density=DEFAULT_PROBE_DENSITY,
):
    """Fixture reports plus `instances` generated instances for one theorem."""
    rng = rng_from_seed(f"{seed}:{theorem_id}")
    reports = []
    if theorem_id == "thm-2":
        reports.append(check_flat_theorem(halfspace_fixture(), seed=seed))
        reports.append(check_flat_theorem(slab_fixture(), seed=seed))
        reports.append(check_flat_theorem(segment_fixture(), seed=seed))
        reports.append(check_flat_theorem(unit_square_fixture(), seed=seed))
        for _ in range(instances):
            P = random_hpolyhedron(rng, dim=2)
            reports.append(check_flat_theorem(P, seed=seed))
    elif theorem_id == "thm-4":
        reports.append(
            check_hyperbolic_theorem(Disk(Point((0, 0)), Q(1)), probe_density)
        )
        reports.append(
            check_hyperbolic_theorem(
                Disk(Point((Q(1, 2), Q(-3, 4))), Q(5, 2)), probe_density
            )
        )
        reports.append(
            check_hyperbolic_theorem(
                PolygonRegion(l_polygon_fixture()), probe_density
            )
        )
        for _ in range(instances):
            poly = random_simple_polygon(rng)
            reports.append(
                check_hyperbolic_theorem(PolygonRegion(poly), probe_density)
            )
    elif theorem_id == "cor-5":
        reports.append(check_convexity_corollary(PointedOpenBox(), probe_density))
        reports.append(
            check_convexity_corollary(Disk(Point((0, 0)), Q(2)), probe_density)
        )
        reports.append(
            check_convexity_corollary(
                DiskComplement(Point((0, 0)), Q(2)), probe_density
            )
        )
        for _ in range(instances):
            poly = random_simple_polygon(rng)
            reports.append(
                check_convexity_corollary(PolygonRegion(poly), probe_density)
            )
    elif theorem_id == "prop-8":
        reports.append(
            check_kernel_characterization(l_polygon_fixture(), samples, seed)
        )
        reports.append(
            check_kernel_characterization(z_polygon_fixture(), samples, seed)
        )
        for _ in range(instances):
            poly = random_simple_polygon(rng)
            reports.append(
                check_kernel_characterization(
                    poly, samples, rng.randrange(2**32)
                )
            )
    elif theorem_id == "prop-11":
        reports.append(check_extreme_existence(cone_fixture()))
        reports.append(check_extreme_existence(slab_fixture()))
        reports.append(check_extreme_existence(unit_square_fixture()))
        for _ in range(instances):
            dim = rng.choice((2, 2, 3))
            reports.append(check_extreme_existence(random_hpolyhedron(rng, dim)))
    elif theorem_id == "lem-12":
        reports.append(
            check_face_lemma(unit_square_fixture(), Vector((Q(1), ZERO)))
        )
        reports.append(
            check_face_lemma(unit_square_fixture(), Vector((Q(1), Q(1))))
        )
        for _ in range(instances):
            dim = rng.choice((2, 2, 3))
            P = random_bounded_polytope(rng, dim)
            reports.append(check_face_lemma(P, random_direction(rng, dim)))
    elif theorem_id == "thm-10":
        reports.append(check_boundary_hull(cone_fixture(), samples, seed))
        reports.append(check_boundary_hull(halfspace_fixture(), samples, seed))
        reports.append(check_boundary_hull(slab_fixture(), samples, seed))
        reports.append(check_boundary_hull(parabola_fixture(), min(samples, 25), seed))
        for _ in range(instances):
            dim = rng.choice((2, 2, 3))
            P = random_hpolyhedron(rng, dim)
            reports.append(
                check_boundary_hull(P, min(samples, 12), rng.randrange(2**32))
            )
    elif theorem_id == "thm-13":
        reports.append(check_krein_milman(cone_fixture(), samples, seed))
        reports.append(check_krein_milman(parabola_fixture(), min(samples, 25), seed))
        for _ in range(instances):
            dim = rng.choice((2, 2, 3))
            P = random_bounded_polytope(rng, dim)
            reports.append(
                check_krein_milman(P, min(samples, 12), rng.randrange(2**32))
            )
    else:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}"
        )
    return reports
