"""Batch front door: load geometry, classify, check, render.

Every subcommand emits one JSON report (stdout or --out) with the same
shape: {"command", "inputs", "config", "results"}. Exit codes: 0 all
good, 1 a checker produced a (satisfied, fails) counterexample, 2 input
or schema error (structured JSON on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys

from .core import Point
from .errors import ConvexProfileError, SchemaError
from .geometry_io import (
    dump_geometry,
    instance_digest,
    load_geometry_file,
    pair_to_json,
    parse_coords,
    point_to_json,
    read_json_file,
)
from .polyhedra import (
    VPolytope,
    extreme_points,
    hull_equal,
    is_bounded,
    profile,
)
from .regions2d import (
    classify_pair,
    convexity_oracle,
    is_convex_by_pairs,
    kernel,
    kernel_vertices,
)
from .svg_render import render_svg
from .theorems import (
    DEFAULT_INSTANCES,
    DEFAULT_PROBE_DENSITY,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    THEOREM_IDS,
    check_boundary_hull,
    check_krein_milman,
    run_suite,
)

# The parser `run` builds on its first call and reuses; not built at import.
_parser = None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convexprofile",
        description="Exact convex-geometry classifiers and theorem checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", default=None, help="RNG seed (int, 0x.. ok)")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="interior/member samples per instance")
        p.add_argument("--probe-density", type=int,
                       default=DEFAULT_PROBE_DENSITY,
                       help="boundary probes per circle (disks, disk complements); "
                       "polygons, h-polyhedra and the box probe fixed points")
        p.add_argument("--out", default=None, help="write the report here")

    p = sub.add_parser("classify", help="classify boundary pairs")
    p.add_argument("file")
    p.add_argument(
        "--pairs",
        default="vertices",
        help="'vertices', 'all', or a path to a JSON pair list",
    )
    common(p)

    p = sub.add_parser("convexity", help="pairwise convexity test")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("kernel", help="kernel of a simple polygon")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("extremes", help="extreme points / profile")
    p.add_argument("file")
    common(p)

    p = sub.add_parser(
        "reconstruct", help="boundary-hull / extreme-hull reconstruction checks"
    )
    p.add_argument("file")
    common(p)

    p = sub.add_parser("check", help="run a theorem suite")
    p.add_argument("theorem", help="|".join(THEOREM_IDS) + "|all")
    p.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)
    common(p)

    p = sub.add_parser("render", help="render a 2D instance to SVG")
    p.add_argument("file")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.add_argument(
        "--overlays",
        default="",
        help="comma list from: pairs,kernel,extremes",
    )
    common(p)
    return parser


def _resolve_seed(args):
    raw = os.environ.get("CONVEX_PROFILE_SEED") or args.seed
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(str(raw), 0)
    except ValueError:
        raise SchemaError(f"not a valid seed: {raw!r}", "$.seed") from None


def _config_dict(args, seed):
    return {
        "seed": seed,
        "samples": args.samples,
        "probe_density": args.probe_density,
    }


def _check_settings(args):
    """Reject sample counts below 1 and an instance count below 0."""
    least_values = (("samples", 1), ("probe_density", 1), ("instances", 0))
    for name, least in least_values:
        value = getattr(args, name, least)  # only `check` has --instances
        if value < least:
            raise SchemaError(
                f"must be at least {least}, got {value}", f"$.{name}"
            )


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_pairs_file(path, dim):
    doc = read_json_file(path)
    if isinstance(doc, dict):
        doc = doc.get("pairs")
    if not isinstance(doc, list):
        raise SchemaError("expected a list of point pairs", "$.pairs")
    pairs = []
    for i, entry in enumerate(doc):
        path_i = f"$.pairs[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("each pair is [point, point]", path_i)
        pts = []
        for j, raw in enumerate(entry):
            if not isinstance(raw, list) or len(raw) != dim:
                raise SchemaError(f"points have {dim} coordinates", f"{path_i}[{j}]")
            pts.append(Point(parse_coords(raw, f"{path_i}[{j}]")))
        pairs.append((pts[0], pts[1]))
    return pairs


def _probe_points(instance, mode, density):
    """Boundary points to pair up: `all` probes, or the `vertices`.

    A polygon's vertices are its ring vertices; a polyhedron's are its
    extreme points, or its probes when it has fewer than two (a cone, a
    halfspace). A curved or fixed region's probes stand in for vertices.
    """
    if mode == "vertices":
        if hasattr(instance, "rings"):
            return [v for ring in instance.rings() for v in ring.vertices]
        if hasattr(instance, "halfspaces"):
            verts = extreme_points(instance)
            if len(verts) >= 2:
                return list(verts)
    return instance.boundary_probes(density)


def _gate(instance, protocols, message, path="$.kind"):
    """A schema error unless the instance has an attribute in `protocols`:
    `locate2` (a region), `chord_value` (an epigraph), `halfspaces` (an
    h-polyhedron), `generators` (a v-polytope) or `outer` (a polygon)."""
    if not any(hasattr(instance, name) for name in protocols):
        raise SchemaError(message, path)


def _simple_ring(instance, message):
    """The ring of a hole-free polygon; anything else is a schema error."""
    if not hasattr(instance, "outer") or instance.holes:
        raise SchemaError(message, "$.kind")
    return instance.outer


def _cmd_classify(args, seed):
    instance = load_geometry_file(args.file)
    _gate(instance, ("locate2",), "classify needs a region or an h-polyhedron")
    if args.pairs in ("vertices", "all"):
        points = _probe_points(instance, args.pairs, args.probe_density)
        pairs = itertools.combinations(points, 2)
    else:
        pairs = _load_pairs_file(args.pairs, instance.dim)
    return [
        pair_to_json(p, q, classify_pair(instance, p, q)) for p, q in pairs
    ], 0


def _cmd_convexity(args, seed):
    instance = load_geometry_file(args.file)
    if hasattr(instance, "halfspaces"):
        return [
            {
                "convex": True,
                "note": "halfspace intersections are convex by construction",
            }
        ], 0
    _gate(instance, ("locate2",), "convexity needs a planar region")
    verdict, witness = is_convex_by_pairs(instance, args.probe_density)
    result = {"convex_by_pairs": verdict}
    if witness is not None:
        result["witness"] = pair_to_json(*witness)
    if hasattr(instance, "outer"):
        result["vertex_turn_oracle"] = (
            not instance.holes and convexity_oracle(instance.outer)
        )
    return [result], 0


def _cmd_kernel(args, seed):
    ring = _simple_ring(
        load_geometry_file(args.file), "kernel is defined for simple polygons"
    )
    verts = kernel_vertices(ring)
    empty = not verts
    result = {
        "kernel": dump_geometry(kernel(ring)),
        "empty": empty,
        # A polygon is starshaped iff its kernel is non-empty.
        "starshaped": not empty,
    }
    if not empty:
        result["kernel_vertices"] = [
            point_to_json(v) for v in sorted(verts, key=lambda p: p.coords)
        ]
    return [result], 0


def _cmd_extremes(args, seed):
    instance = load_geometry_file(args.file)
    message = "extremes needs an h-polyhedron or a v-polytope"
    _gate(instance, ("halfspaces", "generators"), message)
    if hasattr(instance, "generators"):
        kept = profile(instance)
        return [
            {
                "profile": [point_to_json(p) for p in kept],
                "generators": len(instance.generators),
            }
        ], 0
    verts = extreme_points(instance)
    bounded = is_bounded(instance)
    reconstructs = False
    if bounded and verts:
        reconstructs = hull_equal(
            instance, VPolytope(tuple(verts), instance.dim)
        )
    return [
        {
            "extreme_points": [point_to_json(v) for v in verts],
            "bounded": bounded,
            "reconstructs": reconstructs,
        }
    ], 0


def _cmd_reconstruct(args, seed):
    instance = load_geometry_file(args.file)
    message = "reconstruct needs an h-polyhedron or an epigraph"
    _gate(instance, ("halfspaces", "chord_value"), message)
    checks = (check_boundary_hull, check_krein_milman)
    if hasattr(instance, "halfspaces") and is_bounded(instance):
        checks = (check_krein_milman,)
    reports = [check(instance, args.samples, seed) for check in checks]
    exit_code = 1 if any(r.is_counterexample() for r in reports) else 0
    return [r.to_json_dict() for r in reports], exit_code


def _cmd_check(args, seed):
    ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    for tid in ids:
        if tid not in THEOREM_IDS:
            raise SchemaError(
                f"unknown theorem {tid!r}; expected {'|'.join(THEOREM_IDS)}|all",
                "$.theorem",
            )
    results = []
    exit_code = 0
    for tid in ids:
        reports = run_suite(
            tid,
            seed=seed,
            instances=args.instances,
            samples=args.samples,
            probe_density=args.probe_density,
        )
        for r in reports:
            results.append(r.to_json_dict())
            if r.is_counterexample():
                exit_code = 1
    return results, exit_code


def _cmd_render(args, seed):
    instance = load_geometry_file(args.file)
    message = "render supports regions, polyhedra, epigraphs"
    _gate(instance, ("locate2", "chord_value"), message)
    wanted = {w for w in args.overlays.split(",") if w}
    unknown = wanted - {"pairs", "kernel", "extremes"}
    if unknown:
        raise SchemaError(
            f"unknown overlays: {sorted(unknown)}", "$.overlays"
        )
    pair_overlays = []
    kernel_region = ()
    extreme_overlay = []
    if "pairs" in wanted:
        message = "pair overlays need a region or an h-polyhedron"
        _gate(instance, ("locate2",), message, "$.overlays")
        points = _probe_points(instance, "vertices", min(args.probe_density, 8))
        pair_overlays = [
            (p, q, classify_pair(instance, p, q))
            for p, q in itertools.combinations(points[:8], 2)
        ]
    if "kernel" in wanted:
        kernel_region = kernel_vertices(
            _simple_ring(instance, "kernel overlay needs a simple polygon")
        )
    if "extremes" in wanted:
        if hasattr(instance, "halfspaces"):
            extreme_overlay = list(extreme_points(instance))
        elif hasattr(instance, "outer"):
            extreme_overlay = list(
                profile(VPolytope(tuple(instance.outer.vertices), 2))
            )
    doc = render_svg(
        instance,
        pair_overlays=pair_overlays,
        kernel_region=kernel_region,
        extreme_overlay=extreme_overlay,
    )
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return [
        {
            "svg": args.svg,
            "bytes": len(doc.encode("utf-8")),
            "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
            "instance": instance_digest(instance),
        }
    ], 0


# Subcommand name -> handler(args, seed) -> (results, exit code).
_COMMANDS = {
    "classify": _cmd_classify,
    "convexity": _cmd_convexity,
    "kernel": _cmd_kernel,
    "extremes": _cmd_extremes,
    "reconstruct": _cmd_reconstruct,
    "check": _cmd_check,
    "render": _cmd_render,
}


def run(argv):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        seed = _resolve_seed(args)
        _check_settings(args)
        results, code = _COMMANDS[args.command](args, seed)
        inputs = [args.file] if hasattr(args, "file") else []
        config = _config_dict(args, seed)
        if args.command == "check":
            config["instances"] = args.instances
            config["theorem"] = args.theorem
        report = {
            "command": args.command,
            "inputs": inputs,
            "config": config,
            "results": results,
        }
        _emit(report, args)
    except SchemaError as exc:
        sys.stderr.write(json.dumps(exc.to_json_dict(), sort_keys=True) + "\n")
        return 2
    except (ConvexProfileError, OSError) as exc:
        # OSError: an input, --out or --svg file could not be opened.
        err = {
            "error": type(exc).__name__,
            "message": str(exc),
        }
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
