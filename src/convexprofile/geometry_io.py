"""Geometry JSON schema: load and dump every instance kind.

Rationals serialize as "p/q" strings ("p" when the denominator is 1) in
all file formats; plain JSON integers are accepted on input. Schema
violations raise SchemaError carrying the JSON path of the offending
field, never a bare crash.
"""

from __future__ import annotations

import hashlib
import json
import re

from .core import Point, Q, Vector, format_rational
from .epigraph import Epigraph1D
from .errors import (
    InvalidPolygonError,
    InvalidRegionError,
    SchemaError,
)
from .polyhedra import Halfspace, HPolyhedron, VPolytope
from .regions2d import (
    Disk,
    DiskComplement,
    PointedOpenBox,
    PolygonRegion,
    SimplePolygon,
)

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_rational(value, path):
    """A JSON integer or "p/q" string as a rational; `int` reads the digits."""
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if match:
            try:
                return Q(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):  # digit limit, q = 0
                pass
        raise SchemaError(f"not a rational: {value!r}", path)
    raise SchemaError(f"expected 'p/q' string or integer, got {value!r}", path)


def parse_coords(value, path, dim=None):
    """A non-empty JSON array of rationals; entry paths are built on error."""
    if not isinstance(value, list) or not value:
        raise SchemaError("expected a non-empty coordinate array", path)
    if dim is not None and len(value) != dim:
        raise SchemaError(f"expected {dim} coordinates, got {len(value)}", path)
    coords = []
    try:
        for v in value:
            coords.append(parse_rational(v, path))
    except SchemaError as exc:
        raise SchemaError(exc.message, f"{path}[{len(coords)}]") from None
    return coords


def _require(doc, field, path, typ=None):
    if field not in doc:
        raise SchemaError(f"missing field '{field}'", path)
    value = doc[field]
    if typ is not None and not isinstance(value, typ):
        raise SchemaError(
            f"field '{field}' has the wrong type", f"{path}.{field}"
        )
    return value


def _require_dim(doc, path):
    dim = _require(doc, "dim", path)
    # bool is an int subclass: `true` must not load as dimension 1.
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("'dim' must be a positive integer", f"{path}.dim")
    return dim


def load_geometry(doc, path="$"):
    """Build a geometry instance from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", path)
    kind = _require(doc, "kind", path, str)
    if kind not in KINDS:
        raise SchemaError(
            f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}",
            f"{path}.kind",
        )
    cls, load, _ = KINDS[kind]
    args, where = load(doc, path)
    try:
        return cls(*args)
    except InvalidRegionError as exc:
        raise SchemaError(str(exc), where) from None


def _load_h_polyhedron(doc, path):
    dim = _require_dim(doc, path)
    raw = _require(doc, "halfspaces", path, list)
    halfspaces = []
    for i, h in enumerate(raw):
        hpath = f"{path}.halfspaces[{i}]"
        if not isinstance(h, dict):
            raise SchemaError("expected an object", hpath)
        normal = parse_coords(
            _require(h, "normal", hpath, list), f"{hpath}.normal", dim
        )
        offset = parse_rational(_require(h, "offset", hpath), f"{hpath}.offset")
        try:
            halfspaces.append(Halfspace(Vector(normal), offset))
        except ValueError as exc:
            raise SchemaError(str(exc), hpath) from None
    return (tuple(halfspaces), dim), path


def _dump_h_polyhedron(P):
    return {
        "dim": P.dim,
        "halfspaces": [
            {"normal": point_to_json(h.normal), "offset": format_rational(h.offset)}
            for h in P.halfspaces
        ],
    }


def _load_v_polytope(doc, path):
    dim = _require_dim(doc, path)
    raw = _require(doc, "points", path, list)
    if not raw:
        raise SchemaError("a v-polytope needs at least one point", f"{path}.points")
    pts = [
        Point(parse_coords(p, f"{path}.points[{i}]", dim))
        for i, p in enumerate(raw)
    ]
    return (tuple(pts), dim), path


def _dump_v_polytope(V):
    return {"dim": V.dim, "points": [point_to_json(g) for g in V.generators]}


def _load_polygon(doc, path):
    outer = _load_ring(_require(doc, "outer", path, list), f"{path}.outer")
    raw_holes = doc.get("holes", [])
    if not isinstance(raw_holes, list):
        raise SchemaError("'holes' must be a list of rings", f"{path}.holes")
    holes = []
    for i, ring in enumerate(raw_holes):
        holes.append(_load_ring(ring, f"{path}.holes[{i}]"))
    return (outer, tuple(holes)), path


def _load_ring(raw, path):
    if not isinstance(raw, list) or len(raw) < 3:
        raise SchemaError("a polygon ring needs at least 3 vertices", path)
    pts = [
        Point(parse_coords(p, f"{path}[{i}]", 2)) for i, p in enumerate(raw)
    ]
    try:
        return SimplePolygon(pts)
    except InvalidPolygonError as exc:
        raise SchemaError(str(exc), path) from None


def _dump_polygon(polygon):
    """A polygon region's rings; a bare SimplePolygon is its one ring."""
    outer, *holes = polygon.rings()
    return {
        "outer": [point_to_json(v) for v in outer.vertices],
        "holes": [[point_to_json(v) for v in h.vertices] for h in holes],
    }


def _load_circle(doc, path):
    center = Point(
        parse_coords(_require(doc, "center", path, list), f"{path}.center", 2)
    )
    radius = parse_rational(_require(doc, "radius", path), f"{path}.radius")
    return (center, radius), f"{path}.radius"


def _dump_circle(region):
    return {
        "center": point_to_json(region.center),
        "radius": format_rational(region.radius),
    }


def _load_fixed(doc, path):
    return (), path


def _dump_fixed(obj):
    return {}


def _load_epigraph(doc, path):
    raw = _require(doc, "coeffs", path, list)
    coeffs = [parse_rational(c, f"{path}.coeffs[{i}]") for i, c in enumerate(raw)]
    return (tuple(coeffs),), f"{path}.coeffs"


def _dump_epigraph(epi):
    return {"coeffs": [format_rational(c) for c in epi.poly_coeffs]}


# Each geometry kind -> (class, loader, dumper), in the order the unknown-kind
# error lists them. A loader(doc, path) returns the class's arguments and the
# path that an InvalidRegionError from the class is reported at. A dumper(obj)
# returns every field but "kind", which `dump_geometry` writes from obj.kind.
KINDS = {
    HPolyhedron.kind: (HPolyhedron, _load_h_polyhedron, _dump_h_polyhedron),
    VPolytope.kind: (VPolytope, _load_v_polytope, _dump_v_polytope),
    PolygonRegion.kind: (PolygonRegion, _load_polygon, _dump_polygon),
    Disk.kind: (Disk, _load_circle, _dump_circle),
    DiskComplement.kind: (DiskComplement, _load_circle, _dump_circle),
    PointedOpenBox.kind: (PointedOpenBox, _load_fixed, _dump_fixed),
    Epigraph1D.kind: (Epigraph1D, _load_epigraph, _dump_epigraph),
}


def point_to_json(p):
    """A point's or a vector's coordinates as rational strings."""
    return [format_rational(c) for c in p.coords]


def pair_to_json(p, q, cls):
    """A classified boundary pair (p, q, PairClass) as a JSON object."""
    return {"p": point_to_json(p), "q": point_to_json(q), "class": cls.value}


def dump_geometry(obj):
    """Canonical JSON document for a geometry instance."""
    kind = getattr(obj, "kind", None)
    if kind not in KINDS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"kind": kind, **KINDS[kind][2](obj)}


def instance_digest(obj):
    """Stable short digest of an instance's canonical JSON form."""
    doc = json.dumps(dump_geometry(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


def read_json_file(path):
    """The JSON document in the file at `path`. A missing file, bytes that
    are not UTF-8, malformed JSON, an integer past Python's digit limit or
    nesting past the recursion limit all raise SchemaError at `$`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}", "$") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too
        raise SchemaError(f"invalid JSON: {exc}", "$") from None


def load_geometry_file(path):
    return load_geometry(read_json_file(path))
