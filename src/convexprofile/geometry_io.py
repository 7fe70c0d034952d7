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

from .core import Point, Vector, format_rational, rational
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

KINDS = (
    "h-polyhedron",
    "v-polytope",
    "polygon",
    "disk",
    "disk-complement",
    "pointed-open-box",
    "epigraph1d",
)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value, path):
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return rational(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise SchemaError(f"not a rational: {value!r}", path)
        try:
            return rational(value)
        except (ValueError, ZeroDivisionError, TypeError):
            raise SchemaError(f"not a rational: {value!r}", path) from None
    raise SchemaError(f"expected 'p/q' string or integer, got {value!r}", path)


def _parse_coords(value, path, dim=None):
    if not isinstance(value, list) or not value:
        raise SchemaError("expected a non-empty coordinate array", path)
    if dim is not None and len(value) != dim:
        raise SchemaError(f"expected {dim} coordinates, got {len(value)}", path)
    return [parse_rational(v, f"{path}[{i}]") for i, v in enumerate(value)]


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
    if kind == "h-polyhedron":
        dim = _require_dim(doc, path)
        raw = _require(doc, "halfspaces", path, list)
        halfspaces = []
        for i, h in enumerate(raw):
            hpath = f"{path}.halfspaces[{i}]"
            if not isinstance(h, dict):
                raise SchemaError("expected an object", hpath)
            normal = _parse_coords(
                _require(h, "normal", hpath, list), f"{hpath}.normal", dim
            )
            offset = parse_rational(_require(h, "offset", hpath), f"{hpath}.offset")
            try:
                halfspaces.append(Halfspace(Vector(normal), offset))
            except ValueError as exc:
                raise SchemaError(str(exc), hpath) from None
        return HPolyhedron(tuple(halfspaces), dim)
    if kind == "v-polytope":
        dim = _require_dim(doc, path)
        raw = _require(doc, "points", path, list)
        if not raw:
            raise SchemaError("a v-polytope needs at least one point", f"{path}.points")
        pts = [
            Point(_parse_coords(p, f"{path}.points[{i}]", dim))
            for i, p in enumerate(raw)
        ]
        return VPolytope(tuple(pts), dim)
    if kind == "polygon":
        outer = _load_ring(_require(doc, "outer", path, list), f"{path}.outer")
        raw_holes = doc.get("holes", [])
        if not isinstance(raw_holes, list):
            raise SchemaError("'holes' must be a list of rings", f"{path}.holes")
        holes = []
        for i, ring in enumerate(raw_holes):
            holes.append(_load_ring(ring, f"{path}.holes[{i}]"))
        try:
            return PolygonRegion(outer, tuple(holes))
        except InvalidRegionError as exc:
            raise SchemaError(str(exc), path) from None
    if kind in ("disk", "disk-complement"):
        center = Point(
            _parse_coords(_require(doc, "center", path, list), f"{path}.center", 2)
        )
        radius = parse_rational(_require(doc, "radius", path), f"{path}.radius")
        cls = Disk if kind == "disk" else DiskComplement
        try:
            return cls(center, radius)
        except InvalidRegionError as exc:
            raise SchemaError(str(exc), f"{path}.radius") from None
    if kind == "pointed-open-box":
        return PointedOpenBox()
    if kind == "epigraph1d":
        raw = _require(doc, "coeffs", path, list)
        coeffs = [
            parse_rational(c, f"{path}.coeffs[{i}]") for i, c in enumerate(raw)
        ]
        try:
            return Epigraph1D(tuple(coeffs))
        except InvalidRegionError as exc:
            raise SchemaError(str(exc), f"{path}.coeffs") from None
    raise SchemaError(
        f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}",
        f"{path}.kind",
    )


def _load_ring(raw, path):
    if not isinstance(raw, list) or len(raw) < 3:
        raise SchemaError("a polygon ring needs at least 3 vertices", path)
    pts = [
        Point(_parse_coords(p, f"{path}[{i}]", 2)) for i, p in enumerate(raw)
    ]
    try:
        return SimplePolygon(pts)
    except InvalidPolygonError as exc:
        raise SchemaError(str(exc), path) from None


def point_to_json(p):
    return [format_rational(c) for c in p.coords]


def vector_to_json(v):
    return [format_rational(c) for c in v.coords]


def pair_to_json(p, q, cls):
    """A classified boundary pair (p, q, PairClass) as a JSON object."""
    return {"p": point_to_json(p), "q": point_to_json(q), "class": cls.value}


def dump_geometry(obj):
    """Canonical JSON document for a geometry instance."""
    if isinstance(obj, HPolyhedron):
        return {
            "kind": "h-polyhedron",
            "dim": obj.dim,
            "halfspaces": [
                {
                    "normal": vector_to_json(h.normal),
                    "offset": format_rational(h.offset),
                }
                for h in obj.halfspaces
            ],
        }
    if isinstance(obj, VPolytope):
        return {
            "kind": "v-polytope",
            "dim": obj.dim,
            "points": [point_to_json(g) for g in obj.generators],
        }
    if isinstance(obj, PolygonRegion):
        return {
            "kind": "polygon",
            "outer": [point_to_json(v) for v in obj.outer.vertices],
            "holes": [
                [point_to_json(v) for v in h.vertices] for h in obj.holes
            ],
        }
    if isinstance(obj, SimplePolygon):
        return dump_geometry(PolygonRegion(obj))
    if isinstance(obj, Disk):
        return {
            "kind": "disk",
            "center": point_to_json(obj.center),
            "radius": format_rational(obj.radius),
        }
    if isinstance(obj, DiskComplement):
        return {
            "kind": "disk-complement",
            "center": point_to_json(obj.center),
            "radius": format_rational(obj.radius),
        }
    if isinstance(obj, PointedOpenBox):
        return {"kind": "pointed-open-box"}
    if isinstance(obj, Epigraph1D):
        return {
            "kind": "epigraph1d",
            "coeffs": [format_rational(c) for c in obj.poly_coeffs],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_digest(obj):
    """Stable short digest of an instance's canonical JSON form."""
    doc = json.dumps(dump_geometry(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


def load_geometry_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}", "$") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from None
    return load_geometry(doc)
