"""Exception types shared across the library."""


class ConvexProfileError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ConvexProfileError):
    """Operands live in different ambient dimensions."""


class EmptyPolyhedronError(ConvexProfileError):
    """The polyhedron is empty; the operation requires a non-empty set."""


class UnboundedPolyhedronError(ConvexProfileError):
    """The polyhedron is unbounded where a bounded one is required."""


class NonFullDimensionalError(ConvexProfileError):
    """The polyhedron has empty interior where a full-dimensional one is required."""


class InvalidPolygonError(ConvexProfileError):
    """Vertex list does not describe a valid simple CCW polygon."""


class GeneratorExhaustedError(ConvexProfileError):
    """A seeded generator drew no valid instance within its attempt budget."""


class InvalidRegionError(ConvexProfileError):
    """Region constraints violated (hole placement, radius sign, ...)."""


class DegenerateSegmentError(ConvexProfileError):
    """Segment endpoints coincide where a non-degenerate segment is required."""


class NotOnBoundaryError(ConvexProfileError):
    """A pair endpoint is not a boundary point of the region."""


class NotAMemberError(ConvexProfileError):
    """A point is not a member of the set where membership is required."""


class BelowGraphError(ConvexProfileError):
    """Query point lies strictly below the graph of the epigraph function."""


class CertificateError(ConvexProfileError):
    """A computed certificate failed its exact re-check (an internal fault)."""


class SchemaError(ConvexProfileError):
    """A geometry JSON document violates the schema.

    Carries the JSON path of the offending field so batch callers can
    report exactly where the input is broken.
    """

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.message = message
        self.path = path

    def to_json_dict(self):
        return {"error": "schema", "path": self.path, "message": self.message}


class DisplayRangeError(ConvexProfileError):
    """A coordinate to draw lies past the range of display floats."""
