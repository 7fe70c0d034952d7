"""Exact rational convex geometry at desk scale.

Boundary-pair classification (flat / hyperbolic / elliptic / mixed),
convexity and starshapedness criteria, polygon kernels, and extreme-point
reconstruction for closed convex sets, with an exact rational LP core.
"""

from .core import (
    Matrix,
    Orientation,
    Point,
    Q,
    Segment,
    Vector,
    orientation,
    point,
    rank,
    rational,
    solve_linear,
    vector,
)
from .epigraph import Epigraph1D, chord_find
from .linprog import (
    Constraint,
    LinearProgram,
    LpOutcome,
    LpStatus,
    Relation,
    is_feasible,
    solve_lp,
)
from .polyhedra import (
    Halfspace,
    HPolyhedron,
    PointLocation,
    VPolytope,
    boundary_has_ray,
    contains_hyperplane,
    extreme_points,
    face_in_direction,
    hull_contains,
    hull_equal,
    lineality_dim,
    locate_point,
    profile,
)
from .regions2d import (
    Disk,
    DiskComplement,
    PairClass,
    PointedOpenBox,
    PolygonRegion,
    SegmentPartition,
    SegmentPiece,
    SimplePolygon,
    classify_pair,
    convexity_oracle,
    is_convex_by_pairs,
    is_starshaped,
    kernel,
    kernel_contains_by_visibility,
    kernel_vertices,
    locate_point2,
    partition_segment,
    sees,
)
from .theorems import (
    ConclusionStatus,
    HypothesisStatus,
    TheoremReport,
    check_boundary_hull,
    check_convexity_corollary,
    check_extreme_existence,
    check_face_lemma,
    check_flat_theorem,
    check_hyperbolic_theorem,
    check_kernel_characterization,
    check_krein_milman,
    run_suite,
)

__version__ = "0.1.0"
