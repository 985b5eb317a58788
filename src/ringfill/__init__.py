"""Concentric annular triangulations of cycle graphs.

Builds triangulated disks filling the cycle graph C_n without shortening any
boundary distance, verifies that isometry exactly by breadth-first search,
audits the circular drift of every slanted edge in exact rational
arithmetic, and measures how the vertex count approaches its asymptotic
density bound.
"""
from .analysis import (
    ConstantsReport,
    CoreInequalityReport,
    ProfileIntegralCheck,
    SweepRow,
    check_core_inequality,
    constants_report,
    drift_integral,
    profile,
    profile_integral,
    run_sweep,
    stop_time,
    vertex_count_lower_bound,
)
from .annuli import LayerRecord, annulus_triangles, cone_triangles, layer_ledger, staircase_indices
from .builder import (
    BuildResult,
    Params,
    Schedule,
    ScheduleError,
    as_fraction,
    build_filling,
    ceil_sqrt,
    compute_schedule,
    predict_density,
)
from .oracle import (
    EnumerationBudget,
    OracleResult,
    enumerate_fillings,
    is_isometric_filling,
    min_isometric_vertices,
)
from .simplicial import (
    Triangulation,
    ValidationReport,
    canonical_triangle,
    cone_over_cycle,
    validate_disk,
)
from .verify import (
    DriftAudit,
    VerificationReport,
    boundary_distance_matrix,
    cycle_dist,
    drift_audit,
    separation_lower_bounds,
    step_profile_eps,
    verify_filling,
)

__version__ = "0.1.0"

__all__ = [
    "BuildResult",
    "ConstantsReport",
    "CoreInequalityReport",
    "DriftAudit",
    "EnumerationBudget",
    "LayerRecord",
    "OracleResult",
    "Params",
    "ProfileIntegralCheck",
    "Schedule",
    "ScheduleError",
    "SweepRow",
    "Triangulation",
    "ValidationReport",
    "VerificationReport",
    "annulus_triangles",
    "as_fraction",
    "boundary_distance_matrix",
    "build_filling",
    "canonical_triangle",
    "ceil_sqrt",
    "check_core_inequality",
    "compute_schedule",
    "cone_over_cycle",
    "cone_triangles",
    "constants_report",
    "cycle_dist",
    "drift_audit",
    "drift_integral",
    "enumerate_fillings",
    "is_isometric_filling",
    "layer_ledger",
    "min_isometric_vertices",
    "predict_density",
    "profile",
    "profile_integral",
    "run_sweep",
    "separation_lower_bounds",
    "staircase_indices",
    "step_profile_eps",
    "stop_time",
    "validate_disk",
    "verify_filling",
    "vertex_count_lower_bound",
]
