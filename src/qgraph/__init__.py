"""Scattering transmission and quantum-walk statistics on metric graphs.

The package models cycles and series-composed cycles with flux-conserving
vertices, solves the directed-bond scattering problem for the global
two-port amplitudes, evaluates the matching closed-form rational amplitudes,
extracts quantum-walk step statistics (exit probability, conditional hitting
time) from the transmission generating function, and detects the narrow
full-transmission resonances that appear inside wide suppression bands of
composed graphs.
"""

from .analysis import (
    PeakReport,
    Sweep,
    check_reflection_symmetry,
    detect_peaks,
    detect_suppression_bands,
    sweep_transmission,
    write_peaks_json,
    write_sweep_csv,
)
from .closedforms import (
    RationalAmplitude,
    UnitCirclePoleError,
    cycle_nk_amplitude,
    eval_amplitude,
    flawed_reduced_amplitude,
    symmetric_c3_amplitude,
    symmetric_c4_amplitude,
)
from .compose import (
    CANONICAL_GLUE,
    GLUE_CONNECTING_EDGE,
    GLUE_VERTEX_MERGE,
    SeriesSpec,
    compose_series,
    parse_series_shorthand,
)
from .graphs import (
    NK,
    Edge,
    QuantumGraph,
    ValidationReport,
    attach_lead,
    dump_graph,
    graph_from_json,
    graph_to_json,
    integral_lengths,
    load_graph,
    make_cycle_graph,
    nk_vertex_matrix,
    scale_lengths,
    strip_leads,
    subdivide_integral,
    validate_graph,
)
from .solver import (
    BondSystem,
    ScatteringResult,
    ShellSingularityError,
    assemble_bond_system,
    extract_rational_amplitude,
    green_function_value,
    scattering_limit,
    scattering_matrix,
    scattering_or_limit,
    solve_many,
)
from .walks import (
    TruncationError,
    WalkSeries,
    WalkStats,
    coefficients_via_power_iteration,
    taylor_coefficients,
    walk_stats_by_quadrature,
    walk_stats_exact,
    walk_stats_to_tolerance,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_GLUE",
    "GLUE_CONNECTING_EDGE",
    "GLUE_VERTEX_MERGE",
    "NK",
    "BondSystem",
    "Edge",
    "PeakReport",
    "QuantumGraph",
    "RationalAmplitude",
    "ScatteringResult",
    "SeriesSpec",
    "ShellSingularityError",
    "Sweep",
    "TruncationError",
    "UnitCirclePoleError",
    "ValidationReport",
    "WalkSeries",
    "WalkStats",
    "assemble_bond_system",
    "attach_lead",
    "check_reflection_symmetry",
    "coefficients_via_power_iteration",
    "compose_series",
    "cycle_nk_amplitude",
    "detect_peaks",
    "detect_suppression_bands",
    "dump_graph",
    "eval_amplitude",
    "extract_rational_amplitude",
    "flawed_reduced_amplitude",
    "graph_from_json",
    "graph_to_json",
    "green_function_value",
    "integral_lengths",
    "load_graph",
    "make_cycle_graph",
    "nk_vertex_matrix",
    "parse_series_shorthand",
    "scale_lengths",
    "scattering_limit",
    "scattering_matrix",
    "scattering_or_limit",
    "solve_many",
    "strip_leads",
    "subdivide_integral",
    "sweep_transmission",
    "symmetric_c3_amplitude",
    "symmetric_c4_amplitude",
    "taylor_coefficients",
    "validate_graph",
    "walk_stats_by_quadrature",
    "walk_stats_exact",
    "walk_stats_to_tolerance",
    "write_peaks_json",
    "write_sweep_csv",
]
