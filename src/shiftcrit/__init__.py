"""Shift graphs, their unique critical cores, and certified chromatic numbers.

The library builds the triangle-free shift graphs whose chromatic
number grows logarithmically, extracts the vertex-critical core that
sits inside them, and verifies both facts mechanically: colorings are
carried as good sequences of subsets, refutations come from exhaustive
search over good sequences, and an independent branch-and-bound
engine cross-checks every decision.
"""
from .diagram import DiagramSpec, default_palette, render_svg, write_svg
from .errors import (
    ConstructionError,
    GoodnessError,
    ImproperColoringError,
    InvalidParameterError,
    InvalidVertexError,
    SequenceLengthError,
    ShiftCritError,
)
from .graphs import (
    CriticalCore,
    InducedSubgraph,
    Interval,
    ShiftGraph,
    Vertex,
    adjacent,
    as_vertex,
    build_shift_graph,
    critical_core,
    graph_to_json_dict,
    induced_subgraph,
    is_triangle_free,
    neighbors,
    to_dimacs,
)
from .sequences import (
    SubsetSequence,
    VertexColoring,
    coloring_from_dict,
    coloring_from_sequence,
    coloring_to_dict,
    construct_deleted_vertex_sequence,
    descending_full_sequence,
    goodness_violation,
    is_good,
    is_saturated,
    proper_coloring_violation,
    saturate,
    saturation_trace,
    sequence_from_coloring,
    sequence_from_dict,
    sequence_to_dict,
)
from .solvers import (
    ChromaticResult,
    ColorabilityResult,
    SearchBudget,
    chromatic_number,
    greedy_coloring,
    k_colorable_bb,
    k_colorable_via_sequences,
)
from .verify import (
    CheckRecord,
    TheoremReport,
    verify_chromatic_formula,
    verify_core_chromatic,
    verify_criticality,
    verify_uniqueness,
)

__version__ = "0.1.0"

__all__ = [
    "ChromaticResult",
    "CheckRecord",
    "ColorabilityResult",
    "ConstructionError",
    "CriticalCore",
    "DiagramSpec",
    "GoodnessError",
    "ImproperColoringError",
    "InducedSubgraph",
    "Interval",
    "InvalidParameterError",
    "InvalidVertexError",
    "SearchBudget",
    "SequenceLengthError",
    "ShiftCritError",
    "ShiftGraph",
    "SubsetSequence",
    "TheoremReport",
    "Vertex",
    "VertexColoring",
    "adjacent",
    "as_vertex",
    "build_shift_graph",
    "chromatic_number",
    "coloring_from_dict",
    "coloring_from_sequence",
    "coloring_to_dict",
    "construct_deleted_vertex_sequence",
    "critical_core",
    "default_palette",
    "descending_full_sequence",
    "goodness_violation",
    "graph_to_json_dict",
    "greedy_coloring",
    "induced_subgraph",
    "is_good",
    "is_saturated",
    "is_triangle_free",
    "k_colorable_bb",
    "k_colorable_via_sequences",
    "neighbors",
    "proper_coloring_violation",
    "render_svg",
    "saturate",
    "saturation_trace",
    "sequence_from_coloring",
    "sequence_from_dict",
    "sequence_to_dict",
    "to_dimacs",
    "verify_chromatic_formula",
    "verify_core_chromatic",
    "verify_criticality",
    "verify_uniqueness",
    "write_svg",
]
