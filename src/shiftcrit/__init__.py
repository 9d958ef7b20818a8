"""Shift graphs, their unique critical cores, and certified chromatic numbers.

The library builds the triangle-free shift graphs whose chromatic
number grows logarithmically, extracts the vertex-critical core that
sits inside them, and verifies both facts mechanically: colorings are
carried as good sequences of subsets, refutations come from exhaustive
search over good sequences, and an independent branch-and-bound
engine cross-checks every decision.

Importing the package loads none of its submodules.  Each public name
below is imported from its submodule on first access (PEP 562), so a
caller pays only for the modules it uses.  The package needs nothing
outside the standard library.
"""
import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    "constructions": (
        "construct_deleted_vertex_sequence",
        "descending_full_sequence",
        "is_saturated",
        "saturate",
        "saturation_trace",
    ),
    "diagram": ("DiagramSpec", "default_palette", "render_svg"),
    "errors": (
        "ConstructionError",
        "GoodnessError",
        "ImproperColoringError",
        "InvalidParameterError",
        "InvalidVertexError",
        "SequenceLengthError",
        "ShiftCritError",
    ),
    "export": (
        "core_json_chunks",
        "dimacs_chunks",
        "graph_json_chunks",
        "graph_to_json_dict",
        "to_dimacs",
    ),
    "graphs": (
        "CriticalCore",
        "InducedSubgraph",
        "Interval",
        "ShiftGraph",
        "Vertex",
        "adjacent",
        "as_vertex",
        "build_shift_graph",
        "critical_core",
        "induced_subgraph",
        "is_triangle_free",
        "neighbors",
    ),
    "sequences": (
        "SubsetSequence",
        "VertexColoring",
        "coloring_from_dict",
        "coloring_from_sequence",
        "coloring_to_dict",
        "goodness_violation",
        "is_good",
        "proper_coloring_violation",
        "sequence_from_coloring",
        "sequence_from_dict",
        "sequence_to_dict",
    ),
    "solvers": (
        "ChromaticResult",
        "ColorabilityResult",
        "SearchBudget",
        "chromatic_number",
        "greedy_coloring",
        "k_colorable_bb",
        "k_colorable_via_sequences",
    ),
    "verify": (
        "CheckRecord",
        "TheoremReport",
        "verify_chromatic_formula",
        "verify_core_chromatic",
        "verify_criticality",
        "verify_uniqueness",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":  # `import shiftcrit; shiftcrit.solvers`
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
