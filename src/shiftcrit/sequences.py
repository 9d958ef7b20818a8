"""Subset-sequence calculus: colorings of shift graphs as set sequences.

A proper coloring of pairs (i, j) with colors from [1, n] is the same
thing as a sequence a_1, ..., a_L of subsets of [1, n] in which a_i is
never contained in a_j for any constrained pair (i, j) with i < j.  In
one direction, color (i, j) with the smallest element of a_i \\ a_j; the
chain rule for adjacency makes this proper.  In the other, let a_i be
the set of colors used on pairs (i, j) to the right of i.  The
constrained pairs are the vertices of a graph view: a shift graph, a
core or an induced subgraph, checked by `graphs.as_view`.

The module implements that translation in both directions, the
goodness and properness checks, and the sequences' and colorings' wire
formats.  The saturation rewrite and the explicit constructions, which
no search loads, are in `constructions`.

Subsets are stored as bitmasks: bit t - 1 stands for the element t.
The bulk goodness check over a whole shift graph is the bitset kernel
of `fullgraph`, imported when this module loads.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (
    ConstructionError,
    GoodnessError,
    ImproperColoringError,
    InvalidParameterError,
    InvalidVertexError,
    SequenceLengthError,
    require_int,
)
from .fullgraph import full_graph_goodness_violation
from .graphs import ShiftGraph, Vertex, as_vertex, as_view

# the solvers' limit of 62 colors; the checks here work on Python ints
# and need no cap of their own
_MAX_GROUND = 62


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask of a subset of [1, n]."""
    require_int(n, "n", 0, _MAX_GROUND)
    m = 0
    for e in elements:
        if type(e) is not int or not 1 <= e <= n:
            raise InvalidParameterError(f"element {reprlib.repr(e)} is outside [1, {n}]")
        m |= 1 << (e - 1)
    return m


def mask_elements(mask: int) -> tuple[int, ...]:
    """Elements of a bitmask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def smallest_element(mask: int) -> int:
    """Least element of a nonempty bitmask, 0 for the empty set."""
    return (mask & -mask).bit_length()


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(e) for e in mask_elements(mask)) + "}"


@dataclass(frozen=True)
class SubsetSequence:
    """A sequence of subsets of [1, n], stored as bitmask entries."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self):
        require_int(self.n, "ground size", 0, _MAX_GROUND)
        limit = 1 << self.n
        ents = tuple(self.entries)
        for e in ents:
            if type(e) is not int or not 0 <= e < limit:
                raise InvalidParameterError(
                    f"entry {reprlib.repr(e)} is not a subset mask over [1, {self.n}]")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int) -> "SubsetSequence":
        return cls(tuple(mask_of(s, n) for s in sets), n)

    def __len__(self) -> int:
        return len(self.entries)

    def at(self, position: int) -> int:
        """Entry at a 1-based position."""
        require_int(position, "position", 1, len(self.entries))
        return self.entries[position - 1]

    def elements_at(self, position: int) -> tuple[int, ...]:
        return mask_elements(self.at(position))

    def __str__(self) -> str:
        return "(" + ",".join(format_mask(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class VertexColoring:
    """An assignment of colors from [1, k] to pair vertices."""

    colors: dict
    k: int

    def __post_init__(self):
        require_int(self.k, "color count", 0)
        norm = {}
        for v, c in dict(self.colors).items():
            v = as_vertex(v)
            if type(c) is not int or not 1 <= c <= self.k:
                raise InvalidParameterError(
                    f"color {reprlib.repr(c)} for {v} is outside [1, {self.k}]")
            norm[v] = c
        object.__setattr__(self, "colors", norm)

    def __len__(self) -> int:
        return len(self.colors)

    def color_of(self, v) -> int:
        v = as_vertex(v)
        try:
            return self.colors[v]
        except KeyError:
            raise InvalidVertexError(f"{v} has no color") from None


def goodness_violation(seq: SubsetSequence, view):
    """Lexicographically least vertex (i, j) of a graph view with a_i contained in a_j, or None.

    Every vertex must fit the sequence, j <= len(seq), else SequenceLengthError.
    """
    if isinstance(view, ShiftGraph):
        # the fast path stays: with the pair walk alone, criterion 2 (N up to
        # 1,025) took 160 s against its 60 s bound
        return full_graph_goodness_violation(seq, view.n_points)
    verts = as_view(view).vertex_list()
    # every j is at most n_points, so only a shorter sequence needs the walk
    worst = max((j for _, j in verts), default=0) if len(seq) < view.n_points else 0
    if worst > len(seq):
        raise SequenceLengthError(
            f"constraints reach ground index {worst} but the sequence has length {len(seq)}")
    entries = seq.entries
    for i, j in verts:
        if entries[i - 1] & ~entries[j - 1] == 0:
            return (i, j)
    return None


def is_good(seq: SubsetSequence, view) -> bool:
    """True when no vertex (i, j) of the graph view has a_i contained in a_j."""
    return goodness_violation(seq, view) is None


def coloring_from_sequence(seq: SubsetSequence, view) -> VertexColoring:
    """Proper coloring of a graph view's vertices read off a good sequence.

    Pair (i, j) receives the least element of a_i \\ a_j.  Raises
    GoodnessError when the sequence is not good on the view.  Goodness
    makes the coloring proper: the color of (i, m) lies outside a_m and
    the color of (m, l) inside it.  Properness is re-checked
    independently by `proper_coloring_violation`, as `chromatic_number` does.
    """
    viol = goodness_violation(seq, view)
    if viol is not None:
        raise GoodnessError(viol)
    entries = seq.entries
    colors = {v: smallest_element(entries[v.x - 1] & ~entries[v.y - 1])
              for v in view.vertex_list()}
    return VertexColoring(colors, seq.n)


def full_graph_min_coloring_is_proper(seq: SubsetSequence, n_points: int,
                                      skip_pair: tuple[int, int] | None = None) -> bool:
    """True when the min-element coloring colors every pair of [1, n_points] but skip_pair.

    The pair (i, j) gets the least element of a_i \\ a_j, and no color
    when a_i is contained in a_j; so every pair is colored exactly when
    the sequence is good on them, and the coloring is then proper, as in
    `coloring_from_sequence`.  Invalid arguments raise the errors of
    `full_graph_goodness_violation`.
    """
    return full_graph_goodness_violation(seq, n_points, skip_pair) is None


def proper_coloring_violation(coloring: VertexColoring, view):
    """Some edge of a graph view whose ends share a color, or None.

    Every vertex of the view must be colored.  Edges are scanned through
    the chain rule: (x, y) meets (y, z).
    """
    verts = as_view(view).vertex_list()
    cmap = coloring.colors
    by_first: dict[int, list[Vertex]] = {}
    for v in verts:
        if v not in cmap:
            raise InvalidVertexError(f"{v} has no color")
        by_first.setdefault(v.x, []).append(v)
    for v in verts:
        for w in by_first.get(v.y, ()):
            if cmap[v] == cmap[w]:
                return (v, w)
    return None


def sequence_from_coloring(coloring: VertexColoring, view) -> SubsetSequence:
    """Good sequence of length view.n_points read off a proper coloring of a graph view.

    Entry i collects the colors used on pairs (i, j) to the right of i;
    unconstrained positions become the empty set.  Rejects colorings
    that are improper on the view, naming a violating edge.
    """
    edge = proper_coloring_violation(coloring, view)
    if edge is not None:
        raise ImproperColoringError(edge)
    masks = [0] * view.n_points
    cmap = coloring.colors
    for v in view.vertex_list():
        masks[v.x - 1] |= 1 << (cmap[v] - 1)
    seq = SubsetSequence(tuple(masks), coloring.k)
    viol = goodness_violation(seq, view)
    if viol is not None:
        raise ConstructionError(f"sequence read off a proper coloring fails goodness at {viol}")
    return seq


def _masks_descending(n: int) -> Iterator[int]:
    """All masks over [1, n] by descending size, ties by descending value, lazily.

    The sequence engine tries masks in this order, and the descending
    full sequence is its first entries.
    """
    # combinations of bit indices listed from the top come in descending value
    for size in range(n, -1, -1):
        for bits in combinations(range(n - 1, -1, -1), size):
            yield sum(1 << b for b in bits)


# ---------------------------------------------------------------------------
# wire formats


def sequence_to_dict(seq: SubsetSequence) -> dict:
    return {"n": seq.n, "entries": [list(mask_elements(e)) for e in seq.entries]}


def sequence_from_dict(d: dict) -> SubsetSequence:
    try:
        n = d["n"]
        entries = d["entries"]
    except (TypeError, KeyError):
        raise InvalidParameterError("sequence document needs keys 'n' and 'entries'") from None
    # JSON true and false read as bools, which are not numbers
    require_int(n, "'n'", 0, _MAX_GROUND)
    try:
        sets = [[require_int(e, "an element of 'entries'", 1, n) for e in s] for s in entries]
    except TypeError:
        raise InvalidParameterError("'entries' must be a list of element lists, "
                                    f"got {reprlib.repr(entries)}") from None
    return SubsetSequence.from_sets(sets, n)


def coloring_to_dict(coloring: VertexColoring) -> dict:
    return {"k": coloring.k,
            "colors": [{"x": v.x, "y": v.y, "c": coloring.colors[v]}
                       for v in sorted(coloring.colors)]}


def coloring_from_dict(d: dict) -> VertexColoring:
    try:
        k = d["k"]
        rows = d["colors"]
    except (TypeError, KeyError):
        raise InvalidParameterError("coloring document needs keys 'k' and 'colors'") from None
    require_int(k, "'k'", 0)
    if not isinstance(rows, list):
        raise InvalidParameterError(f"'colors' must be a list of rows, got {reprlib.repr(rows)}")
    colors = {}
    for row in rows:
        try:
            x, y, c = row["x"], row["y"], row["c"]
        except (TypeError, KeyError):
            raise InvalidParameterError(f"bad coloring row: {reprlib.repr(row)}") from None
        v = Vertex(require_int(x, "'x'", 1), require_int(y, "'y'", x + 1))
        require_int(c, "'c'", 1, k)
        if v in colors:
            raise InvalidParameterError(f"coloring document colors {v} twice")
        colors[v] = c
    return VertexColoring(colors, k)
