"""Subset-sequence calculus: colorings of shift graphs as set sequences.

A proper coloring of pairs (i, j) with colors from [1, n] is the same
thing as a sequence a_1, ..., a_L of subsets of [1, n] in which a_i is
never contained in a_j for any constrained pair (i, j) with i < j.  In
one direction, color (i, j) with the smallest element of a_i \\ a_j; the
chain rule for adjacency makes this proper.  In the other, let a_i be
the set of colors used on pairs (i, j) to the right of i.

The module implements that translation, a saturation procedure that
pushes a sequence toward a canonical form where every proper subset of
each entry reappears later, and two explicit constructions: a sequence
witnessing that deleting any single critical-core vertex makes the
graph n-colorable, and the descending enumeration of all subsets which
witnesses the general chromatic upper bound.

Subsets are stored as bitmasks: bit t - 1 stands for the element t.
The bulk goodness check over a whole shift graph is the bitset kernel
of `fullgraph`, imported when this module loads.  The constructions
only build; the verify rows check each deleted-vertex sequence once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator

from .errors import (
    ConstructionError,
    GoodnessError,
    ImproperColoringError,
    InvalidParameterError,
    InvalidVertexError,
    SequenceLengthError,
)
from .fullgraph import full_graph_goodness_violation
from .graphs import GraphView, ShiftGraph, Vertex, as_vertex, critical_core

# the solvers' limit of 62 colors; the checks here work on Python ints
# and need no cap of their own
_MAX_GROUND = 62


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask of a subset of [1, n]."""
    m = 0
    for e in elements:
        if not isinstance(e, int) or not 1 <= e <= n:
            raise InvalidParameterError(f"element {e!r} is outside [1, {n}]")
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


def _proper_submasks(mask: int) -> Iterator[int]:
    if mask == 0:
        return
    sub = mask
    while True:
        sub = (sub - 1) & mask
        yield sub
        if sub == 0:
            return


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(e) for e in mask_elements(mask)) + "}"


@dataclass(frozen=True)
class SubsetSequence:
    """A sequence of subsets of [1, n], stored as bitmask entries."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise InvalidParameterError(f"ground size must be a nonnegative integer, got {self.n!r}")
        if self.n > _MAX_GROUND:
            raise InvalidParameterError(f"ground size {self.n} exceeds the supported maximum {_MAX_GROUND}")
        limit = 1 << self.n
        ents = tuple(self.entries)
        for e in ents:
            if not isinstance(e, int) or not 0 <= e < limit:
                raise InvalidParameterError(f"entry {e!r} is not a subset mask over [1, {self.n}]")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int) -> "SubsetSequence":
        return cls(tuple(mask_of(s, n) for s in sets), n)

    def __len__(self) -> int:
        return len(self.entries)

    def at(self, position: int) -> int:
        """Entry at a 1-based position."""
        if not 1 <= position <= len(self.entries):
            raise InvalidParameterError(f"position {position} is outside [1, {len(self.entries)}]")
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
        if not isinstance(self.k, int) or self.k < 0:
            raise InvalidParameterError(f"color count must be a nonnegative integer, got {self.k!r}")
        norm = {}
        for v, c in dict(self.colors).items():
            v = as_vertex(v)
            if not isinstance(c, int) or not 1 <= c <= self.k:
                raise InvalidParameterError(f"color {c!r} for {v} is outside [1, {self.k}]")
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

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(sorted(self.colors))


def _vertices_of(X) -> Iterable:
    """The vertices of a graph view, or X itself."""
    return X.vertices() if isinstance(X, GraphView) else X


def constraint_pairs(X, length: int) -> tuple[tuple[int, int], ...]:
    """Normalize a vertex collection X to sorted (i, j) index pairs.

    X may be a graph view (meaning all its vertices) or any iterable of
    pairs.  Every pair must fit inside a sequence of the given length,
    i.e. j <= length.
    """
    pairs = sorted({tuple(as_vertex(v)) for v in _vertices_of(X)})
    worst = max((j for _, j in pairs), default=0)
    if worst > length:
        raise SequenceLengthError(
            f"constraints reach ground index {worst} but the sequence has length {length}")
    return tuple(pairs)


def goodness_violation(seq: SubsetSequence, X):
    """Lexicographically least constrained (i, j) with a_i contained in a_j, or None."""
    if isinstance(X, ShiftGraph):
        return full_graph_goodness_violation(seq, X.n_points)
    pairs = constraint_pairs(X, len(seq))
    entries = seq.entries
    for i, j in pairs:
        if entries[i - 1] & ~entries[j - 1] == 0:
            return (i, j)
    return None


def is_good(seq: SubsetSequence, X) -> bool:
    """True when no constrained pair (i, j) has a_i contained in a_j."""
    return goodness_violation(seq, X) is None


def coloring_from_sequence(seq: SubsetSequence, X) -> VertexColoring:
    """Proper coloring of the vertices X read off a good sequence.

    Pair (i, j) receives the least element of a_i \\ a_j.  Raises
    GoodnessError when the sequence is not X-good.  Goodness makes the
    coloring proper: the color of (i, m) lies outside a_m and the color
    of (m, l) inside it.  Properness is re-checked independently by
    `proper_coloring_violation`, as `chromatic_number` does.
    """
    viol = goodness_violation(seq, X)
    if viol is not None:
        raise GoodnessError(viol)
    entries = seq.entries
    colors = {Vertex(i, j): smallest_element(entries[i - 1] & ~entries[j - 1])
              for i, j in constraint_pairs(X, len(seq))}
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


def proper_coloring_violation(coloring: VertexColoring, X):
    """Some edge of the subgraph induced by X whose ends share a color, or None.

    Every vertex of X must be colored.  Edges are scanned through the
    chain rule: (x, y) meets (y, z).
    """
    verts = sorted({as_vertex(v) for v in _vertices_of(X)})
    cmap = coloring.colors
    for v in verts:
        if v not in cmap:
            raise InvalidVertexError(f"{v} has no color")
    by_first: dict[int, list[Vertex]] = {}
    for v in verts:
        by_first.setdefault(v.x, []).append(v)
    for v in verts:
        for w in by_first.get(v.y, ()):
            if cmap[v] == cmap[w]:
                return (v, w)
    return None


def sequence_from_coloring(coloring: VertexColoring, X, length: int) -> SubsetSequence:
    """Good sequence read off a proper coloring of the vertices X.

    Entry i collects the colors used on pairs (i, j) to the right of i;
    unconstrained positions become the empty set.  Rejects colorings
    that are improper on X, naming a violating edge.
    """
    pairs = constraint_pairs(X, length)
    edge = proper_coloring_violation(coloring, [Vertex(i, j) for i, j in pairs])
    if edge is not None:
        raise ImproperColoringError(edge)
    masks = [0] * length
    cmap = coloring.colors
    for i, j in pairs:
        masks[i - 1] |= 1 << (cmap[Vertex(i, j)] - 1)
    seq = SubsetSequence(tuple(masks), coloring.k)
    viol = goodness_violation(seq, pairs)
    if viol is not None:
        raise ConstructionError(f"sequence read off a proper coloring fails goodness at {viol}")
    return seq


# ---------------------------------------------------------------------------
# saturation


def saturation_trace(seq: SubsetSequence, X) -> list[SubsetSequence]:
    """All intermediate sequences of the saturation procedure, input first.

    One step: take the largest position s whose entry has a proper
    subset not appearing anywhere after s, and replace that entry by
    the missing proper subset of maximum cardinality, ties broken by
    largest mask value.  Stops when no position qualifies.  Each step
    strictly shrinks one entry, preserves goodness with respect to X,
    and the whole run takes at most n * L steps.
    """
    viol = goodness_violation(seq, X)
    if viol is not None:
        raise GoodnessError(viol)
    L = len(seq)
    trace = [seq]
    entries = list(seq.entries)
    max_steps = seq.n * L + 1
    for _ in range(max_steps):
        stepped = False
        for s in range(L, 0, -1):
            a_s = entries[s - 1]
            if a_s == 0:
                continue
            suffix = set(entries[s:])
            missing = [b for b in _proper_submasks(a_s) if b not in suffix]
            if not missing:
                continue
            entries[s - 1] = max(missing, key=lambda b: (b.bit_count(), b))
            nxt = SubsetSequence(tuple(entries), seq.n)
            if goodness_violation(nxt, X) is not None:
                raise ConstructionError("saturation step broke goodness; replacement rule is unsound")
            trace.append(nxt)
            stepped = True
            break
        if not stepped:
            return trace
    raise ConstructionError("saturation exceeded its n*L step bound")


def saturate(seq: SubsetSequence, X) -> SubsetSequence:
    """Run saturation to its fixed point and return the final sequence."""
    return saturation_trace(seq, X)[-1]


def is_saturated(seq: SubsetSequence) -> bool:
    """True when every proper subset of each entry appears later in the sequence."""
    suffix: set[int] = set()
    for pos in range(len(seq), 0, -1):
        a = seq.entries[pos - 1]
        if any(b not in suffix for b in _proper_submasks(a)):
            return False
        suffix.add(a)
    return True


# ---------------------------------------------------------------------------
# explicit constructions


@lru_cache(maxsize=None)
def _size_order(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """All masks over [1, n] by descending cardinality, ties by ascending
    value, and the rank table: rank[b] is the index of mask b in that order."""
    order = tuple(sorted(range(1 << n), key=lambda b: (-b.bit_count(), b)))
    rank = [0] * len(order)
    for r, b in enumerate(order):
        rank[b] = r
    return order, tuple(rank)


@lru_cache(maxsize=None)
def _comparability_classes(n: int, base: int):
    """All masks over [1, n] except base, split by containment against base.

    Returns (supersets, subsets, incomparables), each sorted by
    descending cardinality with ties by ascending mask value.
    """
    sup, sub, inc = [], [], []
    for b in _size_order(n)[0]:
        if b == base:
            continue
        if b & base == base:
            sup.append(b)
        elif b & base == b:
            sub.append(b)
        else:
            inc.append(b)
    return tuple(sup), tuple(sub), tuple(inc)


def construct_deleted_vertex_sequence(n: int, v) -> SubsetSequence:
    """Good sequence for all pairs over [1, 2^n + 1] except the core vertex v.

    With r the least interval index witnessing v = (i, j) in the core,
    the set A = [1, n - r] is placed at both positions i and j; proper
    supersets of A go before i, proper subsets after j, and the masks
    incomparable to A fill the remaining slots in one descending-size
    run (largest before i, middle between i and j, smallest after j).
    Within each region sizes are non-increasing.

    The result is not checked here: the member rows of `verify` check
    it once, with `full_graph_min_coloring_is_proper`.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParameterError(f"deleted-vertex construction needs n >= 2, got {n!r}")
    core = critical_core(n)
    v = as_vertex(v)
    if v not in core:
        raise InvalidVertexError(f"{v} is not in the critical core for n={n}")
    r = core.least_interval_index(v)
    base = (1 << (n - r)) - 1
    i, j = v
    length = 2 ** n + 1
    rank = _size_order(n)[1]
    sup, sub, inc = _comparability_classes(n, base)
    head_inc = i - 2 ** r          # incomparables that must land before position i
    mid = j - i - 1
    before = sorted(sup + inc[:head_inc], key=rank.__getitem__)
    between = list(inc[head_inc:head_inc + mid])
    after = sorted(sub + inc[head_inc + mid:], key=rank.__getitem__)
    entries = before + [base] + between + [base] + after
    if len(before) != i - 1 or len(entries) != length:
        raise ConstructionError(f"region sizes are inconsistent for v={v}, r={r}")
    return SubsetSequence(tuple(entries), n)


def _masks_descending(n: int) -> Iterator[int]:
    """All masks over [1, n] by descending size, ties by descending value, lazily."""
    # combinations of bit indices listed from the top come in descending value
    for size in range(n, -1, -1):
        for bits in combinations(range(n - 1, -1, -1), size):
            yield sum(1 << b for b in bits)


def descending_full_sequence(n: int, length: int) -> SubsetSequence:
    """First `length` subsets of [1, n] by descending size, ties by descending mask.

    Entries are pairwise distinct with non-increasing sizes, so the
    result is good for every pair (i, j), certifying that the shift
    graph on [1, length] is n-colorable whenever length <= 2^n.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidParameterError(f"ground size must be nonnegative, got {n!r}")
    if not isinstance(length, int) or not 0 <= length <= (1 << n):
        raise InvalidParameterError(f"length must lie in [0, 2^{n}], got {length!r}")
    return SubsetSequence(tuple(islice(_masks_descending(n), length)), n)


# ---------------------------------------------------------------------------
# wire formats


def _json_int(value, name: str) -> int:
    """value if it is an int; JSON true and false read as bools, which are not numbers."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return value


def sequence_to_dict(seq: SubsetSequence) -> dict:
    return {"n": seq.n, "entries": [list(mask_elements(e)) for e in seq.entries]}


def sequence_from_dict(d: dict) -> SubsetSequence:
    try:
        n = d["n"]
        entries = d["entries"]
    except (TypeError, KeyError):
        raise InvalidParameterError("sequence document needs keys 'n' and 'entries'") from None
    _json_int(n, "'n'")
    try:
        sets = [[_json_int(e, "an element of 'entries'") for e in s] for s in entries]
    except TypeError:
        raise InvalidParameterError("'entries' must be a list of element lists, "
                                    f"got {entries!r}") from None
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
    _json_int(k, "'k'")
    if not isinstance(rows, list):
        raise InvalidParameterError(f"'colors' must be a list of rows, got {rows!r}")
    colors = {}
    for row in rows:
        try:
            x, y, c = row["x"], row["y"], row["c"]
        except (TypeError, KeyError):
            raise InvalidParameterError(f"bad coloring row: {row!r}") from None
        v = Vertex(_json_int(x, "'x'"), _json_int(y, "'y'"))
        _json_int(c, "'c'")
        if v in colors:
            raise InvalidParameterError(f"coloring document colors {v} twice")
        colors[v] = c
    return VertexColoring(colors, k)
