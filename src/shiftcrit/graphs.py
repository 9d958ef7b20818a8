"""Shift graphs on ordered integer pairs, and their critical cores.

The shift graph on the ground interval [1, N] has every ordered pair
(x, y) with 1 <= x < y <= N as a vertex.  Two pairs are adjacent exactly
when they chain: (x, y) ~ (y, z).  Adjacency is evaluated from that rule
on demand, so a graph object is just its parameter N and stays cheap to
hold even for N in the thousands.

For N = 2^n + 1 the vertex set carries a distinguished subset, the
critical core W: all pairs whose two endpoints lie together in one of the
n + 1 intervals

    I_l = [2^l, 2^n - 2^(n-l) + 2],      l = 0, ..., n.

Exactly 2^l - 1 ground points lie strictly left of I_l and 2^(n-l) - 1
strictly right of it.  The subgraph induced by W is the unique minimal
induced subgraph whose chromatic number still exceeds n.

Both are one kind of view: the pairs (x, y) with x < y <= reach(x), where
reach(x) = N for the full graph.  ReachView does the vertex, edge and
neighbor arithmetic for both, and every view, an induced subgraph too,
answers the same methods.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import InvalidParameterError, InvalidVertexError


class Vertex(NamedTuple):
    """An ordered pair (x, y) with x < y."""

    x: int
    y: int

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


class Interval(NamedTuple):
    """A closed integer interval [lo, hi]."""

    lo: int
    hi: int


def as_vertex(v) -> Vertex:
    """Coerce a pair to a Vertex, checking 1 <= x < y."""
    try:
        x, y = v
        x = operator.index(x)
        y = operator.index(y)
    except (TypeError, ValueError):
        raise InvalidVertexError(f"not an ordered integer pair: {v!r}") from None
    if not 1 <= x < y:
        raise InvalidVertexError(f"need 1 <= x < y, got ({x},{y})")
    return Vertex(x, y)


def adjacent(u, w) -> bool:
    """Chain rule: (a, b) ~ (c, d) iff b == c or d == a."""
    u = as_vertex(u)
    w = as_vertex(w)
    return u.y == w.x or w.y == u.x


class GraphView:
    """What every view derives from its vertices(), edge_ids() and neighbors()."""

    def vertex_list(self) -> tuple[Vertex, ...]:
        return tuple(self.vertices())

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Each edge once as (u, w), in the order of edge_ids()."""
        verts = self.vertex_list()
        for i, j in self.edge_ids():
            yield verts[i], verts[j]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def induced(self, X) -> "InducedSubgraph":
        return InducedSubgraph(self, tuple(X))


class ReachView(GraphView):
    """The pairs (x, y), x < y <= reach(x), over the ground interval [1, n_points].

    A subclass gives n_points and reach(x), with x <= reach(x) <= n_points
    on the ground interval.  The vertices, edges and neighbors are then
    arithmetic on reach: the chain (x, y) ~ (y, z) is an edge exactly
    when y <= reach(x) and z <= reach(y).
    """

    def __contains__(self, v) -> bool:
        try:
            v = as_vertex(v)
        except InvalidVertexError:
            return False
        return v.y <= self.reach(v.x)

    def require_vertex(self, v) -> Vertex:
        v = as_vertex(v)
        if v.y > self.reach(v.x):
            raise InvalidVertexError(f"{v} is not a vertex of {self!r}")
        return v

    def _reaches(self) -> list[int]:
        """reach(x) at index x of [1, n_points], and 0 at index 0."""
        return [0] + [self.reach(x) for x in range(1, self.n_points + 1)]

    def vertices(self) -> Iterator[Vertex]:
        """The vertices in ascending (x, y) order, generated from reach()."""
        for x in range(1, self.n_points + 1):
            for y in range(x + 1, self.reach(x) + 1):
                yield Vertex(x, y)

    def vertex_count(self) -> int:
        return sum(self.reach(x) - x for x in range(1, self.n_points + 1))

    def edge_count(self) -> int:
        r = self._reaches()
        return sum(r[y] - y for x in range(1, len(r)) for y in range(x + 1, r[x] + 1))

    def neighbors(self, v) -> set[Vertex]:
        """All pairs chaining into v from the left or out of v to the right."""
        v = self.require_vertex(v)
        left = {Vertex(w, v.x) for w in range(1, v.x) if v.x <= self.reach(w)}
        right = {Vertex(v.y, z) for z in range(v.y + 1, self.reach(v.y) + 1)}
        return left | right

    def edge_ids(self) -> Iterator[tuple[int, int]]:
        """Each edge once as positions (i, j), i < j, in vertex_list(), ascending.

        The pair (x, y) sits at off[x] + y, with off[x] the count of
        vertices (w, z), w < x, minus x + 1; so the chain (x, y) ~ (y, z)
        is the edge (off[x] + y, off[y] + z).  The streaming exports
        write edges in this order.
        """
        r = self._reaches()
        off, before = [0] * len(r), 0
        for x in range(1, len(r)):
            off[x] = before - x - 1
            before += r[x] - x
        return ((off[x] + y, off[y] + z) for x in range(1, len(r))
                for y in range(x + 1, r[x] + 1) for z in range(y + 1, r[y] + 1))


@dataclass(frozen=True)
class ShiftGraph(ReachView):
    """The shift graph with vertices {(x, y) : 1 <= x < y <= n_points}."""

    n_points: int

    def __post_init__(self):
        if not isinstance(self.n_points, int) or self.n_points < 2:
            raise InvalidParameterError(f"ground interval needs N >= 2, got {self.n_points!r}")

    def reach(self, x: int) -> int:
        return self.n_points


@dataclass(frozen=True)
class InducedSubgraph(GraphView):
    """The subgraph of a graph view induced by an explicit vertex set."""

    parent: GraphView
    verts: tuple[Vertex, ...]

    def __post_init__(self):
        vs = tuple(sorted(self.parent.require_vertex(v) for v in self.verts))
        if len(set(vs)) != len(vs):
            raise InvalidVertexError("induced vertex set contains duplicates")
        object.__setattr__(self, "verts", vs)
        object.__setattr__(self, "_members", frozenset(vs))
        by_first: dict[int, list[Vertex]] = {}
        for v in vs:
            by_first.setdefault(v.x, []).append(v)
        object.__setattr__(self, "_by_first", {x: tuple(l) for x, l in by_first.items()})

    @property
    def n_points(self) -> int:
        return self.parent.n_points

    def vertices(self) -> Iterator[Vertex]:
        return iter(self.verts)

    def vertex_list(self) -> tuple[Vertex, ...]:
        return self.verts

    def vertex_count(self) -> int:
        return len(self.verts)

    def edge_count(self) -> int:
        return sum(len(self._by_first.get(v.y, ())) for v in self.verts)

    def __contains__(self, v) -> bool:
        try:
            return as_vertex(v) in self._members
        except InvalidVertexError:
            return False

    def require_vertex(self, v) -> Vertex:
        v = as_vertex(v)
        if v not in self._members:
            raise InvalidVertexError(f"{v} is not in the induced vertex set")
        return v

    def neighbors(self, v) -> set[Vertex]:
        v = self.require_vertex(v)
        out = {w for w in self._by_first.get(v.y, ())}
        out.update(Vertex(w, v.x) for w in range(1, v.x) if Vertex(w, v.x) in self._members)
        return out

    def edge_ids(self) -> Iterator[tuple[int, int]]:
        """As ReachView.edge_ids: v's partners (v.y, z) follow v in the sorted tuple."""
        pos = {v: t for t, v in enumerate(self.verts)}
        return ((i, pos[w]) for i, v in enumerate(self.verts)
                for w in self._by_first.get(v.y, ()))


@dataclass(frozen=True)
class CriticalCore(ReachView):
    """The critical vertex set W of the shift graph on [1, 2^n + 1], as a graph view.

    A value of n and nothing more: (x, y) is in W iff y <= reach(x), so
    every question about W is arithmetic on n.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise InvalidParameterError(f"critical core needs n >= 2, got {self.n!r}")

    @property
    def n_points(self) -> int:
        return 2 ** self.n + 1

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """I_l = [2^l, 2^n - 2^(n-l) + 2] for l = 0, ..., n."""
        n = self.n
        return tuple(Interval(2 ** l, 2 ** n - 2 ** (n - l) + 2) for l in range(n + 1))

    def reach(self, x: int) -> int:
        """max{hi(I_l) : x in I_l}, or 0 if no interval covers x.

        Both bounds of I_l ascend with l, so the largest hi belongs to
        the largest l with 2^l <= x, l = bit_length(x) - 1, and that I_l
        covers x: for l < n, hi(I_l) - (2^(l+1) - 1) =
        (2^l - 1)(2^(n-l) - 2) + 1 > 0, and hi(I_n) = 2^n + 1.  So
        reach(x) = hi(I_l) = 2^n - 2^(n + 1 - bit_length(x)) + 2.
        """
        if not 1 <= x <= self.n_points:
            return 0
        return 2 ** self.n - 2 ** (self.n + 1 - x.bit_length()) + 2

    def graph(self) -> ShiftGraph:
        return ShiftGraph(self.n_points)

    def least_interval_index(self, v) -> int:
        """Smallest l such that both endpoints of v lie in I_l.

        hi(I_l) = 2^n + 2 - 2^(n-l) ascends with l, so the least l with
        y <= hi(I_l), i.e. 2^(n-l) <= 2^n + 2 - y, is n + 1 - bit_length(2^n + 2 - y);
        for a member v that I_l holds x too, as lo(I_l) also ascends.
        """
        v = as_vertex(v)
        if v not in self:
            raise InvalidVertexError(f"{v} is not in the critical core for n={self.n}")
        return self.n + 1 - (2 ** self.n + 2 - v.y).bit_length()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "n_points": self.n_points,
            "intervals": [[iv.lo, iv.hi] for iv in self.intervals],
            "members": [[v.x, v.y] for v in self.vertices()],
        }


def build_shift_graph(n_points: int) -> ShiftGraph:
    """Shift graph on the ground interval [1, n_points]; needs n_points >= 2."""
    return ShiftGraph(n_points)


def neighbors(graph, v) -> set[Vertex]:
    """Neighbor set of v in a graph view."""
    return graph.neighbors(v)


def induced_subgraph(graph: GraphView, X) -> InducedSubgraph:
    """Subgraph of a graph view induced by the vertex set X."""
    return graph.induced(X)


def critical_core(n: int) -> CriticalCore:
    """Critical core for ground interval [1, 2^n + 1]; needs n >= 2.

    A pair (x, y) belongs to the core iff some interval I_l contains both
    endpoints, which happens iff y <= max{hi(I_l) : x in I_l}; see
    CriticalCore.reach.
    """
    return CriticalCore(n)


def is_triangle_free(view) -> bool:
    """Check edge-wise that no two adjacent vertices share a neighbor.

    Works from the edge list alone, so it does not trust the view's own
    adjacency rule.
    """
    edges = list(view.edges())
    nbrs: dict[Vertex, set[Vertex]] = {}
    for u, w in edges:
        nbrs.setdefault(u, set()).add(w)
        nbrs.setdefault(w, set()).add(u)
    return all(not nbrs[u] & nbrs[w] for u, w in edges)


# text pieces joined into one chunk by the streaming serialisers; a chunk's
# pieces and text are the largest thing an export holds at once: about
# 0.2 MB for gen 129 at 1,024 pieces, 1 MB at 4,096, with no slower writes
_CHUNK_PIECES = 1024


def _joined(pieces) -> Iterator[str]:
    """Join an iterator of text pieces into chunks of _CHUNK_PIECES pieces."""
    it = iter(pieces)
    while batch := list(islice(it, _CHUNK_PIECES)):
        yield "".join(batch)


def _edge_ids(pairs, edge_count: int) -> Iterator[tuple[int, int]]:
    """The position pairs of a view's edge_ids() as 1-based ids, checked to ascend.

    Streaming writes the edges in the order the view yields them, so a view
    that breaks the order, or yields other than `edge_count` edges, raises
    ValueError instead of producing unsorted or inconsistent output.
    """
    pi = pj = count = 0
    for i, j in pairs:
        if i >= j or i < pi or (i == pi and j <= pj):
            raise ValueError(f"edge ids out of ascending order at ({i}, {j})")
        pi, pj = i, j
        count += 1
        yield i + 1, j + 1
    if count != edge_count:
        raise ValueError(f"edge_ids() yielded {count} edges, edge_count() says {edge_count}")


def dimacs_chunks(view) -> Iterator[str]:
    """DIMACS edge-format text for a graph view, with a vertex id legend, in chunks.

    Edges are written as view.edge_ids() yields them, so memory stays
    O(vertices) for an induced subgraph and O(N) for a shift graph or a
    core, whose vertices stream from vertices().
    """
    verts = view.vertices()
    n, m = view.vertex_count(), view.edge_count()
    edges = _edge_ids(view.edge_ids(), m)

    def lines():
        yield "c shift graph: vertices are ordered pairs, (x,y) ~ (y,z)\n"
        for i, v in enumerate(verts, 1):
            yield f"c vertex {i} = ({v.x},{v.y})\n"
        yield f"p edge {n} {m}\n"
        for i, j in edges:
            yield f"e {i} {j}\n"

    return _joined(lines())


def to_dimacs(view) -> str:
    """DIMACS edge-format text for a graph view, with a vertex id legend."""
    return "".join(dimacs_chunks(view))


def _json_list(items) -> Iterator[str]:
    """A list at depth 1 of indent=2 JSON, from its items already indented to depth 2."""
    sep = "[\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def graph_json_chunks(view) -> Iterator[str]:
    """JSON text of graph_to_json_dict(view) in chunks, as json.dumps writes it.

    The bytes equal json.dumps(graph_to_json_dict(view), indent=2,
    sort_keys=True) plus a final newline, and memory stays as in
    dimacs_chunks: edges are written as view.edge_ids() yields them.
    """
    verts = view.vertices()
    n, m = view.vertex_count(), view.edge_count()
    edges = _edge_ids(view.edge_ids(), m)

    def pieces():
        yield f'{{\n  "edge_count": {m},\n  "edges": '
        yield from _json_list(f"    [\n      {i},\n      {j}\n    ]"
                              for i, j in edges)
        yield (f',\n  "n_points": {view.n_points},\n  "vertex_count": {n},'
               '\n  "vertices": ')
        yield from _json_list(
            f'    {{\n      "id": {i},\n      "x": {v.x},\n      "y": {v.y}\n    }}'
            for i, v in enumerate(verts, 1))
        yield "\n}\n"

    return _joined(pieces())


def core_json_chunks(core: CriticalCore) -> Iterator[str]:
    """JSON text of core.to_json_dict() in chunks, as json.dumps writes it.

    The bytes equal json.dumps(core.to_json_dict(), indent=2,
    sort_keys=True) plus a final newline; members stream from
    core.vertices(), so no member table is built.
    """
    def pair(a, b):
        return f"    [\n      {a},\n      {b}\n    ]"

    def pieces():
        yield '{\n  "intervals": '
        yield from _json_list(pair(iv.lo, iv.hi) for iv in core.intervals)
        yield ',\n  "members": '
        yield from _json_list(pair(v.x, v.y) for v in core.vertices())
        yield f',\n  "n": {core.n},\n  "n_points": {core.n_points}\n}}\n'

    return _joined(pieces())


def graph_to_json_dict(view) -> dict:
    """JSON-ready adjacency dump of a graph view."""
    verts = view.vertex_list()
    ids = {v: i + 1 for i, v in enumerate(verts)}
    edges = sorted((ids[u], ids[w]) if ids[u] < ids[w] else (ids[w], ids[u])
                   for u, w in view.edges())
    return {
        "n_points": view.n_points,
        "vertex_count": len(verts),
        "edge_count": len(edges),
        "vertices": [{"id": ids[v], "x": v.x, "y": v.y} for v in verts],
        "edges": [[i, j] for i, j in edges],
    }
