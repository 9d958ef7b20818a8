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
reach(x) = N for the full graph.  ReachView does the vertex and edge
arithmetic for both.  Every view, an induced subgraph too, states its
vertex set once as _has(v), and GraphView answers membership, the refusal
of a non-vertex and the neighbors over it.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

from .errors import InvalidParameterError, InvalidVertexError, require_int


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
    """Coerce a pair of plain ints to a Vertex, checking 1 <= x < y."""
    try:
        x, y = v
    except (TypeError, ValueError):
        x = y = None
    if type(x) is not int or type(y) is not int:
        raise InvalidVertexError(f"not an ordered integer pair: {reprlib.repr(v)}")
    if not 1 <= x < y:
        raise InvalidVertexError(f"need 1 <= x < y, got ({x},{y})")
    return Vertex(x, y)


def adjacent(u, w) -> bool:
    """Chain rule: (a, b) ~ (c, d) iff b == c or d == a."""
    u = as_vertex(u)
    w = as_vertex(w)
    return u.y == w.x or w.y == u.x


class GraphView:
    """What every view derives from its _has(v), vertices() and edge_ids().

    A view kind states its vertex set once, as _has(v) on a checked
    Vertex.  Membership, the refusal of a non-vertex and the chain-rule
    neighbors are written here, once, over it.
    """

    def __contains__(self, v) -> bool:
        try:
            v = as_vertex(v)
        except InvalidVertexError:
            return False
        return self._has(v)

    def require_vertex(self, v) -> Vertex:
        v = as_vertex(v)
        if not self._has(v):
            # every view's repr is short: an induced view names its parent and size
            raise InvalidVertexError(f"{v} is not a vertex of {self!r}")
        return v

    def neighbors(self, v) -> set[Vertex]:
        """The vertices (w, x) chaining into v = (x, y) and (y, z) chaining out of it."""
        x, y = self.require_vertex(v)
        left = (Vertex(w, x) for w in range(1, x))
        right = (Vertex(y, z) for z in range(y + 1, self.n_points + 1))
        return {u for u in chain(left, right) if self._has(u)}

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


def as_view(x) -> GraphView:
    """Check that a graph argument is a graph view, and return it.

    Every function that takes a graph checks it here; a pair list is a
    view once induced, as build_shift_graph(N).induced(pairs).
    """
    if isinstance(x, GraphView):
        return x
    raise InvalidParameterError(f"not a graph view: {reprlib.repr(x)}")


class ReachView(GraphView):
    """The pairs (x, y), x < y <= reach(x), over the ground interval [1, n_points].

    A subclass gives n_points and reach(x), with x <= reach(x) <= n_points
    on the ground interval.  The vertices and edges are then
    arithmetic on reach: the chain (x, y) ~ (y, z) is an edge exactly
    when y <= reach(x) and z <= reach(y).  reach runs in every vertex and
    edge loop, so it checks nothing: callers pass an int x.
    """

    def _has(self, v: Vertex) -> bool:
        return v.y <= self.reach(v.x)

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
        require_int(self.n_points, "n_points", 2)

    def reach(self, x: int) -> int:
        return self.n_points


@dataclass(frozen=True, repr=False)
class InducedSubgraph(GraphView):
    """The subgraph of a graph view induced by an explicit vertex set.

    Its repr names the parent and the vertex count, not the vertices, as
    parent.induced(<m vertices>).
    """

    parent: GraphView
    verts: tuple[Vertex, ...]

    def __post_init__(self):
        vs = tuple(sorted(self.parent.require_vertex(v) for v in self.verts))
        pos = {v: t for t, v in enumerate(vs)}
        if len(pos) != len(vs):
            raise InvalidVertexError("induced vertex set contains duplicates")
        object.__setattr__(self, "verts", vs)
        object.__setattr__(self, "_pos", pos)
        by_first: dict[int, list[Vertex]] = {}
        for v in vs:
            by_first.setdefault(v.x, []).append(v)
        object.__setattr__(self, "_by_first", {x: tuple(l) for x, l in by_first.items()})

    def __repr__(self) -> str:
        return f"{self.parent!r}.induced(<{len(self.verts)} vertices>)"

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

    def _has(self, v: Vertex) -> bool:
        return v in self._pos

    def edge_ids(self) -> Iterator[tuple[int, int]]:
        """As ReachView.edge_ids: v's partners (v.y, z) follow v in the sorted tuple."""
        pos = self._pos
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
        require_int(self.n, "n", 2)

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
        reach(x) = hi(I_l) = 2^n - 2^(n + 1 - bit_length(x)) + 2.  x is
        an int and is not checked (see ReachView).
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
        v = self.require_vertex(v)
        return self.n + 1 - (2 ** self.n + 2 - v.y).bit_length()


def build_shift_graph(n_points: int) -> ShiftGraph:
    """Shift graph on the ground interval [1, n_points]; needs n_points >= 2."""
    return ShiftGraph(n_points)


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
