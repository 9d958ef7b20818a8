"""Graph views as text: DIMACS and JSON, streamed chunk by chunk.

Every export reads a view's vertices() and edge_ids(), so memory stays
O(vertices) for an induced subgraph and O(N) for a shift graph or a
core, whose vertices stream from reach.  The streamed bytes equal those
of the in-memory exports: `to_dimacs`, and json.dumps(..., indent=2,
sort_keys=True) of `graph_to_json_dict(view)` or `core.to_json_dict()`.

Only `gen` and `core` write graphs, so the CLI loads this module for
those two commands alone.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator


# text pieces joined into one chunk by the streaming serialisers; a chunk's
# pieces and text are the largest thing an export holds at once: gen 129 as
# JSON peaks at 0.13 MB of Python allocations at 512 pieces, 0.26 MB at
# 1,024 and 0.07 MB at 256, where writing it takes about 15% longer
_CHUNK_PIECES = 512


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


def core_json_chunks(core) -> Iterator[str]:
    """JSON text of a CriticalCore's to_json_dict() in chunks, as json.dumps writes it.

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
