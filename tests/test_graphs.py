import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftcrit import (
    InvalidParameterError,
    InvalidVertexError,
    Vertex,
    adjacent,
    as_vertex,
    build_shift_graph,
    critical_core,
    induced_subgraph,
    is_triangle_free,
    neighbors,
)
from shiftcrit.export import (
    core_json_chunks,
    dimacs_chunks,
    graph_json_chunks,
    graph_to_json_dict,
    to_dimacs,
)

from oracles import (
    brute_adjacent,
    brute_core_members,
    brute_edges,
    brute_intervals,
    brute_vertices,
    sorted_dimacs,
)


def test_vertex_validation():
    assert as_vertex((3, 7)) == Vertex(3, 7)
    for bad in ((3, 3), (7, 3), (0, 5), (1.5, 2), ("a", 2)):
        with pytest.raises(InvalidVertexError):
            as_vertex(bad)


def test_counts_match_binomials():
    for n_points in range(2, 30):
        g = build_shift_graph(n_points)
        assert g.vertex_count() == math.comb(n_points, 2)
        assert g.edge_count() == math.comb(n_points, 3)
        assert len(g.vertex_list()) == g.vertex_count()


def test_edges_match_oracle():
    for n_points in (2, 3, 4, 6, 9):
        g = build_shift_graph(n_points)
        got = sorted((tuple(u), tuple(v)) for u, v in g.edges())
        assert got == sorted(brute_edges(n_points))


def test_adjacency_is_symmetric_irreflexive():
    g = build_shift_graph(7)
    for u in g.vertices():
        assert not adjacent(u, u)
        for v in g.vertices():
            assert adjacent(u, v) == adjacent(v, u)
            assert adjacent(u, v) == brute_adjacent(tuple(u), tuple(v))


def test_neighbor_sets_and_degree_formula():
    n_points = 9
    g = build_shift_graph(n_points)
    for v in g.vertices():
        nbrs = set(neighbors(g, v))
        assert nbrs == {u for u in g.vertices() if brute_adjacent(tuple(u), tuple(v))}
        # left partners share v.x as second coordinate, right ones v.y as first
        assert g.degree(v) == (v.x - 1) + (n_points - v.y)
        assert len(nbrs) == g.degree(v)


@given(st.integers(2, 40), st.data())
def test_random_pair_adjacency(n_points, data):
    g = build_shift_graph(n_points)
    vs = g.vertex_list()
    u = data.draw(st.sampled_from(vs))
    v = data.draw(st.sampled_from(vs))
    assert adjacent(u, v) == brute_adjacent(tuple(u), tuple(v))


def test_triangle_free_through_50():
    for n_points in range(2, 51):
        assert is_triangle_free(build_shift_graph(n_points))


def test_triangle_detection_is_real():
    # same vertices, one edge forced in by hand: (1,2)-(2,3)-(3,4) plus a
    # chord would need a non-shift edge, so check the checker on a fake view
    class Fake:
        def vertex_list(self):
            return (Vertex(1, 2), Vertex(2, 3), Vertex(1, 3))

        def edges(self):
            return [(Vertex(1, 2), Vertex(2, 3)),
                    (Vertex(2, 3), Vertex(1, 3)),
                    (Vertex(1, 2), Vertex(1, 3))]

    assert not is_triangle_free(Fake())


def test_core_frozen_intervals():
    assert [(i.lo, i.hi) for i in critical_core(2).intervals] == [(1, 2), (2, 4), (4, 5)]
    assert [(i.lo, i.hi) for i in critical_core(3).intervals] == [(1, 2), (2, 6), (4, 8), (8, 9)]
    assert [(i.lo, i.hi) for i in critical_core(4).intervals] == \
        [(1, 2), (2, 10), (4, 14), (8, 16), (16, 17)]
    for n in range(2, 9):
        assert [(i.lo, i.hi) for i in critical_core(n).intervals] == brute_intervals(n)


def test_core_frozen_sizes():
    assert critical_core(2).vertex_count() == 5
    assert critical_core(3).vertex_count() == 19
    assert critical_core(4).vertex_count() == 87
    assert critical_core(8).vertex_count() == 31103


def test_core_membership_matches_oracle():
    for n in (2, 3, 4):
        core = critical_core(n)
        want = brute_core_members(n)
        assert [tuple(v) for v in core.vertex_list()] == want
        g = core.graph()
        for v in g.vertices():
            assert (v in core) == (tuple(v) in set(want))


def test_smallest_core_is_a_five_cycle():
    core = critical_core(2)
    assert [tuple(v) for v in core.vertex_list()] == [(1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
    es = sorted((tuple(u), tuple(v)) for u, v in core.edges())
    assert es == [((1, 2), (2, 3)), ((1, 2), (2, 4)), ((2, 3), (3, 4)),
                  ((2, 4), (4, 5)), ((3, 4), (4, 5))]
    assert all(sum(1 for u, w in es if v in (u, w)) == 2
               for v in [tuple(m) for m in core.vertex_list()])


def test_core_reversal_symmetry():
    # the map (x, y) -> (N+1-y, N+1-x) swaps interval l with interval n-l
    for n in (2, 3, 4, 5):
        core = critical_core(n)
        npts = core.n_points
        members = {tuple(v) for v in core.vertex_list()}
        assert {(npts + 1 - y, npts + 1 - x) for x, y in members} == members


def test_arithmetic_membership_matches_oracle():
    for n in range(2, 8):
        core = critical_core(n)
        want = brute_core_members(n)
        wanted = set(want)
        assert core.vertex_count() == len(want)
        npts = core.n_points
        for x in range(0, npts + 2):
            assert core.reach(x) == max((hi for lo, hi in brute_intervals(n) if lo <= x <= hi),
                                        default=0)
        for x in range(1, npts + 1):
            for y in range(x + 1, npts + 1):
                assert ((x, y) in core) == ((x, y) in wanted)
                if (x, y) in wanted:
                    l = core.least_interval_index((x, y))
                    assert l == min(l for l, (lo, hi) in enumerate(brute_intervals(n))
                                    if lo <= x and y <= hi)
                else:
                    with pytest.raises(InvalidVertexError):
                        core.least_interval_index((x, y))
            for y in (npts + 1, npts + 7):
                assert (x, y) not in core
        for bad in ((0, 1), (3, 3), (5, 2), (1.5, 2), "ab", 7, None, (1, 2, 3)):
            assert bad not in core


def test_core_is_one_cached_value_of_n_and_intervals():
    core = critical_core(4)
    assert critical_core(4) == core
    assert len(core.vertex_list()) == core.vertex_count() == 87
    assert Vertex(2, 7) in core
    assert core.least_interval_index(Vertex(2, 7)) == 1
    assert vars(core) == {"n": 4}


def protocol_views():
    g = build_shift_graph(9)
    yield g
    for n in (2, 3, 4):
        yield critical_core(n)
    yield g.induced([(1, 2), (2, 3), (2, 9), (3, 4), (3, 9), (5, 6)])
    yield critical_core(3).induced([(2, 3), (3, 4), (4, 6), (6, 8)])


def test_every_view_answers_one_protocol():
    for view in protocol_views():
        verts = view.vertex_list()
        assert verts == tuple(view.vertices()) == tuple(sorted(verts))
        assert view.vertex_count() == len(verts)
        ids = list(view.edge_ids())
        assert view.edge_count() == len(ids)
        assert list(view.edges()) == [(verts[i], verts[j]) for i, j in ids]
        members = set(verts)
        for x in range(0, view.n_points + 2):
            for y in range(x + 1, view.n_points + 3):
                assert ((x, y) in view) == ((x, y) in members)
                if (x, y) in members:
                    assert view.require_vertex((x, y)) == (x, y)
                else:
                    with pytest.raises(InvalidVertexError):
                        view.require_vertex((x, y))
        for t, v in enumerate(verts):
            nbrs = {verts[j] for i, j in ids if i == t} | {verts[i] for i, j in ids if j == t}
            assert view.neighbors(v) == nbrs
            assert view.degree(v) == len(nbrs)
        half = verts[::2]
        assert view.induced(half).vertex_list() == half


def test_core_edge_ids_are_those_of_its_induced_copy():
    for n in range(2, 7):
        core = critical_core(n)
        copy = core.graph().induced(core.vertex_list())
        assert core.vertex_list() == copy.vertex_list()
        assert list(core.edge_ids()) == list(copy.edge_ids())
        assert core.edge_count() == copy.edge_count()


def test_induced_refuses_duplicate_vertices():
    with pytest.raises(InvalidVertexError, match="duplicates"):
        build_shift_graph(4).induced([(1, 2), (1, 2)])


def test_every_view_refuses_a_non_vertex_in_one_short_message():
    big = critical_core(6).graph().induced(critical_core(6).vertex_list())
    for view in (*protocol_views(), big):
        with pytest.raises(InvalidVertexError) as info:
            view.require_vertex((1, view.n_points + 1))
        message = str(info.value)
        assert message.startswith(f"(1,{view.n_points + 1}) is not a vertex of ")
        assert len(message) < 80, message


def test_an_induced_view_is_quoted_by_its_parent_and_size():
    # the induced copy of W(8) has 31,103 vertices; its dataclass repr
    # listed them all, 659,182 characters for one refusal
    view = critical_core(8).induced(critical_core(8).vertices())
    assert repr(view) == "CriticalCore(n=8).induced(<31103 vertices>)"
    assert repr(view.induced([(1, 2)])) == \
        "CriticalCore(n=8).induced(<31103 vertices>).induced(<1 vertices>)"
    with pytest.raises(InvalidVertexError) as info:
        view.require_vertex((1, 257))
    assert str(info.value) == "(1,257) is not a vertex of CriticalCore(n=8).induced(<31103 vertices>)"


def test_least_interval_index():
    core = critical_core(3)
    assert core.least_interval_index(Vertex(2, 3)) == 1
    assert core.least_interval_index(Vertex(4, 6)) == 1
    assert core.least_interval_index(Vertex(6, 8)) == 2
    assert core.least_interval_index(Vertex(8, 9)) == 3
    with pytest.raises(InvalidVertexError):
        core.least_interval_index(Vertex(1, 9))


@given(st.integers(2, 6))
def test_least_interval_is_least(n):
    core = critical_core(n)
    ivs = core.intervals
    for v in core.vertex_list():
        r = core.least_interval_index(v)
        assert ivs[r].lo <= v.x and v.y <= ivs[r].hi
        assert all(not (ivs[l].lo <= v.x and v.y <= ivs[l].hi) for l in range(r))


def test_induced_subgraph_edges():
    g = build_shift_graph(6)
    sub = induced_subgraph(g, [(1, 2), (2, 3), (3, 4), (1, 5)])
    assert sorted((tuple(u), tuple(v)) for u, v in sub.edges()) == \
        [((1, 2), (2, 3)), ((2, 3), (3, 4))]
    with pytest.raises(InvalidVertexError):
        induced_subgraph(g, [(1, 7)])


def test_dimacs_format():
    g = build_shift_graph(5)
    lines = to_dimacs(g).splitlines()
    assert lines[0].startswith("c ")
    assert "p edge 10 10" in lines
    es = [line for line in lines if line.startswith("e ")]
    assert len(es) == 10
    assert all(int(a) < int(b) for _, a, b in (line.split() for line in es))
    assert to_dimacs(build_shift_graph(3)).splitlines()[-1] == "e 1 3"


def export_views():
    for n_points in (*range(2, 21), 33, 65):
        yield build_shift_graph(n_points)
    for n in (2, 3, 4):
        yield critical_core(n)
    yield induced_subgraph(build_shift_graph(6), [(1, 2), (1, 3), (4, 5), (4, 6)])
    yield induced_subgraph(build_shift_graph(6), [])


def test_streamed_json_matches_json_dumps():
    for view in export_views():
        want = json.dumps(graph_to_json_dict(view), indent=2, sort_keys=True) + "\n"
        assert "".join(graph_json_chunks(view)) == want


def test_streamed_dimacs_matches_sorted_oracle():
    for view in export_views():
        assert to_dimacs(view) == sorted_dimacs(view)
    chunks = list(dimacs_chunks(build_shift_graph(40)))
    assert len(chunks) > 1 and "".join(chunks) == sorted_dimacs(build_shift_graph(40))


def test_streamed_core_json_matches_json_dumps():
    for n in range(2, 10):
        core = critical_core(n)
        want = json.dumps(core.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert "".join(core_json_chunks(core)) == want


def test_shift_graph_edge_ids_are_the_brute_force_chains():
    for n_points in range(2, 41):
        g = build_shift_graph(n_points)
        assert [tuple(v) for v in g.vertex_list()] == brute_vertices(n_points)
        pos = {tuple(v): t for t, v in enumerate(g.vertex_list())}
        # brute_edges lists (u, w) with u before w, in ascending (u, w) order
        assert list(g.edge_ids()) == [(pos[u], pos[w]) for u, w in brute_edges(n_points)]


@given(st.integers(2, 12), st.data())
def test_edges_ascend_in_vertex_id_order(n_points, data):
    g = build_shift_graph(n_points)
    keep = data.draw(st.lists(st.sampled_from(g.vertex_list()), unique=True))
    for view in (g, induced_subgraph(g, keep)):
        ids = {v: i for i, v in enumerate(view.vertex_list())}
        pairs = [(ids[u], ids[w]) for u, w in view.edges()]
        assert all(i < j for i, j in pairs)
        assert pairs == sorted(set(pairs))
        assert len(pairs) == view.edge_count()
        assert list(view.edge_ids()) == pairs


class OrderedFake:
    """A view whose edge_ids() lists its edges in the given order."""

    n_points = 4

    def __init__(self, edges, edge_count=None):
        self._edges = edges
        self._count = len(edges) if edge_count is None else edge_count

    def vertex_list(self):
        return (Vertex(1, 2), Vertex(2, 3), Vertex(2, 4), Vertex(3, 4))

    def vertices(self):
        return iter(self.vertex_list())

    def vertex_count(self):
        return 4

    def edge_ids(self):
        pos = {v: t for t, v in enumerate(self.vertex_list())}
        return ((pos[u], pos[w]) for u, w in self._edges)

    def edge_count(self):
        return self._count


def test_streaming_rejects_out_of_order_or_miscounted_edges():
    a, b, c, d = OrderedFake((), 0).vertex_list()
    good = [(a, b), (a, c), (b, d)]
    for export in (to_dimacs, lambda v: "".join(graph_json_chunks(v))):
        export(OrderedFake(good))
        for bad in ([(a, c), (a, b), (b, d)],   # descending second id
                    [(b, d), (a, b)],           # descending first id
                    [(b, a), (b, d)],           # pair written backwards
                    [(a, b), (a, b)]):          # repeated edge
            with pytest.raises(ValueError):
                export(OrderedFake(bad))
        with pytest.raises(ValueError):
            export(OrderedFake(good, edge_count=2))


def test_bad_parameters():
    critical_core(2)
    critical_core(n=2)
    for bad in (1, 0, -3, 2.5, 2.0, True, "4", [2]):
        with pytest.raises(InvalidParameterError):
            build_shift_graph(bad)
        with pytest.raises(InvalidParameterError):
            critical_core(bad)
        with pytest.raises(InvalidParameterError):
            critical_core(n=bad)
