import math
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcrit import dsatur, seqsearch
from shiftcrit.cli import main
from shiftcrit import (
    ConstructionError,
    InvalidParameterError,
    InvalidVertexError,
    SearchBudget,
    SubsetSequence,
    Vertex,
    build_shift_graph,
    chromatic_number,
    critical_core,
    greedy_coloring,
    induced_subgraph,
    is_good,
    k_colorable_bb,
    k_colorable_via_sequences,
    proper_coloring_violation,
)

from oracles import brute_chromatic, brute_is_bipartite, brute_k_colorable, greedy_dsatur

TIGHT = SearchBudget(max_nodes=2_000_000, max_seconds=60.0)


def capped_memo_run(cap, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqsearch, "_MEMO_CAP", cap)
        return k_colorable_via_sequences(*args, **kwargs)


def test_budget_validation():
    with pytest.raises(InvalidParameterError):
        SearchBudget(max_nodes=0)
    with pytest.raises(InvalidParameterError):
        SearchBudget(max_seconds=-1)


def test_budget_rejects_nan_and_accepts_inf():
    # a NaN limit would fail every `>` test and so switch the time budget off
    with pytest.raises(InvalidParameterError):
        SearchBudget(max_seconds=math.nan)
    with pytest.raises(InvalidParameterError):
        SearchBudget(max_nodes=math.nan)
    unlimited = SearchBudget(max_seconds=math.inf)
    r = k_colorable_via_sequences(build_shift_graph(5), 2, unlimited)
    assert r.decision == "no"


def test_sequence_engine_worked_examples():
    r = k_colorable_via_sequences(build_shift_graph(4), 2, TIGHT)
    assert r.decision == "yes"
    assert r.certificate_sequence == SubsetSequence((0b11, 0b10, 0b01, 0), 2)
    assert r.certificate_coloring is not None

    r = k_colorable_via_sequences(build_shift_graph(5), 2, TIGHT)
    assert r.decision == "no"
    assert r.refutation_record()["conclusive"] is True

    r = k_colorable_via_sequences(critical_core(2), 2, TIGHT)
    assert r.decision == "no"


def test_solvers_take_any_view_and_reject_what_is_not_one():
    core = critical_core(2)
    for view in (core, core.induced(core.vertex_list()[1:])):
        assert greedy_coloring(view) is not None
    for bad in ([(1, 2), (2, 3)], None, 9):
        for solve in (chromatic_number, greedy_coloring, lambda x: k_colorable_bb(x, 2),
                      lambda x: k_colorable_via_sequences(x, 2)):
            with pytest.raises(InvalidParameterError):
                solve(bad)


def test_bb_engine_worked_examples():
    core = critical_core(2)
    assert k_colorable_bb(core, 3, TIGHT).decision == "yes"
    assert k_colorable_bb(core, 2, TIGHT).decision == "no"
    g9 = build_shift_graph(9)
    assert k_colorable_bb(g9, 3, TIGHT).decision == "no"
    r = k_colorable_bb(g9, 4, TIGHT)
    assert r.decision == "yes"
    assert proper_coloring_violation(r.certificate_coloring, g9) is None


def test_engines_and_results_carry_counters():
    r = k_colorable_via_sequences(build_shift_graph(5), 2, TIGHT)
    assert r.nodes > 0 and r.engine == "sequence"
    assert set(r.refutation_record()) == {"k", "nodes", "prunes", "conclusive"}
    r = k_colorable_bb(build_shift_graph(5), 2, TIGHT)
    assert r.nodes > 0 and r.engine == "bb"
    with pytest.raises(InvalidParameterError):
        k_colorable_via_sequences(build_shift_graph(5), 3, TIGHT).refutation_record()


def test_chromatic_ladder():
    want = {2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3, 9: 4}
    for n_points, chi in want.items():
        res = chromatic_number(build_shift_graph(n_points), TIGHT)
        assert res.conclusive and res.chi == chi, n_points
        assert proper_coloring_violation(res.coloring, build_shift_graph(n_points)) is None
        if chi > 1:
            assert res.refutation["k"] == chi - 1
            assert res.refutation["conclusive"] is True


def test_core_chromatic_numbers():
    assert chromatic_number(critical_core(2), TIGHT).chi == 3
    assert chromatic_number(critical_core(3), TIGHT).chi == 4


def test_deleting_core_vertex_drops_chi():
    core = critical_core(2)
    g = core.graph()
    for v in core.vertex_list():
        sub = g.induced([w for w in g.vertices() if w != v])
        assert chromatic_number(sub, TIGHT).chi == 2
    for v in g.vertices():
        if v in core:
            continue
        sub = g.induced([w for w in g.vertices() if w != v])
        assert chromatic_number(sub, TIGHT).chi == 3


def test_budget_exhaustion_is_inconclusive():
    starved = SearchBudget(max_nodes=3, max_seconds=600)
    r = k_colorable_via_sequences(build_shift_graph(9), 3, starved)
    assert r.decision == "inconclusive" and not r.conclusive
    r = k_colorable_bb(build_shift_graph(9), 3, starved)
    assert r.decision == "inconclusive"
    res = chromatic_number(build_shift_graph(9), starved)
    assert not res.conclusive and res.chi is None


def test_an_empty_view_is_colored_by_nothing():
    empty = build_shift_graph(4).induced([])
    r = k_colorable_via_sequences(empty, 2)
    assert (r.decision, r.nodes) == ("yes", 0)
    assert r.certificate_sequence.entries == (0, 0, 0, 0)
    assert k_colorable_bb(empty, 2).decision == "yes"
    res = chromatic_number(empty)
    assert res.conclusive and res.chi == 0 and res.queries == []


def test_a_starved_confirmation_is_inconclusive():
    # [1, 4] is bipartite, so the greedy bound 2 is also the lower bound and
    # the binary search asks nothing; the confirming query at k = 2 runs out
    res = chromatic_number(build_shift_graph(4), SearchBudget(max_nodes=1))
    assert res.chi is None and not res.conclusive
    assert [(q["k"], q["engine"], q["decision"]) for q in res.queries] == [
        (2, "sequence", "inconclusive"), (2, "bb", "inconclusive")]


def test_time_budget_holds_when_each_node_is_slow():
    # a DSATUR node scans all 4,950 vertices of the shift graph on [1, 100], so
    # 2,048 nodes take over a second: the clock must be read on every node
    start = time.monotonic()
    res = chromatic_number(build_shift_graph(100), SearchBudget(max_seconds=0.2))
    assert not res.conclusive
    assert time.monotonic() - start < 0.6


G250 = build_shift_graph(250)


@pytest.mark.parametrize("run", (
    lambda budget: chromatic_number(G250, budget).conclusive,
    lambda budget: k_colorable_bb(G250, 3, budget).conclusive,
    lambda budget: greedy_coloring(G250, budget) is not None,
), ids=("chromatic_number", "k_colorable_bb", "greedy_coloring"))
def test_time_budget_covers_the_adjacency_build(run):
    # the shift graph on [1, 250] has 2,573,000 edges, and building all their
    # adjacency rows takes over a second: the build must read the clock too
    start = time.monotonic()
    assert not run(SearchBudget(max_seconds=0.1))
    assert time.monotonic() - start < 0.5


def test_the_edge_cap_refuses_400_before_building_a_row():
    # [1, 400]'s adjacency rows took 877 MB; [1, 250] must still reach the
    # clock in the test above
    g400 = build_shift_graph(400)
    assert g400.edge_count() == 10_586_800 > dsatur._MAX_EDGES >= G250.edge_count() == 2_573_000
    tracemalloc.start()
    try:
        r = k_colorable_bb(g400, 3)
        assert greedy_coloring(g400) is None
        assert not chromatic_number(g400).conclusive
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.decision, r.nodes, r.prunes) == ("inconclusive", 0, 0)
    assert peak < 2 ** 20


@pytest.mark.parametrize("view, argv", ((build_shift_graph(6), ["chi", "6"]),
                                        (critical_core(3), ["chi", "--core", "3"])),
                         ids=("shift graph 6", "W(3)"))
def test_the_edge_cap_admits_its_own_count_and_refuses_one_more(monkeypatch, capsys, view, argv):
    edges = view.edge_count()
    want = k_colorable_bb(view, 3, TIGHT)  # "yes" on [1, 6], "no" on W(3)
    monkeypatch.setattr(dsatur, "_MAX_EDGES", edges)
    at_cap = k_colorable_bb(view, 3, TIGHT)
    assert (at_cap.decision, at_cap.nodes, at_cap.prunes) == (want.decision, want.nodes, want.prunes)
    monkeypatch.setattr(dsatur, "_MAX_EDGES", edges - 1)
    over = k_colorable_bb(view, 3, TIGHT)
    assert (over.decision, over.nodes, over.prunes) == ("inconclusive", 0, 0)
    assert greedy_coloring(view) is None
    assert main(argv) == 3
    assert capsys.readouterr().out == "chi inconclusive within budget\n"


def test_sequence_engine_agrees_with_bb_on_cores_and_full_graphs():
    for X, k, want in ((critical_core(2), 2, "no"), (critical_core(3), 3, "no"),
                       (build_shift_graph(5), 2, "no"), (build_shift_graph(5), 3, "yes")):
        seq = k_colorable_via_sequences(X, k, TIGHT)
        bb = k_colorable_bb(X, k, TIGHT)
        assert seq.decision == bb.decision == want, (X, k)


def core_minus(n, pair):
    core = critical_core(n)
    return core.induced([v for v in core.vertex_list() if (v.x, v.y) != pair])


# the sequence engine's (decision, nodes, prunes, memo entries, certificate entries):
# its search order and memo keys fix every count, so a change to how it keeps its
# state must leave them all as they are
ENGINE_COUNTS = [
    ("W(2)", lambda: critical_core(2), 2, None, ("no", 24, 19, 6, None)),
    ("W(2)", lambda: critical_core(2), 3, None, ("yes", 12, 7, 0, (7, 6, 5, 3, 6))),
    ("W(3)", lambda: critical_core(3), 3, None, ("no", 552, 484, 69, None)),
    ("W(3)", lambda: critical_core(3), 4, None,
     ("yes", 38, 29, 0, (15, 14, 13, 11, 7, 12, 10, 9, 14))),
    ("W(4)", lambda: critical_core(4), 4, None, ("no", 69_648, 65_296, 4_353, None)),
    ("W(4)", lambda: critical_core(4), 5, None,
     ("yes", 129, 112, 0, (31, 30, 29, 27, 23, 15, 28, 26, 25, 22, 21, 19, 14, 13, 28, 11, 30))),
    ("W(4) - (2,7)", lambda: core_minus(4, (2, 7)), 4, None,
     ("yes", 10_732, 10_052, 663, (15, 14, 13, 11, 7, 9, 14, 12, 10, 6, 5, 3, 8, 4, 2, 1, 14))),
    ("shift graph 17", lambda: build_shift_graph(17), 4, None, ("no", 15_952, 14_956, 997, None)),
    ("W(5)", lambda: critical_core(5), 5, 300_000,
     ("inconclusive", 300_001, 290_613, 9_370, None)),
]


@pytest.mark.parametrize("make, k, max_nodes, expected", [c[1:] for c in ENGINE_COUNTS],
                         ids=[f"{c[0]} k={c[2]}" for c in ENGINE_COUNTS])
def test_sequence_engine_counts_are_pinned(make, k, max_nodes, expected):
    view = make()
    budget = SearchBudget(max_nodes=max_nodes or 2_000_000, max_seconds=600)
    r = k_colorable_via_sequences(view, k, budget)
    seq = r.certificate_sequence
    assert (r.decision, r.nodes, r.prunes, r.memo_entries, seq and seq.entries) == expected
    if seq is not None:
        assert seq.n == k and is_good(seq, view)


def test_search_deeper_than_the_recursion_limit_leaves_it_alone(monkeypatch):
    depth = 1200
    assert depth > sys.getrecursionlimit()
    limit = sys.getrecursionlimit()

    def refuse(_):
        raise AssertionError("the engine must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    path = build_shift_graph(depth).induced((i, i + 1) for i in range(1, depth))
    r = k_colorable_via_sequences(path, 2, TIGHT)
    assert r.decision == "yes"
    assert is_good(r.certificate_sequence, path)
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("k", (13, 62))
@pytest.mark.parametrize("X", (build_shift_graph(9), critical_core(3)),
                         ids=("shift graph 9", "W(3)"))
def test_k_past_log2_n_searches_fewer_colors_and_certifies_k(X, k):
    # on [1, 9] four colors decide every k >= 4; the certificate still says k
    r = k_colorable_via_sequences(X, k, TIGHT)
    assert r.decision == "yes"
    assert is_good(r.certificate_sequence, X)
    assert proper_coloring_violation(r.certificate_coloring, X) is None
    assert r.certificate_sequence.n == k
    assert r.certificate_coloring.k == k
    if k == 13:
        assert k_colorable_bb(X, k, TIGHT).decision == "yes"


def test_many_colors_on_a_small_view_allocate_no_mask_table():
    tracemalloc.start()
    try:
        r = k_colorable_via_sequences(build_shift_graph(3), 18, TIGHT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.decision == "yes"
    assert peak < 1 << 20


def test_views_needing_more_than_12_colors_are_rejected():
    one_pair = build_shift_graph(8193).induced([(1, 8193)])
    with pytest.raises(InvalidParameterError):
        k_colorable_via_sequences(one_pair, 13, TIGHT)
    r = k_colorable_via_sequences(one_pair, 12, TIGHT)
    assert r.decision == "yes"
    assert is_good(r.certificate_sequence, one_pair)


@pytest.mark.parametrize("pairs", ([(1, 6)], [(1, 10), (2, 3)]), ids=("last pair", "earlier pair"))
def test_pairs_past_the_ground_are_rejected(pairs):
    # the view refuses them, so no engine sees them
    with pytest.raises(InvalidVertexError):
        build_shift_graph(5).induced(pairs)


def test_memo_keeps_yes_certificate_and_cuts_nodes():
    core4 = critical_core(4)
    g = core4.graph()
    sub = g.induced([v for v in core4.vertex_list() if v != Vertex(2, 7)])
    with_memo = k_colorable_via_sequences(sub, 4, TIGHT)
    without = capped_memo_run(0, sub, 4, TIGHT)
    assert with_memo.decision == without.decision == "yes"
    assert with_memo.certificate_sequence == without.certificate_sequence
    assert with_memo.certificate_coloring == without.certificate_coloring
    assert with_memo.nodes * 10 < without.nodes


def test_memo_at_cap_keeps_refuting():
    # W(4) needs 4,353 entries; at a 3 k cap inserts stop, lookups go on
    core4 = critical_core(4)
    budget = SearchBudget(max_nodes=2_000_000, max_seconds=60)
    full = k_colorable_via_sequences(core4, 4, budget)
    capped = capped_memo_run(3000, core4, 4, budget)
    assert full.decision == capped.decision == "no"
    assert full.nodes < capped.nodes
    assert capped.memo_entries == 3000


def test_sequence_engine_colors_every_core_deletion():
    for n in (3, 4):
        core = critical_core(n)
        g = core.graph()
        for v in core.vertex_list():
            sub = g.induced([w for w in core.vertex_list() if w != v])
            r = k_colorable_via_sequences(sub, n, TIGHT)
            assert r.decision == "yes", v
            assert is_good(r.certificate_sequence, sub)


def test_greedy_coloring_is_proper():
    for n_points in (5, 9, 17):
        g = build_shift_graph(n_points)
        col = greedy_coloring(g, TIGHT)
        assert proper_coloring_violation(col, g) is None


def assert_greedy_is_the_reference(view):
    col = greedy_coloring(view)
    want = greedy_dsatur(view.vertex_list(), list(view.edges()))
    assert col.colors == want
    assert col.k == max(want.values(), default=0)


def test_greedy_matches_the_reference_on_full_graphs_and_cores():
    core3 = critical_core(3)
    views = [build_shift_graph(n) for n in range(2, 25)]
    views += [critical_core(n) for n in (2, 3, 4)]
    views += [core3.induced([w for w in core3.vertex_list() if w != v])
              for v in core3.vertex_list()]
    for view in views:
        assert_greedy_is_the_reference(view)


G12 = build_shift_graph(12)


@given(st.lists(st.sampled_from(G12.vertex_list()), unique=True, max_size=G12.vertex_count()))
@settings(max_examples=100)
def test_greedy_matches_the_reference_on_induced_subgraphs(verts):
    assert_greedy_is_the_reference(G12.induced(verts))


@given(st.lists(st.sampled_from(G12.vertex_list()), unique=True, min_size=1,
                max_size=G12.vertex_count()))
@settings(max_examples=100)
def test_greedy_needs_three_colors_exactly_on_an_odd_cycle(verts):
    # chromatic_number's lower bound min(greedy, 3): DSATUR 2-colors a bipartite graph
    view = G12.induced(verts)
    edges = list(view.edges())
    want = 1 if not edges else 2 if brute_is_bipartite(view.vertex_list(), edges) else 3
    assert min(greedy_coloring(view).k, 3) == want


def test_greedy_ignores_the_node_budget():
    g = build_shift_graph(9)
    col = greedy_coloring(g, SearchBudget(max_nodes=1))
    assert col is not None and proper_coloring_violation(col, g) is None


@st.composite
def small_instances(draw):
    n_points = draw(st.integers(3, 7))
    g = build_shift_graph(n_points)
    verts = draw(st.lists(st.sampled_from(g.vertex_list()),
                          unique=True, min_size=1, max_size=8))
    return g, sorted(verts)


@given(small_instances(), st.integers(1, 4))
@settings(max_examples=150)
def test_engines_agree_with_brute_force(case, k):
    g, verts = case
    sub = induced_subgraph(g, verts)
    edges = [(tuple(u), tuple(v)) for u, v in sub.edges()]
    want = brute_k_colorable([tuple(v) for v in verts], edges, k)
    r_seq = k_colorable_via_sequences(sub, k, TIGHT)
    r_bb = k_colorable_bb(sub, k, TIGHT)
    assert r_seq.decision == ("yes" if want else "no")
    assert r_bb.decision == ("yes" if want else "no")
    if want:
        assert proper_coloring_violation(r_seq.certificate_coloring, sub) is None
        assert proper_coloring_violation(r_bb.certificate_coloring, sub) is None
        assert is_good(r_seq.certificate_sequence, sub)


@st.composite
def dense_instances(draw):
    n_points = draw(st.integers(5, 12))
    g = build_shift_graph(n_points)
    everything = g.vertex_list()
    dropped = set(draw(st.lists(st.sampled_from(everything), unique=True,
                                max_size=2 * len(everything) // 3)))
    return g, [v for v in everything if v not in dropped]


@given(dense_instances())
@settings(max_examples=60)
def test_adjacency_rows_are_the_neighbor_positions(case):
    g, verts = case
    for view in (g, induced_subgraph(g, verts)):
        adj = dsatur._adjacency(view)
        verts = view.vertex_list()
        assert len(adj) == len(verts)
        pos = {v: t for t, v in enumerate(verts)}
        for t, v in enumerate(verts):
            assert sorted(adj[t]) == sorted(pos[w] for w in view.neighbors(v))


@given(dense_instances(), st.integers(2, 4))
@settings(max_examples=80)
def test_memo_is_invisible_except_in_counts(case, k):
    g, verts = case
    sub = induced_subgraph(g, verts)
    with_memo = k_colorable_via_sequences(sub, k, TIGHT)
    without = capped_memo_run(0, sub, k, TIGHT)
    r_bb = k_colorable_bb(sub, k, TIGHT)
    assert with_memo.decision == without.decision == r_bb.decision
    assert with_memo.certificate_sequence == without.certificate_sequence
    assert with_memo.nodes <= without.nodes


@given(small_instances())
@settings(max_examples=60)
def test_chromatic_number_matches_brute_force(case):
    g, verts = case
    sub = induced_subgraph(g, verts)
    edges = [(tuple(u), tuple(v)) for u, v in sub.edges()]
    want = brute_chromatic([tuple(v) for v in verts], edges)
    res = chromatic_number(sub, TIGHT)
    assert res.conclusive and res.chi == want


@given(small_instances(), st.integers(1, 3))
@settings(max_examples=60)
def test_colorability_is_monotone_in_k(case, k):
    g, verts = case
    sub = induced_subgraph(g, verts)
    first = k_colorable_via_sequences(sub, k, TIGHT).decision
    second = k_colorable_via_sequences(sub, k + 1, TIGHT).decision
    assert not (first == "yes" and second == "no")


def test_chromatic_result_json():
    res = chromatic_number(build_shift_graph(5), TIGHT)
    d = res.to_json_dict()
    assert d["chi"] == 3 and d["conclusive"] is True
    assert d["coloring"]["k"] == 3
    assert d["refutation"]["k"] == 2
    assert all(q["decision"] != "inconclusive" for q in d["queries"])
    assert {q["engine"] for q in d["queries"]} == {"sequence", "bb"}
