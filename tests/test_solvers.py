import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcrit import solvers
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

from oracles import brute_chromatic, brute_k_colorable

TIGHT = SearchBudget(max_nodes=2_000_000, max_seconds=60.0)


def capped_memo_run(cap, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_MEMO_CAP", cap)
        return k_colorable_via_sequences(*args, **kwargs)


def pairs_of(view):
    return [(v.x, v.y) for v in view.vertex_list()]


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
    r = k_colorable_via_sequences(5, 2, build_shift_graph(5), unlimited)
    assert r.decision == "no"


def test_sequence_engine_worked_examples():
    r = k_colorable_via_sequences(4, 2, build_shift_graph(4), TIGHT)
    assert r.decision == "yes"
    assert r.certificate_sequence == SubsetSequence((0b11, 0b10, 0b01, 0), 2)
    assert r.certificate_coloring is not None

    r = k_colorable_via_sequences(5, 2, build_shift_graph(5), TIGHT)
    assert r.decision == "no"
    assert r.refutation_record()["conclusive"] is True

    r = k_colorable_via_sequences(5, 2, critical_core(2), TIGHT)
    assert r.decision == "no"


def test_solvers_take_any_view_and_reject_what_is_not_one():
    core = critical_core(2)
    for view in (core, core.induced(core.vertex_list()[1:])):
        assert greedy_coloring(view) is not None
    for bad in ([(1, 2), (2, 3)], None, 9):
        for solve in (chromatic_number, greedy_coloring, lambda x: k_colorable_bb(x, 2)):
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
    r = k_colorable_via_sequences(5, 2, build_shift_graph(5), TIGHT)
    assert r.nodes > 0 and r.engine == "sequence"
    assert set(r.refutation_record()) == {"k", "nodes", "prunes", "conclusive"}
    r = k_colorable_bb(build_shift_graph(5), 2, TIGHT)
    assert r.nodes > 0 and r.engine == "bb"
    with pytest.raises(InvalidParameterError):
        k_colorable_via_sequences(5, 3, build_shift_graph(5), TIGHT).refutation_record()


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
    r = k_colorable_via_sequences(9, 3, build_shift_graph(9), starved)
    assert r.decision == "inconclusive" and not r.conclusive
    r = k_colorable_bb(build_shift_graph(9), 3, starved)
    assert r.decision == "inconclusive"
    res = chromatic_number(build_shift_graph(9), starved)
    assert not res.conclusive and res.chi is None


def test_sequence_engine_agrees_with_bb_on_cores_and_full_graphs():
    for X, npts, k, want in ((critical_core(2), 5, 2, "no"), (critical_core(3), 9, 3, "no"),
                             (build_shift_graph(5), 5, 2, "no"),
                             (build_shift_graph(5), 5, 3, "yes")):
        seq = k_colorable_via_sequences(npts, k, X, TIGHT)
        bb = k_colorable_bb(X, k, TIGHT)
        assert seq.decision == bb.decision == want, (npts, k)


def test_memo_refutes_w4_within_100k_nodes():
    core4 = critical_core(4)
    r = k_colorable_via_sequences(core4.n_points, 4, core4,
                                  SearchBudget(max_nodes=100_000, max_seconds=60))
    assert r.decision == "no"
    assert r.refutation_record()["conclusive"] is True
    assert (r.nodes, r.memo_entries) == (69_648, 4_353)


def test_search_deeper_than_the_recursion_limit_leaves_it_alone(monkeypatch):
    depth = 1200
    assert depth > sys.getrecursionlimit()
    limit = sys.getrecursionlimit()

    def refuse(_):
        raise AssertionError("the engine must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    path = [(i, i + 1) for i in range(1, depth)]
    r = k_colorable_via_sequences(depth, 2, path, TIGHT)
    assert r.decision == "yes"
    assert is_good(r.certificate_sequence, path)
    assert sys.getrecursionlimit() == limit


def test_memo_refutes_shift_graph_17_at_k4():
    assert k_colorable_via_sequences(17, 4, build_shift_graph(17), TIGHT).decision == "no"


def test_w4_is_5_colorable_with_good_certificate():
    core4 = critical_core(4)
    r = k_colorable_via_sequences(core4.n_points, 5, core4, TIGHT)
    assert r.decision == "yes"
    assert is_good(r.certificate_sequence, core4)


@pytest.mark.parametrize("k", (13, 62))
@pytest.mark.parametrize("X", (build_shift_graph(9), critical_core(3)),
                         ids=("shift graph 9", "W(3)"))
def test_k_past_log2_n_searches_fewer_colors_and_certifies_k(X, k):
    # on [1, 9] four colors decide every k >= 4; the certificate still says k
    r = k_colorable_via_sequences(9, k, X, TIGHT)
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
        r = k_colorable_via_sequences(3, 18, build_shift_graph(3), TIGHT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.decision == "yes"
    assert peak < 1 << 20


def test_views_needing_more_than_12_colors_are_rejected():
    with pytest.raises(InvalidParameterError):
        k_colorable_via_sequences(8193, 13, [(1, 8193)], TIGHT)
    r = k_colorable_via_sequences(8193, 12, [(1, 8193)], TIGHT)
    assert r.decision == "yes"
    assert is_good(r.certificate_sequence, [(1, 8193)])


@pytest.mark.parametrize("pairs", ([(1, 6)], [(1, 10), (2, 3)]), ids=("last pair", "earlier pair"))
def test_pairs_past_the_ground_are_rejected(pairs):
    with pytest.raises(InvalidVertexError):
        k_colorable_via_sequences(5, 3, pairs, TIGHT)


def test_memo_keeps_yes_certificate_and_cuts_nodes():
    core4 = critical_core(4)
    g = core4.graph()
    sub = g.induced([v for v in core4.vertex_list() if v != Vertex(2, 7)])
    with_memo = k_colorable_via_sequences(17, 4, sub, TIGHT)
    without = capped_memo_run(0, 17, 4, sub, TIGHT)
    assert with_memo.decision == without.decision == "yes"
    assert with_memo.certificate_sequence == without.certificate_sequence
    assert with_memo.certificate_coloring == without.certificate_coloring
    assert with_memo.nodes * 10 < without.nodes


def test_memo_at_cap_keeps_refuting():
    # W(4) needs 4,353 entries; at a 3 k cap inserts stop, lookups go on
    core4 = critical_core(4)
    budget = SearchBudget(max_nodes=2_000_000, max_seconds=60)
    full = k_colorable_via_sequences(17, 4, core4, budget)
    capped = capped_memo_run(3000, 17, 4, core4, budget)
    assert full.decision == capped.decision == "no"
    assert full.nodes < capped.nodes
    assert capped.memo_entries == 3000


def test_sequence_engine_colors_every_core_deletion():
    for n in (3, 4):
        core = critical_core(n)
        g = core.graph()
        for v in core.vertex_list():
            sub = g.induced([w for w in core.vertex_list() if w != v])
            r = k_colorable_via_sequences(core.n_points, n, sub, TIGHT)
            assert r.decision == "yes", v
            assert is_good(r.certificate_sequence, sub)


def test_greedy_coloring_is_proper():
    for n_points in (5, 9, 17):
        g = build_shift_graph(n_points)
        col = greedy_coloring(g, TIGHT)
        assert proper_coloring_violation(col, g) is None


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
    r_seq = k_colorable_via_sequences(g.n_points, k, sub, TIGHT)
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
        got_verts, adj = solvers._adjacency(view)
        assert got_verts == view.vertex_list()
        pos = {v: t for t, v in enumerate(got_verts)}
        for t, v in enumerate(got_verts):
            assert sorted(adj[t]) == sorted(pos[w] for w in view.neighbors(v))


@given(dense_instances(), st.integers(2, 4))
@settings(max_examples=80)
def test_memo_is_invisible_except_in_counts(case, k):
    g, verts = case
    sub = induced_subgraph(g, verts)
    with_memo = k_colorable_via_sequences(g.n_points, k, sub, TIGHT)
    without = capped_memo_run(0, g.n_points, k, sub, TIGHT)
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
    first = k_colorable_via_sequences(g.n_points, k, sub, TIGHT).decision
    second = k_colorable_via_sequences(g.n_points, k + 1, sub, TIGHT).decision
    assert not (first == "yes" and second == "no")


def test_chromatic_result_json():
    res = chromatic_number(build_shift_graph(5), TIGHT)
    d = res.to_json_dict()
    assert d["chi"] == 3 and d["conclusive"] is True
    assert d["coloring"]["k"] == 3
    assert d["refutation"]["k"] == 2
    assert all(q["decision"] != "inconclusive" for q in d["queries"])
    assert {q["engine"] for q in d["queries"]} == {"sequence", "bb"}
