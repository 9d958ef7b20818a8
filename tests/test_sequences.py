import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftcrit import (
    GoodnessError,
    ImproperColoringError,
    InvalidParameterError,
    InvalidVertexError,
    SequenceLengthError,
    ShiftGraph,
    SubsetSequence,
    Vertex,
    VertexColoring,
    build_shift_graph,
    coloring_from_dict,
    coloring_from_sequence,
    coloring_to_dict,
    construct_deleted_vertex_sequence,
    critical_core,
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
from shiftcrit import fullgraph
from shiftcrit.sequences import (
    _masks_descending,
    format_mask,
    full_graph_goodness_violation,
    full_graph_min_coloring_is_proper,
    mask_elements,
    mask_of,
    smallest_element,
)

from oracles import (
    brute_is_good,
    brute_least_violation,
    brute_min_coloring,
    brute_min_coloring_is_proper,
)


def seq_of(sets, n):
    return SubsetSequence.from_sets(sets, n)


def all_pairs(length):
    return list(combinations(range(1, length + 1), 2))


# --- masks ---------------------------------------------------------------

def test_mask_helpers():
    assert mask_of([1, 3], 3) == 0b101
    assert mask_of([], 3) == 0
    assert mask_elements(0b101) == (1, 3)
    assert smallest_element(0b100) == 3
    assert format_mask(0b110) == "{2,3}"
    assert format_mask(0) == "{}"


@given(st.sets(st.integers(1, 10)))
def test_mask_round_trip(elements):
    m = mask_of(elements, 10)
    assert set(mask_elements(m)) == elements
    assert m.bit_count() == len(elements)


# --- goodness ------------------------------------------------------------

@st.composite
def random_sequences(draw, max_n=4, max_len=10):
    n = draw(st.integers(1, max_n))
    length = draw(st.integers(1, max_len))
    entries = draw(st.lists(st.integers(0, (1 << n) - 1),
                            min_size=length, max_size=length))
    return SubsetSequence(tuple(entries), n)


@given(random_sequences())
def test_goodness_matches_oracle_on_all_pairs(seq):
    sets = [set(seq.elements_at(i)) for i in range(1, len(seq.entries) + 1)]
    pairs = all_pairs(len(seq.entries))
    g = build_shift_graph(len(seq.entries)) if len(seq.entries) >= 2 else pairs
    want = brute_is_good(sets, pairs)
    assert is_good(seq, pairs) == want
    assert (goodness_violation(seq, pairs) is None) == want
    assert (full_graph_goodness_violation(seq, len(seq.entries)) is None) == want
    if len(seq.entries) >= 2:
        assert is_good(seq, g) == want


@given(random_sequences(), st.data())
def test_goodness_matches_oracle_on_sparse_pairs(seq, data):
    length = len(seq.entries)
    pairs = data.draw(st.lists(st.sampled_from(all_pairs(length + 1)),
                               unique=True, max_size=12))
    pairs = [p for p in pairs if p[1] <= length]
    sets = [set(seq.elements_at(i)) for i in range(1, length + 1)]
    assert is_good(seq, pairs) == brute_is_good(sets, pairs)


def test_goodness_violation_is_least_pair():
    seq = seq_of([{1}, {1, 2}, {1}, {1}], 2)
    # (1,2), (1,3), (1,4), (3,4) all violate; (1,2) is lexicographically first
    assert goodness_violation(seq, all_pairs(4)) == (1, 2)
    assert full_graph_goodness_violation(seq, 4) == (1, 2)


def test_skip_pair_is_exempt():
    seq = seq_of([{1}, {1}], 1)
    assert full_graph_goodness_violation(seq, 2) == (1, 2)
    assert full_graph_goodness_violation(seq, 2, skip_pair=(1, 2)) is None
    assert not full_graph_min_coloring_is_proper(seq, 2)
    assert full_graph_min_coloring_is_proper(seq, 2, skip_pair=(1, 2))


def test_constraint_length_guard():
    seq = seq_of([{1}, {2}], 2)
    with pytest.raises(SequenceLengthError):
        is_good(seq, [(1, 3)])
    # pairs sort by (i, j), so the largest j need not sit in the last pair
    seq = seq_of([{1}, {2}, {1, 2}, set(), {2}], 2)
    for check in (is_good, goodness_violation, coloring_from_sequence):
        with pytest.raises(SequenceLengthError):
            check(seq, [(1, 10), (2, 3)])


# --- bulk kernels over the whole shift graph ------------------------------

def as_sets(entries):
    return [set(mask_elements(e)) for e in entries]


def by_size_descending(masks):
    return sorted(masks, key=lambda b: (-b.bit_count(), b))


@st.composite
def kernel_inputs(draw, max_len=40):
    """A sequence over [1, n] for any supported n, a point count and maybe a skipped pair.

    Random entries, entries sorted by descending size (duplicates violate
    goodness), and distinct entries sorted so (a good sequence).  The
    skipped pair is none, any pair, or the least violating pair.
    """
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 62)))  # half on the mask-table grounds
    length = draw(st.integers(0, max_len))
    masks = st.integers(0, (1 << n) - 1)
    shape = draw(st.sampled_from(("random", "descending", "descending distinct")))
    if shape == "descending distinct":
        entries = by_size_descending(draw(st.lists(masks, unique=True, max_size=min(length, 1 << n))))
    else:
        entries = draw(st.lists(masks, min_size=length, max_size=length))
        if shape == "descending":
            entries = by_size_descending(entries)
    seq = SubsetSequence(tuple(entries), n)
    n_points = draw(st.integers(0, len(entries)))
    skip = None
    kind = draw(st.sampled_from(("none", "any pair", "least violation")))
    if kind == "least violation":  # the one skip that changes the answer
        skip = brute_least_violation(as_sets(entries), all_pairs(n_points))
    elif kind == "any pair" and n_points >= 2:
        j = draw(st.integers(2, n_points))
        skip = (draw(st.integers(1, j - 1)), j)
    return seq, n_points, skip


# three sequences that fail goodness, each as it is and with its least
# violation skipped (then only the second sequence is good), and one
# skipped pair that is no violation
EDGE_CASES = [(seq_of([{1}, {1}, {1}], 1), 3, None), (seq_of([{1}, {1}, {1}], 1), 3, (1, 2)),
              (seq_of([{1}, {1}, set()], 1), 3, None), (seq_of([{1}, {1}, set()], 1), 3, (1, 2)),
              (seq_of([{1}, set(), {1}], 1), 3, None), (seq_of([{1}, set(), {1}], 1), 3, (1, 3)),
              (seq_of([{1}, set(), {1}], 1), 3, (1, 2))]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


@with_edge_cases
@given(kernel_inputs())
def test_full_graph_goodness_matches_the_brute_least_pair(inp):
    seq, n_points, skip = inp
    want = brute_least_violation(as_sets(seq.entries), all_pairs(n_points), skip)
    # grounds up to _TABLE_MAX_GROUND use the mask tables; check the other path on them too
    for cap in (fullgraph._TABLE_MAX_GROUND, -1):
        with mock.patch.object(fullgraph, "_TABLE_MAX_GROUND", cap):
            assert full_graph_goodness_violation(seq, n_points, skip_pair=skip) == want


@with_edge_cases
@given(kernel_inputs())
def test_min_coloring_is_proper_and_colors_every_pair_iff_good(inp):
    seq, n_points, skip = inp
    sets = as_sets(seq.entries)
    # the lemma: the min-element coloring is always proper ...
    assert brute_min_coloring_is_proper(sets, n_points, skip)
    colors = {Vertex(i, j): c for (i, j), c in brute_min_coloring(sets, n_points, skip).items()}
    assert proper_coloring_violation(VertexColoring(colors, seq.n), colors) is None
    # ... and colors every pair but the skipped one exactly when the sequence is good
    want = brute_least_violation(sets, all_pairs(n_points), skip) is None
    # grounds up to _TABLE_MAX_GROUND use the mask tables; check the other path on them too
    for cap in (fullgraph._TABLE_MAX_GROUND, -1):
        with mock.patch.object(fullgraph, "_TABLE_MAX_GROUND", cap):
            assert full_graph_min_coloring_is_proper(seq, n_points, skip_pair=skip) == want


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(92, 110), st.booleans(), st.integers(0, 2 ** 32))
def test_goodness_violation_on_a_long_pair_list(n, length, descending, seed):
    rnd = random.Random(seed)
    entries = [rnd.randrange(1 << n) for _ in range(length)]
    seq = SubsetSequence(tuple(by_size_descending(entries) if descending else entries), n)
    sets = as_sets(seq.entries)
    every = all_pairs(length)
    for pairs in (every, rnd.sample(every, 4096)):
        assert len(pairs) >= 4096
        assert goodness_violation(seq, pairs) == brute_least_violation(sets, pairs)


@pytest.mark.parametrize("kernel", (full_graph_goodness_violation, full_graph_min_coloring_is_proper))
@pytest.mark.parametrize("skip", ((1, 6), (0, 2), (3, 2), (2, 2), (-2, 1), (1,), (1, 2, 3),
                                  (1.0, 2), (True, 2), "12", 3), ids=repr)
def test_skip_pair_must_be_a_pair_of_the_graph(kernel, skip):
    seq = seq_of([{1}] * 5, 1)  # every pair violates goodness
    with pytest.raises(InvalidParameterError, match="skip_pair"):
        kernel(seq, 5, skip_pair=skip)


def test_skip_pair_may_be_any_two_int_sequence():
    seq = seq_of([{1}] * 5, 1)
    assert full_graph_goodness_violation(seq, 5, skip_pair=(1, 2)) == (1, 3)
    assert full_graph_goodness_violation(seq, 5, skip_pair=[1, 2]) == (1, 3)
    assert full_graph_goodness_violation(seq, 5, skip_pair=Vertex(1, 2)) == (1, 3)


def goodness_against_shift_graph(seq, n_points):
    return goodness_violation(seq, ShiftGraph(n_points))


@pytest.mark.parametrize("kernel", (full_graph_goodness_violation, full_graph_min_coloring_is_proper,
                                    goodness_against_shift_graph))
def test_bulk_kernels_check_the_point_count(kernel):
    seq = seq_of([{1}, set()], 1)
    with pytest.raises(SequenceLengthError):
        kernel(seq, 3)
    for bad in (-1, 1.5, True):
        with pytest.raises(InvalidParameterError):
            kernel(seq, bad)


# --- coloring <-> sequence -----------------------------------------------

def test_coloring_extraction_small():
    g = build_shift_graph(4)
    seq = seq_of([{1, 2}, {2}, {1}, set()], 2)
    col = coloring_from_sequence(seq, g)
    # color of (i, j) is the least element of entry i not in entry j
    assert col.color_of(Vertex(1, 2)) == 1
    assert col.color_of(Vertex(1, 4)) == 1
    assert col.color_of(Vertex(2, 3)) == 2
    assert col.color_of(Vertex(3, 4)) == 1
    assert proper_coloring_violation(col, g) is None


def test_extraction_rejects_bad_sequence():
    g = build_shift_graph(3)
    with pytest.raises(GoodnessError) as exc:
        coloring_from_sequence(seq_of([{1}, {1, 2}, {2}], 2), g)
    assert exc.value.pair == (1, 2)


def test_sequence_from_improper_coloring_names_the_edge():
    g = build_shift_graph(3)
    col = VertexColoring({Vertex(1, 2): 1, Vertex(2, 3): 1, Vertex(1, 3): 2}, 2)
    with pytest.raises(ImproperColoringError):
        sequence_from_coloring(col, g, 3)


def test_uncolored_vertex_is_an_error():
    g = build_shift_graph(3)
    col = VertexColoring({Vertex(1, 2): 1}, 1)
    with pytest.raises(InvalidVertexError):
        proper_coloring_violation(col, g)


@st.composite
def good_full_sequences(draw, max_points=9):
    # random greedy coloring, opening a fresh color whenever needed, so a
    # proper coloring always comes out and goodness holds by construction
    n_points = draw(st.integers(2, max_points))
    g = build_shift_graph(n_points)
    order = draw(st.permutations(g.vertex_list()))
    greedy = {}
    used = 0
    for v in order:
        taken = {greedy[u] for u in g.neighbors(v) if u in greedy}
        choices = [c for c in range(1, used + 2) if c not in taken]
        greedy[v] = draw(st.sampled_from(choices))
        used = max(used, greedy[v])
    return VertexColoring(greedy, used), g, n_points


@given(good_full_sequences())
def test_round_trip_coloring_to_sequence_and_back(case):
    col, g, n_points = case
    seq = sequence_from_coloring(col, g, n_points)
    assert is_good(seq, g)
    back = coloring_from_sequence(seq, g)
    assert proper_coloring_violation(back, g) is None
    # the round trip need not reproduce seq, but it must stay good
    again = sequence_from_coloring(back, g, n_points)
    assert is_good(again, g)
    assert proper_coloring_violation(coloring_from_sequence(again, g), g) is None


@given(random_sequences(max_n=3, max_len=8))
def test_round_trip_sequence_to_coloring_and_back(seq):
    length = len(seq.entries)
    if length < 2:
        return
    g = build_shift_graph(length)
    if not is_good(seq, g):
        return
    col = coloring_from_sequence(seq, g)
    again = sequence_from_coloring(col, g, length)
    assert is_good(again, g)


def test_worked_round_trip_is_exact():
    # this particular 2-coloring does reproduce its own sequence
    g = build_shift_graph(4)
    seq = seq_of([{1, 2}, {1}, {2}, set()], 2)
    col = coloring_from_sequence(seq, g)
    assert sequence_from_coloring(col, g, 4) == seq


# --- saturation ----------------------------------------------------------

def test_saturation_worked_example():
    seq = seq_of([{1, 2}, {2}, {1}], 2)
    trace = saturation_trace(seq, all_pairs(3))
    assert len(trace) == 3  # two rewrite steps
    assert trace[-1] == seq_of([{1}, {2}, set()], 2)
    assert all(is_good(s, all_pairs(3)) for s in trace)
    assert is_saturated(trace[-1])
    assert not is_saturated(seq)


def test_saturation_fixed_point():
    seq = seq_of([{1}, {2}, set()], 2)
    assert saturate(seq, all_pairs(3)) == seq


@st.composite
def x_good_instances(draw, max_n=4, max_len=10):
    seq = draw(random_sequences(max_n=max_n, max_len=max_len))
    length = len(seq.entries)
    legal = [(i, j) for i, j in all_pairs(length)
             if not (seq.at(i) & ~seq.at(j)) == 0]
    pairs = draw(st.lists(st.sampled_from(legal), unique=True)) if legal else []
    return seq, sorted(pairs)


@given(x_good_instances())
def test_saturation_preserves_goodness_and_terminates(case):
    seq, pairs = case
    assert is_good(seq, pairs)
    trace = saturation_trace(seq, pairs)
    n, length = seq.n, len(seq.entries)
    assert len(trace) - 1 <= n * length
    assert trace[0] == seq
    for s in trace:
        assert is_good(s, pairs)
    final = trace[-1]
    assert is_saturated(final)
    assert saturate(final, pairs) == final


@given(x_good_instances(max_n=3, max_len=8))
def test_saturated_means_no_missing_submask(case):
    seq, pairs = case
    final = saturate(seq, pairs)
    # every proper subset of every entry recurs later in the sequence
    for i, m in enumerate(final.entries, start=1):
        suffix = set(final.entries[i:])
        for sub in range(m):
            if sub & m == sub and sub != m:
                assert sub in suffix, (i, sub)


def test_saturated_full_sequence_size_positions():
    # an entry of size c cannot sit later than position L - 2^c + 1
    for n_points in (4, 6, 8):
        g = build_shift_graph(n_points)
        seq = descending_full_sequence((n_points - 1).bit_length(), n_points)
        final = saturate(seq, g)
        for i, m in enumerate(final.entries, start=1):
            assert i <= n_points - (1 << m.bit_count()) + 1


# --- deleted-vertex construction -----------------------------------------

def test_construct_worked_examples():
    assert construct_deleted_vertex_sequence(2, Vertex(2, 3)) == \
        seq_of([{1, 2}, {1}, {1}, {2}, set()], 2)
    assert construct_deleted_vertex_sequence(2, Vertex(4, 5)) == \
        seq_of([{1, 2}, {1}, {2}, set(), set()], 2)
    assert construct_deleted_vertex_sequence(2, Vertex(1, 2)) == \
        seq_of([{1, 2}, {1, 2}, {1}, {2}, set()], 2)


@given(st.integers(2, 4), st.data())
def test_construct_is_good_and_properly_colors(n, data):
    core = critical_core(n)
    v = data.draw(st.sampled_from(core.vertex_list()))
    npts = core.n_points
    seq = construct_deleted_vertex_sequence(n, v)
    assert len(seq.entries) == npts
    assert seq.n == n
    assert full_graph_goodness_violation(seq, npts, skip_pair=(v.x, v.y)) is None
    assert full_graph_min_coloring_is_proper(seq, npts, skip_pair=(v.x, v.y))


def test_construct_rejects_non_members():
    with pytest.raises(InvalidVertexError):
        construct_deleted_vertex_sequence(2, Vertex(1, 5))
    with pytest.raises(InvalidVertexError):
        construct_deleted_vertex_sequence(3, Vertex(3, 9))


def test_construct_positions_hold_the_deleted_pair():
    # the base set sits exactly at the two deleted positions
    for n in (2, 3, 4):
        core = critical_core(n)
        for v in core.vertex_list():
            r = core.least_interval_index(v)
            seq = construct_deleted_vertex_sequence(n, v)
            base = (1 << (n - r)) - 1
            assert seq.at(v.x) == base and seq.at(v.y) == base


# --- descending sequences -------------------------------------------------

def test_descending_full_sequence_shape():
    seq = descending_full_sequence(2, 4)
    assert seq == seq_of([{1, 2}, {2}, {1}, set()], 2)
    with pytest.raises(InvalidParameterError):
        descending_full_sequence(2, 5)


@pytest.mark.parametrize("n", range(13))
def test_lazy_descending_masks_match_the_sorted_order(n):
    expected = sorted(range(1 << n), key=lambda b: (-b.bit_count(), -b))
    assert list(_masks_descending(n)) == expected


def test_descending_full_sequence_generates_only_what_it_returns():
    seq = descending_full_sequence(62, 3)
    full = (1 << 62) - 1
    assert seq.entries == (full, full ^ 1, full ^ 2)


@given(st.integers(1, 5), st.data())
def test_descending_full_sequence_is_good(n, data):
    length = data.draw(st.integers(0, 1 << n))
    seq = descending_full_sequence(n, length)
    sizes = [m.bit_count() for m in seq.entries]
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(seq.entries)) == length
    if length >= 2:
        assert full_graph_goodness_violation(seq, length) is None


# --- serialization --------------------------------------------------------

@given(random_sequences())
def test_sequence_json_round_trip(seq):
    assert sequence_from_dict(sequence_to_dict(seq)) == seq


def test_sequence_json_shape():
    d = sequence_to_dict(seq_of([{1, 2}, {1}], 2))
    assert d == {"n": 2, "entries": [[1, 2], [1]]}


@pytest.mark.parametrize("read, doc, match", [
    (sequence_from_dict, {"n": 3, "entries": 5}, "entries"),
    (sequence_from_dict, {"n": 3, "entries": [5]}, "entries"),
    (sequence_from_dict, {"n": 3, "entries": [[1, 2], None]}, "entries"),
    (coloring_from_dict, {"k": 3, "colors": 5}, "colors"),
    (coloring_from_dict, {"k": 3, "colors": [{"x": 1, "y": 2, "c": 1},
                                             {"x": 2, "y": 3, "c": 2},
                                             {"x": 1, "y": 2, "c": 3}]}, r"\(1,2\) twice"),
    # JSON true and false are not numbers
    (sequence_from_dict, {"n": True, "entries": [[1], []]}, "'n'"),
    (sequence_from_dict, {"n": 2, "entries": [[True], []]}, "entries"),
    (coloring_from_dict, {"k": True, "colors": [{"x": True, "y": 2, "c": True}]}, "'k'"),
    (coloring_from_dict, {"k": 2, "colors": [{"x": True, "y": 2, "c": 1}]}, "'x'"),
    (coloring_from_dict, {"k": 2, "colors": [{"x": 1, "y": False, "c": 1}]}, "'y'"),
    (coloring_from_dict, {"k": 2, "colors": [{"x": 1, "y": 2, "c": True}]}, "'c'"),
], ids=["entries-int", "entry-int", "entry-none", "colors-int", "duplicate-row",
        "n-bool", "element-bool", "k-bool", "x-bool", "y-bool", "c-bool"])
def test_readers_reject_malformed_documents(read, doc, match):
    with pytest.raises(InvalidParameterError, match=match):
        read(doc)


def test_coloring_json_round_trip():
    col = VertexColoring({Vertex(1, 2): 1, Vertex(2, 3): 2}, 2)
    d = coloring_to_dict(col)
    assert d["k"] == 2
    assert {"x": 1, "y": 2, "c": 1} in d["colors"]
    assert coloring_from_dict(d).colors == col.colors
