import hashlib
import random
from functools import partial
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
import shiftcrit as sc
from shiftcrit import diagram, fullgraph
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
    brute_saturation_trace,
)


def seq_of(sets, n):
    return SubsetSequence.from_sets(sets, n)


def all_pairs(length):
    return list(combinations(range(1, length + 1), 2))


def pair_view(pairs, n_points):
    """The pairs as a graph view: the subgraph they induce in the shift graph on [1, n_points]."""
    return build_shift_graph(max(n_points, 2)).induced(pairs)


# --- masks ---------------------------------------------------------------

def test_mask_helpers():
    assert mask_of([1, 3], 3) == 0b101
    assert mask_of([], 3) == 0
    assert mask_elements(0b101) == (1, 3)
    assert smallest_element(0b100) == 3
    assert format_mask(0b110) == "{2,3}"
    assert format_mask(0) == "{}"
    assert str(SubsetSequence((3, 0, 4), 3)) == "({1,2},{},{3})"


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
    X = pair_view(pairs, len(seq.entries))
    want = brute_is_good(sets, pairs)
    assert is_good(seq, X) == want
    assert (goodness_violation(seq, X) is None) == want
    assert (full_graph_goodness_violation(seq, len(seq.entries)) is None) == want
    if len(seq.entries) >= 2:
        assert is_good(seq, build_shift_graph(len(seq.entries))) == want


@given(random_sequences(), st.data())
def test_goodness_matches_oracle_on_sparse_pairs(seq, data):
    length = len(seq.entries)
    pairs = data.draw(st.lists(st.sampled_from(all_pairs(length + 1)),
                               unique=True, max_size=12))
    pairs = [p for p in pairs if p[1] <= length]
    sets = [set(seq.elements_at(i)) for i in range(1, length + 1)]
    assert is_good(seq, pair_view(pairs, length)) == brute_is_good(sets, pairs)


def test_goodness_violation_is_least_pair():
    seq = seq_of([{1}, {1, 2}, {1}, {1}], 2)
    # (1,2), (1,3), (1,4), (3,4) all violate; (1,2) is lexicographically first
    assert goodness_violation(seq, pair_view(all_pairs(4), 4)) == (1, 2)
    assert full_graph_goodness_violation(seq, 4) == (1, 2)


def test_skip_pair_is_exempt():
    seq = seq_of([{1}, {1}], 1)
    assert full_graph_goodness_violation(seq, 2) == (1, 2)
    assert full_graph_goodness_violation(seq, 2, skip_pair=(1, 2)) is None


def test_constraint_length_guard():
    seq = seq_of([{1}, {2}], 2)
    with pytest.raises(SequenceLengthError):
        is_good(seq, pair_view([(1, 3)], 3))
    # vertices sort by (i, j), so the largest j need not sit in the last one
    seq = seq_of([{1}, {2}, {1, 2}, set(), {2}], 2)
    for check in (is_good, goodness_violation, coloring_from_sequence, saturation_trace):
        with pytest.raises(SequenceLengthError):
            check(seq, pair_view([(1, 10), (2, 3)], 10))


@pytest.mark.parametrize("view", [build_shift_graph(5), critical_core(2),
                                  build_shift_graph(5).induced([(1, 5)])],
                         ids=("shift graph", "core", "induced"))
def test_each_view_kind_refuses_a_short_sequence_in_one_wording(view):
    with pytest.raises(SequenceLengthError) as refused:
        is_good(SubsetSequence((1, 0), 1), view)
    assert str(refused.value) == "constraints reach ground index 5 but the sequence has length 2"


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
    assert proper_coloring_violation(VertexColoring(colors, seq.n), pair_view(colors, n_points)) is None
    # ... and colors every pair but the skipped one exactly when the sequence is good
    pairs = all_pairs(n_points)
    good = brute_least_violation(sets, pairs, skip) is None
    assert (len(colors) == len(pairs) - (skip is not None)) == good
    # so the lemma's name is the goodness kernel's answer, which the test above checks
    assert full_graph_min_coloring_is_proper(seq, n_points, skip_pair=skip) == \
        (full_graph_goodness_violation(seq, n_points, skip_pair=skip) is None)


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
        assert goodness_violation(seq, pair_view(pairs, length)) == brute_least_violation(sets, pairs)


@pytest.mark.parametrize("kernel", (full_graph_goodness_violation,))
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


@pytest.mark.parametrize("kernel", (full_graph_goodness_violation, goodness_against_shift_graph))
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
    with pytest.raises(InvalidVertexError, match=r"\(4,5\) has no color"):
        col.color_of(Vertex(4, 5))


def test_extraction_rejects_bad_sequence():
    g = build_shift_graph(3)
    with pytest.raises(GoodnessError) as exc:
        coloring_from_sequence(seq_of([{1}, {1, 2}, {2}], 2), g)
    assert exc.value.pair == (1, 2)


def test_sequence_from_improper_coloring_names_the_edge():
    g = build_shift_graph(3)
    col = VertexColoring({Vertex(1, 2): 1, Vertex(2, 3): 1, Vertex(1, 3): 2}, 2)
    with pytest.raises(ImproperColoringError):
        sequence_from_coloring(col, g)


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
    seq = sequence_from_coloring(col, g)
    assert len(seq) == n_points and is_good(seq, g)
    back = coloring_from_sequence(seq, g)
    assert proper_coloring_violation(back, g) is None
    # the round trip need not reproduce seq, but it must stay good
    again = sequence_from_coloring(back, g)
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
    again = sequence_from_coloring(col, g)
    assert is_good(again, g)


def test_worked_round_trip_is_exact():
    # this particular 2-coloring does reproduce its own sequence
    g = build_shift_graph(4)
    seq = seq_of([{1, 2}, {1}, {2}, set()], 2)
    col = coloring_from_sequence(seq, g)
    assert sequence_from_coloring(col, g) == seq


# --- saturation ----------------------------------------------------------

def test_saturation_worked_example():
    seq = seq_of([{1, 2}, {2}, {1}], 2)
    g = build_shift_graph(3)
    trace = saturation_trace(seq, g)
    assert len(trace) == 3  # two rewrite steps
    assert trace[-1] == seq_of([{1}, {2}, set()], 2)
    assert all(is_good(s, g) for s in trace)
    assert saturation_trace(seq, pair_view(all_pairs(3), 3)) == trace
    assert is_saturated(trace[-1])
    assert not is_saturated(seq)


def test_saturation_refuses_a_sequence_that_is_not_good():
    with pytest.raises(GoodnessError) as exc:
        saturation_trace(seq_of([{1}, {1}], 1), build_shift_graph(2))
    assert exc.value.pair == (1, 2)


def test_saturation_fixed_point():
    seq = seq_of([{1}, {2}, set()], 2)
    assert saturate(seq, build_shift_graph(3)) == seq


@st.composite
def x_good_instances(draw, max_n=4, max_len=10):
    seq = draw(random_sequences(max_n=max_n, max_len=max_len))
    length = len(seq.entries)
    legal = [(i, j) for i, j in all_pairs(length)
             if not (seq.at(i) & ~seq.at(j)) == 0]
    pairs = draw(st.lists(st.sampled_from(legal), unique=True)) if legal else []
    return seq, pair_view(pairs, length)


@given(x_good_instances())
def test_saturation_preserves_goodness_and_terminates(case):
    seq, X = case
    assert is_good(seq, X)
    trace = saturation_trace(seq, X)
    n, length = seq.n, len(seq.entries)
    assert len(trace) - 1 <= n * length
    assert trace[0] == seq
    for s in trace:
        assert is_good(s, X)
    final = trace[-1]
    assert is_saturated(final)
    assert saturate(final, X) == final


@given(x_good_instances())
def test_saturated_exactly_when_saturation_takes_no_step(case):
    seq, X = case
    assert is_saturated(seq) == (len(saturation_trace(seq, X)) == 1)


@given(x_good_instances(max_n=5, max_len=12))
def test_saturation_trace_matches_the_brute_oracle(case):
    seq, X = case
    assert [s.entries for s in saturation_trace(seq, X)] == brute_saturation_trace(seq.entries)


def seeded_x_good_instances(count, seed, max_n=5, max_len=20):
    """`count` random good instances from one seed: a sequence, and a random
    half of the pairs (i, j) on which a_i is not contained in a_j."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        length = rng.randint(1, max_len)
        entries = tuple(rng.randrange(1 << n) for _ in range(length))
        pairs = [(i, j) for i, j in all_pairs(length)
                 if entries[i - 1] & ~entries[j - 1] and rng.random() < 0.5]
        yield SubsetSequence(entries, n), pair_view(pairs, length)


def test_saturation_traces_match_their_recorded_digest():
    # pins which position and which subset each of the 2,558 steps picks;
    # recorded with the step rule's earlier two-scan implementation
    h = hashlib.sha256()
    for seq, X in seeded_x_good_instances(500, seed=26):
        h.update(repr((seq.n, [s.entries for s in saturation_trace(seq, X)])).encode())
    assert h.hexdigest() == "46fdc97db5803e5b3f8da9a3bb941c614118e362dc2568f68d3288d78ffab182"


@given(x_good_instances(max_n=3, max_len=8))
def test_saturated_means_no_missing_submask(case):
    seq, X = case
    final = saturate(seq, X)
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
    # nor are booleans where the constructors take one, read(doc) being the call
    (partial(SubsetSequence, (1,)), True, "ground size"),
    (partial(SubsetSequence, (True,)), 1, "entry True"),
    (partial(VertexColoring, {(1, 2): 1}), True, "color count"),
    (partial(VertexColoring, {(1, 2): True}), 1, "color True"),
    (partial(mask_of, [True]), 3, "element True"),
    # documents that lack a key, or are not objects at all
    (sequence_from_dict, {"entries": [[1]]}, "keys 'n' and 'entries'"),
    (sequence_from_dict, {"n": 1}, "keys 'n' and 'entries'"),
    (sequence_from_dict, [1, [[1]]], "keys 'n' and 'entries'"),
    (coloring_from_dict, {"colors": []}, "keys 'k' and 'colors'"),
    (coloring_from_dict, {"k": 1}, "keys 'k' and 'colors'"),
    (coloring_from_dict, {"k": 1, "colors": [[1, 2, 1]]}, r"bad coloring row: \[1, 2, 1\]"),
], ids=["entries-int", "entry-int", "entry-none", "colors-int", "duplicate-row",
        "n-bool", "element-bool", "k-bool", "x-bool", "y-bool", "c-bool",
        "sequence-n-bool", "sequence-entry-bool", "coloring-k-bool", "coloring-color-bool",
        "mask-element-bool", "sequence-no-n", "sequence-no-entries", "sequence-not-object",
        "coloring-no-k", "coloring-no-colors", "row-not-object"])
def test_readers_reject_malformed_documents(read, doc, match):
    with pytest.raises(InvalidParameterError, match=match):
        read(doc)


# one call per integer argument of each public entry point, given `bad` for it
INT_ARGUMENTS = {
    "ShiftGraph": lambda bad: sc.ShiftGraph(bad),
    "build_shift_graph": lambda bad: sc.build_shift_graph(bad),
    "CriticalCore": lambda bad: sc.CriticalCore(bad),
    "critical_core": lambda bad: sc.critical_core(bad),
    "SubsetSequence.n": lambda bad: SubsetSequence((), bad),
    "SubsetSequence.entry": lambda bad: SubsetSequence((bad,), 2),
    "SubsetSequence.at": lambda bad: SubsetSequence((1,), 1).at(bad),
    "VertexColoring.k": lambda bad: VertexColoring({}, bad),
    "VertexColoring.color": lambda bad: VertexColoring({(1, 2): bad}, 2),
    "mask_of.n": lambda bad: mask_of([1], bad),
    "mask_of.element": lambda bad: mask_of([bad], 3),
    "descending_full_sequence.n": lambda bad: descending_full_sequence(bad, 1),
    "descending_full_sequence.length": lambda bad: descending_full_sequence(2, bad),
    "construct_deleted_vertex_sequence": lambda bad: construct_deleted_vertex_sequence(bad, (1, 2)),
    "sequence_from_dict.n": lambda bad: sequence_from_dict({"n": bad, "entries": [[1]]}),
    "sequence_from_dict.entries": lambda bad: sequence_from_dict({"n": 2, "entries": [[bad]]}),
    "coloring_from_dict.k": lambda bad: coloring_from_dict({"k": bad, "colors": []}),
    "coloring_from_dict.x": lambda bad: coloring_from_dict(
        {"k": 2, "colors": [{"x": bad, "y": 2, "c": 1}]}),
    "coloring_from_dict.y": lambda bad: coloring_from_dict(
        {"k": 2, "colors": [{"x": 1, "y": bad, "c": 1}]}),
    "coloring_from_dict.c": lambda bad: coloring_from_dict(
        {"k": 2, "colors": [{"x": 1, "y": 2, "c": bad}]}),
    "full_graph_goodness_violation.n_points": lambda bad: full_graph_goodness_violation(
        seq_of([{1}, set()], 1), bad),
    "full_graph_goodness_violation.i": lambda bad: full_graph_goodness_violation(
        seq_of([{1}, set(), set()], 1), 3, skip_pair=(bad, 2)),
    "full_graph_goodness_violation.j": lambda bad: full_graph_goodness_violation(
        seq_of([{1}, set(), set()], 1), 3, skip_pair=(1, bad)),
    "k_colorable_via_sequences.k": lambda bad: sc.k_colorable_via_sequences(
        build_shift_graph(3), bad),
    "k_colorable_bb": lambda bad: sc.k_colorable_bb(build_shift_graph(3), bad),
    "SearchBudget.max_nodes": lambda bad: sc.SearchBudget(max_nodes=bad),
    "SearchBudget.max_seconds": lambda bad: sc.SearchBudget(max_seconds=bad),
    "verify_criticality": lambda bad: sc.verify_criticality(bad),
    "verify_core_chromatic": lambda bad: sc.verify_core_chromatic(bad),
    "verify_uniqueness": lambda bad: sc.verify_uniqueness(bad),
    "verify_chromatic_formula": lambda bad: sc.verify_chromatic_formula(bad),
    "render_svg.n": lambda bad: sc.render_svg(bad),
    "render_svg.cell_size": lambda bad: sc.render_svg(2, cell_size=bad),
    "default_cell_size": lambda bad: diagram.default_cell_size(bad),
    "default_palette": lambda bad: sc.default_palette(bad),
    "as_vertex.x": lambda bad: sc.as_vertex((bad, 2)),
    "as_vertex.y": lambda bad: sc.as_vertex((1, bad)),
}


@pytest.mark.parametrize("target, bad", [
    (t, bad) for t in sorted(INT_ARGUMENTS) for bad in (True, False, 2.0, "3", None)
    if (t, bad) != ("SearchBudget.max_seconds", 2.0)]  # seconds may be a float
    # but not an int past the largest float, which the clock cannot add to the time
    + [pytest.param("SearchBudget.max_seconds", 10 ** 400, id="SearchBudget.max_seconds-10**400")])
def test_integer_arguments_are_plain_ints(target, bad):
    error = InvalidVertexError if target.startswith("as_vertex") else InvalidParameterError
    with pytest.raises(error):
        INT_ARGUMENTS[target](bad)


# each function of the sequence calculus, given `bad` where its graph view goes
VIEW_ARGUMENTS = {
    "goodness_violation": lambda bad: goodness_violation(seq_of([{1}, set()], 1), bad),
    "is_good": lambda bad: is_good(seq_of([{1}, set()], 1), bad),
    "coloring_from_sequence": lambda bad: coloring_from_sequence(seq_of([{1}, set()], 1), bad),
    "proper_coloring_violation": lambda bad: proper_coloring_violation(
        VertexColoring({(1, 2): 1}, 1), bad),
    "sequence_from_coloring": lambda bad: sequence_from_coloring(VertexColoring({(1, 2): 1}, 1), bad),
    "saturation_trace": lambda bad: saturation_trace(seq_of([{1}, set()], 1), bad),
    "saturate": lambda bad: saturate(seq_of([{1}, set()], 1), bad),
}


@pytest.mark.parametrize("target, bad", [
    pytest.param(t, bad, id=f"{t}-{kind}") for t in sorted(VIEW_ARGUMENTS)
    for kind, bad in (("pair-list", [(1, 2)]), ("none", None), ("int", 2))])
def test_calculus_functions_take_only_a_view(target, bad):
    with pytest.raises(InvalidParameterError, match="not a graph view"):
        VIEW_ARGUMENTS[target](bad)
    # the same call on the view of those pairs is answered
    VIEW_ARGUMENTS[target](pair_view([(1, 2)], 2))


@pytest.mark.parametrize("call", [
    lambda: is_good(seq_of([{1}, set()], 1), [(1, 2)] * 1199),
    lambda: sequence_from_dict({"n": 2, "entries": list(range(10 ** 5))}),
    lambda: critical_core(list(range(10 ** 5))),
], ids=["is_good-pair-list", "sequence_from_dict-entries", "critical_core-list"])
def test_refused_arguments_are_quoted_in_short_messages(call):
    # the message names the argument through reprlib, however long it is
    with pytest.raises(InvalidParameterError) as refused:
        call()
    assert len(str(refused.value)) < 200


def test_coloring_json_round_trip():
    col = VertexColoring({Vertex(1, 2): 1, Vertex(2, 3): 2}, 2)
    d = coloring_to_dict(col)
    assert d["k"] == 2
    assert {"x": 1, "y": 2, "c": 1} in d["colors"]
    assert coloring_from_dict(d).colors == col.colors
