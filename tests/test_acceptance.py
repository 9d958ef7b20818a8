"""Acceptance gate: ten criteria, one summary line each.

Each test records a PASS/FAIL line that the terminal-summary hook in
conftest prints after the run.  Runtime ceilings are asserted where the
criterion pins one.  Criterion 6 requires a conclusive refutation for
every n <= 4, the n = 4 one within a fixed 10 M-node budget.
"""
import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

from shiftcrit import (
    SearchBudget,
    SubsetSequence,
    Vertex,
    build_shift_graph,
    chromatic_number,
    coloring_from_sequence,
    critical_core,
    descending_full_sequence,
    is_good,
    is_saturated,
    is_triangle_free,
    k_colorable_via_sequences,
    proper_coloring_violation,
    saturation_trace,
    sequence_from_coloring,
    verify_criticality,
    verify_uniqueness,
)
from shiftcrit.cli import main
from shiftcrit.sequences import full_graph_min_coloring_is_proper

ACCEPTANCE_LINES = []

SVG = "{http://www.w3.org/2000/svg}"


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num:2d}: FAIL  {label}")
        raise
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d}: PASS  {label}  ({time.perf_counter() - t0:.1f}s)")


def random_x_good_instance(rng):
    n = rng.randint(1, 4)
    length = rng.randint(1, 17)
    entries = tuple(rng.randrange(1 << n) for _ in range(length))
    seq = SubsetSequence(entries, n)
    legal = [(i, j) for i in range(1, length + 1) for j in range(i + 1, length + 1)
             if entries[i - 1] & ~entries[j - 1]]
    pairs = rng.sample(legal, rng.randint(0, len(legal)))
    return seq, build_shift_graph(max(length, 2)).induced(pairs)


def test_criterion_1_chromatic_formula_exact():
    with criterion(1, "exact chi for N in [2, 9], both engines"):
        t0 = time.perf_counter()
        for n_points in range(2, 10):
            res = chromatic_number(build_shift_graph(n_points),
                                   SearchBudget(max_seconds=60))
            assert res.conclusive
            assert res.chi == (n_points - 1).bit_length()
            engines_at = {}
            for q in res.queries:
                engines_at.setdefault((q["k"], q["decision"]), set()).add(q["engine"])
            assert engines_at[(res.chi, "yes")] == {"sequence", "bb"}
            if res.chi > 1:
                assert engines_at[(res.chi - 1, "no")] == {"sequence", "bb"}
        assert time.perf_counter() - t0 <= 60


def test_criterion_2_chromatic_formula_upper_bounds():
    with criterion(2, "descending certificates chi <= ceil(log2 N) for N in [2, 1025]"):
        t0 = time.perf_counter()
        for n_points in range(2, 1026):
            k = (n_points - 1).bit_length()
            seq = descending_full_sequence(k, n_points)
            assert seq.n == k
            assert is_good(seq, build_shift_graph(n_points)), n_points
        assert time.perf_counter() - t0 <= 60


def test_criterion_3_core_at_n2_unique():
    with criterion(3, "W(2) is C5 and the unique 3-vertex-critical subgraph of 1024"):
        t0 = time.perf_counter()
        core = critical_core(2)
        assert [tuple(v) for v in core.vertex_list()] == \
            [(1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
        edges = list(core.edges())
        assert len(edges) == 5
        deg = {}
        for u, w in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        assert sorted(deg.values()) == [2, 2, 2, 2, 2]  # 5 vertices of degree 2
        res = chromatic_number(core, SearchBudget(max_seconds=120))
        assert res.conclusive and res.chi == 3
        rep = verify_uniqueness(2, SearchBudget(max_seconds=120))
        assert rep.status == "pass"
        cert = rep.certificates["enumeration:critical-subsets"]
        assert cert["count"] == 1
        assert cert["vertices"] == [[1, 2], [2, 3], [2, 4], [3, 4], [4, 5]]
        assert time.perf_counter() - t0 <= 120


def test_criterion_4_member_deletions_construct():
    with criterion(4, "constructed deletion certificates for all v in W(n), n in [2, 8]"):
        t0 = time.perf_counter()
        from shiftcrit import construct_deleted_vertex_sequence
        for n in range(2, 9):
            core = critical_core(n)
            npts = core.n_points
            for v in core.vertex_list():
                seq = construct_deleted_vertex_sequence(n, v)
                assert seq.n == n and len(seq.entries) == npts
                assert full_graph_min_coloring_is_proper(seq, npts,
                                                         skip_pair=(v.x, v.y)), (n, v)
        assert time.perf_counter() - t0 <= 600


def test_criterion_5_nonmember_refutations():
    with criterion(5, "both engines refute n-coloring of G-v for all v not in W, n <= 3"):
        t0 = time.perf_counter()
        for n in (2, 3):
            rep = verify_criticality(n, SearchBudget(max_seconds=600))
            assert rep.status == "pass"
            refutations = [c for c in rep.checks
                           if c.claim.startswith(f"no {n}-coloring")]
            nonmembers = (1 << (n - 1)) * ((1 << n) + 1) - critical_core(n).vertex_count()
            assert len(refutations) == 2 * nonmembers
            assert all(c.status == "pass" for c in refutations)
        assert time.perf_counter() - t0 <= 600


def test_criterion_6_no_w_good_sequence():
    label = "good-sequence search refutes W-goodness, n <= 4 conclusive"
    with criterion(6, label):
        t0 = time.perf_counter()
        for n in (2, 3, 4):
            core = critical_core(n)
            r = k_colorable_via_sequences(core, n, SearchBudget(max_nodes=10_000_000,
                                                                max_seconds=600))
            assert r.decision == "no", n
            assert r.refutation_record()["conclusive"] is True
        assert time.perf_counter() - t0 <= 600
    ACCEPTANCE_LINES[-1] += f" [n=4: {r.decision} after {r.nodes} nodes]"


def test_criterion_7_saturation_properties():
    with criterion(7, "saturation invariants on 1000 random X-good instances"):
        rng = random.Random(20260822)
        for _ in range(1000):
            seq, X = random_x_good_instance(rng)
            length = len(seq.entries)
            trace = saturation_trace(seq, X)
            assert len(trace) - 1 <= seq.n * length
            final = trace[-1]
            assert is_good(final, X)
            assert is_saturated(final)
            suffix_sets = [set(final.entries[i:]) for i in range(length + 1)]
            for i, m in enumerate(final.entries, start=1):
                for sub in range(m):
                    if sub & m == sub:
                        assert sub in suffix_sets[i], (i, sub)
                # position bound: saturation leaves 2^|entry| - 1 distinct
                # proper subsets strictly to the right
                assert i <= length - (1 << m.bit_count()) + 1


def test_criterion_8_round_trip():
    with criterion(8, "coloring round trip stays X-good on 1000 random instances"):
        rng = random.Random(8222026)
        checked = 0
        while checked < 1000:
            seq, X = random_x_good_instance(rng)
            col = coloring_from_sequence(seq, X)
            back = sequence_from_coloring(col, X)
            assert is_good(back, X)
            checked += 1


def test_criterion_9_triangle_free():
    with criterion(9, "shift graphs are triangle-free for N in [2, 50]"):
        t0 = time.perf_counter()
        for n_points in range(2, 51):
            assert is_triangle_free(build_shift_graph(n_points))
        assert time.perf_counter() - t0 <= 30


def test_criterion_10_diagram_fidelity(tmp_path):
    with criterion(10, "SVG cells equal W(n), n+1 regions, corners on x*y = 2^n"):
        for n in (2, 3, 4):
            target = tmp_path / f"core{n}.svg"
            assert main(["diagram", str(n), "--out", str(target)]) == 0
            root = ET.fromstring(target.read_text())
            regions = [g for g in root.iter(SVG + "g") if g.get("class") == "region"]
            assert len(regions) == n + 1
            for g in regions:
                assert int(g.get("data-corner-x")) * int(g.get("data-corner-y")) == 2 ** n
            cells = [r for r in root.iter(SVG + "rect") if r.get("class") == "cell"]
            got = {(int(c.get("data-x")), int(c.get("data-y"))) for c in cells}
            assert len(cells) == len(got)
            assert got == {(v.x, v.y) for v in critical_core(n).vertex_list()}
