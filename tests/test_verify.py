import json
import tracemalloc

import pytest

from shiftcrit import (
    InvalidParameterError,
    SearchBudget,
    critical_core,
    k_colorable_via_sequences,
    sequence_to_dict,
    verify_chromatic_formula,
    verify_core_chromatic,
    verify_criticality,
    verify_uniqueness,
)

from oracles import brute_chromatic, brute_edges, brute_vertices

STARVED = SearchBudget(max_nodes=5, max_seconds=600)


def test_report_json_schema():
    d = verify_criticality(2).to_json_dict()
    assert set(d) == {"theorem", "n", "checks", "status", "skipped", "certificates"}
    assert d["theorem"] == "2" and d["n"] == 2 and d["status"] == "pass"
    for c in d["checks"]:
        assert set(c) == {"claim", "method", "status", "certificate_ref"}
        assert c["status"] in ("pass", "fail", "inconclusive")
    json.dumps(d)  # must be serializable as-is


def test_criticality_small_is_complete():
    rep = verify_criticality(2)
    assert rep.status == "pass"
    members = [c for c in rep.checks if c.claim.startswith("deleting")]
    refutations = [c for c in rep.checks if c.claim.startswith("no 2-coloring")]
    assert len(members) == 5
    assert len(refutations) == 10  # five non-members, two engines each
    assert not rep.skipped


def test_criticality_n3():
    rep = verify_criticality(3)
    assert rep.status == "pass"
    assert len(rep.checks) == 19 + 17 * 2


def test_criticality_members_only_lists_the_skip():
    rep = verify_criticality(4)
    assert rep.status == "pass"
    assert len(rep.checks) == 87
    assert len(rep.skipped) == 1
    # G on 17 points has 136 vertices, 87 of them in the core
    assert "49 vertices" in rep.skipped[0]["claim"]


def test_criticality_members_only_flag():
    rep = verify_criticality(2, members_only=True)
    assert len(rep.checks) == 5 and rep.skipped
    rep = verify_criticality(3, members_only=True)
    assert rep.status == "pass"
    assert len(rep.checks) == 19 and len(rep.skipped) == 1
    # G on 9 points has 36 vertices, 19 of them in the core
    assert "17 vertices" in rep.skipped[0]["claim"]


def test_core_chromatic_reports():
    for n in (2, 3):
        rep = verify_core_chromatic(n)
        assert rep.status == "pass"
        assert len(rep.checks) == 2
        upper, lower = rep.checks
        assert f"{n + 1}-colorable" in upper.claim
        assert lower.claim.startswith(f"no {n}-coloring")
        assert rep.certificates["lower:saturated-refutation"]["conclusive"] is True
        assert "sequence" in rep.certificates["upper:descending-sequence"]


def test_core_chromatic_starved_is_inconclusive():
    rep = verify_core_chromatic(3, STARVED)
    assert rep.status == "inconclusive"
    assert rep.checks[0].status == "pass"  # the constructive upper bound still runs
    assert rep.checks[1].status == "inconclusive"


def test_uniqueness_small_has_enumeration():
    rep = verify_uniqueness(2)
    assert rep.status == "pass"
    enum = [c for c in rep.checks if "1024 induced subgraphs" in c.claim]
    assert len(enum) == 1
    cert = rep.certificates["enumeration:critical-subsets"]
    assert cert["count"] == 1
    assert cert["vertices"] == [[1, 2], [2, 3], [2, 4], [3, 4], [4, 5]]
    assert rep.checks[-1].claim.startswith("the core is the unique 3-vertex-critical")


def test_uniqueness_n3_structure():
    rep = verify_uniqueness(3)
    assert rep.status == "pass"
    kinds = {"(a)": 0, "(b)": 0, "(c)": 0}
    for c in rep.checks:
        for k in kinds:
            if c.claim.startswith(k):
                kinds[k] += 1
    assert kinds == {"(a)": 2, "(b)": 19, "(c)": 17}


def test_uniqueness_starved_propagates():
    rep = verify_uniqueness(3, STARVED)
    assert rep.status == "inconclusive"
    assert rep.checks[-1].status == "inconclusive"


def test_formula_exact_range():
    rep = verify_chromatic_formula(9)
    assert rep.status == "pass"
    assert len(rep.checks) == 9
    step = [c for c in rep.checks if "steps exactly" in c.claim]
    assert len(step) == 1 and step[0].status == "pass"


def test_formula_upper_rows():
    rep = verify_chromatic_formula(20)
    uppers = [c for c in rep.checks if "at most" in c.claim]
    assert len(uppers) == 11
    assert "at most 5" in uppers[-1].claim  # N=20 needs ceil(log2 20) = 5
    assert rep.status == "pass"


def test_formula_starved_rows_are_inconclusive():
    rep = verify_chromatic_formula(5, SearchBudget(max_nodes=3))
    assert rep.status == "inconclusive"
    statuses = {c.claim: c.status for c in rep.checks}
    assert statuses == {
        "chi of the shift graph on [1, 2] equals 1": "pass",
        "chi of the shift graph on [1, 3] equals 2": "pass",
        "chi of the shift graph on [1, 4] equals 2": "inconclusive",
        "chi of the shift graph on [1, 5] equals 3": "inconclusive",
    }


def test_reports_are_deterministic():
    a = json.dumps(verify_uniqueness(2).to_json_dict(), sort_keys=True)
    b = json.dumps(verify_uniqueness(2).to_json_dict(), sort_keys=True)
    assert a == b
    a = json.dumps(verify_chromatic_formula(12).to_json_dict(), sort_keys=True)
    b = json.dumps(verify_chromatic_formula(12).to_json_dict(), sort_keys=True)
    assert a == b


def test_bad_parameters():
    for fn in (verify_criticality, verify_core_chromatic, verify_uniqueness,
               verify_chromatic_formula):
        with pytest.raises(InvalidParameterError):
            fn(1)
        with pytest.raises(InvalidParameterError):
            fn("3")


def test_refutation_rows_for_each_search_outcome():
    from shiftcrit import ColorabilityResult, SubsetSequence
    from shiftcrit.verify import _refutation_row

    no = ColorabilityResult("no", 3, "sequence", 10, 7)
    assert _refutation_row(no) == ("pass", {"k": 3, "nodes": 10, "prunes": 7,
                                            "conclusive": True})
    cut = ColorabilityResult("inconclusive", 3, "bb", 6, 2)
    assert _refutation_row(cut) == ("inconclusive", {"k": 3, "nodes": 6, "prunes": 2,
                                                     "conclusive": False})
    # a cut-off row carries the search's own record, as a "no" row does
    cut = k_colorable_via_sequences(critical_core(3), 3, STARVED)
    assert cut.decision == "inconclusive"
    assert _refutation_row(cut) == ("inconclusive", cut.refutation_record())
    # a "yes" row carries the counterexample sequence when the engine found one
    seq = SubsetSequence((1, 0), 1)
    yes = ColorabilityResult("yes", 1, "sequence", 2, 0, certificate_sequence=seq)
    assert _refutation_row(yes) == ("fail", sequence_to_dict(seq))
    yes_bb = ColorabilityResult("yes", 1, "bb", 2, 0)
    assert _refutation_row(yes_bb) == ("fail", None)


def test_serializing_a_report_copies_no_row():
    # each row is serialized as its own field dict; copying the 7,487 rows
    # of the n = 7 report into new dicts allocates 1.43 MiB
    report = verify_criticality(7, members_only=True)
    tracemalloc.start()
    try:
        d = report.to_json_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d["checks"]) == 7487 and d["checks"][0] is vars(report.checks[0])
    assert peak < 200_000


def uniqueness_with_one_bad_member(monkeypatch, budget=None, bad=(2, 4)):
    """verify_uniqueness(2) with the properness check failing on the member `bad`."""
    from shiftcrit import verify

    real = verify.full_graph_min_coloring_is_proper

    def check(seq, n_points, skip_pair=None):
        return skip_pair != bad and real(seq, n_points, skip_pair=skip_pair)

    monkeypatch.setattr(verify, "full_graph_min_coloring_is_proper", check)
    return verify_uniqueness(2, budget)


def test_uniqueness_fails_when_a_member_check_fails(monkeypatch):
    rep = uniqueness_with_one_bad_member(monkeypatch)
    b_rows = {c.certificate_ref: c.status for c in rep.checks if c.claim.startswith("(b)")}
    assert b_rows.pop("deleted-vertex:(2,4)") == "fail"
    assert set(b_rows.values()) == {"pass"}
    assert rep.checks[-1].claim.startswith("the core is the unique")
    assert rep.checks[-1].status == "fail"
    assert rep.status == "fail"


def test_fail_beats_inconclusive(monkeypatch):
    rep = uniqueness_with_one_bad_member(monkeypatch, STARVED)
    statuses = {c.status for c in rep.checks}
    assert {"fail", "inconclusive"} <= statuses
    assert rep.checks[-1].status == "fail"
    assert rep.status == "fail"


@pytest.mark.parametrize("n", (2, 3, 4))
def test_each_member_certificate_is_checked_once(monkeypatch, n):
    from shiftcrit import sequences

    calls = []
    real = sequences.full_graph_goodness_violation

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sequences, "full_graph_goodness_violation", counted)
    rep = verify_criticality(n, members_only=True)
    assert rep.status == "pass"
    assert len(calls) == critical_core(n).vertex_count()


def test_member_row_fails_on_a_sequence_built_for_another_member(monkeypatch):
    from shiftcrit import Vertex, verify

    real = verify.construct_deleted_vertex_sequence
    bad, other = Vertex(3, 5), Vertex(2, 3)

    def swapped(n, v):
        return real(n, other if v == bad else v)

    monkeypatch.setattr(verify, "construct_deleted_vertex_sequence", swapped)
    rep = verify_criticality(3, members_only=True)
    rows = {c.certificate_ref: c.status for c in rep.checks}
    assert rows.pop("deleted-vertex:(3,5)") == "fail"
    assert len(rows) == 18 and set(rows.values()) == {"pass"}
    assert rep.status == "fail"


def test_empty_report_is_inconclusive():
    from shiftcrit.verify import TheoremReport

    assert TheoremReport("1", 2).status == "inconclusive"


@pytest.mark.parametrize("N", (4, 5))
def test_subset_chromatic_table_matches_the_brute_oracle(N):
    from shiftcrit import build_shift_graph, verify
    g = build_shift_graph(N)
    verts = list(g.vertex_list())
    assert verts == brute_vertices(N)
    edges = brute_edges(N)
    table = verify._subset_chromatic_table(g)
    assert len(table) == 1 << len(verts)
    for S, chi in enumerate(table):
        X = [v for t, v in enumerate(verts) if S >> t & 1]
        assert chi == brute_chromatic(X, [(u, w) for u, w in edges if u in X and w in X]), X
