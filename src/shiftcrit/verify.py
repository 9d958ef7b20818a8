"""Verification pipelines for the structural facts about shift graphs.

Each pipeline assembles checks from the other modules into a
machine-readable report: the criticality of every core vertex (deleting
it drops the chromatic number), the chromatic number of the core
subgraph itself, the uniqueness of the core as a vertex-critical
subgraph, and the logarithmic chromatic formula across a range of
ground sizes.  Every pass verdict rests on a certificate that is
re-checked independently of the search that produced it, or on an
exhaustive enumeration at the smallest scale.

Reports are deterministic for a fixed (n, budget): checks appear in
sorted vertex order and no timing data is recorded.  A report passes
only if every check passes; any inconclusive sub-result (for example a
solver that ran out of budget) marks the whole report inconclusive.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .constructions import construct_deleted_vertex_sequence, descending_full_sequence
from .errors import ShiftCritError, require_int
from .graphs import ShiftGraph, build_shift_graph, critical_core
from .sequences import (
    coloring_from_sequence,
    coloring_to_dict,
    full_graph_goodness_violation,
    full_graph_min_coloring_is_proper,
    sequence_to_dict,
)
from .solvers import (
    ColorabilityResult,
    SearchBudget,
    chromatic_number,
    k_colorable_bb,
    k_colorable_via_sequences,
)


def _combined(statuses) -> str:
    """One status for several: fail beats inconclusive (or no status at all) beats pass."""
    statuses = set(statuses)
    if "fail" in statuses:
        return "fail"
    if not statuses or "inconclusive" in statuses:
        return "inconclusive"
    return "pass"


@dataclass
class CheckRecord:
    """One verified claim inside a theorem report."""

    claim: str
    method: str
    status: str  # "pass" | "fail" | "inconclusive"
    certificate_ref: str | None = None

    def __post_init__(self):
        # CPython 3.11+ builds an instance's __dict__ on first use; build it
        # with the row, so serializing a report allocates nothing per row
        vars(self)

    def to_json_dict(self) -> dict:
        """The record's own field dict: the row is serialized as itself, not copied."""
        return vars(self)


@dataclass
class TheoremReport:
    """Outcome of one verification pipeline."""

    theorem: str
    n: int | None
    checks: list[CheckRecord] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return _combined(c.status for c in self.checks)

    def add(self, claim: str, method: str, status: str,
            ref: str | None = None, payload=None) -> None:
        self.checks.append(CheckRecord(claim, method, status, ref))
        if ref is not None and payload is not None:
            self.certificates[ref] = payload

    def to_json_dict(self) -> dict:
        """JSON-ready data that shares the report's objects: its rows' field
        dicts and its own `skipped` list and `certificates` dict, not copies."""
        return {
            "theorem": self.theorem,
            "n": self.n,
            "checks": [c.to_json_dict() for c in self.checks],
            "status": self.status,
            "skipped": self.skipped,
            "certificates": self.certificates,
        }


def _member_rows(report: TheoremReport, n: int, budget: SearchBudget,
                 prefix: str = "") -> None:
    """One constructive check per core vertex: G minus the vertex is n-colorable.

    The rows share the budget's time limit.  Once it has passed, one
    inconclusive row stands for the members not yet checked, and the
    rows stop there.
    """
    core = critical_core(n)
    N = core.n_points
    start = time.monotonic()
    for done, v in enumerate(core.vertices()):
        if time.monotonic() - start > budget.max_seconds:
            report.add(f"{prefix}deleting any of the {core.vertex_count() - done} core vertices "
                       f"from ({v.x},{v.y}) on leaves an {n}-colorable graph",
                       "not checked: the time budget ran out", "inconclusive")
            return
        ref = f"deleted-vertex:({v.x},{v.y})"
        payload = None
        try:
            seq = construct_deleted_vertex_sequence(n, v)
            ok = full_graph_min_coloring_is_proper(seq, N, skip_pair=(v.x, v.y))
            status = "pass" if ok else "fail"
            if n <= 3 and ok:  # sequences attached only where the report stays small
                payload = sequence_to_dict(seq)
        except ShiftCritError as e:
            status = "fail"
            payload = {"error": str(e)}
        report.add(f"{prefix}deleting ({v.x},{v.y}) leaves an {n}-colorable graph",
                   "explicit deleted-vertex sequence; goodness and extracted coloring checked",
                   status, ref, payload)


def _refutation_row(r: ColorabilityResult,
                    counterexample: bool = False) -> tuple[str, dict | None]:
    """Status and certificate payload of a row that wants a "no" from a search.

    "no" passes with its refutation record; "yes" fails, carrying the
    certificate sequence when `counterexample` is set; a budget cut-off
    is inconclusive with its record of the counts reached so far.
    """
    if r.decision == "yes":
        return "fail", sequence_to_dict(r.certificate_sequence) if counterexample else None
    return ("pass" if r.conclusive else "inconclusive"), r.refutation_record()


def _nonmember_rows(report: TheoremReport, n: int, budget: SearchBudget) -> None:
    """Two refutations per non-core vertex: G minus it is still not n-colorable."""
    core = critical_core(n)
    g = core.graph()
    verts = g.vertex_list()
    for v in verts:
        if v in core:
            continue
        rest = g.induced([w for w in verts if w != v])
        r_seq = k_colorable_via_sequences(rest, n, budget)
        r_bb = k_colorable_bb(rest, n, budget)
        for r, method in ((r_seq, "exhaustive good-sequence search"),
                          (r_bb, "exhaustive branch-and-bound coloring")):
            status, payload = _refutation_row(r)
            report.add(f"no {n}-coloring of the graph minus ({v.x},{v.y})",
                       method, status, f"refutation:({v.x},{v.y}):{r.engine}", payload)


def verify_criticality(n: int, budget: SearchBudget | None = None,
                       members_only: bool = False) -> TheoremReport:
    """Check that deleting a vertex drops the chromatic number iff it is in the core.

    Core members get the polynomial constructive check, row by row until
    the budget's time limit passes (see _member_rows).  Non-members are
    refuted by both engines only for n <= 3, where that search is
    exhaustive, and not at all with `members_only`; otherwise the report
    lists the untested claim under `skipped`.
    """
    budget = budget or SearchBudget()
    report = TheoremReport("2", n)
    _member_rows(report, n, budget)
    if n <= 3 and not members_only:
        _nonmember_rows(report, n, budget)
    else:
        core = critical_core(n)
        total = core.graph().vertex_count() - core.vertex_count()
        report.skipped.append({
            "claim": f"for all {total} vertices outside the core, deletion keeps the "
                     f"chromatic number at {n + 1}",
            "reason": f"refutation search is exhaustive only at small n; skipped at n={n}",
        })
    return report


def _core_chromatic_rows(report: TheoremReport, n: int, budget: SearchBudget,
                         prefix: str = "") -> None:
    """The upper and the lower bound row of chi(W(n)) = n + 1; see verify_core_chromatic.

    The lower bound runs first, so the sequence engine refuses an n past
    its color limit before the upper bound's 2^n + 1 entries are built.
    """
    core = critical_core(n)
    lower = k_colorable_via_sequences(core, n, budget)
    N = core.n_points

    seq = descending_full_sequence(n + 1, N)
    viol = full_graph_goodness_violation(seq, N)
    payload: dict | None = None
    if viol is None:
        payload = {"sequence": sequence_to_dict(seq)}
        if n <= 4:
            payload["coloring"] = coloring_to_dict(coloring_from_sequence(seq, core))
    report.add(f"{prefix}the core subgraph is {n + 1}-colorable",
               "descending full sequence over the whole graph; goodness re-checked",
               "pass" if viol is None else "fail",
               "upper:descending-sequence", payload)

    status, payload = _refutation_row(lower, counterexample=True)
    report.add(f"{prefix}no {n}-coloring of the core subgraph exists",
               "exhaustive search over good sequences",
               status, "lower:saturated-refutation", payload)


def verify_core_chromatic(n: int, budget: SearchBudget | None = None) -> TheoremReport:
    """Check that the core subgraph has chromatic number exactly n + 1.

    The upper bound is the descending full sequence, re-checked for
    goodness over the whole graph.  The lower bound is an exhaustive
    search over all good sequences at k = n with the memoized sequence
    engine.  It is recorded under `lower:saturated-refutation`: saturated
    sequences are among the good ones, so the record also refutes them,
    and readers of earlier reports find it under the same name.  These
    two rows are also step (a) of verify_uniqueness.
    """
    report = TheoremReport("3", n)
    _core_chromatic_rows(report, n, budget or SearchBudget())
    return report


def _subset_chromatic_table(g: ShiftGraph) -> list[int]:
    """Chromatic number of every induced subgraph, indexed by vertex bitmask.

    The subset recurrence (Lawler 1976): table[S] = 1 + min table[S - I]
    over the independent sets I of S holding S's lowest vertex.  It shares
    no code with the solvers; 3^m / 2 steps on m vertices, meant for the
    2^10 subsets of the smallest interesting graph only.
    """
    m = g.vertex_count()
    nbrs = [0] * m
    for a, b in g.edge_ids():
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    indep = [True] * (1 << m)
    table = [0] * (1 << m)
    for S in range(1, 1 << m):
        low = S & -S
        rest = S ^ low
        indep[S] = indep[rest] and not nbrs[low.bit_length() - 1] & rest
        best, J = m, rest
        while True:  # J runs over the submasks of rest, down to 0
            if indep[low | J]:
                best = min(best, table[rest ^ J])
            if not J:
                break
            J = (J - 1) & rest
        table[S] = best + 1
    return table


def _exhaustive_uniqueness_row(report: TheoremReport, n: int) -> None:
    g = build_shift_graph(2 ** n + 1)
    core = critical_core(n)
    verts = g.vertex_list()
    table = _subset_chromatic_table(g)
    target = n + 1
    critical = []
    for S in range(1 << len(verts)):
        if table[S] != target:
            continue
        if all(table[S & ~(1 << t)] < target for t in range(len(verts)) if S >> t & 1):
            critical.append(S)
    core_mask = sum(1 << t for t, v in enumerate(verts) if v in core)
    ok = critical == [core_mask]
    report.add(f"exactly one of {1 << len(verts)} induced subgraphs is "
               f"{target}-vertex-critical, and it is the core",
               "exhaustive subset enumeration with chromatic numbers by subset DP",
               "pass" if ok else "fail",
               "enumeration:critical-subsets",
               {"count": len(critical),
                "vertices": [[verts[t].x, verts[t].y] for t in range(len(verts))
                             if critical and critical[0] >> t & 1]})


def verify_uniqueness(n: int, budget: SearchBudget | None = None) -> TheoremReport:
    """Check that the core is the unique minimal subgraph needing n + 1 colors.

    Steps: (a) the rows of verify_core_chromatic; (b) the member rows of
    verify_criticality: every core vertex is deletable down to n colors,
    so any subgraph needing n + 1 colors contains the whole core; (c) for
    each v not in the core, the core plus v is not vertex-critical, since
    deleting v falls back to the core and (a) applies.  At n = 2 an
    independent exhaustive enumeration of all induced subgraphs
    cross-checks the conclusion.
    """
    budget = budget or SearchBudget()
    report = TheoremReport("1", n)

    _core_chromatic_rows(report, n, budget, prefix="(a) ")
    a_status = report.status

    start_b = len(report.checks)
    _member_rows(report, n, budget, prefix="(b) ")
    b_statuses = [c.status for c in report.checks[start_b:]]

    core = critical_core(n)
    for v in core.graph().vertices():
        if v in core:
            continue
        report.add(f"(c) the core plus ({v.x},{v.y}) is not vertex-critical: deleting "
                   f"({v.x},{v.y}) returns the core, which still needs {n + 1} colors",
                   "derived from (a)", a_status)

    if n == 2:
        _exhaustive_uniqueness_row(report, n)

    report.add(f"the core is the unique {n + 1}-vertex-critical induced subgraph",
               "syllogism over (a) core chromatic number, (b) member deletions, "
               "(c) strict supersets", _combined([a_status] + b_statuses))
    return report


def verify_chromatic_formula(n_max: int, budget: SearchBudget | None = None) -> TheoremReport:
    """Check chi = ceil(log2 N): exactly for N <= 9, upper bounds beyond.

    The exact range resolves each ground size with both engines through
    chromatic_number; larger sizes get the descending-sequence upper
    bound, re-checked by the goodness test.  The upper-bound rows share
    the budget's time limit: once it has passed, one inconclusive row
    stands for the sizes not yet checked.  Within the exact range the
    report also confirms chi steps exactly at N = 2^v + 1.
    """
    require_int(n_max, "n_max", 2)
    budget = budget or SearchBudget()
    report = TheoremReport("formula", n_max)
    exact_hi = min(n_max, 9)
    chis: dict[int, int] = {}
    for N in range(2, exact_hi + 1):
        expected = (N - 1).bit_length()  # ceil(log2 N) without float error
        res = chromatic_number(build_shift_graph(N), budget)
        if not res.conclusive:
            status, payload = "inconclusive", None
        else:
            chis[N] = res.chi
            status = "pass" if res.chi == expected else "fail"
            payload = {"coloring": coloring_to_dict(res.coloring),
                       "refutation": res.refutation}
        report.add(f"chi of the shift graph on [1, {N}] equals {expected}",
                   "binary search with sequence and branch-and-bound engines in agreement",
                   status, f"chi:{N}", payload)

    if len(chis) == exact_hi - 1 and exact_hi >= 3:
        steps_ok = all(
            (chis[N] - chis[N - 1] == 1) == ((N - 1) & (N - 2) == 0)
            and chis[N] - chis[N - 1] in (0, 1)
            for N in range(3, exact_hi + 1))
        report.add(f"within [2, {exact_hi}] the chromatic number steps exactly at N = 2^v + 1",
                   "comparison of consecutive exact values", "pass" if steps_ok else "fail")

    start = time.monotonic()
    for N in range(10, n_max + 1):
        if time.monotonic() - start > budget.max_seconds:
            report.add(f"chi of the shift graph on [1, M] is at most ceil(log2 M) "
                       f"for each M from {N} to {n_max}",
                       "not checked: the time budget ran out", "inconclusive")
            break
        k = (N - 1).bit_length()
        seq = descending_full_sequence(k, N)
        ok = full_graph_goodness_violation(seq, N) is None
        report.add(f"chi of the shift graph on [1, {N}] is at most {k}",
                   "descending full sequence re-checked by the goodness test",
                   "pass" if ok else "fail")
    return report
