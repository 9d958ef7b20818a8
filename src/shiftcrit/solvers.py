"""Exact k-colorability of shift-graph views, by two independent routes.

Both engines take one call shape, (view, k, budget=None), where the
view is a shift graph, a core or an induced subgraph and anything else
is refused.  Both count nodes on one clock, which reads the time on
every node, so a search stops within one node of its time limit;
branch-and-bound's adjacency build reads it too.

This module is the query API: argument checks, budgets, result types,
the certificate checks and chromatic_number.  The searches are in two
kernel modules that import neither each other nor this one.  The first
engine, `seqsearch`, decides whether a good sequence exists: a proper
k-coloring of the constrained pairs is the same thing as a length-N
sequence over subsets of [1, k] avoiding forward containment on those
pairs.  The second, `dsatur`, is a classical branch-and-bound vertex
coloring that colors DSATUR's most saturated vertex next (Brelaz 1979).
The greedy upper bound is the same search with as many colors as
vertices: its first descent, which never backtracks.  The two engines
share no search code, so their agreement is a meaningful check;
chromatic_number runs every query through both and insists they agree.
"""
from __future__ import annotations

import math
import reprlib
import sys
import time
from dataclasses import dataclass, field

from .dsatur import _dsatur
from .errors import ConstructionError, InvalidParameterError, require_int
from .graphs import as_view
from .seqsearch import search
from .sequences import (
    SubsetSequence,
    VertexColoring,
    _MAX_GROUND,
    coloring_from_sequence,
    coloring_to_dict,
    # not called here: kept as a name of this module for callers that look
    # it up here, such as the benchmark's tracer, which wraps it
    is_good,
    proper_coloring_violation,
)

_MAX_SEARCH_COLORS = 12  # the sequence engine's forward-checking tables hold 4^colors bits


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits for a single solver query.

    max_nodes is an int >= 1 and max_seconds a positive int or float;
    max_seconds = inf means no time limit; NaN and ints past any float are rejected.
    """

    max_nodes: int = 100_000_000
    max_seconds: float = 600.0

    def __post_init__(self):
        require_int(self.max_nodes, "max_nodes", 1)
        seconds = self.max_seconds
        # written as `not ... >` so that NaN, which fails every comparison, is rejected
        if (type(seconds) not in (int, float) or not seconds > 0
                or seconds != math.inf and seconds > sys.float_info.max):
            raise InvalidParameterError("need a positive number of seconds that a float "
                                        f"holds, got max_seconds={reprlib.repr(seconds)}")


@dataclass(frozen=True)
class ColorabilityResult:
    """Outcome of one k-colorability query."""

    decision: str  # "yes" | "no" | "inconclusive"
    k: int
    engine: str
    nodes: int
    prunes: int
    certificate_sequence: SubsetSequence | None = None
    certificate_coloring: VertexColoring | None = None
    memo_entries: int = 0  # failure-memo size at the end, bounded by seqsearch._MEMO_BYTES

    @property
    def conclusive(self) -> bool:
        return self.decision != "inconclusive"

    def refutation_record(self) -> dict:
        """The search's counts, conclusive for "no" and not after a cut-off; "yes" has none."""
        if self.decision == "yes":
            raise InvalidParameterError(f"no refutation to record for decision {self.decision!r}")
        return {"k": self.k, "nodes": self.nodes, "prunes": self.prunes,
                "conclusive": self.conclusive}

    def query_record(self) -> dict:
        return {"k": self.k, "engine": self.engine, "decision": self.decision,
                "nodes": self.nodes, "prunes": self.prunes}


@dataclass
class ChromaticResult:
    """Exact chromatic number with certificates, or an inconclusive marker."""

    chi: int | None
    coloring: VertexColoring | None = None
    refutation: dict | None = None
    queries: list = field(default_factory=list)

    @property
    def conclusive(self) -> bool:
        return self.chi is not None

    def to_json_dict(self) -> dict:
        """JSON-ready data that shares the result's own `refutation` and `queries`."""
        return {
            "chi": self.chi,
            "conclusive": self.conclusive,
            "coloring": coloring_to_dict(self.coloring) if self.coloring else None,
            "refutation": self.refutation,
            "queries": self.queries,
        }


class _Clock:
    """Budget bookkeeping shared by both engines; the clock is read on every node.

    A DSATUR node scans every vertex, so on a large view a few thousand
    nodes take seconds.
    """

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds
        self.nodes = 0
        self.prunes = 0

    def tick(self) -> bool:
        """Count one node; True while within budget."""
        self.nodes += 1
        return self.nodes <= self.max_nodes and time.monotonic() <= self.deadline


def k_colorable_via_sequences(view, k: int,
                              budget: SearchBudget | None = None) -> ColorabilityResult:
    """Decide k-colorability of a graph view via good sequences.

    Searches for a sequence of length N = view.n_points over subsets of
    [1, k] with no forward containment on the view's vertices (see
    `seqsearch.search`).  A "yes" re-verifies its certificate; "no" is
    exhaustive over all good sequences.  An empty view is "yes" in 0
    nodes, with the all-empty sequence.

    Masks are placed over min(k, ceil(log2 N)) colors, since the
    descending full sequence over that many is good for every pair of
    [1, N]; the certificate is still stated over [1, k].  More than
    _MAX_SEARCH_COLORS colors are rejected: the forward-checking tables
    hold 4^colors bits.
    """
    view = as_view(view)
    require_int(k, "k", 0, _MAX_GROUND)
    n_points = view.n_points
    colors = min(k, (n_points - 1).bit_length())
    if colors > _MAX_SEARCH_COLORS:
        raise InvalidParameterError(f"k = {k} on [1, {n_points}] needs a {colors}-color "
                                    f"search; at most {_MAX_SEARCH_COLORS} are supported")
    if budget is None:
        budget = SearchBudget()
    pairs = view.vertex_list()  # ascending, inside [1, n_points]
    if not pairs:
        return ColorabilityResult("yes", k, "sequence", 0, 0,
                                  certificate_sequence=SubsetSequence((0,) * n_points, k),
                                  certificate_coloring=VertexColoring({}, k))

    clock = _Clock(budget)
    decision, entries, memo_entries = search(pairs, n_points, colors, clock)
    if decision != "yes":
        return ColorabilityResult(decision, k, "sequence", clock.nodes, clock.prunes,
                                  memo_entries=memo_entries)
    seq = SubsetSequence(entries, k)
    # coloring_from_sequence checks goodness and raises GoodnessError on a bad certificate
    return ColorabilityResult("yes", k, "sequence", clock.nodes, clock.prunes,
                              certificate_sequence=seq,
                              certificate_coloring=coloring_from_sequence(seq, view),
                              memo_entries=memo_entries)


def k_colorable_bb(view, k: int, budget: SearchBudget | None = None) -> ColorabilityResult:
    """Branch-and-bound proper coloring of a graph view with at most k colors.

    DSATUR vertex selection, greedy-clique precoloring, and
    new colors admitted only one past the maximum color in use.  Shares
    no machinery with the sequence engine.  A view with more edges than
    dsatur._MAX_EDGES is "inconclusive": its adjacency rows would not fit.
    """
    view = as_view(view)
    require_int(k, "k", 0)
    clock = _Clock(budget or SearchBudget())
    decision, colors = _dsatur(view, k, clock)
    if decision != "yes":
        return ColorabilityResult(decision, k, "bb", clock.nodes, clock.prunes)
    coloring = VertexColoring(dict(zip(view.vertex_list(), colors)), k)
    if proper_coloring_violation(coloring, view) is not None:
        raise ConstructionError("branch-and-bound returned an improper coloring")
    return ColorabilityResult("yes", k, "bb", clock.nodes, clock.prunes,
                              certificate_coloring=coloring)


def greedy_coloring(view, budget: SearchBudget | None = None) -> VertexColoring | None:
    """DSATUR greedy coloring: branch and bound's first descent with k = the vertex count.

    With that many colors the first-use cap always admits a free color,
    so the descent never backtracks and gives each vertex its least free
    color.  Only the budget's time limit applies, to the adjacency build
    too; None if it runs out, or if the view has more edges than
    dsatur._MAX_EDGES.
    """
    view = as_view(view)
    m = view.vertex_count()
    limit = budget.max_seconds if budget else math.inf
    # the descent takes at most m nodes, so only the time limit can trip
    decision, colors = _dsatur(view, m, _Clock(SearchBudget(m + 1, limit)))
    if decision != "yes":
        return None
    return VertexColoring(dict(zip(view.vertex_list(), colors)), max(colors, default=0))


def chromatic_number(view, budget: SearchBudget | None = None) -> ChromaticResult:
    """Exact chromatic number of a view, each query decided by both engines.

    Binary search between the greedy upper bound and min(greedy, 3):
    DSATUR colors a bipartite graph with at most 2 colors (Brelaz 1979),
    so the greedy needs 3 exactly when the view has an odd cycle, and 2
    when it has an edge; the refutation at chi - 1 confirms the bound.
    Every k queried runs both
    the sequence engine and branch-and-bound; disagreement between two
    conclusive answers raises, mixed conclusiveness uses the conclusive
    one.  The result carries a coloring at chi, the refutation record
    for chi - 1, and the full query log.
    """
    view = as_view(view)
    if budget is None:
        budget = SearchBudget()
    m = view.vertex_count()
    if m == 0:
        return ChromaticResult(0, VertexColoring({}, 0))

    greedy = greedy_coloring(view, budget)
    if greedy is None:
        return ChromaticResult(None, queries=[{"stage": "greedy", "decision": "inconclusive"}])
    ub = greedy.k
    lb = min(ub, 3)
    queries: list[dict] = []
    decided: dict[int, ColorabilityResult] = {}  # the conclusive answer per k asked

    def query(k: int) -> str:
        r1 = k_colorable_via_sequences(view, k, budget)
        r2 = k_colorable_bb(view, k, budget)
        queries.append(r1.query_record())
        queries.append(r2.query_record())
        if r1.conclusive and r2.conclusive and r1.decision != r2.decision:
            raise ConstructionError(f"engines disagree at k={k}: {r1.decision} vs {r2.decision}")
        winner = r1 if r1.conclusive else r2
        if winner.conclusive:
            decided[k] = winner
        return winner.decision

    while lb < ub:
        mid = (lb + ub) // 2
        d = query(mid)
        if d == "inconclusive":
            return ChromaticResult(None, queries=queries)
        if d == "yes":
            ub = mid
        else:
            lb = mid + 1
    chi = lb
    # a coloring at chi and a refutation at chi - 1, each asked unless the search has it
    for k, want in ((chi, "yes"), (chi - 1, "no")):
        if k not in decided:
            d = query(k)
            if d == "inconclusive":
                return ChromaticResult(None, queries=queries)
            if d != want:
                raise ConstructionError(f"binary search settled chi={chi} but {k} colors "
                                        f"are answered {d!r}")

    coloring = decided[chi].certificate_coloring
    if proper_coloring_violation(coloring, view) is not None:
        raise ConstructionError("final coloring certificate is improper")
    return ChromaticResult(chi, coloring, decided[chi - 1].refutation_record(), queries)
