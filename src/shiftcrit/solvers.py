"""Exact k-colorability of shift-graph views, by two independent routes.

Both engines take one call shape, (view, k, budget=None), where the
view is a shift graph, a core or an induced subgraph and anything else
is refused.  Both count nodes on one clock, which reads the time on
every node, so a search stops within one node of its time limit;
branch-and-bound's adjacency build reads it too.

The first engine decides whether a good sequence exists: a proper
k-coloring of the constrained pairs is the same thing as a length-N
sequence over subsets of [1, k] avoiding forward containment on those
pairs, so backtracking over sequence entries decides colorability.  It
searches all good sequences, with forward checking on the masks still
placeable at later positions (Haralick & Elliott 1980), on an explicit
stack rather than by recursion.  Its whole search state is one int: the
feasible-mask bitsets of the remaining branch positions side by side.

The first engine also keeps a failure memo (nogood recording, Dechter
1990): a branch point's key is state * (colors + 1) + the number of
colors introduced so far, where the state is the one int above.  Its bit
length fixes the branch index, which is no digit of the key.  Everything
the rest of the search reads is a function of the key, so a key whose
subtree was exhausted once is skipped when it recurs.  Only exhausted
subtrees are recorded, never budget cut-offs, and the search order is
unchanged, so certificates are identical with and without the memo.

The second engine is a classical branch-and-bound vertex coloring with
a greedy clique precoloring and the first-use color symmetry cap.  It
colors DSATUR's most saturated vertex next (Brelaz 1979), over one
adjacency built from the view's edges, and keeps each vertex's neighbor
colors as one int bitset.  The greedy upper bound is the same search
with as many colors as vertices: its first descent, which never
backtracks.  The sequence engine shares nothing with it, so the two
engines' agreement is a meaningful check; chromatic_number runs every
query through both and insists they agree.
"""
from __future__ import annotations

import math
import reprlib
import sys
import time
from dataclasses import dataclass, field
from itertools import islice

from .errors import ConstructionError, InvalidParameterError, require_int
from .graphs import as_view
from .sequences import (
    SubsetSequence,
    VertexColoring,
    _MAX_GROUND,
    _masks_descending,
    coloring_from_sequence,
    coloring_to_dict,
    # not called here: kept as a name of this module for callers that look
    # it up here, such as the benchmark's tracer, which wraps it
    is_good,
    proper_coloring_violation,
)

_MEMO_CAP = 1 << 20  # failure-memo entries; at the cap lookups go on, inserts stop
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
    memo_entries: int = 0  # failure-memo size at the end; equals _MEMO_CAP when capped

    @property
    def conclusive(self) -> bool:
        return self.decision != "inconclusive"

    def refutation_record(self) -> dict:
        if self.decision != "no":
            raise InvalidParameterError(f"no refutation to record for decision {self.decision!r}")
        return {"k": self.k, "nodes": self.nodes, "prunes": self.prunes, "conclusive": True}

    def query_record(self) -> dict:
        return {"k": self.k, "engine": self.engine, "decision": self.decision,
                "nodes": self.nodes, "prunes": self.prunes}


@dataclass
class ChromaticResult:
    """Exact chromatic number with certificates, or an inconclusive marker."""

    chi: int | None
    conclusive: bool
    coloring: VertexColoring | None
    refutation: dict | None
    queries: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "conclusive": self.conclusive,
            "coloring": coloring_to_dict(self.coloring) if self.coloring else None,
            "refutation": self.refutation,
            "queries": list(self.queries),
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
    [1, k] with no forward containment on the view's vertices, branching
    left to right on the positions that occur in some vertex, with masks
    tried in descending size order.  Color labels are canonicalized by
    first use (any witness relabels to one introducing colors in order),
    which is sound for the yes/no decision.  A "yes" re-verifies its
    certificate; "no" is exhaustive over all good sequences.

    Masks are placed over min(k, ceil(log2 N)) colors, since the
    descending full sequence over that many is good for every pair of
    [1, N]; the certificate is still stated over [1, k].  More than
    _MAX_SEARCH_COLORS colors are rejected: the forward-checking tables
    hold 4^colors bits.

    The search state is one int with a 2^colors-bit field per branch
    position, the first position in the highest field: bit m of a field
    is set while mask m is still placeable there.  The state at branch
    index bi keeps only the fields from bi on, the low bits, since no
    placed position is read again.  Placing m at bi drops its field and
    clears every superset of m from the field of each right partner;
    an emptied field is a wipe-out, and what is left is the state at
    bi + 1.  Every field of a state is nonzero, so its bit length fixes
    bi, and the failure memo keys a branch point by its state and the
    first-use color count alone.  The key is sound because with forward
    checking `entries` is read only to build the final certificate.  A
    memo hit counts as a prune and costs no node; at _MEMO_CAP entries
    the memo stops growing but is still consulted.

    Each branch index has one frame on an explicit stack, so the depth
    is not bounded by the interpreter's recursion limit: its memo key,
    its remaining candidate masks, the colors in use and its state.
    Ints are immutable, so backtracking pops a frame and restores
    nothing.
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

    branch_positions = sorted({p for ij in pairs for p in ij})
    n_branch = len(branch_positions)
    n_masks = 1 << colors
    up_bits = [1 << m for m in range(n_masks)]  # the supersets of m
    for t in range(colors):
        tb = 1 << t
        for m in range(n_masks):
            if not m & tb:
                up_bits[m] |= up_bits[m | tb]
    all_bits = (1 << n_masks) - 1
    shift = [(n_branch - 1 - t) * n_masks for t in range(n_branch)]
    index = {p: t for t, p in enumerate(branch_positions)}
    partner_shifts: list[list[int]] = [[] for _ in range(n_branch)]
    for i, j in pairs:  # sorted pairs, so each right partner list ascends
        partner_shifts[index[i]].append(shift[index[j]])

    masks_desc = list(_masks_descending(colors))
    clock = _Clock(budget)
    entries = [0] * (n_points + 1)
    memo: set[int] = set()
    full = (1 << n_branch * n_masks) - 1
    # `used` is always a prefix [1, t] by the first-use canonicalization:
    # a candidate may only bring in the next colors.  The root's key is the
    # child key below with no color in use.
    frames = [(full * (colors + 1), iter(masks_desc), 0, full)]
    while frames:
        bi = len(frames) - 1
        key, cands, used, state = frames[-1]
        p, top = branch_positions[bi], shift[bi]
        for m in cands:
            if not clock.tick():
                return ColorabilityResult("inconclusive", k, "sequence", clock.nodes,
                                          clock.prunes, memo_entries=len(memo))
            fresh = m & ~used
            if fresh and fresh != ((1 << fresh.bit_count()) - 1) << used.bit_length():
                clock.prunes += 1
                continue
            if not state >> top + m & 1:
                clock.prunes += 1
                continue
            new, up = state & (1 << top) - 1, up_bits[m]  # the fields after bi
            for s in partner_shifts[bi]:
                new &= ~(up << s)
                if not new >> s & all_bits:
                    break  # a wipe-out
            else:
                entries[p] = m
                if bi + 1 == n_branch:
                    seq = SubsetSequence(tuple(entries[1:]), k)
                    # coloring_from_sequence checks goodness and raises GoodnessError
                    # on a bad certificate
                    return ColorabilityResult(
                        "yes", k, "sequence", clock.nodes, clock.prunes,
                        certificate_sequence=seq,
                        certificate_coloring=coloring_from_sequence(seq, view),
                        memo_entries=len(memo))
                child = new * (colors + 1) + (used | m).bit_length()
                if child not in memo:
                    frames.append((child, iter(masks_desc), used | m, new))
                    break  # descend; `cands` resumes here once the child is popped
            clock.prunes += 1  # a wipe-out or a memo hit
        else:
            # every candidate at bi failed: its subtree is exhausted
            if len(memo) < _MEMO_CAP:
                memo.add(key)
            frames.pop()
    return ColorabilityResult("no", k, "sequence", clock.nodes, clock.prunes,
                              memo_entries=len(memo))


def _adjacency(view, deadline: float = math.inf) -> list[list[int]] | None:
    """Per position in the view's vertex_list(), its neighbors' positions.

    None when the time.monotonic() deadline passes first; the clock is
    read every 4,096 edges, so a query's time limit covers its build.
    """
    adj: list[list[int]] = [[] for _ in range(view.vertex_count())]
    edges = view.edge_ids()
    while chunk := list(islice(edges, 4096)):
        if time.monotonic() > deadline:
            return None
        for a, b in chunk:
            adj[a].append(b)
            adj[b].append(a)
    return adj


def _most_saturated(colors, seen, degree) -> int:
    """DSATUR's choice: the uncolored vertex with the most distinct neighbor colors.

    Ties go to the larger degree, then to the smaller position.
    """
    best, best_key = -1, None
    for t, c in enumerate(colors):
        if c:
            continue
        key = (seen[t].bit_count(), degree[t], -t)
        if best_key is None or key > best_key:
            best, best_key = t, key
    return best


def _greedy_clique(adj) -> list[int]:
    """Positions by degree descending, then position; each kept when adjacent to all kept."""
    clique: list[int] = []
    common = set(range(len(adj)))  # the common neighbors of the clique so far
    for t in sorted(range(len(adj)), key=lambda t: (-len(adj[t]), t)):
        if t in common:
            clique.append(t)
            common.intersection_update(adj[t])
    return clique


def _dsatur(view, k: int, clock: _Clock) -> tuple[str, list[int] | None]:
    """DSATUR branch and bound on a view: (decision, color of each position).

    The adjacency rows are built under the clock's time limit, and the
    greedy clique takes colors 1, 2, ... (a clique larger than k
    refutes at once).  Then each frame colors the most saturated vertex
    with its least free color up to min(k, largest color in use + 1),
    and on backtracking moves it to its next free color.  seen[t] has
    bit c set when a neighbor of t has color c; a frame keeps the
    (u, old seen[u]) pairs its assignment changed, to undo it.  The
    colors are None unless the decision is "yes".
    """
    adj = _adjacency(view, clock.deadline)
    if adj is None:
        return "inconclusive", None
    clique = _greedy_clique(adj)
    if len(clique) > k:
        return "no", None
    m = len(adj)
    colors = [0] * m
    seen = [0] * m
    degree = [len(a) for a in adj]

    def assign(t: int, c: int) -> list:
        colors[t] = c
        bit = 1 << c
        trail = []
        for u in adj[t]:
            s = seen[u]
            if not s & bit:
                seen[u] = s | bit
                trail.append((u, s))
        return trail

    for rank, t in enumerate(clique):
        assign(t, rank + 1)
    max_used = len(clique)
    uncolored = m - len(clique)
    if uncolored == 0:
        return "yes", colors
    # frame: vertex, its color (0 before the first), max_used below it, its trail
    frames = [[_most_saturated(colors, seen, degree), 0, max_used, ()]]
    while frames:
        frame = frames[-1]
        t, cur, max_used, trail = frame
        if cur:
            colors[t] = 0
            for u, s in trail:
                seen[u] = s
            uncolored += 1
        # the colors in (cur, min(k, max_used + 1)] that no neighbor has
        free = ~(seen[t] | ((2 << cur) - 1)) & ((2 << min(k, max_used + 1)) - 1)
        if not free:
            clock.prunes += 1
            frames.pop()
            continue
        if not clock.tick():
            return "inconclusive", None
        c = (free & -free).bit_length() - 1
        frame[1], frame[3] = c, assign(t, c)
        uncolored -= 1
        if uncolored == 0:
            return "yes", colors
        frames.append([_most_saturated(colors, seen, degree), 0, max(max_used, c), ()])
    return "no", None


def k_colorable_bb(view, k: int, budget: SearchBudget | None = None) -> ColorabilityResult:
    """Branch-and-bound proper coloring of a graph view with at most k colors.

    DSATUR vertex selection, greedy-clique precoloring, and
    new colors admitted only one past the maximum color in use.  Shares
    no machinery with the sequence engine.
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
    too; None if it runs out.
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
        return ChromaticResult(0, True, VertexColoring({}, 0), None, [])

    greedy = greedy_coloring(view, budget)
    if greedy is None:
        return ChromaticResult(None, False, None, None,
                               [{"stage": "greedy", "decision": "inconclusive"}])
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
            return ChromaticResult(None, False, None, None, queries)
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
                return ChromaticResult(None, False, None, None, queries)
            if d != want:
                raise ConstructionError(f"binary search settled chi={chi} but {k} colors "
                                        f"are answered {d!r}")

    coloring = decided[chi].certificate_coloring
    if proper_coloring_violation(coloring, view) is not None:
        raise ConstructionError("final coloring certificate is improper")
    return ChromaticResult(chi, True, coloring, decided[chi - 1].refutation_record(), queries)
