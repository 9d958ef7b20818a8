"""Exact k-colorability of shift-graph views, by two independent routes.

The first engine decides whether a good sequence exists: a proper
k-coloring of the constrained pairs is the same thing as a length-N
sequence over subsets of [1, k] avoiding forward containment on those
pairs, so backtracking over sequence entries decides colorability.  It
searches all good sequences, with forward checking on the masks still
placeable at later positions (Haralick & Elliott 1980), on an explicit
stack rather than by recursion.

The first engine also keeps a failure memo (nogood recording, Dechter
1990): the state at a branch point is the branch index,
the number of colors introduced so far and the feasible-mask bitset of
every remaining branch position.  Everything the rest of the search
reads is a function of that state, so a state whose subtree was
exhausted once is skipped when it recurs.  Only exhausted subtrees are
recorded, never budget cut-offs, and the search order is unchanged, so
certificates are identical with and without the memo.

The second engine is a classical branch-and-bound vertex coloring with
a greedy clique precoloring and the first-use color symmetry cap.  It
and the greedy upper bound pick the next vertex by one rule, DSATUR's
most saturated vertex (Brelaz 1979), over one adjacency built from the
view's edges.  The sequence engine shares nothing with them, so the two
engines' agreement is a meaningful check; chromatic_number runs every
query through both and insists they agree.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    ConstructionError,
    InvalidParameterError,
    InvalidVertexError,
    SequenceLengthError,
)
from .graphs import GraphView
from .sequences import (
    SubsetSequence,
    VertexColoring,
    _MAX_GROUND,
    _masks_descending,
    coloring_from_sequence,
    coloring_to_dict,
    constraint_pairs,
    # not called here: kept as a name of this module for callers that look
    # it up here, such as the benchmark's tracer, which wraps it
    is_good,
    proper_coloring_violation,
)

_MEMO_CAP = 1 << 20  # failure-memo entries; at the cap lookups go on, inserts stop


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits for a single solver query.

    max_seconds = inf means no time limit; NaN is rejected.
    """

    max_nodes: int = 100_000_000
    max_seconds: float = 600.0

    def __post_init__(self):
        # written as `not ... >` so that NaN, which fails every comparison, is rejected
        if not (self.max_nodes >= 1 and self.max_seconds > 0):
            raise InvalidParameterError(
                f"budget limits must be positive, got max_nodes={self.max_nodes!r}, "
                f"max_seconds={self.max_seconds!r}")


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


def as_view(x):
    """Check that a graph argument is a graph view, and return it."""
    if isinstance(x, GraphView):
        return x
    raise InvalidParameterError(f"not a graph view: {x!r}")


class _Clock:
    """Budget bookkeeping shared by both engines."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.start = time.monotonic()
        self.nodes = 0
        self.prunes = 0

    def tick(self) -> bool:
        """Count one node; True while within budget."""
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            return False
        if self.nodes % 2048 == 0 and time.monotonic() - self.start > self.budget.max_seconds:
            return False
        return True


def k_colorable_via_sequences(n_points: int, k: int, X,
                              budget: SearchBudget | None = None) -> ColorabilityResult:
    """Decide k-colorability of the pairs X over [1, n_points] via good sequences.

    Searches for a length-n_points sequence over subsets of [1, k] with
    no forward containment on X, branching left to right on the
    positions that occur in some pair, with masks tried in descending
    size order.  Color labels are canonicalized by first use (any
    witness relabels to one introducing colors in order), which is sound
    for the yes/no decision.  A "yes" re-verifies its certificate; "no"
    is exhaustive over all good sequences.

    Masks are placed over min(k, ceil(log2 n_points)) colors, since the
    descending full sequence over that many is good for every pair of
    [1, n_points]; the certificate is still stated over [1, k].  More
    than 12 colors are rejected: the forward-checking tables hold
    4^colors bits.

    A failure memo records every exhausted branch point under one int
    key packing the branch index, the first-use color count and
    feasible[q] for each remaining branch position q.  The key is sound
    because with forward checking `entries` is read only to build the
    final certificate.  A memo hit counts as a prune and costs no node;
    at _MEMO_CAP entries the memo stops growing but is still consulted.

    The search keeps one frame per branch index on an explicit stack,
    so its depth is not bounded by the interpreter's recursion limit.
    """
    if not isinstance(n_points, int) or n_points < 2:
        raise InvalidParameterError(f"ground interval needs N >= 2, got {n_points!r}")
    if not isinstance(k, int) or k < 0:
        raise InvalidParameterError(f"color count must be nonnegative, got {k!r}")
    if k > _MAX_GROUND:
        raise InvalidParameterError(f"color count {k} exceeds the supported maximum {_MAX_GROUND}")
    colors = min(k, (n_points - 1).bit_length())
    if colors > 12:
        raise InvalidParameterError(f"k = {k} on [1, {n_points}] needs a {colors}-color "
                                    f"search; at most 12 are supported")
    if budget is None:
        budget = SearchBudget()
    try:
        pairs = constraint_pairs(X, n_points)
    except SequenceLengthError as e:
        raise InvalidVertexError(str(e)) from None

    right_partners: list[list[int]] = [[] for _ in range(n_points + 1)]
    for i, j in pairs:  # sorted pairs, so each list ascends
        right_partners[i].append(j)
    branch_positions = sorted({p for ij in pairs for p in ij})
    n_branch = len(branch_positions)

    # forward checking: feasible[p] is the bitset of masks still placeable at p;
    # placing m at i removes every superset of m from each right partner of i
    n_masks = 1 << colors
    up_bits = [1 << m for m in range(n_masks)]
    for t in range(colors):
        tb = 1 << t
        for m in range(n_masks):
            if not m & tb:
                up_bits[m] |= up_bits[m | tb]
    all_bits = (1 << n_masks) - 1
    not_up = [all_bits ^ u for u in up_bits]
    feasible = [all_bits] * (n_points + 1)

    masks_desc = list(_masks_descending(colors))
    clock = _Clock(budget)
    entries = [0] * (n_points + 1)
    memo: set[int] = set()

    def memo_key(bi: int, used: int) -> int:
        """Pack the search state at branch index bi into one int.

        One fixed-width field per remaining position, with bi and the
        color count in the low digits so keys of different depths never
        collide.
        """
        key = 0
        for q in branch_positions[bi:]:
            key = (key << n_masks) | feasible[q]
        return (key * (colors + 1) + used.bit_length()) * n_branch + bi

    def undo(trail) -> None:
        for j, old in reversed(trail):
            feasible[j] = old

    # frame bi: memo key, remaining candidate masks, colors in use, FC trail of
    # the candidate being explored.  `used` is always a prefix [1, t] by the
    # first-use canonicalization: a candidate may only bring in the next colors.
    key_at = [0] * n_branch
    cands_at: list = [None] * n_branch
    used_at = [0] * n_branch
    trail_at: list = [()] * n_branch
    found = n_branch == 0
    out_of_budget = False
    bi = 0
    if not found:
        key_at[0], cands_at[0] = memo_key(0, 0), iter(masks_desc)
    while not found:
        p = branch_positions[bi]
        used = used_at[bi]
        for m in cands_at[bi]:
            if not clock.tick():
                out_of_budget = True
                break
            fresh = m & ~used
            if fresh and fresh != ((1 << fresh.bit_count()) - 1) << used.bit_length():
                clock.prunes += 1
                continue
            if not (feasible[p] >> m) & 1:
                clock.prunes += 1
                continue
            trail = ()
            if right_partners[p]:
                trail = []
                nu = not_up[m]
                dead = False
                for j in right_partners[p]:
                    old = feasible[j]
                    new = old & nu
                    if new != old:
                        feasible[j] = new
                        trail.append((j, old))
                        if new == 0:
                            dead = True
                            break
                if dead:
                    clock.prunes += 1
                    undo(trail)
                    continue
            entries[p] = m
            if bi + 1 == n_branch:
                found = True
                break
            key = memo_key(bi + 1, used | m)
            if key in memo:
                clock.prunes += 1
                undo(trail)
                continue
            trail_at[bi] = trail
            bi += 1
            key_at[bi], cands_at[bi], used_at[bi] = key, iter(masks_desc), used | m
            break
        else:
            # every candidate at bi failed: its subtree is exhausted
            if len(memo) < _MEMO_CAP:
                memo.add(key_at[bi])
            if bi == 0:
                break
            bi -= 1
            undo(trail_at[bi])
        if out_of_budget:
            break

    if not found:
        return ColorabilityResult("inconclusive" if out_of_budget else "no", k, "sequence",
                                  clock.nodes, clock.prunes, memo_entries=len(memo))
    seq = SubsetSequence(tuple(entries[1:]), k)
    # coloring_from_sequence checks goodness and raises GoodnessError on a bad certificate
    coloring = coloring_from_sequence(seq, pairs) if pairs else VertexColoring({}, k)
    return ColorabilityResult("yes", k, "sequence", clock.nodes, clock.prunes,
                              certificate_sequence=seq, certificate_coloring=coloring,
                              memo_entries=len(memo))


def _adjacency(view):
    """The view's vertex list and, per position in it, its neighbors' positions."""
    verts = view.vertex_list()
    adj: list[list[int]] = [[] for _ in verts]
    for a, b in view.edge_ids():
        adj[a].append(b)
        adj[b].append(a)
    return verts, adj


def _most_saturated(colors, nbr_colors, degree) -> int:
    """DSATUR's choice: the uncolored vertex with the most distinct neighbor colors.

    Ties go to the larger degree, then to the smaller position.
    """
    best, best_key = -1, None
    for t, c in enumerate(colors):
        if c:
            continue
        key = (len(nbr_colors[t]), degree[t], -t)
        if best_key is None or key > best_key:
            best, best_key = t, key
    return best


def _greedy_clique(adj) -> list[int]:
    order = sorted(range(len(adj)), key=lambda t: (-len(adj[t]), t))
    clique: list[int] = []
    sets = [set(a) for a in adj]
    for t in order:
        if all(t in sets[q] for q in clique):
            clique.append(t)
    return clique


def k_colorable_bb(view, k: int, budget: SearchBudget | None = None) -> ColorabilityResult:
    """Branch-and-bound proper coloring of a graph view with at most k colors.

    DSATUR vertex selection, greedy-clique precoloring, and
    new colors admitted only one past the maximum color in use.  Shares
    no machinery with the sequence engine.
    """
    view = as_view(view)
    if not isinstance(k, int) or k < 0:
        raise InvalidParameterError(f"color count must be nonnegative, got {k!r}")
    if budget is None:
        budget = SearchBudget()
    verts, adj = _adjacency(view)
    m = len(verts)
    clock = _Clock(budget)
    if m == 0:
        return ColorabilityResult("yes", k, "bb", 0, 0,
                                  certificate_coloring=VertexColoring({}, k))
    if k == 0:
        return ColorabilityResult("no", k, "bb", 0, 0)

    clique = _greedy_clique(adj)
    if len(clique) > k:
        return ColorabilityResult("no", k, "bb", 0, 0)

    colors = [0] * m
    nbr_colors: list[dict[int, int]] = [dict() for _ in range(m)]
    degree = [len(a) for a in adj]

    def assign(t: int, c: int):
        colors[t] = c
        for u in adj[t]:
            d = nbr_colors[u]
            d[c] = d.get(c, 0) + 1

    def unassign(t: int, c: int):
        colors[t] = 0
        for u in adj[t]:
            d = nbr_colors[u]
            if d[c] == 1:
                del d[c]
            else:
                d[c] -= 1

    for rank, t in enumerate(clique):
        assign(t, rank + 1)
    max_used = len(clique)
    uncolored = m - len(clique)

    def next_color(t: int, after: int, cap: int) -> int:
        for c in range(after + 1, min(k, cap) + 1):
            if c not in nbr_colors[t]:
                return c
        return 0

    found = uncolored == 0
    exhausted = False
    out_of_budget = False
    if not found:
        frames: list[list[int]] = [[_most_saturated(colors, nbr_colors, degree), 0, max_used]]
        while frames:
            frame = frames[-1]
            t, cur, prev_max = frame
            if cur:
                unassign(t, cur)
                max_used = prev_max
                uncolored += 1
            c = next_color(t, cur, max_used + 1)
            if c == 0:
                clock.prunes += 1
                frames.pop()
                continue
            if not clock.tick():
                out_of_budget = True
                break
            frame[1] = c
            frame[2] = max_used
            assign(t, c)
            max_used = max(max_used, c)
            uncolored -= 1
            if uncolored == 0:
                found = True
                break
            frames.append([_most_saturated(colors, nbr_colors, degree), 0, max_used])
        else:
            exhausted = True

    if out_of_budget:
        return ColorabilityResult("inconclusive", k, "bb", clock.nodes, clock.prunes)
    if exhausted:
        return ColorabilityResult("no", k, "bb", clock.nodes, clock.prunes)
    coloring = VertexColoring({verts[t]: colors[t] for t in range(m)}, k)
    if proper_coloring_violation(coloring, verts) is not None:
        raise ConstructionError("branch-and-bound returned an improper coloring")
    return ColorabilityResult("yes", k, "bb", clock.nodes, clock.prunes,
                              certificate_coloring=coloring)


def greedy_coloring(view, budget: SearchBudget | None = None) -> VertexColoring | None:
    """DSATUR greedy coloring; None if the time budget runs out."""
    view = as_view(view)
    verts, adj = _adjacency(view)
    m = len(verts)
    if m == 0:
        return VertexColoring({}, 0)
    start = time.monotonic()
    limit = budget.max_seconds if budget else None
    colors = [0] * m
    nbr_colors: list[set[int]] = [set() for _ in range(m)]
    degree = [len(a) for a in adj]
    done = 0
    while done < m:
        if limit is not None and done % 4096 == 0 and time.monotonic() - start > limit:
            return None
        best = _most_saturated(colors, nbr_colors, degree)
        c = 1
        while c in nbr_colors[best]:
            c += 1
        colors[best] = c
        for u in adj[best]:
            nbr_colors[u].add(c)
        done += 1
    k = max(colors)
    return VertexColoring({verts[t]: colors[t] for t in range(m)}, k)


def _has_odd_cycle(view) -> bool:
    """BFS two-layering; True when some component is not bipartite."""
    _, adj = _adjacency(view)
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return True
    return False


def chromatic_number(view, budget: SearchBudget | None = None) -> ChromaticResult:
    """Exact chromatic number of a view, each query decided by both engines.

    Binary search between a greedy upper bound and a cheap lower bound
    (2 with any edge, 3 with an odd cycle).  Every k queried runs both
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
    lb = 1
    if view.edge_count() > 0:
        lb = 2
        if _has_odd_cycle(view):
            lb = 3
    queries: list[dict] = []
    refutations: dict[int, dict] = {}
    yes_results: dict[int, ColorabilityResult] = {}

    def query(k: int) -> str:
        r1 = k_colorable_via_sequences(view.n_points, k, view, budget)
        r2 = k_colorable_bb(view, k, budget)
        queries.append(r1.query_record())
        queries.append(r2.query_record())
        if r1.conclusive and r2.conclusive and r1.decision != r2.decision:
            raise ConstructionError(f"engines disagree at k={k}: {r1.decision} vs {r2.decision}")
        winner = r1 if r1.conclusive else r2
        if not winner.conclusive:
            return "inconclusive"
        if winner.decision == "no":
            refutations[k] = winner.refutation_record()
        else:
            yes_results[k] = r1 if r1.decision == "yes" else r2
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

    if chi not in yes_results:
        d = query(chi)
        if d == "inconclusive":
            return ChromaticResult(None, False, None, None, queries)
        if d == "no":
            raise ConstructionError(f"{chi}-coloring exists greedily but search refutes it")
    if chi - 1 not in refutations:
        d = query(chi - 1)
        if d == "inconclusive":
            return ChromaticResult(None, False, None, None, queries)
        if d == "yes":
            raise ConstructionError(f"binary search settled chi={chi} but {chi - 1} colors suffice")

    coloring = yes_results[chi].certificate_coloring
    if proper_coloring_violation(coloring, view.vertex_list()) is not None:
        raise ConstructionError("final coloring certificate is improper")
    refutation = refutations.get(chi - 1)
    return ChromaticResult(chi, True, coloring, refutation, queries)
