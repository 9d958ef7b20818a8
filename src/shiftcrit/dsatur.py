"""Branch-and-bound coloring of a view: DSATUR over one adjacency built from its edges.

A classical branch-and-bound vertex coloring with the first-use color
symmetry cap.  It colors DSATUR's most saturated vertex next (Brelaz
1979), over adjacency rows built from the view's edge_ids() under the
query's time limit, and keeps each vertex's neighbor colors as one int
bitset.  A view with more than _MAX_EDGES edges is answered
"inconclusive" before any row is built.

It needs no clique precoloring: every view of a shift graph is
triangle-free, so a greedy clique is one edge at most, and DSATUR's own
first two picks are that edge (the vertex of largest degree, then its
neighbor of largest degree), which the first-use cap colors 1 and 2.

This module shares no code with the sequence engine (`seqsearch`) and
imports neither it nor `solvers`, so the two engines' agreement is a
meaningful check.  `solvers.k_colorable_bb` and `solvers.greedy_coloring`
check the arguments, pass their clock in and check the coloring.
"""
from __future__ import annotations

import math
import time
from itertools import islice

# the most edges whose adjacency rows are built.  The rows take about 84
# bytes per edge, two list slots and an int per end: building them for the
# shift graph on [1, 200] (1,313,400 edges) grew ru_maxrss by 105 MB, and
# on [1, 400] (10,586,800 edges) they took 877 MB.  So 4 M edges is about
# 340 MB of rows; [1, 250] (2,573,000 edges) is under the cap
_MAX_EDGES = 4_000_000


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


def _dsatur(view, k: int, clock) -> tuple[str, list[int] | None]:
    """DSATUR branch and bound on a view: (decision, color of each position).

    A view with more than _MAX_EDGES edges is "inconclusive" at once.
    The adjacency rows are built under the clock's time limit.  Then
    each frame colors the most saturated vertex with its least free
    color up to min(k, largest color in use + 1), and on backtracking
    moves it to its next free color; the answer is "yes" once every
    vertex has a frame.  seen[t] has bit c set when a neighbor of t has
    color c; a frame keeps the (u, old seen[u]) pairs its assignment
    changed, to undo it.  The colors are None unless the decision is
    "yes".  The clock has the time.monotonic() deadline, counts nodes
    with tick(), False once its budget is spent, and prunes in its
    `prunes` attribute.
    """
    if view.edge_count() > _MAX_EDGES:
        return "inconclusive", None
    adj = _adjacency(view, clock.deadline)
    if adj is None:
        return "inconclusive", None
    m = len(adj)
    if m == 0:
        return "yes", []
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

    # frame: vertex, its color (0 before the first), max_used below it, its trail;
    # every frame below the top holds one colored vertex
    frames = [[_most_saturated(colors, seen, degree), 0, 0, ()]]
    while frames:
        frame = frames[-1]
        t, cur, max_used, trail = frame
        if cur:
            colors[t] = 0
            for u, s in trail:
                seen[u] = s
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
        if len(frames) == m:
            return "yes", colors
        frames.append([_most_saturated(colors, seen, degree), 0, max(max_used, c), ()])
    return "no", None
