"""Brute-force reference implementations, independent of the library.

Everything here is written the slow obvious way on purpose: double
loops, explicit set objects, exhaustive color assignment.  Tests use
these to cross-check the fast paths and to freeze small known values.
"""
from itertools import combinations, product


def brute_adjacent(u, v):
    (a, b), (c, d) = u, v
    return u != v and (b == c or d == a)


def brute_vertices(n_points):
    return [(x, y) for x, y in combinations(range(1, n_points + 1), 2)]


def brute_edges(n_points):
    vs = brute_vertices(n_points)
    return [(u, v) for u, v in combinations(vs, 2) if brute_adjacent(u, v)]


def brute_intervals(n):
    return [(2 ** l, 2 ** n - 2 ** (n - l) + 2) for l in range(n + 1)]


def brute_core_members(n):
    out = []
    for x, y in brute_vertices(2 ** n + 1):
        if any(lo <= x and y <= hi for lo, hi in brute_intervals(n)):
            out.append((x, y))
    return out


def brute_is_good(entries, pairs):
    # entries are Python sets, pairs are 1-based (i, j) with i < j
    for i, j in pairs:
        if entries[i - 1] <= entries[j - 1]:
            return False
    return True


def brute_least_violation(entries, pairs, skip=None):
    # least (i, j) of pairs, other than skip, whose entry i is contained in entry j
    bad = [(i, j) for i, j in pairs if (i, j) != skip and entries[i - 1] <= entries[j - 1]]
    return min(bad) if bad else None


def brute_min_coloring(entries, n_points, skip=None):
    # pair (i, j) -> least element of entries[i-1] - entries[j-1]; the skipped
    # pair and pairs with an empty difference get no color
    colors = {}
    for i, j in combinations(range(1, n_points + 1), 2):
        diff = entries[i - 1] - entries[j - 1]
        if (i, j) != skip and diff:
            colors[(i, j)] = min(diff)
    return colors


def brute_min_coloring_is_proper(entries, n_points, skip=None):
    # every chain (i, m) ~ (m, l) of colored pairs has two different colors
    colors = brute_min_coloring(entries, n_points, skip)
    for m in range(1, n_points + 1):
        for i in range(1, m):
            for l in range(m + 1, n_points + 1):
                if (i, m) in colors and (m, l) in colors and colors[(i, m)] == colors[(m, l)]:
                    return False
    return True


def brute_saturation_trace(entries):
    # entries are masks; every step recomputes, for every position, the proper
    # subsets missing after it, then rewrites the rightmost such position to
    # its largest missing subset by (size, value)
    trace = [tuple(entries)]
    while True:
        cur = trace[-1]
        steps = []
        for s, a in enumerate(cur):
            missing = [b for b in range(a) if b & a == b and b not in cur[s + 1:]]
            if missing:
                steps.append((s, max(missing, key=lambda b: (bin(b).count("1"), b))))
        if not steps:
            return trace
        s, b = steps[-1]
        trace.append(cur[:s] + (b,) + cur[s + 1:])


def brute_is_proper(colors, edges):
    return all(colors[u] != colors[v] for u, v in edges)


def brute_k_colorable(vertices, edges, k):
    if not vertices:
        return True
    if k <= 0:
        return False
    for assignment in product(range(k), repeat=len(vertices)):
        colors = dict(zip(vertices, assignment))
        if brute_is_proper(colors, edges):
            return True
    return False


def brute_chromatic(vertices, edges):
    k = 0
    while not brute_k_colorable(vertices, edges, k):
        k += 1
    return k


def brute_is_bipartite(vertices, edges):
    # two-layer each component by a depth-first walk; a clash is an odd cycle
    nbrs = {v: [] for v in vertices}
    for u, w in edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    side = {}
    for s in vertices:
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in side:
                    side[w] = side[u] ^ 1
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def greedy_dsatur(vertices, edges):
    # DSATUR greedy coloring, the one-loop form the library once had: the
    # uncolored vertex with the most distinct neighbor colors, then the larger
    # degree, then the earlier of `vertices`, takes its least free color
    index = {v: t for t, v in enumerate(vertices)}
    adj = [[] for _ in vertices]
    for u, w in edges:
        adj[index[u]].append(index[w])
        adj[index[w]].append(index[u])
    m = len(vertices)
    colors = [0] * m
    nbr_colors = [set() for _ in range(m)]
    degree = [len(a) for a in adj]
    done = 0
    while done < m:
        best, best_key = -1, None
        for t, c in enumerate(colors):
            if c:
                continue
            key = (len(nbr_colors[t]), degree[t], -t)
            if best_key is None or key > best_key:
                best, best_key = t, key
        c = 1
        while c in nbr_colors[best]:
            c += 1
        colors[best] = c
        for u in adj[best]:
            nbr_colors[u].add(c)
        done += 1
    return dict(zip(vertices, colors))


def sorted_dimacs(view):
    # the in-memory exporter: collect every edge, normalise, sort, then join
    verts = view.vertex_list()
    ids = {v: i + 1 for i, v in enumerate(verts)}
    lines = ["c shift graph: vertices are ordered pairs, (x,y) ~ (y,z)"]
    lines.extend(f"c vertex {ids[v]} = ({v.x},{v.y})" for v in verts)
    edges = sorted((ids[u], ids[w]) if ids[u] < ids[w] else (ids[w], ids[u])
                   for u, w in view.edges())
    lines.append(f"p edge {len(verts)} {len(edges)}")
    lines.extend(f"e {i} {j}" for i, j in edges)
    return "\n".join(lines) + "\n"
