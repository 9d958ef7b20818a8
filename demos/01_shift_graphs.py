"""
Shift graphs and their logarithmic chromatic number
===================================================

Vertices are ordered pairs (x, y) with 1 <= x < y <= N, and (x, y) is
adjacent to (y, z): the second coordinate of one pair is the first of
the other.  These graphs contain no triangles, yet their chromatic
number grows like ceil(log2 N).
"""
from shiftcrit import (
    SearchBudget,
    build_shift_graph,
    chromatic_number,
    is_triangle_free,
)

# -- sizes follow binomial coefficients -----------------------------------

for n_points in (4, 8, 16, 64):
    g = build_shift_graph(n_points)
    print(f"N={n_points:3d}: {g.vertex_count():5d} vertices, "
          f"{g.edge_count():6d} edges")

# -- adjacency is chain-shaped --------------------------------------------

g = build_shift_graph(6)
v = next(iter(g.vertices()))
print(f"\nneighbors of {v}: {sorted(str(u) for u in g.neighbors(v))}")

# every (x, y) has (x - 1) pairs ending at x and (N - y) starting at y
for v in list(g.vertices())[:4]:
    print(f"degree{v} = {g.degree(v)} = ({v.x} - 1) + (6 - {v.y})")

# -- no triangles, ever ----------------------------------------------------

print("\ntriangle-free for N up to 30:",
      all(is_triangle_free(build_shift_graph(n)) for n in range(2, 31)))

# -- the chromatic ladder --------------------------------------------------

# chi steps up by one exactly when N passes a power of two
print("\n  N : chi")
budget = SearchBudget(max_seconds=60)
for n_points in range(2, 10):
    res = chromatic_number(build_shift_graph(n_points), budget)
    marker = "  <- step" if n_points in (3, 5, 9) else ""
    print(f"{n_points:3d} : {res.chi}{marker}")
