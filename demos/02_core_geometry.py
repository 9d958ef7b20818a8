"""
The critical core and its interval geometry
===========================================

Inside the shift graph on [1, 2^n + 1] sits a distinguished vertex set
W: the pairs whose coordinates fall together into one of n + 1 nested
intervals I_l = [2^l, 2^n - 2^(n-l) + 2].  Drawn as unit boxes, the
pairs of each interval form a triangle, and the triangle corners line
up on the hyperbola x * y = 2^n.
"""
from pathlib import Path

from shiftcrit import DiagramSpec, critical_core, render_svg

# -- the intervals overlap and shrink dyadically ---------------------------

for n in (2, 3, 4):
    core = critical_core(n)
    spans = ", ".join(f"[{iv.lo},{iv.hi}]" for iv in core.intervals)
    print(f"n={n}: intervals {spans}  -> {core.vertex_count()} members")

# -- membership is a containment test --------------------------------------

core = critical_core(3)
for pair in ((2, 5), (4, 8), (3, 7), (1, 9)):
    mark = "in W" if pair in core else "not in W"
    print(f"({pair[0]},{pair[1]}): {mark}")

# -- the core is a graph view, like the full shift graph ---------------------

print(f"W(3) as a graph: {core.vertex_count()} vertices, {core.edge_count()} edges; "
      f"(4,8) has degree {core.degree((4, 8))}")

# -- reversal symmetry ------------------------------------------------------

# the flip (x, y) -> (N+1-y, N+1-x) maps interval l onto interval n-l
npts = core.n_points
members = {tuple(v) for v in core.vertices()}
flipped = {(npts + 1 - y, npts + 1 - x) for x, y in members}
print("\nclosed under reversal:", flipped == members)

# -- the picture ------------------------------------------------------------

out = Path(__file__).with_name("core4.svg")
out.write_text(render_svg(DiagramSpec(4)))
print(f"wrote {out.name}: 5 shaded regions, 87 cells, dotted hyperbola")
