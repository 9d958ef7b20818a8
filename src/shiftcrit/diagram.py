"""SVG rendering of the critical core as nested triangular regions.

Each vertex (x, y) of the shift graph is a unit box in a staircase
grid; the y axis runs downward so the pair (1, 2) sits in the top-left
corner.  Every interval of the core contributes one shaded triangular
region (the union of the boxes with both coordinates in the interval),
and the regions overlap, so they are blended multiplicatively.  The
geometric lower-left corner of region l sits at plot point
(2^l, 2^(n-l)); all these corners lie on the hyperbola X * Y = 2^n,
drawn dotted.

Output is deterministic: fixed palette, fixed element order, no
timestamps.
"""
from __future__ import annotations

import colorsys

from .errors import require_int
from .graphs import critical_core


def default_cell_size(n: int) -> int:
    return max(3, min(32, 1024 // (1 << require_int(n, "n", 0))))


def default_palette(count: int) -> tuple[str, ...]:
    require_int(count, "count", 0)
    colors = []
    for i in range(count):
        r, g, b = colorsys.hls_to_rgb(i / count, 0.62, 0.65)
        colors.append(f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}")
    return tuple(colors)


def _fmt(value: float) -> str:
    s = f"{value:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def render_svg(n: int, cell_size: int = 0, hyperbola: bool = True) -> str:
    """Render the core diagram for n as a standalone SVG document.

    A zero cell_size falls back to default_cell_size(n); hyperbola draws
    the dotted curve X * Y = 2^n through the region corners.
    """
    require_int(n, "n", 2, 8)
    core = critical_core(n)
    k = core.n_points
    cs = require_int(cell_size, "cell_size", 0) or default_cell_size(n)
    palette = default_palette(n + 1)

    pad_left, pad_top = 2 * cs, cs // 2 + 1
    width = pad_left + (k - 1) * cs + cs // 2 + 1
    height = pad_top + (k - 1) * cs + 3 * cs // 2 + 2

    def pt(X: float, Y: float) -> tuple[str, str]:
        # plot point (X, Y), Y upward, as formatted SVG coordinates
        return _fmt(pad_left + (X - 1) * cs), _fmt(pad_top + (k - Y) * cs)

    def path(points) -> str:
        return "M " + " L ".join(" ".join(pt(X, Y)) for X, Y in points)

    def line(X1: float, Y1: float, X2: float, Y2: float) -> str:
        return '<line x1="{}" y1="{}" x2="{}" y2="{}"/>'.format(*pt(X1, Y1), *pt(X2, Y2))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
           f'width="{width}" height="{height}">', '<g class="regions">']
    for ell, (lo, hi) in enumerate(core.intervals):
        # staircase boundary of the boxes {(x, y): lo <= x < y <= hi}
        corners = [(lo, k + 1 - hi), (hi, k + 1 - hi)]
        corners += [(x, k + 2 - y) for y in range(hi, lo, -1) for x in (y, y - 1)]
        out += [f'<g class="region" data-interval="{ell}" data-corner-x="{1 << ell}" '
                f'data-corner-y="{1 << (n - ell)}" style="mix-blend-mode:multiply">',
                f'<path d="{path(corners)} Z" fill="{palette[ell]}" fill-opacity="0.7"/>',
                '</g>']
    out.append('</g>')

    out.append('<g class="grid" stroke="#cccccc" stroke-width="1" fill="none">')
    for i in range(2, k + 1):
        # plot height i and plot x = i, each stopped at the x < y staircase
        out += [line(1, i, k - i + 2, i), line(i, k - i + 2, i, 1)]
    out += [line(1, 1, k, 1), line(1, k, 1, 1), '</g>']

    out.append('<g class="cells" fill="none" stroke="#787878" stroke-width="1">')
    for v in core.vertices():
        x, y = pt(v.x, k - v.y + 2)
        out.append(f'<rect class="cell" data-x="{v.x}" data-y="{v.y}" '
                   f'x="{x}" y="{y}" width="{cs}" height="{cs}"/>')
    out.append('</g>')

    out.append(f'<g class="labels" font-family="sans-serif" '
               f'font-size="{max(6, round(cs * 0.38))}" fill="#333333">')
    for i in range(1, k):
        x, y = pt(i + 0.5, 0.25)
        out.append(f'<text x="{x}" y="{y}" text-anchor="middle">{i}</text>')
    for i in range(2, k + 1):
        x, y = pt(0.75, k - i + 1.4)
        out.append(f'<text x="{x}" y="{y}" text-anchor="end">{i}</text>')
    out.append('</g>')

    if hyperbola:
        # 16 log-spaced samples per doubling hit every region corner X = 2^l
        Xs = [2 ** (i / 16) for i in range(16 * n + 1)]
        out.append(f'<path class="hyperbola" d="{path((X, (1 << n) / X) for X in Xs)}" '
                   f'fill="none" stroke="#d22222" stroke-width="{max(2, cs // 8)}" '
                   f'stroke-linecap="round" stroke-dasharray="0.1 {max(4, cs // 4)}"/>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
