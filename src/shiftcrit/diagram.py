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


def _region_path(lo: int, hi: int, k: int, mx, my) -> str:
    # staircase boundary of the boxes {(x, y): lo <= x < y <= hi},
    # in plot coordinates with Y upward; conversion flips Y for SVG
    points = [(lo, k + 1 - hi), (hi, k + 1 - hi)]
    for y in range(hi, lo, -1):
        points.append((y, k + 2 - y))
        points.append((y - 1, k + 2 - y))
    parts = [f"M {_fmt(mx(points[0][0]))} {_fmt(my(points[0][1]))}"]
    parts += [f"L {_fmt(mx(X))} {_fmt(my(Y))}" for X, Y in points[1:]]
    parts.append("Z")
    return " ".join(parts)


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

    pad_left = 2 * cs
    pad_top = cs // 2 + 1
    pad_right = cs // 2 + 1
    pad_bottom = 3 * cs // 2 + 2
    width = pad_left + (k - 1) * cs + pad_right
    height = pad_top + (k - 1) * cs + pad_bottom

    def mx(X: float) -> float:
        return pad_left + (X - 1) * cs

    def my(Y: float) -> float:
        return pad_top + (k - Y) * cs

    font = max(6, round(cs * 0.38))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
           f'width="{width}" height="{height}">']

    out.append('<g class="regions">')
    for ell, iv in enumerate(core.intervals):
        corner_x, corner_y = 1 << ell, 1 << (n - ell)
        d = _region_path(iv.lo, iv.hi, k, mx, my)
        out.append(f'<g class="region" data-interval="{ell}" '
                   f'data-corner-x="{corner_x}" data-corner-y="{corner_y}" '
                   f'style="mix-blend-mode:multiply">')
        out.append(f'<path d="{d}" fill="{palette[ell]}" fill-opacity="0.7"/>')
        out.append('</g>')
    out.append('</g>')

    grid = [f'<g class="grid" stroke="#cccccc" stroke-width="1" fill="none">']
    for i in range(2, k + 1):
        # horizontal line at plot height i, vertical line at plot x = i;
        # both stop at the x < y staircase boundary
        grid.append(f'<line x1="{_fmt(mx(1))}" y1="{_fmt(my(i))}" '
                    f'x2="{_fmt(mx(k - i + 2))}" y2="{_fmt(my(i))}"/>')
        grid.append(f'<line x1="{_fmt(mx(i))}" y1="{_fmt(my(k - i + 2))}" '
                    f'x2="{_fmt(mx(i))}" y2="{_fmt(my(1))}"/>')
    grid.append(f'<line x1="{_fmt(mx(1))}" y1="{_fmt(my(1))}" '
                f'x2="{_fmt(mx(k))}" y2="{_fmt(my(1))}"/>')
    grid.append(f'<line x1="{_fmt(mx(1))}" y1="{_fmt(my(k))}" '
                f'x2="{_fmt(mx(1))}" y2="{_fmt(my(1))}"/>')
    grid.append('</g>')
    out += grid

    out.append('<g class="cells" fill="none" stroke="#787878" stroke-width="1">')
    for v in core.vertices():
        out.append(f'<rect class="cell" data-x="{v.x}" data-y="{v.y}" '
                   f'x="{_fmt(mx(v.x))}" y="{_fmt(my(k - v.y + 2))}" '
                   f'width="{cs}" height="{cs}"/>')
    out.append('</g>')

    out.append(f'<g class="labels" font-family="sans-serif" font-size="{font}" '
               f'fill="#333333">')
    for i in range(1, k):
        out.append(f'<text x="{_fmt(mx(i + 0.5))}" y="{_fmt(my(0.25))}" '
                   f'text-anchor="middle">{i}</text>')
    for i in range(2, k + 1):
        out.append(f'<text x="{_fmt(mx(0.75))}" y="{_fmt(my(k - i + 1.4))}" '
                   f'text-anchor="end">{i}</text>')
    out.append('</g>')

    if hyperbola:
        # log-spaced samples so every region corner X = 2^l is hit exactly
        steps = 16 * n
        pts = []
        for i in range(steps + 1):
            X = 2 ** (n * i / steps)
            pts.append((mx(X), my((1 << n) / X)))
        d = "M " + " L ".join(f"{_fmt(X)} {_fmt(Y)}" for X, Y in pts)
        out.append(f'<path class="hyperbola" d="{d}" fill="none" stroke="#d22222" '
                   f'stroke-width="{max(2, cs // 8)}" stroke-linecap="round" '
                   f'stroke-dasharray="0.1 {max(4, cs // 4)}"/>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
