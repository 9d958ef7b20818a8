import xml.etree.ElementTree as ET

import pytest

from shiftcrit import DiagramSpec, InvalidParameterError, critical_core, render_svg

SVG = "{http://www.w3.org/2000/svg}"


def parse(svg):
    return ET.fromstring(svg)


def regions_of(root):
    return [g for g in root.iter(SVG + "g") if g.get("class") == "region"]


def cells_of(root):
    return [r for r in root.iter(SVG + "rect") if r.get("class") == "cell"]


@pytest.mark.parametrize("n,members", [(2, 5), (3, 19), (4, 87)])
def test_cells_are_exactly_the_core(n, members):
    root = parse(render_svg(DiagramSpec(n)))
    cells = cells_of(root)
    got = {(int(c.get("data-x")), int(c.get("data-y"))) for c in cells}
    assert len(cells) == members == len(got)
    assert got == {(v.x, v.y) for v in critical_core(n).vertex_list()}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_region_per_interval_with_corners_on_hyperbola(n):
    root = parse(render_svg(DiagramSpec(n)))
    regions = regions_of(root)
    assert len(regions) == n + 1
    assert [int(g.get("data-interval")) for g in regions] == list(range(n + 1))
    for g in regions:
        cx, cy = int(g.get("data-corner-x")), int(g.get("data-corner-y"))
        assert cx * cy == 2 ** n


def test_region_path_starts_at_its_corner():
    n, cs = 3, 20
    spec = DiagramSpec(n, cell_size=cs)
    root = parse(render_svg(spec))
    k = 2 ** n + 1
    for g in regions_of(root):
        d = g.find(SVG + "path").get("d").split()
        sx, sy = float(d[1]), float(d[2])
        cx, cy = int(g.get("data-corner-x")), int(g.get("data-corner-y"))
        assert sx == 2 * cs + (cx - 1) * cs
        assert sy == (cs // 2 + 1) + (k - cy) * cs


def test_hyperbola_passes_through_corners():
    spec = DiagramSpec(4, cell_size=16)
    root = parse(render_svg(spec))
    path = next(p for p in root.iter(SVG + "path")
                if p.get("class") == "hyperbola")
    coords = path.get("d").replace("M", "").replace("L", "").split()
    pts = {(float(coords[i]), float(coords[i + 1])) for i in range(0, len(coords), 2)}
    for g in regions_of(root):
        d = g.find(SVG + "path").get("d").split()
        corner = (float(d[1]), float(d[2]))
        assert any(abs(px - corner[0]) < 0.02 and abs(py - corner[1]) < 0.02
                   for px, py in pts), corner


def test_no_hyperbola_flag():
    root = parse(render_svg(DiagramSpec(3, hyperbola=False)))
    assert not [p for p in root.iter(SVG + "path") if p.get("class") == "hyperbola"]


def test_palette_override_and_default():
    palette = ("#111111", "#222222", "#333333", "#444444")
    svg = render_svg(DiagramSpec(3, palette=palette))
    for color in palette:
        assert color in svg
    with pytest.raises(InvalidParameterError):
        render_svg(DiagramSpec(3, palette=("#111111",)))


def test_axis_labels_match_orientation():
    # x runs 1..2^n left to right along the bottom; y runs 2..2^n+1 top to bottom
    root = parse(render_svg(DiagramSpec(2, cell_size=30)))
    texts = [(t.text, float(t.get("x")), float(t.get("y")))
             for t in root.iter(SVG + "text")]
    xs = sorted((x, label) for label, x, y in texts if label in "1234" and y > 140)
    assert [label for _, label in xs] == ["1", "2", "3", "4"]
    ys = sorted((y, label) for label, x, y in texts if x < 60)
    assert [label for _, label in ys] == ["2", "3", "4", "5"]


def test_deterministic_bytes():
    assert render_svg(DiagramSpec(4)) == render_svg(DiagramSpec(4))


def test_rejects_out_of_range():
    for bad in (1, 9, 0, "2"):
        with pytest.raises(InvalidParameterError):
            render_svg(DiagramSpec(bad))
    with pytest.raises(InvalidParameterError):
        render_svg(DiagramSpec(3, cell_size=-5))
