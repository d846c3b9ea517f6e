"""Deterministic SVG pictures of lattice regions, defects and tilings.

Lattice point (x, y) is drawn at (x*sqrt(3)/2, -(y + x/2)) so the symmetry
axis through the cut sides runs horizontally and the cut sides are vertical,
matching the usual way these hexagons are pictured.  Output is byte-stable
for a fixed input: floats are formatted to two decimals and every element is
emitted in sorted order.
"""

from __future__ import annotations

from .geometry import TriRegion

UNIT = 36.0
SQ3_2 = 0.8660254037844386


def _xy(point):
    x, y = point
    return (x * SQ3_2 * UNIT, -(y + x / 2.0) * UNIT)


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _polygon(points, style: str) -> str:
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
    return f'<polygon points="{pts}" {style}/>'


def _rhombus_corners(pair):
    """Outer quadrilateral of two adjacent triangles, in drawing order."""
    a, b = sorted(pair)
    ca, cb = set(a.corners()), set(b.corners())
    shared = sorted(ca & cb)
    outer = sorted(ca ^ cb)
    return (outer[0], shared[0], outer[1], shared[1])


def region_svg(region: TriRegion, removed=(), tiling=None, dashed_pairs=()) -> str:
    """Render a region: triangles light, removed cells dark, one tiling's
    rhombi outlined, dashed outlines on the given rhombus positions."""
    cells = sorted(set(region.triangles) | set(removed))
    if not cells:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    corners = [tuple(_xy(c) for c in t.corners()) for t in cells]
    xs = [p[0] for tri in corners for p in tri]
    ys = [p[1] for tri in corners for p in tri]
    pad = 0.25 * UNIT
    x0, y0 = min(xs) - pad, min(ys) - pad
    width, height = max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad

    def shift(pts):
        return [(px - x0, py - y0) for px, py in pts]

    removed = set(removed)
    body = []
    for t, pts in zip(cells, corners):
        if t in removed:
            style = 'fill="#3d3d3d" stroke="#3d3d3d" stroke-width="0.5"'
        else:
            style = 'fill="#f6f1e4" stroke="#b9b0a0" stroke-width="0.7"'
        body.append(_polygon(shift(pts), style))
    for pair in sorted(dashed_pairs, key=lambda p: sorted(p)):
        pts = shift([_xy(c) for c in _rhombus_corners(pair)])
        body.append(
            _polygon(pts, 'fill="none" stroke="#b3532d" stroke-width="1.6" stroke-dasharray="4,3"')
        )
    if tiling is not None:
        for pair in sorted(tiling, key=lambda p: sorted(p)):
            pts = shift([_xy(c) for c in _rhombus_corners(pair)])
            body.append(_polygon(pts, 'fill="none" stroke="#1f3d63" stroke-width="1.8"'))
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
