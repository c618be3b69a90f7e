"""Deterministic SVG drawings of plane graphs.

Output is byte-stable for a given graph and option set: fixed viewBox
derived from the vertex bounding box, fixed 6-decimal coordinate
formatting, and a stable element order (bow-tie shading, filtration-line
families, edges, vertices).
"""

from __future__ import annotations

import numpy as np

from .edge_recon import bowtie_widths, pair_directions
from .geometry import Direction, Point2, heights
from .plane_graph import PlaneGraph
from .vertex_recon import AXIS_X, AXIS_Y, third_direction

_FAMILY_STROKES = ("#000000", "#1f77b4", "#d62728")


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _bounds(g: PlaneGraph) -> tuple[float, float, float, float]:
    xs = [v.x for v in g.vertices]
    ys = [v.y for v in g.vertices]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1.0)
    pad = 0.15 * span
    return x0 - pad, x1 + pad, y0 - pad, y1 + pad


def _axis_families(g: PlaneGraph) -> list[tuple[Direction, np.ndarray]]:
    """(unit direction, ascending vertex heights) of each family."""
    x, y, _ = g.arrays
    xs, ys = np.sort(heights(x, y, np.array([AXIS_X, AXIS_Y])), kind="stable")
    s3 = third_direction(xs, ys)
    zs = np.sort(heights(x, y, np.array(s3)), kind="stable")
    return [(AXIS_X, xs), (AXIS_Y, ys), (s3, zs)]


def _line_segment(s: Direction, h: float, cx: float, cy: float, reach: float):
    # chord of the line {p : p . s = h} centered near (cx, cy); the viewBox clips it
    px, py = s.dx * h, s.dy * h
    dx, dy = -s.dy, s.dx
    t0 = (cx - px) * dx + (cy - py) * dy
    return (
        px + (t0 - reach) * dx,
        py + (t0 - reach) * dy,
        px + (t0 + reach) * dx,
        py + (t0 + reach) * dy,
    )


def render_svg(
    g: PlaneGraph,
    lines: bool = False,
    bowtie: tuple[int, int] | None = None,
) -> str:
    """Render the graph, optionally overlaying the three filtration-line
    families or shading the bow tie probing one vertex pair. Raises
    InvalidGraph, as `PlaneGraph.arrays` does, for an edge index outside
    [0, n) or a self-loop."""
    if g.n == 0:
        raise ValueError("cannot render an empty graph")
    g.arrays
    if bowtie is not None:
        i, j = bowtie
        if not (0 <= i < g.n and 0 <= j < g.n) or i == j:
            raise IndexError(f"bow-tie pair ({i}, {j}) invalid for n={g.n}")
    x0, x1, y0, y1 = _bounds(g)
    w, h = x1 - x0, y1 - y0
    reach = 2.0 * max(w, h)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)

    def pt(p: Point2) -> tuple[str, str]:
        # flip y so the drawing is upright in SVG's downward axis
        return _fmt(p.x), _fmt(y0 + y1 - p.y)

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}" width="640" height="{_fmt(640.0 * h / w)}">'
    )

    if bowtie is not None:
        i, j = bowtie
        v, v2 = g.vertices[i], g.vertices[j]
        V = list(g.vertices)
        s1, s2 = pair_directions(V, i, j, float(bowtie_widths(V)[i, j]))
        rays = []
        for s in (s1, s2):
            e = Direction(-s.dy, s.dx)
            if e.dx * (v2.x - v.x) + e.dy * (v2.y - v.y) < 0:
                e = -e
            rays.append(e)
        for sign in (1.0, -1.0):
            a = Point2(v.x + sign * reach * rays[0].dx, v.y + sign * reach * rays[0].dy)
            b = Point2(v.x + sign * reach * rays[1].dx, v.y + sign * reach * rays[1].dy)
            (vx, vy), (ax, ay), (bx, by) = pt(v), pt(a), pt(b)
            out.append(
                f'<path class="bowtie" d="M {vx} {vy} L {ax} {ay} L {bx} {by} Z" '
                'fill="#bbbbbb" fill-opacity="0.5" stroke="none"/>'
            )

    if lines:
        for (direction, ascending), stroke in zip(_axis_families(g), _FAMILY_STROKES):
            for birth in ascending.tolist():
                ax, ay, bx, by = _line_segment(direction, birth, cx, cy, reach)
                (sx, sy), (ex, ey) = pt(Point2(ax, ay)), pt(Point2(bx, by))
                out.append(
                    f'<line class="filtration" x1="{sx}" y1="{sy}" x2="{ex}" y2="{ey}" '
                    f'stroke="{stroke}" stroke-width="{_fmt(0.004 * reach)}" '
                    'stroke-dasharray="0.02 0.02"/>'
                )

    for a, b in g.edge_rows.tolist():
        (ax, ay), (bx, by) = pt(g.vertices[a]), pt(g.vertices[b])
        out.append(
            f'<path class="edge" d="M {ax} {ay} L {bx} {by}" stroke="#333333" '
            f'stroke-width="{_fmt(0.006 * reach)}" fill="none"/>'
        )

    r = _fmt(0.008 * reach)
    for v in g.vertices:
        vx, vy = pt(v)
        out.append(f'<circle class="vertex" cx="{vx}" cy="{vy}" r="{r}" fill="#000000"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
