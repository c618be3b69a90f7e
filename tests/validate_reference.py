"""Loop form of `validate`'s pair checks: the reference its array kernels
are checked against, message for message.

`cross`, `point_segment_dist` and `segments_touch` decide one edge pair at
a time, as `validate` did before its crossing check became an array kernel.
The one change is that squares multiply (`d * d`) where they used `d ** 2`:
the same IEEE product, except that Python's `** 2` raises OverflowError
where the product gives inf, and that libm's pow can round one unit in the
last place off.

`all_pairs_touching` is the array kernel that decided every edge pair before
`validate` swept for candidates: it runs the same operands on all m(m - 1)/2
pairs, and is fast enough to be the reference on graphs with thousands of
edges, where the pair loop is not.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from phrecon import PlaneGraph, Point2


def cross(o: Point2, a: Point2, b: Point2) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def point_segment_dist(p: Point2, a: Point2, b: Point2) -> float:
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return ((p.x - ax) * (p.x - ax) + (p.y - ay) * (p.y - ay)) ** 0.5
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / dd
    t = min(1.0, max(0.0, t))
    qx, qy = ax + t * dx, ay + t * dy
    return ((p.x - qx) * (p.x - qx) + (p.y - qy) * (p.y - qy)) ** 0.5


def segments_touch(p1: Point2, p2: Point2, p3: Point2, p4: Point2, tol: float) -> bool:
    """True when segments p1p2 and p3p4 cross or come within tol."""
    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and (
        (d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)
    ):
        return True
    # near-degenerate contact: an endpoint sits on (or touches) the other segment
    return (
        point_segment_dist(p1, p3, p4) <= tol
        or point_segment_dist(p2, p3, p4) <= tol
        or point_segment_dist(p3, p1, p2) <= tol
        or point_segment_dist(p4, p1, p2) <= tol
    )


def crossing_messages(g: PlaneGraph, tol: float) -> list[str]:
    """validate's crossing messages from a loop over every edge pair."""
    n = g.n
    edges = [e for e in g.edge_rows.tolist() if 0 <= e[0] < n and 0 <= e[1] < n and e[0] != e[1]]
    out = []
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue  # adjacent edges may share their common endpoint only
        if segments_touch(g.vertices[a], g.vertices[b], g.vertices[c], g.vertices[d], tol):
            out.append(f"crossing edges ({a}, {b}) x ({c}, {d})")
    return out


def shared_coordinate_messages(g: PlaneGraph, tol: float) -> list[str]:
    """validate's shared-coordinate messages from a loop over every vertex pair."""
    out = []
    for i, j in combinations(range(g.n), 2):
        if abs(g.vertices[i].x - g.vertices[j].x) <= tol:
            out.append(f"shared x-coordinate: vertices ({i}, {j})")
        if abs(g.vertices[i].y - g.vertices[j].y) <= tol:
            out.append(f"shared y-coordinate: vertices ({i}, {j})")
    return out


def all_pairs_touching(x: np.ndarray, y: np.ndarray, e: np.ndarray, tol: float) -> Iterator[np.ndarray]:
    """The pairs of edges e[p], e[q], p < q, with no common endpoint whose
    segments cross or come within tol, in lexicographic (p, q) order: a
    (count, 4) array of their endpoints (a, b, c, d) for each block of
    first edges p that has any.

    A block pairs a run of first edges with every later edge, at most about
    4 096 pairs (one row once 4m exceeds it), and stacks the four
    operands of each pair on a leading axis. For segments
    p1p2 = (a, b) and p3p4 = (c, d), operand k is a point p against the
    segment from o to o + (dx, dy): (p1, p3p4), (p2, p3p4), (p3, p1p2) and
    (p4, p1p2). The same operand gives the loop's orientation d1..d4,
    cross(p3, p4, p1) and so on, and its point-segment distance, operand
    for operand those of `segments_touch`: the distance clamps t to [0, 1]
    as Python's min(1.0, max(0.0, t)) does (NaN gives 0.0), measures from o
    when the squared length is 0.0, squares by multiplying and roots with
    `** 0.5`, re-checked with Python's `** 0.5` next to tol.
    """
    m = len(e)
    if m < 2:
        return
    rows = max(1, (1 << 14) // (4 * m))
    tie = 2 * np.spacing(tol)
    ex, ey = x[e].T, y[e].T  # (2, m): first and second endpoint of each edge
    sx, sy = ex[1] - ex[0], ey[1] - ey[0]
    ends = np.stack([ex, ey])  # coordinate, endpoint, edge
    segments = np.stack([ex[0], ey[0], sx, sy, sx * sx + sy * sy])  # ox, oy, dx, dy, dd; edge
    for start in range(0, m - 1, rows):
        first, later = slice(start, min(start + rows, m - 1)), slice(start + 1, m)
        (a, b), (c, d) = e[first].T[:, :, None], e[later].T
        apart = np.arange(start, first.stop)[:, None] < np.arange(start + 1, m)
        apart &= (a != c) & (a != d) & (b != c) & (b != d)
        if not apart.any():
            continue
        ops = np.empty((7, 4, first.stop - start, m - start - 1))
        ops[:2, :2] = ends[:, :, first, None]
        ops[:2, 2:] = ends[:, :, None, later]
        ops[2:, :2] = segments[:, None, None, later]
        ops[2:, 2:] = segments[:, None, first, None]
        px, py, ox, oy, dx, dy, dd = ops
        rx, ry = px - ox, py - oy
        side = dx * ry - dy * rx
        above, below = side > tol, side < -tol
        cross = ((above[0::2] & below[1::2]) | (below[0::2] & above[1::2])).all(axis=0)
        t = np.divide(rx * dx + ry * dy, dd, out=np.zeros_like(dd), where=dd != 0.0)
        # fmax maps NaN to 0.0 as Python's max(0.0, t) does; a -0.0 it keeps
        # only flips the sign of a zero difference, which squaring drops
        t = np.fmin(np.fmax(t, 0.0), 1.0)
        qx, qy = px - (ox + t * dx), py - (oy + t * dy)
        sums = qx * qx + qy * qy
        root = sums**0.5
        close = root <= tol
        near = np.abs(root - tol) <= tie
        if near.any():
            # numpy's root is correctly rounded; libm's pow, behind Python's
            # float ** 0.5, can be one unit in the last place off, which
            # decides differently only next to tol
            close[near] = [v**0.5 <= tol for v in sums[near].tolist()]
        p, q = np.nonzero(apart & (cross | close.any(axis=0)))
        if len(p):
            yield np.concatenate([e[p + start], e[q + start + 1]], axis=1)

