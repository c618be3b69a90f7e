"""Loop form of `validate`'s pair checks: the reference its array kernels
are checked against, message for message.

`cross`, `point_segment_dist` and `segments_touch` decide one edge pair at
a time, as `validate` did before its crossing check became an array kernel.
The one change is that squares multiply (`d * d`) where they used `d ** 2`:
the same IEEE product, except that Python's `** 2` raises OverflowError
where the product gives inf, and that libm's pow can round one unit in the
last place off.
"""

from __future__ import annotations

from itertools import combinations

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
