"""Ground-truth embedded graphs: representation, validation, generation.

A PlaneGraph is a straight-line embedded graph whose vertices are assumed
to be in general position (pairwise distinct x- and y-coordinates, no three
collinear) and whose edges do not cross. `validate` reports violations of
those assumptions as data; `random_plane_graph` produces instances that
satisfy them by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterator

import numpy as np

from .errors import GenerationFailed
from .geometry import TOLERANCE, Point2, height

Edge = tuple[int, int]

#: Coordinate-gap and collinearity margin enforced by the generator; kept
#: three orders of magnitude above TOLERANCE so downstream third-direction
#: and bow-tie constructions stay far from the comparison threshold.
GENERATOR_MARGIN = 1e-3

_MAX_ATTEMPTS = 10_000

#: Triangle areas the general-position check evaluates per array block.
_TRIPLE_CELLS = 1 << 14


@dataclass(frozen=True)
class PlaneGraph:
    """Immutable embedded graph: vertex coordinates plus index-pair edges."""

    vertices: tuple[Point2, ...]
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __init__(self, vertices, edges=()):
        object.__setattr__(
            self, "vertices", tuple(Point2(float(x), float(y)) for x, y in vertices)
        )
        object.__setattr__(
            self,
            "edges",
            frozenset((min(i, j), max(i, j)) for i, j in edges),
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only array form, built on first use and kept: the float64
        x and y coordinate columns and the (m, 2) integer array of
        `sorted_edges()`. Not a dataclass field, so equality, hashing and
        JSON see only `vertices` and `edges`."""
        xy = np.fromiter(chain.from_iterable(self.vertices), np.float64, 2 * self.n)
        x, y = xy[0::2].copy(), xy[1::2].copy()
        e = np.array(self.sorted_edges(), dtype=np.intp).reshape(-1, 2)
        for a in (x, y, e):
            a.flags.writeable = False
        return x, y, e


def _cross(o: Point2, a: Point2, b: Point2) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _point_segment_dist(p: Point2, a: Point2, b: Point2) -> float:
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return ((p.x - ax) ** 2 + (p.y - ay) ** 2) ** 0.5
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / dd
    t = min(1.0, max(0.0, t))
    qx, qy = ax + t * dx, ay + t * dy
    return ((p.x - qx) ** 2 + (p.y - qy) ** 2) ** 0.5


def _segments_touch(p1: Point2, p2: Point2, p3: Point2, p4: Point2, tol: float) -> bool:
    """True when segments p1p2 and p3p4 cross or come within tol."""
    d1 = _cross(p3, p4, p1)
    d2 = _cross(p3, p4, p2)
    d3 = _cross(p1, p2, p3)
    d4 = _cross(p1, p2, p4)
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and (
        (d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)
    ):
        return True
    # near-degenerate contact: an endpoint sits on (or touches) the other segment
    return (
        _point_segment_dist(p1, p3, p4) <= tol
        or _point_segment_dist(p2, p3, p4) <= tol
        or _point_segment_dist(p3, p1, p2) <= tol
        or _point_segment_dist(p4, p1, p2) <= tol
    )


def validate(g: PlaneGraph, tol: float = TOLERANCE) -> list[str]:
    """Check all PlaneGraph invariants; return one message per violation.

    An empty list means the graph satisfies the standing assumptions:
    finite coordinates, general position (distinct x, distinct y, no three
    collinear within tol), index-valid non-loop edges, and a plane
    straight-line embedding (no two edge segments intersect except at a
    shared endpoint).
    """
    issues: list[str] = []
    n = g.n
    for i, v in enumerate(g.vertices):
        if not (np.isfinite(v.x) and np.isfinite(v.y)):
            issues.append(f"non-finite coordinate at vertex {i}")
    for i, j in combinations(range(n), 2):
        if abs(g.vertices[i].x - g.vertices[j].x) <= tol:
            issues.append(f"shared x-coordinate: vertices ({i}, {j})")
        if abs(g.vertices[i].y - g.vertices[j].y) <= tol:
            issues.append(f"shared y-coordinate: vertices ({i}, {j})")
    xy = np.fromiter(chain.from_iterable(g.vertices), np.float64, 2 * n)
    x, y = xy[0::2], xy[1::2]
    # non-finite coordinates give NaN or inf areas, silently as Python floats do
    with np.errstate(invalid="ignore", over="ignore"):
        for block in _triples_where(x, y, lambda area2: np.abs(area2) <= tol):
            issues.extend(f"collinear vertices ({i}, {j}, {k})" for i, j, k in block.tolist())
    for i, j in g.sorted_edges():
        if not (0 <= i < n and 0 <= j < n):
            issues.append(f"edge ({i}, {j}) out of range")
        elif i == j:
            issues.append(f"self-loop edge ({i}, {j})")
    edges = [e for e in g.sorted_edges() if 0 <= e[0] < n and 0 <= e[1] < n and e[0] != e[1]]
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue  # adjacent edges may share their common endpoint only
        if _segments_touch(g.vertices[a], g.vertices[b], g.vertices[c], g.vertices[d], tol):
            issues.append(f"crossing edges ({a}, {b}) x ({c}, {d})")
    return issues


def _triples_where(x: np.ndarray, y: np.ndarray, hit) -> Iterator[np.ndarray]:
    """The triples (i, j, k), i < j < k, of points (x, y) whose doubled
    area passes `hit`, in lexicographic order: a (count, 3) array for each
    block of first vertices i that has any.

    A block holds at most about _TRIPLE_CELLS areas (one row of O(n^2) once
    n^2 exceeds it). Each area is
    (xj - xi) * (yk - yi) - (yj - yi) * (xk - xi), operand for operand the
    `_cross(V[i], V[j], V[k])` of a loop over triples, so every decision is
    that of the loop.
    """
    n = len(x)
    if n < 3:
        return
    rows = max(1, _TRIPLE_CELLS // (n * n))
    index = np.arange(n)
    later = index[:, None] < index  # later[a, b]: b > a
    for start in range(0, n - 2, rows):
        stop = min(start + rows, n - 2)
        dx = x[start + 1 :] - x[start:stop, None]  # (block, j): xj - xi for j > start
        dy = y[start + 1 :] - y[start:stop, None]
        area2 = dx[:, :, None] * dy[:, None, :] - dy[:, :, None] * dx[:, None, :]
        triple = later[start:stop, start + 1 :, None] & later[None, start + 1 :, start + 1 :]
        found = triple & hit(area2)
        if found.any():
            yield np.argwhere(found) + (start, start + 1, start + 1)


def _general_position_ok(pts: np.ndarray, margin: float) -> bool:
    """Coordinate gaps and every triple's doubled area are at least margin.
    The triples are checked as arrays by `_triples_where`."""
    for axis in (0, 1):
        coords = np.sort(pts[:, axis])
        if len(coords) > 1 and np.min(np.diff(coords)) < margin:
            return False
    close = _triples_where(pts[:, 0], pts[:, 1], lambda area2: np.abs(area2) < margin)
    return next(close, None) is None


def _delaunay_edges(pts: np.ndarray) -> list[Edge]:
    from scipy.spatial import Delaunay

    tri = Delaunay(pts)
    edges: set[Edge] = set()
    for simplex in tri.simplices:
        for a, b in combinations(sorted(int(x) for x in simplex), 2):
            edges.add((a, b))
    return sorted(edges)


def random_plane_graph(
    n: int,
    density: float,
    seed: int,
    margin: float = GENERATOR_MARGIN,
) -> PlaneGraph:
    """Deterministically generate a valid random plane graph.

    Vertices are drawn uniformly from the unit square and resampled until
    general position holds with coordinate gaps and a collinearity margin
    of at least `margin`. Edges are a uniform subsample (fraction
    `density`) of the Delaunay triangulation's edge set, which cannot
    cross by construction.

    Raises GenerationFailed after 10 000 unsuccessful resampling attempts.
    The default margin keeps rejection rates practical up to n of about 20;
    pass a smaller margin for larger graphs (at the cost of conditioning).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    pts = None
    for _ in range(_MAX_ATTEMPTS):
        cand = rng.random((n, 2))
        if _general_position_ok(cand, margin):
            pts = cand
            break
    if pts is None:
        raise GenerationFailed(
            f"no general-position sample with margin {margin} after {_MAX_ATTEMPTS} attempts"
        )
    if n == 1:
        all_edges: list[Edge] = []
    elif n == 2:
        all_edges = [(0, 1)]
    else:
        all_edges = _delaunay_edges(pts)
    k = int(round(density * len(all_edges)))
    if k == 0:
        chosen: list[Edge] = []
    else:
        idx = rng.choice(len(all_edges), size=k, replace=False)
        chosen = [all_edges[i] for i in sorted(int(i) for i in idx)]
    return PlaneGraph(((float(x), float(y)) for x, y in pts), chosen)


def indegree_direct(g: PlaneGraph, v: int, s) -> int:
    """Number of edges at vertex v whose other endpoint lies at or below
    v's height in direction s (ties count as below)."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex index {v} out of range for n={g.n}")
    hv = height(g.vertices[v], s)
    count = 0
    for a, b in g.edges:
        if a == v or b == v:
            other = b if a == v else a
            if height(g.vertices[other], s) <= hv:
                count += 1
    return count


class _UnionFind:
    """Union by size with path compression over indices 0..n-1."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def connected_components(g: PlaneGraph) -> int:
    """Number of connected components."""
    uf = _UnionFind(g.n)
    count = g.n
    for a, b in g.edges:
        if uf.union(a, b):
            count -= 1
    return count


def graph_to_json(g: PlaneGraph) -> str:
    """Canonical Graph JSON: vertex order preserved, edges sorted, numbers
    in shortest round-trip decimal form."""
    payload = {
        "vertices": [[v.x, v.y] for v in g.vertices],
        "edges": [[i, j] for i, j in g.sorted_edges()],
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def graph_from_json(text: str) -> PlaneGraph:
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON must contain 'vertices' and 'edges'")
    vertices = [(float(x), float(y)) for x, y in data["vertices"]]
    edges = [(int(i), int(j)) for i, j in data["edges"]]
    return PlaneGraph(vertices, edges)


def save_graph(g: PlaneGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g))


def load_graph(path) -> PlaneGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())
