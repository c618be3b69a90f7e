import math

import numpy as np
import pytest

from phrecon import Direction, PlaneGraph, height


@pytest.fixture
def appendix_graph() -> PlaneGraph:
    """The 4-vertex worked example: a triangle on (0,-1), (0.25,0), (1,1)
    with one edge up to (-1,2). Vertices listed by increasing x, so the
    per-vertex minimum line angles are ~0.237, 0.219, 0.399, 0.180 rad and
    the box geometry gives w=2, h=1."""
    return PlaneGraph(
        [(-1.0, 2.0), (0.0, -1.0), (0.25, 0.0), (1.0, 1.0)],
        [(1, 2), (1, 3), (2, 3), (0, 3)],
    )


def n_components(d) -> int:
    """A diagram's components: its dim-0 pairs that never die."""
    return int(np.isinf(d.deaths).sum())


def tie_free_direction(g: PlaneGraph, rng: np.random.Generator, tol: float = 1e-9) -> Direction:
    """Random unit direction with pairwise-distinct vertex heights."""
    while True:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        s = Direction(math.cos(angle), math.sin(angle))
        hs = sorted(height(v, s) for v in g.vertices)
        if all(b - a > tol for a, b in zip(hs, hs[1:])):
            return s


def jittered_grid_points(n: int, seed: int) -> list:
    """n points, one per column and per row of an n-by-n grid on the unit
    square, each jittered inside its cell: distinct x and distinct y by
    construction."""
    rng = np.random.default_rng(seed)
    xs = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
    ys = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
    return list(zip(xs.tolist(), rng.permutation(ys).tolist()))


def components_by_bfs(g: PlaneGraph) -> int:
    """Independent component count (plain BFS, no union-find)."""
    adjacency = {i: [] for i in range(g.n)}
    for a, b in g.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen: set[int] = set()
    count = 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return count


def match_to_hidden(points, g: PlaneGraph, eps: float = 1e-6) -> dict[int, int]:
    """Map each reconstructed point to the unique hidden vertex within eps."""
    mapping: dict[int, int] = {}
    for i, p in enumerate(points):
        hits = [
            j
            for j, q in enumerate(g.vertices)
            if abs(q.x - p[0]) <= eps and abs(q.y - p[1]) <= eps
        ]
        assert len(hits) == 1, f"point {p} matches {len(hits)} hidden vertices"
        mapping[i] = hits[0]
    return mapping


def remap_edges(edges, mapping: dict[int, int]) -> set[tuple[int, int]]:
    return {
        (min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) for a, b in edges
    }


def assert_points_close(got, want, tol: float = 1e-9) -> None:
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol, (p, q)
