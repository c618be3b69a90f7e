"""Pure-Python lower-star sweep: the reference `lower_star_diagrams` is
checked against, exactly.

It builds one event per simplex, keyed (height, dimension, lower-endpoint
height, index), sorts them, and runs a union-find that records each root's
birth explicitly.
"""

from __future__ import annotations

from phrecon import DegenerateDirection, Diagram, Direction, PersistencePair, PlaneGraph, height
from phrecon.geometry import TOLERANCE

INFINITY = float("inf")


def reference_lower_star_diagrams(g: PlaneGraph, s: Direction, tol: float = TOLERANCE) -> Diagram:
    u = Direction(*s).normalized()
    heights = [height(v, u) for v in g.vertices]

    order = sorted(range(g.n), key=heights.__getitem__)
    for a, b in zip(order, order[1:]):
        if abs(heights[a] - heights[b]) <= tol:
            i, j = min(a, b), max(a, b)
            raise DegenerateDirection(i, j, u)

    # event key: (height, dim, lower endpoint height, index)
    events: list[tuple[float, int, float, int]] = [
        (heights[v], 0, 0.0, v) for v in range(g.n)
    ]
    for e_idx, (a, b) in enumerate(g.edge_rows.tolist()):
        lo, hi = sorted((heights[a], heights[b]))
        events.append((hi, 1, lo, e_idx))
    events.sort()

    edges = g.edge_rows.tolist()
    parent = list(range(g.n))
    root_birth: dict[int, float] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    dim0: list[PersistencePair] = []
    dim1: list[PersistencePair] = []
    for h, dim, _lo, idx in events:
        if dim == 0:
            root_birth[idx] = heights[idx]
        else:
            a, b = edges[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                dim1.append(PersistencePair(h, INFINITY))
                continue
            # elder rule: the class with the smaller birth survives
            if root_birth[ra] <= root_birth[rb]:
                elder, younger = ra, rb
            else:
                elder, younger = rb, ra
            dim0.append(PersistencePair(root_birth[younger], h))
            parent[younger] = elder
            del root_birth[younger]

    for root, b in root_birth.items():
        dim0.append(PersistencePair(b, INFINITY))

    dim0.sort()
    dim1.sort()
    return Diagram(u, tuple(dim0), tuple(dim1))
