"""Graph facts computed straight from the edge list: the references that
diagram identities and the indegree read are checked against.

`indegree_direct` counts the lower neighbours of a vertex one edge at a
time, `connected_components` runs a union-find over the edges and `degree`
counts the edges at a vertex. `tuple_form` is what a PlaneGraph showed when
it held a tuple of points and a frozenset of pairs, the reference its views
are checked against.
"""

from __future__ import annotations

import json

from phrecon import PlaneGraph, Point2, height


class UnionFind:
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
    uf = UnionFind(g.n)
    count = g.n
    for a, b in g.edges:
        if uf.union(a, b):
            count -= 1
    return count


def degree(g: PlaneGraph, v: int) -> int:
    return sum(1 for e in g.edges if v in e)


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


def tuple_form(vertices, edges) -> tuple:
    """The vertices, edges, hash, repr and graph JSON of the graph on
    these vertices and edges, built as a tuple of Point2 and a frozenset of
    (min, max) pairs."""
    V = tuple(Point2(float(x), float(y)) for x, y in vertices)
    E = frozenset((min(i, j), max(i, j)) for i, j in edges)
    payload = {"vertices": [[v.x, v.y] for v in V], "edges": [[i, j] for i, j in sorted(E)]}
    text = json.dumps(payload, separators=(", ", ": ")) + "\n"
    return V, E, hash((V, E)), f"PlaneGraph(vertices={V!r}, edges={E!r})", text
