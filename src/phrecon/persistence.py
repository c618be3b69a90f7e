"""Lower-star persistence of height filtrations on plane graphs.

`lower_star_diagrams` runs a union-find sweep over the simplices ordered by
height: each vertex births a component at its height; an edge arrives at the
height of its upper endpoint and either merges two components (a dim-0 death,
killing the younger birth per the elder rule) or closes a cycle (a dim-1
birth that never dies, since the complex has no 2-simplices). Diagonal pairs
produced by this trace are retained: a component born at the same height the
merging edge arrives yields a (h, h) point, and those points are counted by
the indegree machinery downstream.

`DiagramOracle` wraps a hidden graph and meters every diagram request; the
reconstruction modules are written against this interface only.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDirection
from .geometry import TOLERANCE, Direction
from .plane_graph import PlaneGraph

INFINITY = math.inf


class PersistencePair(NamedTuple):
    birth: float
    death: float  # math.inf for classes that never die

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True)
class Diagram:
    """Directional persistence diagram: dim-0 and dim-1 pairs, canonically
    sorted by (birth, death)."""

    direction: Direction
    dim0: tuple[PersistencePair, ...]
    dim1: tuple[PersistencePair, ...]

    @property
    def n_components(self) -> int:
        return sum(1 for p in self.dim0 if p.is_infinite)

    def births0(self) -> list[float]:
        return [p.birth for p in self.dim0]


def lower_star_diagrams(g: PlaneGraph, s: Direction, tol: float = TOLERANCE) -> Diagram:
    """Zero- and one-dimensional diagrams of the height filtration along s.

    s is normalized on entry. Simplices are ordered by (height, dimension,
    tie-break), so a vertex precedes the edges arriving at its height and
    same-height edges are processed by ascending (lower-endpoint height,
    edge index).

    Raises DegenerateDirection when two vertex heights coincide within tol.

    Array kernel over `g.arrays`: heights are computed elementwise as
    x*dx + y*dy, which rounds exactly like `geometry.height` (a dot product
    would not), edges are put in arrival order by one stable lexsort, and a
    single integer union-find runs over the ordered edge list. Vertex events
    are implicit: by the elder rule a component's root is its lowest vertex,
    so a root's birth is its own height.
    """
    u = Direction(*s).normalized()
    x, y, edges = g.arrays
    h = x * u.dx + y * u.dy
    order = h.argsort(kind="stable")
    ascending = h[order]
    tied = ascending[1:] - ascending[:-1] <= tol
    if tied.any():
        k = int(tied.argmax())
        a, b = int(order[k]), int(order[k + 1])
        raise DegenerateDirection(min(a, b), max(a, b), u)

    ha, hb = h[edges[:, 0]], h[edges[:, 1]]
    arrival = np.lexsort((np.minimum(ha, hb), np.maximum(ha, hb)))
    flat = iter(edges[arrival].ravel().tolist())
    # Every pair takes its floats from `hs`, so no float is allocated per edge.
    hs = h.tolist()
    parent = list(range(g.n))
    death = [INFINITY] * g.n
    cycles: list[float] = []
    for a, b in zip(flat, flat):
        top = hs[a] if hs[a] > hs[b] else hs[b]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            cycles.append(top)
        elif hs[a] <= hs[b]:  # elder rule: the lower root survives
            parent[b] = a
            death[b] = top
        else:
            parent[a] = b
            death[a] = top

    # Both lists come out in (birth, death) order: dim0 by ascending height,
    # dim1 by arrival. The sort is a linear pass over dim0 that orders equal
    # births by death, should a tol < 0 let equal heights through.
    # `_make` builds a pair without the namedtuple's Python-level __new__.
    pair = PersistencePair._make
    dim0 = [pair((hs[v], death[v])) for v in order.tolist()]
    dim0.sort()
    dim1 = [pair((b, INFINITY)) for b in cycles]
    return Diagram(u, tuple(dim0), tuple(dim1))


class DiagramOracle:
    """Metered diagram access to a hidden plane graph.

    Every query (including a repeat of an earlier direction) is computed
    afresh and logged; the count and the log are updated atomically so they
    never disagree under concurrent use.
    """

    def __init__(self, graph: PlaneGraph, tol: float = TOLERANCE):
        self._graph = graph
        self._tol = tol
        self._log: list[Direction] = []
        self._lock = threading.Lock()

    @property
    def query_count(self) -> int:
        return len(self._log)

    @property
    def query_log(self) -> tuple[Direction, ...]:
        return tuple(self._log)

    def query(self, s: Direction) -> Diagram:
        u = Direction(*s).normalized()
        with self._lock:
            self._log.append(u)
        return self._compute(u)

    def _compute(self, u: Direction) -> Diagram:
        return lower_star_diagrams(self._graph, u, self._tol)


def diagram_to_json(d: Diagram) -> str:
    """Canonical Diagram JSON; null encodes an infinite death."""

    def enc(p: PersistencePair):
        return [p.birth, None if math.isinf(p.death) else p.death]

    payload = {
        "direction": [d.direction.dx, d.direction.dy],
        "dim0": [enc(p) for p in d.dim0],
        "dim1": [enc(p) for p in d.dim1],
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def diagram_from_json(text: str) -> Diagram:
    data = json.loads(text)
    direction = Direction(*(float(c) for c in data["direction"]))

    def dec(pairs):
        return tuple(
            sorted(
                PersistencePair(float(b), INFINITY if d is None else float(d))
                for b, d in pairs
            )
        )

    return Diagram(direction, dec(data["dim0"]), dec(data["dim1"]))
