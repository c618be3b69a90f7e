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
from bisect import bisect_left
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


class _Sweep(NamedTuple):
    """What one lower-star sweep leaves behind, from which a Diagram's pairs
    and counts are read."""

    ascending: np.ndarray  # vertex heights, ascending, read-only
    heights: list[float]  # vertex heights by vertex index
    order: np.ndarray  # vertex indices by ascending height
    death: list[float]  # per vertex: the height it dies at, or INFINITY
    cycles: list[float]  # dim-1 births in arrival order, which is ascending


@dataclass(frozen=True)
class Diagram:
    """Directional persistence diagram: dim-0 and dim-1 pairs, canonically
    sorted by (birth, death).

    A diagram built by `lower_star_diagrams` keeps the sweep's arrays and
    lists instead of pairs, and builds `dim0` and `dim1` the first time
    either is read (equality, hashing and repr read them too). `births0`,
    `n_components` and `events_at` answer from the sweep without building a
    pair.
    """

    direction: Direction
    dim0: tuple[PersistencePair, ...]
    dim1: tuple[PersistencePair, ...]

    @classmethod
    def _from_sweep(cls, direction: Direction, sweep: _Sweep) -> "Diagram":
        d = object.__new__(cls)
        object.__setattr__(d, "direction", direction)
        object.__setattr__(d, "_sweep", sweep)
        return d

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: the pairs of a swept diagram.
        sweep = self.__dict__.get("_sweep")
        if sweep is None or name not in ("dim0", "dim1"):
            raise AttributeError(name)
        # `_make` builds a pair without the namedtuple's Python-level __new__.
        # dim0 comes out in (birth, death) order by ascending height; the sort
        # is a linear pass that orders equal births by death, should a tol < 0
        # let equal heights through. dim1 is in arrival order, which is
        # ascending birth.
        pair = PersistencePair._make
        hs, death = sweep.heights, sweep.death
        dim0 = [pair((hs[v], death[v])) for v in sweep.order.tolist()]
        dim0.sort()
        object.__setattr__(self, "dim0", tuple(dim0))
        object.__setattr__(self, "dim1", tuple(pair((b, INFINITY)) for b in sweep.cycles))
        return self.__dict__[name]

    def _raw(self) -> tuple[list[float], list[float]]:
        """(dim-0 deaths, ascending dim-1 births) as floats, infinite deaths
        included."""
        sweep = self.__dict__.get("_sweep")
        if sweep is not None:
            return sweep.death, sweep.cycles
        return [p.death for p in self.dim0], sorted(p.birth for p in self.dim1)

    @property
    def n_components(self) -> int:
        return sum(map(math.isinf, self._raw()[0]))

    def births0(self) -> np.ndarray:
        """The dim-0 births, ascending, as a read-only float64 array."""
        sweep = self.__dict__.get("_sweep")
        if sweep is not None:
            return sweep.ascending
        births = np.sort(np.array([p.birth for p in self.dim0], dtype=np.float64), kind="stable")
        births.flags.writeable = False
        return births

    def events_at(self, h: float, tol: float = TOLERANCE) -> int:
        """Finite dim-0 deaths plus dim-1 births within tol of height h
        (diagonal pairs included): the indegree of a vertex at height h."""
        deaths, cycles = self._raw()
        return _count_near(sorted(deaths), h, tol) + _count_near(cycles, h, tol)


def _count_near(xs: list[float], h: float, tol: float) -> int:
    """How many finite x in the ascending list xs have abs(x - h) <= tol.

    Rounding is monotone, so the x that pass form one run of xs around the
    place h would be inserted; the scan walks out from there both ways.
    """
    k = bisect_left(xs, h)
    hi = k
    while hi < len(xs) and abs(xs[hi] - h) <= tol and not math.isinf(xs[hi]):
        hi += 1
    lo = k
    while lo > 0 and abs(xs[lo - 1] - h) <= tol and not math.isinf(xs[lo - 1]):
        lo -= 1
    return hi - lo


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

    ascending.flags.writeable = False
    return Diagram._from_sweep(u, _Sweep(ascending, hs, order, death, cycles))


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
