"""Lower-star persistence of height filtrations on plane graphs.

`lower_star_many` computes the diagrams of many directions in one array
pass. Each vertex births a component at its height; an edge arrives at the
height of its upper endpoint and either merges two components (a dim-0
death, killing the younger birth per the elder rule) or closes a cycle (a
dim-1 birth that never dies, since the complex has no 2-simplices). The
kernel reads these events off the descent forest, in which each vertex
points to its lowest lower neighbour: that first arriving edge always kills
the vertex at its own height, leaving a diagonal (h, h) pair that the
indegree machinery downstream counts. Only edges between the basins of two
local minima need an elder-rule union-find, and a triangulation has none.
`lower_star_diagrams` is the batch of one.

`DiagramOracle` wraps a hidden graph and meters every diagram request; the
reconstruction modules are written against its interface only: `query`,
`query_many`, `query_count` and `query_log`.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    death: np.ndarray  # per vertex in ascending order: its death, or INFINITY
    cycles: np.ndarray  # dim-1 births, ascending


@dataclass(frozen=True)
class Diagram:
    """Directional persistence diagram: dim-0 and dim-1 pairs, canonically
    sorted by (birth, death).

    A diagram built by `lower_star_many` keeps the sweep's arrays instead
    of pairs, and builds `dim0` and `dim1` the first time either is read
    (equality, hashing and repr read them too). `births0`, `n_components`
    and `events_at` answer from the sweep without building a pair.
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
        # let equal heights through.
        pair = PersistencePair._make
        dim0 = [pair(bd) for bd in zip(sweep.ascending.tolist(), sweep.death.tolist())]
        dim0.sort()
        object.__setattr__(self, "dim0", tuple(dim0))
        object.__setattr__(self, "dim1", tuple(pair((b, INFINITY)) for b in sweep.cycles.tolist()))
        return self.__dict__[name]

    def _raw(self) -> tuple[list[float], list[float]]:
        """(dim-0 deaths, ascending dim-1 births) as floats, infinite deaths
        included."""
        sweep = self.__dict__.get("_sweep")
        if sweep is not None:
            return sweep.death.tolist(), sweep.cycles.tolist()
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


def lower_star_many(
    g: PlaneGraph, S: Sequence[Direction], tol: float = TOLERANCE
) -> list[Diagram | DegenerateDirection]:
    """Zero- and one-dimensional diagrams of the height filtrations along
    every direction in S, computed together: one entry per direction, the
    Diagram or the DegenerateDirection that `lower_star_diagrams` raises.

    Each s is normalized on entry. Simplices are ordered by (height,
    dimension, tie-break), so a vertex precedes the edges arriving at its
    height and same-height edges are processed by ascending (lower-endpoint
    height, edge index). A direction is degenerate when two vertex heights
    coincide within tol; its entry names the first such pair in ascending
    height order, smaller index first.

    Array kernel over `g.arrays`, one row per direction:

    - Heights are x*dx + y*dy elementwise, which rounds exactly like
      `geometry.height` (a dot product would not). A stable argsort per row
      ranks the vertices, and everything below works on ranks.
    - Descent forest: a vertex's first arriving edge goes to its lowest
      lower neighbour, whose component is older, so every vertex with a
      lower neighbour dies at its own height (a diagonal pair). Pointer
      jumping takes each vertex to the local minimum of its basin, and a
      non-forest edge within one basin closes a cycle at its top height.
    - Edges between basins (none on a triangulation) go through a small
      elder-rule union-find over basin minima in arrival order: the younger
      minimum dies at the edge's top height, or the edge closes a cycle.
    - Cycle births are the ascending heights, each repeated by the number
      of cycles arriving at that rank, so no edge table is sorted.
    """
    units = [Direction(*s).normalized() for s in S]
    k, n = len(units), g.n
    x, y, edges = g.arrays
    u = np.array(units, dtype=np.float64).reshape(k, 2)
    H = u[:, :1] * x + u[:, 1:] * y  # (k, n)
    order = H.argsort(axis=1, kind="stable")

    # Flat indices: r*n + v for vertex v of row r, and r*n + q for rank q,
    # so one 1-d array holds a quantity for every row. Tied rows are swept
    # too, their ties broken by rank, but give no diagram.
    offsets = (np.arange(k) * n)[:, None]
    by_rank = (order + offsets).ravel()
    heights = H.ravel()[by_rank]
    heights.flags.writeable = False
    ascending = heights.reshape(k, n)
    tied = ascending[:, 1:] - ascending[:, :-1] <= tol
    ranks = np.arange(k * n)
    rank = np.empty_like(ranks)
    rank[by_rank] = ranks
    ra = rank[(edges[:, 0] + offsets).ravel()]
    rb = rank[(edges[:, 1] + offsets).ravel()]
    lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)

    lowest = ranks.copy()  # rank of the lowest lower neighbour, else own rank
    np.minimum.at(lowest, hi, lo)
    basin = lowest
    while True:  # pointer jumping down the descent forest
        below = basin[basin]
        if (below == basin).all():
            break
        basin = below
    death = np.where(lowest < ranks, heights, INFINITY)
    within = basin[lo] == basin[hi]
    arrivals = np.bincount(hi[within & (lowest[hi] != lo)], minlength=k * n)

    if not within.all():
        # arrival order is (top rank, lower-endpoint rank): ranks are
        # distinct, so the pair names the edge and no index tie-break is left
        across = np.flatnonzero(~within)
        lo, hi = lo[across], hi[across]
        arrival = sorted(zip(hi.tolist(), lo.tolist(), basin[lo].tolist(), basin[hi].tolist()))
        up: dict[int, int] = {}
        for top, _, a, b in arrival:
            while a in up:
                a = up[a]
            while b in up:
                b = up[b]
            if a == b:
                arrivals[top] += 1
            else:  # elder rule: the lower minimum survives
                up[max(a, b)] = min(a, b)
                death[max(a, b)] = heights[top]

    cycles = np.repeat(heights, arrivals)
    ends = arrivals.reshape(k, n).sum(axis=1).cumsum().tolist()
    rows = zip(units, tied.any(axis=1).tolist(), ascending, death.reshape(k, n), ends)
    out: list[Diagram | DegenerateDirection] = []
    start = 0
    for r, (unit, degenerate, asc, dead, end) in enumerate(rows):
        if degenerate:
            t = int(tied[r].argmax())
            a, b = int(order[r, t]), int(order[r, t + 1])
            out.append(DegenerateDirection(min(a, b), max(a, b), unit))
        else:
            out.append(Diagram._from_sweep(unit, _Sweep(asc, dead, cycles[start:end])))
        start = end
    return out


def lower_star_diagrams(g: PlaneGraph, s: Direction, tol: float = TOLERANCE) -> Diagram:
    """Zero- and one-dimensional diagrams of the height filtration along s:
    `lower_star_many` on the one direction.

    Raises DegenerateDirection when two vertex heights coincide within tol.
    """
    (d,) = lower_star_many(g, [s], tol)
    if isinstance(d, DegenerateDirection):
        raise d
    return d


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

    def query_many(self, S: Sequence[Direction]) -> list[Diagram | DegenerateDirection]:
        """One entry per direction, as `query` would give it: the Diagram, or
        the DegenerateDirection `query` would raise. Every direction is
        logged and counted, exactly as by one `query` call each."""
        units = [Direction(*s).normalized() for s in S]
        with self._lock:
            self._log.extend(units)
        return lower_star_many(self._graph, units, self._tol)

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
