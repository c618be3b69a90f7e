"""Lower-star persistence of height filtrations on plane graphs.

`_lower_star_units` computes the diagrams of many directions in one array
pass. Each vertex births a component at its height; an edge arrives at the
height of its upper endpoint and either merges two components (a dim-0
death, killing the younger birth per the elder rule) or closes a cycle (a
dim-1 birth that never dies, since the complex has no 2-simplices). The
kernel reads these events off the descent forest, in which each vertex
points to its lowest lower neighbour: that first arriving edge always kills
the vertex at its own height, leaving a diagonal (h, h) pair that the
indegree machinery downstream counts. Only edges between the basins of two
local minima need a union-find; a triangulation has one basin per direction.
`DiagramOracle.query_many` is its entry and `lower_star_diagrams` a fresh
oracle's `query` of one direction. Either returns diagrams only: a batch
with a tied direction, two vertex heights within the tolerance, raises the
first one's DegenerateDirection before any sweep work.

A `Diagram` is three arrays, whether the kernel swept it or it was built
from pairs: the ascending dim-0 births, the death of each and the
ascending dim-1 births, every diagonal pair kept (the augmented diagram).
`events_at_ranks` reads a batch of diagrams at all of their own vertex
heights, given in vertex order, checking each against them, and
`Diagram.events_at` counts one diagram's events at one height. The kernel
and the edge phase that reads its answers take vertex heights from one
place, `geometry.heights`.

`DiagramOracle` wraps a hidden graph and meters every diagram request; the
reconstruction modules are written against its interface only: `query`,
`query_many`, `query_count` and `query_log`.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDirection
from .geometry import TOLERANCE, Direction, checked_tolerance, heights
from .plane_graph import PlaneGraph

INFINITY = math.inf


class PersistencePair(NamedTuple):
    birth: float
    death: float  # math.inf for classes that never die


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Diagram:
    """Directional persistence diagram, diagonal pairs included, held as
    three read-only float64 arrays: `births`, the dim-0 births ascending,
    `deaths`, the death of each (INFINITY for a component that never dies),
    and `cycles`, the dim-1 births ascending.

    `Diagram(direction, dim0, dim1)` sorts pairs given in any order into
    the arrays. A cycle never dies, since the complex has no 2-simplices,
    so a dim-1 pair whose death is not INFINITY raises ValueError. The
    kernel builds each diagram from its row of the sweep (`_of`), with no
    pair. `dim0` and `dim1` are the pairs, canonically sorted by (birth,
    death), built the first time each is read; equality, hashing and repr
    read them.
    """

    direction: Direction
    births: np.ndarray
    deaths: np.ndarray
    cycles: np.ndarray

    def __init__(
        self, direction: Direction, dim0: Sequence[PersistencePair], dim1: Sequence[PersistencePair]
    ):
        births, deaths = np.array(sorted(dim0), dtype=np.float64).reshape(-1, 2).T.copy()
        cycles, dies = np.array(sorted(dim1), dtype=np.float64).reshape(-1, 2).T.copy()
        if (dies != INFINITY).any():
            raise ValueError(f"dim-1 pair dies at {dies[dies != INFINITY][0]}: a cycle never dies")
        for a in (births, deaths, cycles):
            a.flags.writeable = False
        vars(self).update(direction=direction, births=births, deaths=deaths, cycles=cycles)

    @classmethod
    def _of(cls, direction: Direction, births, deaths, cycles) -> "Diagram":
        """The diagram of these read-only float64 arrays, taken as they are."""
        d = object.__new__(cls)
        vars(d).update(direction=direction, births=births, deaths=deaths, cycles=cycles)
        return d

    @cached_property
    def dim0(self) -> tuple[PersistencePair, ...]:
        # `_make` builds a pair without the namedtuple's Python-level __new__.
        # The pairs come out in (birth, death) order: the kernel's births are
        # distinct and ascending, and `__init__` sorts the pairs it is given.
        return tuple(map(PersistencePair._make, zip(self.births.tolist(), self.deaths.tolist())))

    @cached_property
    def dim1(self) -> tuple[PersistencePair, ...]:
        return tuple(PersistencePair._make((b, INFINITY)) for b in self.cycles.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.direction, self.dim0, self.dim1) == (other.direction, other.dim0, other.dim1)

    def __hash__(self) -> int:
        return hash((self.direction, self.dim0, self.dim1))

    def __repr__(self) -> str:
        return f"Diagram(direction={self.direction!r}, dim0={self.dim0!r}, dim1={self.dim1!r})"

    def events_at(self, h: float, tol: float = TOLERANCE) -> int:
        """Finite dim-0 deaths plus dim-1 births within tol of height h
        (diagonal pairs included): the indegree of a vertex at height h.
        A tol outside [0, inf), NaN included, raises ValueError."""
        checked_tolerance(tol)
        x = np.concatenate([self.deaths, self.cycles])
        return int(np.count_nonzero(np.abs(x[~np.isinf(x)] - h) <= tol))


def events_at_ranks(
    entries: Sequence[Diagram], H: np.ndarray, tol: float = TOLERANCE
) -> tuple[np.ndarray, np.ndarray]:
    """Every entry's indegree events, counted at every height of its own row
    of H, in H's column order.

    H is (len(entries), n): row e holds entry e's n vertex heights, more
    than tol apart, in vertex order; one argsort per row ranks them.
    Returns (counts, mismatched): counts[e, v] is the number of finite
    dim-0 deaths and dim-1 births x of entry e with abs(x - H[e, v]) <= tol,
    as `Diagram.events_at` counts them, but each event at one height only,
    which matters only where two heights of a row lie within 2 tol;
    mismatched[e] flags an entry whose dim-0 births are not n or not within
    tol of its row rank by rank, or with an event within tol of no height
    of its row.

    The births check lines each dim-0 pair up with the height of its birth's
    rank, so the common diagonal death is counted by one elementwise test.
    Only the other finite deaths and the dim-1 births are located in their
    own row: the former by comparison with the whole row, the latter, which
    are sorted, by one search per row. The counts go back to the vertices
    by the rows' argsort.
    """
    k, n = H.shape
    by_rank = (H.argsort(axis=1) + np.arange(0, k * n, n)[:, None]).ravel()
    ascending = H.ravel()[by_rank].reshape(k, n)
    # an entry of other than n dim-0 pairs reads as births and deaths at
    # infinity: it matches no row and has no own death
    blank = np.full(n, INFINITY)
    births = np.array([d.births if len(d.births) == n else blank for d in entries]).reshape(k, n)
    death = np.array([d.deaths if len(d.births) == n else blank for d in entries]).reshape(k, n)
    mismatched = (np.abs(births - ascending) > tol).any(axis=1)
    own = np.abs(death - ascending) <= tol
    # every other event x: the finite deaths off their own height (an own
    # death is finite, hence the xor), few on a connected graph, then the
    # dim-1 births. Its place is the number of heights of its row below
    # x - tol: by one comparison each with the row for those deaths, by one
    # search per row for the births, which are ascending in each row
    row, at = ((death < INFINITY) ^ own).nonzero()
    sizes = [len(d.cycles) for d in entries]
    x = np.concatenate([death[row, at], *(d.cycles for d in entries)])
    low = x - tol
    ends = list(accumulate(sizes, initial=len(row)))
    at = [(ascending[row] < low[: ends[0], None]).sum(axis=1)]
    at += [a.searchsorted(low[b:e]) for a, b, e in zip(ascending, ends, ends[1:])]
    row = np.concatenate([row, np.repeat(np.arange(k), sizes)])
    # the event is at the height found iff that height is within tol; one
    # past the last height, the last is not
    at = np.minimum(np.concatenate(at), n - 1) + row * n
    hit = np.abs(ascending.ravel()[at] - x) <= tol
    mismatched[row[~hit]] = True
    counts = np.empty(k * n, np.intp)
    counts[by_rank] = own.ravel() + np.bincount(at[hit], minlength=k * n)
    return counts.reshape(k, n), mismatched


def _lower_star_units(g: PlaneGraph, units: Sequence[Direction], tol: float) -> list[Diagram]:
    """Zero- and one-dimensional diagrams of the height filtrations along
    every unit direction in units, computed together, one per direction.
    The units are not normalized again, so each diagram's `direction` is the
    unit it was given.

    Simplices are ordered by (height, dimension, tie-break), so a vertex
    precedes the edges arriving at its height and same-height edges are
    processed by ascending (lower-endpoint height, edge index). The edge
    index never decides anything: a row's heights are distinct, so the two
    endpoint heights name the edge. A direction is degenerate when two
    vertex heights coincide within tol. Right after ranking, the batch
    raises the DegenerateDirection of its first degenerate row, naming that
    row's first such pair in ascending height order, smaller index first.

    Array kernel over `g.arrays`, one row per direction:

    - Heights come from `geometry.heights`. numpy's default argsort per
      row ranks the vertices: tol >= 0, as the oracle checks, so a row that
      passes the tie check has distinct heights, ranked alike by every
      sort, and only the tied row that raises is ranked again, stably.
    - Descent forest: a vertex's first arriving edge goes to its lowest
      lower neighbour, whose component is older, so every vertex with a
      lower neighbour dies at its own height (a diagonal pair). A batch
      with k local minima, one per row as on a triangulation, is one basin
      per row: every other edge closes a cycle at its top height.
    - Otherwise pointer jumping takes each vertex to the local minimum of
      its basin, and a non-forest edge within one basin closes a cycle.
      Edges between basins go through a small elder-rule union-find over
      basin minima in arrival order: the younger minimum dies at the
      edge's top height, or the edge closes a cycle.
    - Cycle births are the ascending heights, each repeated by the number
      of cycles arriving at that rank, so no edge table is sorted.
    """
    k, n = len(units), g.n
    x, y, edges = g.arrays
    u = np.array(units, dtype=np.float64).reshape(k, 2)
    H = heights(x, y, u)  # (k, n)
    order = H.argsort(axis=1)

    # Flat indices: r*n + v for vertex v of row r, and r*n + q for rank q,
    # so one 1-d array holds a quantity for every row.
    offsets = (np.arange(k) * n)[:, None]
    by_rank = (order + offsets).ravel()
    level = H.ravel()[by_rank]  # the height at every flat rank
    level.flags.writeable = False
    ascending = level.reshape(k, n)
    tied = ascending[:, 1:] - ascending[:, :-1] <= tol
    if tied.any():
        r, t = np.argwhere(tied)[0].tolist()
        a, b = H[r].argsort(kind="stable")[t : t + 2].tolist()
        raise DegenerateDirection(min(a, b), max(a, b), units[r])
    ranks = np.arange(k * n)
    rank = np.empty_like(ranks)
    rank[by_rank] = ranks
    ra, rb = np.take(rank.reshape(k, n), edges.T, axis=1).swapaxes(0, 1)
    lo, hi = np.minimum(ra, rb).ravel(), np.maximum(ra, rb).ravel()

    lowest = ranks.copy()  # rank of the lowest lower neighbour, else own rank
    np.minimum.at(lowest, hi, lo)
    death = np.where(lowest < ranks, level, INFINITY)
    closes = lowest[hi] != lo  # every edge but the forest's: a cycle within one basin
    if np.count_nonzero(lowest == ranks) > k:  # a row with two minima has two basins
        basin, below = lowest, lowest[lowest]
        while np.count_nonzero(below != basin):  # pointer jumping down the descent forest
            basin, below = below, below[below]
        a, b = basin[lo], basin[hi]
        across = (a != b).nonzero()[0]
        # arrival order is (top rank, lower-endpoint rank): distinct ranks name the edge
        arrival = sorted(zip(*(v[across].tolist() for v in (hi, lo, a, b)), across.tolist()))
        up: dict[int, int] = {}
        for top, _, a, b, e in arrival:
            while a in up:
                a = up[a]
            while b in up:
                b = up[b]
            closes[e] = a == b
            if a != b:  # elder rule: the lower minimum survives
                up[max(a, b)] = min(a, b)
                death[max(a, b)] = level[top]
    arrivals = np.bincount(hi[closes], minlength=k * n)
    cycles = np.repeat(level, arrivals)
    death.flags.writeable = cycles.flags.writeable = False
    ends = arrivals.reshape(k, n).sum(axis=1).cumsum().tolist()
    rows = zip(units, ascending, death.reshape(k, n), [0, *ends], ends)
    return [Diagram._of(unit, asc, dead, cycles[a:b]) for unit, asc, dead, a, b in rows]


def lower_star_diagrams(g: PlaneGraph, s: Direction, tol: float = TOLERANCE) -> Diagram:
    """Zero- and one-dimensional diagrams of the height filtration along s,
    normalized first: the `query` of a fresh `DiagramOracle`.

    Raises DegenerateDirection when two vertex heights coincide within tol.
    """
    return DiagramOracle(g, tol).query(s)


class DiagramOracle:
    """Metered diagram access to a hidden plane graph.

    Every query (including a repeat of an earlier direction) is computed
    afresh and logged; the count and the log are updated atomically so they
    never disagree under concurrent use. The oracle answers with diagrams
    only: a direction along which two vertex heights coincide within tol
    raises DegenerateDirection, whether asked alone or in a batch. A tol
    outside [0, inf), NaN included, raises ValueError.
    """

    def __init__(self, graph: PlaneGraph, tol: float = TOLERANCE):
        self._graph = graph
        self._tol = checked_tolerance(tol)
        self._log: list[Direction] = []
        self._lock = threading.Lock()

    @property
    def query_count(self) -> int:
        return len(self._log)

    @property
    def query_log(self) -> tuple[Direction, ...]:
        return tuple(self._log)

    def query(self, s: Direction) -> Diagram:
        """`query_many` on the one direction."""
        return self.query_many([s])[0]

    def query_many(self, S: Sequence[Direction]) -> list[Diagram]:
        """One Diagram per direction, as `query` would give it. Every
        direction is normalized once, then logged, counted and swept as that
        unit. A degenerate direction raises the DegenerateDirection of the
        first, after the whole batch is logged and counted."""
        units = [Direction(*s).normalized() for s in S]
        with self._lock:
            self._log.extend(units)
        return _lower_star_units(self._graph, units, self._tol)


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
        return [PersistencePair(float(b), INFINITY if d is None else float(d)) for b, d in pairs]

    return Diagram(direction, dec(data["dim0"]), dec(data["dim1"]))
