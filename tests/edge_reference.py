"""References for the edge phase: the paper's exhaustive schedule, the
one-pair probe, the bow tie and the line angles that the pipeline is
checked against, and criterion 7's brute-force enumerator of compatible
edge sets.

`reference_reconstruct_edges` asks every pair (i, j > i), lexicographic by
index, with exactly 2 queries each, a batch of whole rows at a time
(`_row_batches`); each batch is asked by the pipeline's own chunk step,
so a pair it shares with the pipeline is asked with the same directions,
and each pair is decided by the paper's rule alone, at its centre.

`reference_probe_edge` applies the pipeline's rule to one pair of points
of V at a chosen width: the two certified directions of `pair_directions`
at their indices, asked in one
`query_many`, read by `indegree_from_diagrams`, an edge iff the indegrees
differ by exactly one.

`reference_bowtie_members` is the height test every read of a probe pair
must hold exactly, over every vertex rather than a window of chords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from phrecon import (
    DegenerateDirection,
    Diagram,
    Direction,
    PlaneGraph,
    Point2,
    height,
    indegree_from_diagrams,
    lower_star_diagrams,
    pair_directions,
)
from phrecon import edge_recon
from phrecon.edge_recon import EdgeReconResult
from phrecon.errors import PhreconError
from phrecon.geometry import TOLERANCE

from graph_reference import UnionFind

Edge = tuple[int, int]

#: Largest vertex count the compatible-graph enumerator accepts; the row
#: table is exponential in the worst case.
MAX_ENUMERATION_VERTICES = 12


class EnumerationOverflow(PhreconError):
    """Compatible-graph enumeration refused to run above its size safeguard."""


class CoincidentPoints(PhreconError):
    """`line_angle_mod_pi` received two equal points."""


def reference_reconstruct_edges(o, V: Sequence[Point2], tol: float = TOLERANCE) -> EdgeReconResult:
    """The paper's schedule: every pair (i, j > i) in lexicographic order,
    2 queries each, in batches of whole rows (`_row_batches`). Each batch
    goes through `edge_recon._probe`, which certifies both ends, keeps the
    better one, asks and reads; a pair is an edge iff the indegrees at its
    kept centre differ by exactly one, and the reads elsewhere are unused.
    The geometry and the cell budget are read from `edge_recon` at call
    time."""
    n = len(V)
    if n < 2:
        return EdgeReconResult(frozenset(), 0, 0)
    X, Y = np.array(V, dtype=np.float64).T
    geometry = edge_recon._geometry(X, Y, tol)
    start = o.query_count
    edges: set[Edge] = set()
    for rows in _row_batches(n):
        src = np.repeat(rows, n - 1 - rows)
        cols = np.concatenate([np.arange(i + 1, n) for i in rows.tolist()])
        tag, D, *_ = edge_recon._probe(o, X, Y, geometry, src, cols, tol)
        # each pair's read at its own kept centre c, the one group tagged
        # (c * n + f) * n + c for its far end f
        probe, u = np.divmod(tag, n)
        c, f = np.divmod(probe, n)
        exists = (u == c) & (np.abs(D) == 1)
        edges.update(zip(np.minimum(c, f)[exists].tolist(), np.maximum(c, f)[exists].tolist()))
    return EdgeReconResult(frozenset(edges), o.query_count - start, 0)


def reference_bowtie_members(H: np.ndarray, centre, far) -> dict:
    """The members of every read of the probe pairs (centre[p], far[p]),
    from H, the (2, k, n) vertex heights along their s1 and s2, by the
    height test over every other vertex: {(centre, far, u): {pair: sign}},
    with pair i * n + j, i < j, and sign +1 where w lies below u along s1
    only and -1 where along s2 only. Reads with no member are left out."""
    k, n = H.shape[1:]
    out = {}
    for p in range(k):
        h1, h2 = H[0, p], H[1, p]
        for u in range(n):
            below1, below2 = h1 < h1[u], h2 < h2[u]
            members = {min(u, w) * n + max(u, w): 1 if below1[w] else -1 for w in np.flatnonzero(below1 != below2).tolist()}
            if members:
                out[int(centre[p]), int(far[p]), u] = members
    return out


def _row_batches(n: int) -> Iterator[np.ndarray]:
    """The sources i of consecutive whole rows (i, j > i), one array per
    batch. A row adds 2(n - 1 - i) directions, and rows join a batch while
    its k directions keep k * 4n within edge_recon._BATCH_CELLS (4n bounds
    the n + m simplices of a direction, since a plane graph has
    m <= 3n - 6); a row larger than that is a batch of its own."""
    cells = edge_recon._BATCH_CELLS
    start = 0
    while start < n - 1:
        stop, k = start + 1, 2 * (n - 1 - start)
        while stop < n - 1 and (k + 2 * (n - 1 - stop)) * 4 * n <= cells:
            k += 2 * (n - 1 - stop)
            stop += 1
        yield np.arange(start, stop)
        start = stop


def reference_probe_edge(
    o,
    v: Point2,
    v2: Point2,
    theta: float,
    V: Sequence[Point2],
    tol: float = TOLERANCE,
) -> bool:
    """Whether (v, v2) is an edge, decided from the two diagrams of its
    certified bow tie at v of half-width theta. Raises UncertifiedPair
    before asking when `pair_directions` does, and the oracle's
    DegenerateDirection on a tie. v and v2 must be points of V."""
    answers = o.query_many(list(pair_directions(V, V.index(v), V.index(v2), theta, tol)))
    i1, i2 = (indegree_from_diagrams(d, v, tol) for d in answers)
    return abs(i1 - i2) == 1


@dataclass(frozen=True)
class BowTie:
    """Double wedge at `center`: symmetric difference of the closed
    half-planes below the center in directions s1 and s2."""

    center: Point2
    s1: Direction
    s2: Direction
    half_width: float

    def __post_init__(self):
        dot = self.s1.dx * self.s2.dx + self.s1.dy * self.s2.dy
        cross = self.s1.dx * self.s2.dy - self.s1.dy * self.s2.dx
        angle = math.atan2(abs(cross), dot)
        if abs(angle - 2.0 * self.half_width) > 1e-12:
            raise ValueError(
                f"directions span {angle} rad, expected {2.0 * self.half_width}"
            )

    def contains(self, p: Point2) -> bool:
        below1 = height(p, self.s1) <= height(self.center, self.s1)
        below2 = height(p, self.s2) <= height(self.center, self.s2)
        return below1 != below2


def rotate(s: Direction, angle: float) -> Direction:
    """Rotate s counter-clockwise by angle (radians)."""
    u = Direction(*s).normalized()
    c, sn = math.cos(angle), math.sin(angle)
    return Direction(u.dx * c - u.dy * sn, u.dx * sn + u.dy * c)


def line_angle_mod_pi(u: Point2, v: Point2) -> float:
    """Angle in [0, pi) of the undirected line through u and v.

    Symmetric in its arguments exactly: the chord is canonicalized to point
    into the right half-plane before atan2.
    """
    dx, dy = v[0] - u[0], v[1] - u[1]
    if dx == 0.0 and dy == 0.0:
        raise CoincidentPoints(f"points {u} and {v} coincide")
    if dx < 0.0 or (dx == 0.0 and dy < 0.0):
        dx, dy = -dx, -dy
    a = math.atan2(dy, dx)
    if a < 0.0:
        a += math.pi
    return a


def enumerate_compatible_graphs(
    V: Sequence[Point2],
    s: Direction,
    d: Diagram,
    tol: float = TOLERANCE,
) -> set[frozenset[Edge]]:
    """Every edge set over V whose filtration along s reproduces d.

    Sweeps the vertices from least to greatest height, extending each
    surviving partial edge set with every subset of edges back to the
    already-seen vertices whose merge/cycle counts at that height match
    the diagram's dim-0 deaths and dim-1 births there; complete rows are
    re-checked against the full diagram. Capped at 12 vertices.
    """
    n = len(V)
    if n > MAX_ENUMERATION_VERTICES:
        raise EnumerationOverflow(
            f"{n} vertices exceeds the enumeration safeguard of {MAX_ENUMERATION_VERTICES}"
        )
    u = Direction(*s).normalized()
    heights = [height(p, u) for p in V]
    order = sorted(range(n), key=heights.__getitem__)
    for a, b in zip(order, order[1:]):
        if abs(heights[a] - heights[b]) <= tol:
            raise DegenerateDirection(min(a, b), max(a, b), u)

    finite_deaths = [p.death for p in d.dim0 if not math.isinf(p.death)]
    cycle_births = [p.birth for p in d.dim1]

    rows: set[frozenset[Edge]] = {frozenset()}
    seen: list[int] = []
    for v in order:
        h = heights[v]
        k0 = sum(1 for death in finite_deaths if abs(death - h) <= tol)
        k1 = sum(1 for birth in cycle_births if abs(birth - h) <= tol)
        need = k0 + k1
        new_rows: set[frozenset[Edge]] = set()
        for row in rows:
            comp = UnionFind(n)
            for a, b in row:
                comp.union(a, b)
            for subset in combinations(seen, need):
                if len({comp.find(x) for x in subset}) != k0:
                    continue
                extension = {(min(v, x), max(v, x)) for x in subset}
                new_rows.add(row | extension)
        rows = new_rows
        seen.append(v)
        if not rows:
            return set()

    return {row for row in rows if _diagram_matches(V, row, u, d, tol)}


def _diagram_matches(V, edges, u, expected: Diagram, tol: float) -> bool:
    candidate = lower_star_diagrams(PlaneGraph(V, edges), u, tol)
    for got, want in ((candidate.dim0, expected.dim0), (candidate.dim1, expected.dim1)):
        if len(got) != len(want):
            return False
        for a, b in zip(sorted(got), sorted(want)):
            if abs(a.birth - b.birth) > tol:
                return False
            if math.isinf(a.death) != math.isinf(b.death):
                return False
            if not math.isinf(a.death) and abs(a.death - b.death) > tol:
                return False
    return True
