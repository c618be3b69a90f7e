"""Edge recovery by bow-tie indegree differencing.

For each candidate pair (v, v') a bow tie at v — the symmetric difference
of the half-planes below v in two directions straddling the perpendicular
of v' - v — isolates v' from every other vertex. The indegrees of v seen
from the two directions then differ by exactly one iff the edge exists, and
each indegree is read off a single persistence diagram, so deciding all
pairs costs at most n(n-1) oracle queries.

`enumerate_compatible_graphs` is the independent brute-force oracle: it
builds every edge set whose filtration events match a given diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateDirection,
    DegeneratePoints,
    EnumerationOverflow,
    RetryExhausted,
)
from .geometry import (
    TOLERANCE,
    Direction,
    Point2,
    height,
    line_angle_mod_pi,
)
from .persistence import Diagram, DiagramOracle, lower_star_diagrams
from .plane_graph import PlaneGraph, _UnionFind

Edge = tuple[int, int]

_MAX_SHRINKS = 64
_SHRINK_FACTOR = 0.9

#: Largest vertex count the compatible-graph enumerator accepts; the row
#: table is exponential in the worst case.
MAX_ENUMERATION_VERTICES = 12


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


class IndegreeQuery(NamedTuple):
    """One resolved indegree probe: how many edges at `vertex` lie at or
    below it in `direction`."""

    vertex: Point2
    direction: Direction
    count: int


def global_bowtie_width(V: Sequence[Point2], tol: float = TOLERANCE) -> float:
    """Half the smallest angular gap between lines through any vertex.

    For each v the others are ordered cyclically and the minimum angle
    between adjacent lines (mod pi) taken; the returned width is half the
    overall minimum, strictly below every per-vertex bound. Two vertices
    impose no constraint, so |V| = 2 falls back to pi/8.
    """
    if len(V) < 2:
        raise ValueError("need at least two vertices")
    for i, j in combinations(range(len(V)), 2):
        if abs(V[i].x - V[j].x) <= tol and abs(V[i].y - V[j].y) <= tol:
            raise DegeneratePoints(f"vertices {i} and {j} coincide")
    if len(V) == 2:
        return math.pi / 8.0
    best = math.pi
    for v in V:
        angles = sorted(line_angle_mod_pi(v, u) for u in V if u != v)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + math.pi - angles[-1])
        best = min(best, min(gaps))
    return 0.5 * best


def pair_directions(
    v: Point2,
    v2: Point2,
    theta: float,
    V: Sequence[Point2],
    tol: float = TOLERANCE,
) -> tuple[Direction, Direction]:
    """The two probe directions forming angles +-theta with the
    perpendicular of v2 - v.

    Before returning, checks against the known vertex set that the bow tie
    at v contains exactly v2 and that both directions give pairwise
    distinct heights on V; any float-level violation shrinks theta by 0.9
    and retries (at most 64 times — impossible in exact arithmetic).
    This is the one-pair call of the certifier the edge phase runs on a
    whole row of pairs at once.
    """
    if v == v2:
        raise CoincidentPoints(f"cannot probe a vertex against itself: {v}")
    X, Y = np.array(V, dtype=np.float64).reshape(-1, 2).T
    col = [k for k, u in enumerate(V) if u == v2][:1]  # no column: no bow tie can hold v2
    chosen = _certified_directions(v, X, Y, np.array(col, dtype=np.intp), theta, tol)
    if not chosen or chosen[0] is None:
        raise RetryExhausted(_exhausted(v, v2))
    return chosen[0]


def _exhausted(v: Point2, v2: Point2) -> str:
    return f"no usable bow tie at {v} towards {v2} after {_MAX_SHRINKS} shrinks"


def _certified_directions(
    v: Point2,
    X: np.ndarray,
    Y: np.ndarray,
    cols: np.ndarray,
    theta: float,
    tol: float,
) -> list[tuple[Direction, Direction] | None]:
    """Probe directions at v towards each vertex (X[c], Y[c]), c in cols,
    or None where 64 shrinks of theta found none.

    Every row is certified as one pair would be: the bow tie at v holds
    exactly vertex c, and the heights of all vertices are more than tol
    apart along both directions. Rows that fail shrink theta by 0.9
    together, so each attempt has one angle and its sine and cosine come
    from `math`, as in `rotate`. The base perpendicular is normalized with
    `math.hypot` as `Direction.normalized` does (`np.hypot` rounds
    differently), and heights are x*dx + y*dy elementwise as in `height`,
    so each row gives the directions, and decisions, of the one-pair call.
    """
    vx, vy = v
    ux, uy = [], []
    for x, y in zip(X[cols].tolist(), Y[cols].tolist()):
        # rotate(Direction(x - vx, y - vy).normalized().perp(), .) normalizes twice
        dx, dy = x - vx, y - vy
        norm = math.hypot(dx, dy)
        px, py = -(dy / norm), dx / norm
        norm = math.hypot(px, py)
        ux.append(px / norm)
        uy.append(py / norm)
    ux, uy = np.array(ux), np.array(uy)

    chosen: list[tuple[Direction, Direction] | None] = [None] * len(cols)
    pending = np.arange(len(cols))
    current = theta
    for _ in range(_MAX_SHRINKS + 1):
        cos = np.array([[math.cos(current)], [math.cos(-current)]])
        sin = np.array([[math.sin(current)], [math.sin(-current)]])
        a, b = ux[pending], uy[pending]
        sx = a * cos - b * sin  # (2, k): row 0 is s1, row 1 is s2
        sy = a * sin + b * cos
        H = X * sx[..., None] + Y * sy[..., None]  # (2, k, n) vertex heights
        below = H <= (vx * sx + vy * sy)[..., None]
        inside = below[0] != below[1]
        ok = (inside.sum(axis=1) == 1) & inside[np.arange(len(pending)), cols[pending]]
        H.sort(axis=2)
        ok &= ~(H[..., 1:] - H[..., :-1] <= tol).any(axis=(0, 2))
        good = np.flatnonzero(ok)
        for r, x1, y1, x2, y2 in zip(
            pending[good].tolist(),
            sx[0, good].tolist(),
            sy[0, good].tolist(),
            sx[1, good].tolist(),
            sy[1, good].tolist(),
        ):
            chosen[r] = (Direction(x1, y1), Direction(x2, y2))
        pending = pending[~ok]
        if not len(pending):
            break
        current *= _SHRINK_FACTOR
    return chosen


def indegree_from_diagrams(d: Diagram, v: Point2, tol: float = TOLERANCE) -> int:
    """Indegree of v read off one diagram: dim-0 deaths at v's height
    (diagonal pairs included) plus dim-1 births there. Infinite deaths
    never match."""
    return d.events_at(height(v, d.direction), tol)


@dataclass(frozen=True)
class EdgeProbe:
    """Outcome of one pair decision. `retries` counts the extra oracle
    queries consumed by retrying, so a probe always costs 2 + retries."""

    exists: bool
    retries: int
    indegrees: tuple[IndegreeQuery, IndegreeQuery]


def probe_edge(
    o: DiagramOracle,
    v: Point2,
    v2: Point2,
    theta: float,
    V: Sequence[Point2],
    tol: float = TOLERANCE,
) -> EdgeProbe:
    """Decide (v, v2) with two diagrams; retry with a narrower bow tie if
    the oracle reports coincident heights (each retry re-queries and is
    therefore billed against the budget)."""
    directions = pair_directions(v, v2, theta, V, tol)
    return _probe_from(o, v, v2, theta, V, tol, directions, _ask(o, directions))


def _ask(o: DiagramOracle, directions: tuple[Direction, Direction]) -> tuple:
    """The oracle's entries for one attempt's two directions, in order, a
    DegenerateDirection standing for a raised query; the second direction
    is not asked once the first is degenerate."""
    s1, s2 = directions
    try:
        d1 = o.query(s1)
    except DegenerateDirection as err:
        return (err,)
    try:
        return d1, o.query(s2)
    except DegenerateDirection as err:
        return d1, err


def _probe_from(o, v, v2, theta, V, tol, directions, answers) -> EdgeProbe:
    """`probe_edge` whose first attempt has been asked: `directions` is the
    certified pair for theta and `answers` the oracle's entries for them.
    Every entry asked is billed, so a degenerate attempt adds its entries
    to `retries` and the next one narrows the bow tie."""
    current = theta
    extra_queries = 0
    last_error: DegenerateDirection | None = None
    for attempt in range(_MAX_SHRINKS + 1):
        if attempt:
            directions = pair_directions(v, v2, current, V, tol)
            answers = _ask(o, directions)
        last_error = next((a for a in answers if isinstance(a, DegenerateDirection)), None)
        if last_error is not None:
            extra_queries += len(answers)
            current *= _SHRINK_FACTOR
            continue
        (s1, s2), (d1, d2) = directions, answers
        i1 = indegree_from_diagrams(d1, v, tol)
        i2 = indegree_from_diagrams(d2, v, tol)
        return EdgeProbe(
            exists=abs(i1 - i2) == 1,
            retries=extra_queries,
            indegrees=(
                IndegreeQuery(v, s1, i1),
                IndegreeQuery(v, s2, i2),
            ),
        )
    assert last_error is not None
    raise last_error


@dataclass(frozen=True)
class EdgeReconResult:
    edges: frozenset[Edge]
    queries: int
    retries: int


def reconstruct_edges_detail(
    o: DiagramOracle, V: Sequence[Point2], tol: float = TOLERANCE
) -> EdgeReconResult:
    """Decide every unordered pair, lexicographic by index, from the
    lexicographically smaller endpoint; 2 queries per pair plus any
    (expected zero) retry re-queries. The probe directions of all pairs
    (i, j > i) are chosen and certified in one array block per i, and asked
    in one `query_many` call, [s1, s2] per pair in order; a pair with a
    degenerate entry is retried after the row. An uncertifiable pair raises
    RetryExhausted before its row is queried."""
    n = len(V)
    if n < 2:
        return EdgeReconResult(frozenset(), 0, 0)
    theta = global_bowtie_width(V, tol)
    X, Y = np.array(V, dtype=np.float64).T
    start = o.query_count
    edges: set[Edge] = set()
    retries = 0
    for i in range(n - 1):
        row = _certified_directions(V[i], X, Y, np.arange(i + 1, n), theta, tol)
        for j, directions in enumerate(row, start=i + 1):
            if directions is None:
                raise RetryExhausted(_exhausted(V[i], V[j]))
        answers = o.query_many([s for directions in row for s in directions])
        for j, directions, d1, d2 in zip(range(i + 1, n), row, answers[::2], answers[1::2]):
            probe = _probe_from(o, V[i], V[j], theta, V, tol, directions, (d1, d2))
            retries += probe.retries
            if probe.exists:
                edges.add((i, j))
    return EdgeReconResult(frozenset(edges), o.query_count - start, retries)


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
    re-checked against the full diagram. Brute-force test oracle, capped
    at 12 vertices.
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

    finite_deaths = [p.death for p in d.dim0 if not p.is_infinite]
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
            comp = _UnionFind(n)
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
            if a.is_infinite != math.isinf(b.death):
                return False
            if not a.is_infinite and abs(a.death - b.death) > tol:
                return False
    return True
