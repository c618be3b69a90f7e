"""Edge recovery by bow-tie indegree differencing.

For each candidate pair (v, v') a bow tie at v — the symmetric difference
of the half-planes below v in two directions straddling the perpendicular
of v' - v — isolates v' from every other vertex. The indegrees of v seen
from the two directions then differ by exactly one iff the edge exists, and
each indegree is read off a single persistence diagram, so deciding all
pairs costs at most n(n-1) oracle queries.

Each pair's bow tie has its own width (`bowtie_widths`), both ends are
tried as its centre, and the better one is certified once, with no retry.
`reconstruct_edges_detail` decides every pair, a batch of whole rows at a
time; `pair_directions` is the certifier's one-pair call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import CoincidentPoints, DegeneratePoints, UncertifiedPair
from .geometry import TOLERANCE, Direction, Point2, height
from .persistence import Diagram, DiagramOracle, events_at_many

Edge = tuple[int, int]

#: Directions times 4n (a bound on the simplices per direction) that one
#: edge-phase batch may hold; the oracle kernel's arrays grow with it.
_BATCH_CELLS = 1 << 15


def bowtie_widths(V: Sequence[Point2], tol: float = TOLERANCE) -> np.ndarray:
    """The (n, n) bow-tie widths: width[i, j] is half the smaller of the two
    angular gaps next to line (V[i], V[j]) among the lines through V[i],
    taken mod pi; the diagonal is inf.

    The line angles come from one (n, n) arctan2 and are sorted around each
    vertex by one argsort. A bow tie at V[i] of half-angle below width[i, j]
    about line (V[i], V[j]) holds V[j] and no other vertex. Two vertices
    impose no constraint, so n = 2 gives pi/8. Raises DegeneratePoints when
    two vertices coincide within tol.
    """
    X, Y = np.array(V, dtype=np.float64).reshape(-1, 2).T
    n = len(X)
    dx, dy = X - X[:, None], Y - Y[:, None]  # row i: chords from V[i]
    same = np.maximum(np.abs(dx), np.abs(dy)) <= tol
    if np.count_nonzero(same) > n:  # more than the diagonal
        same.flat[:: n + 1] = False
        i, j = np.argwhere(same)[0].tolist()
        raise DegeneratePoints(f"vertices {i} and {j} coincide")
    if n == 2:
        return np.array([[math.inf, math.pi / 8.0], [math.pi / 8.0, math.inf]])
    angle = np.arctan2(dy, dx) % math.pi
    angle.flat[:: n + 1] = math.inf  # a vertex's own column sorts last
    rows = np.arange(n)[:, None]
    order = angle.argsort(axis=1)[:, :-1]
    lines = angle[rows, order]
    # gap[:, p] lies between lines p - 1 and p, cyclically: n gaps round n - 1 lines
    lines = np.concatenate([lines[:, -1:] - math.pi, lines, lines[:, :1] + math.pi], axis=1)
    gap = lines[:, 1:] - lines[:, :-1]
    width = np.full((n, n), math.inf)
    width[rows, order] = 0.5 * np.minimum(gap[:, :-1], gap[:, 1:])
    return width


def global_bowtie_width(V: Sequence[Point2], tol: float = TOLERANCE) -> float:
    """The narrowest bow tie of all pairs, `bowtie_widths(V, tol).min()`:
    half the smallest angular gap between lines through any vertex."""
    if len(V) < 2:
        raise ValueError("need at least two vertices")
    return float(bowtie_widths(V, tol).min())


def pair_directions(
    v: Point2,
    v2: Point2,
    theta: float,
    V: Sequence[Point2],
    tol: float = TOLERANCE,
) -> tuple[Direction, Direction]:
    """The two probe directions forming angles +-theta with the
    perpendicular of v2 - v.

    Certified against the known vertex set before they are returned: the
    bow tie at v holds exactly v2 and the heights of V are more than tol
    apart along both directions; otherwise raises UncertifiedPair, with i
    and j the indices of v and v2 in V (None for a point not in V). This is
    the one-pair call of the certifier the edge phase runs on whole batches.
    """
    if v == v2:
        raise CoincidentPoints(f"cannot probe a vertex against itself: {v}")
    i, j = (V.index(p) if p in V else None for p in (v, v2))
    if j is None:  # no bow tie can hold a point that is not a vertex
        raise UncertifiedPair(i, j, None, 0.0)
    X, Y = np.array(V, dtype=np.float64).reshape(-1, 2).T
    vx, vy = np.array(v, dtype=np.float64).reshape(2, 1)
    S, headroom = _certified_directions(vx, vy, X, Y, np.array([j]), np.array([theta]), tol)
    if not headroom[0] > 1.0:
        raise _uncertified(X, Y, i, j, S[0], headroom[0])
    (x1, y1), (x2, y2) = S[0].tolist()
    return Direction(x1, y1), Direction(x2, y2)


def _certified_directions(
    vx: np.ndarray,
    vy: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    cols: np.ndarray,
    theta: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe directions at (vx[r], vy[r]) towards vertex (X[c], Y[c]),
    c = cols[r]: the perpendicular of the chord turned by +theta[r] and
    -theta[r], as a (len(cols), 2, 2) array of unit [s1, s2] per row, and
    each row's headroom.

    The headroom is the smallest gap between the heights of all vertices
    along s1 and s2, divided by tol, and 0 where the bow tie at the row's
    source does not hold exactly vertex c; a row is certified when it
    exceeds 1. One attempt per row, no retry: heights are x*dx + y*dy
    elementwise as in `height`.
    """
    perp = np.arctan2(X[cols] - vx, vy - Y[cols])  # angle of (-dy, dx)
    turn = perp + np.array([theta, -theta])  # (2, k): s1, s2
    sx, sy = np.cos(turn), np.sin(turn)
    H = X * sx[..., None] + Y * sy[..., None]  # (2, k, n) vertex heights
    below = H <= (vx * sx + vy * sy)[..., None]
    inside = below[0] != below[1]
    holds = (inside.sum(axis=1) == 1) & inside[np.arange(len(cols)), cols]
    H.sort(axis=2)
    gap = (H[..., 1:] - H[..., :-1]).min(axis=(0, 2), initial=math.inf)
    return np.array([sx, sy]).transpose(2, 1, 0), np.where(holds, gap / tol, 0.0)


def _uncertified(X, Y, i, j, s: np.ndarray, headroom) -> UncertifiedPair:
    """The error for the bow tie at vertex i towards vertex j with the
    directions s = [s1, s2]; k is the vertex outside (i, j) that sets the
    smallest height gap with another vertex, None if there is none."""
    near = []
    for h in (X * s[:, :1] + Y * s[:, 1:]).tolist():
        up = sorted(range(len(h)), key=h.__getitem__)
        near += [(h[b] - h[a], a, b) for a, b in zip(up, up[1:]) if not {a, b} <= {i, j}]
    _, a, b = min(near, default=(None, None, None))
    return UncertifiedPair(i, j, b if a in (i, j) else a, float(headroom))


def indegree_from_diagrams(d: Diagram, v: Point2, tol: float = TOLERANCE) -> int:
    """Indegree of v read off one diagram: dim-0 deaths at v's height
    (diagonal pairs included) plus dim-1 births there. Infinite deaths
    never match."""
    return d.events_at(height(v, d.direction), tol)


@dataclass(frozen=True)
class EdgeReconResult:
    edges: frozenset[Edge]
    queries: int
    retries: int  # always 0: nothing is asked twice


def reconstruct_edges_detail(
    o: DiagramOracle, V: Sequence[Point2], tol: float = TOLERANCE
) -> EdgeReconResult:
    """Decide every unordered pair (i, j > i), lexicographic by index, with
    exactly 2 queries each.

    The pairs go in batches of whole rows, see `_row_batches`. One array
    pass certifies both ends of every pair of a batch, each with its own
    `bowtie_widths` entry; a pair keeps the end with the larger headroom
    (V[i] on a tie) and raises UncertifiedPair before the batch is queried
    if that is at most 1. The kept directions, [s1, s2] per pair, are asked
    in one `query_many` call, one `events_at_many` read gives the kept end's
    indegrees, and a pair exists iff they differ by exactly one. A
    degenerate entry raises UncertifiedPair from its DegenerateDirection."""
    n = len(V)
    if n < 2:
        return EdgeReconResult(frozenset(), 0, 0)
    width = bowtie_widths(V, tol)
    X, Y = np.array(V, dtype=np.float64).T
    start = o.query_count
    edges: set[Edge] = set()
    for rows in _row_batches(n):
        src = np.repeat(rows, n - 1 - rows)
        cols = np.concatenate([np.arange(i + 1, n) for i in rows.tolist()])
        k = len(src)
        centre, far = np.concatenate([src, cols]), np.concatenate([cols, src])
        S, headroom = _certified_directions(
            X[centre], Y[centre], X, Y, far, width[centre, far], tol
        )
        kept = np.arange(k) + k * (headroom[k:] > headroom[:k])
        certified = headroom[kept] > 1.0
        if not certified.all():
            r = int(kept[certified.argmin()])
            raise _uncertified(X, Y, int(centre[r]), int(far[r]), S[r], headroom[r])
        answers = o.query_many(list(map(Direction._make, S[kept].reshape(-1, 2).tolist())))
        # each entry's own direction, as `height(v, d.direction)` reads it
        U = [a.direction for a in answers]
        U = np.fromiter(chain.from_iterable(U), np.float64, 2 * len(U))
        at = centre[kept].repeat(2)
        counts, degenerate = events_at_many(answers, X[at] * U[0::2] + Y[at] * U[1::2], tol)
        if degenerate.any():
            e = int(degenerate.argmax())
            r = int(kept[e // 2])
            raise _uncertified(X, Y, int(centre[r]), int(far[r]), S[r], headroom[r]) from answers[e]
        exists = np.abs(counts[0::2] - counts[1::2]) == 1
        edges.update(zip(src[exists].tolist(), cols[exists].tolist()))
    return EdgeReconResult(frozenset(edges), o.query_count - start, 0)


def _row_batches(n: int) -> Iterator[np.ndarray]:
    """The sources i of consecutive whole rows (i, j > i), one array per
    batch. A row adds 2(n - 1 - i) directions, and rows join a batch while
    its k directions keep k * 4n within _BATCH_CELLS (4n bounds the n + m
    simplices of a direction, since a plane graph has m <= 3n - 6); a row
    larger than that is a batch of its own."""
    start = 0
    while start < n - 1:
        stop, k = start + 1, 2 * (n - 1 - start)
        while stop < n - 1 and (k + 2 * (n - 1 - stop)) * 4 * n <= _BATCH_CELLS:
            k += 2 * (n - 1 - stop)
            stop += 1
        yield np.arange(start, stop)
        start = stop
