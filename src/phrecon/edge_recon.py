"""Edge recovery by bow-tie indegree differencing.

For a candidate pair (v, v') a bow tie at v — the symmetric difference of
the half-planes below v in two directions straddling the perpendicular of
v' - v — isolates v' from every other vertex. The indegrees of v seen from
the two directions then differ by exactly one iff the edge exists, and each
indegree is read off a single persistence diagram, so deciding a pair costs
2 oracle queries.

`reconstruct_edges_detail` reads every degree off two axis diagrams first
and then asks only the pairs that counting cannot settle, nearest first, in
batched rounds; it stays within the paper's n(n-1) queries. Each asked
pair's bow tie has its own width (`bowtie_widths`), both ends are tried as
its centre, and the better one is certified once, with no retry;
`pair_directions` is the certifier's one-pair call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateDirection,
    DegeneratePoints,
    DegreeConflict,
    UncertifiedPair,
)
from .geometry import TOLERANCE, Direction, Point2, height
from .persistence import Diagram, DiagramOracle, events_at_heights, events_at_many

Edge = tuple[int, int]

#: Directions times 4n (a bound on the simplices per direction) that one
#: edge-phase chunk may hold; the oracle kernel's arrays grow with it.
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
    """Decide every unordered pair (i, j), asking the oracle only about the
    pairs that counting cannot settle.

    Degrees first: indeg(v, s) + indeg(v, -s) = deg(v), so the diagrams of
    (1, 0) and (-1, 0), asked in one `query_many`, give every degree
    (`_degrees`); this needs V's x-coordinates more than tol apart, as the
    vertex phase does. Then, before every round, `_close` settles pairs by
    counting alone, to a fixpoint: with r(v) the degree v has left and
    open(v) its undecided pairs, r(v) = 0 closes v's pairs as non-edges and
    r(v) = open(v) closes them as edges; r(v) < 0 or r(v) > open(v) raises
    DegreeConflict naming v. In a round each vertex with pairs left proposes
    its r(v) nearest open pairs, by one global key (squared length, then
    (i, j)). The round's pairs, in (i, j) order, are decided by `_decide` in
    chunks of at most max(1, _BATCH_CELLS // 8n) pairs, so that a chunk's k
    directions keep k * 4n within _BATCH_CELLS (4n bounds the n + m
    simplices of a direction, since a plane graph has m <= 3n - 6). A pair
    is certified only if it is asked.

    The budget: each asked pair is closed at once, so it is asked once, for
    2 queries. After `_close` every vertex with open pairs has
    0 < r(v) < open(v), so it proposes at least one pair and not its last
    one. The longest open pair is last in both of its ends' orders, as the
    key is global, so no round asks it; after the final round `_close`
    settles it without a query. With P = n(n - 1)/2 pairs, at most P - 1
    are asked, and the queries number at most 2 + 2(P - 1) = n(n - 1)."""
    n = len(V)
    if n < 2:
        return EdgeReconResult(frozenset(), 0, 0)
    X, Y = np.array(V, dtype=np.float64).T
    start = o.query_count
    left = _degrees(o, X, Y, tol)
    undecided = ~np.eye(n, dtype=bool)
    edges: set[Edge] = set()
    width = nearest = None
    rows = np.arange(n)[:, None]
    chunk = max(1, _BATCH_CELLS // (8 * n))
    while _close(undecided, left, edges):
        if nearest is None:  # only rounds need the geometry
            width, nearest = bowtie_widths(V, tol), _nearest_first(X, Y)
        ranked = undecided[rows, nearest]
        pick = ranked & (ranked.cumsum(axis=1) <= left[:, None])
        ask = np.zeros_like(undecided)
        ask[pick.nonzero()[0], nearest[pick]] = True
        src, cols = np.triu(ask | ask.T).nonzero()
        exists = np.concatenate(
            [
                _decide(o, X, Y, width, src[a : a + chunk], cols[a : a + chunk], tol)
                for a in range(0, len(src), chunk)
            ]
        )
        undecided[src, cols] = undecided[cols, src] = False
        src, cols = src[exists], cols[exists]
        edges.update(zip(src.tolist(), cols.tolist()))
        left -= np.bincount(src, minlength=n) + np.bincount(cols, minlength=n)
    return EdgeReconResult(frozenset(edges), o.query_count - start, 0)


def _degrees(o: DiagramOracle, X: np.ndarray, Y: np.ndarray, tol: float) -> np.ndarray:
    """Every vertex's degree, indeg(v, s) + indeg(v, -s) for s = (1, 0),
    from the two diagrams asked in one `query_many` and one
    `events_at_heights` read each, at the heights x*dx + y*dy along each
    entry's own direction. The first degenerate entry is raised."""
    answers = o.query_many([Direction(1.0, 0.0), Direction(-1.0, 0.0)])
    for d in answers:
        if isinstance(d, DegenerateDirection):
            raise d
    return sum(events_at_heights(d, X * d.direction.dx + Y * d.direction.dy, tol) for d in answers)


def _nearest_first(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row v: the vertices in the order of the pairs (v, u) under the global
    key (squared length, then (i, j) with i < j); v itself comes last."""
    n = len(X)
    i, j = np.triu_indices(n, 1)
    rank = np.full((n, n), len(i))
    length2 = (X[j] - X[i]) ** 2 + (Y[j] - Y[i]) ** 2
    rank[i, j] = rank[j, i] = length2.argsort(kind="stable").argsort()
    return rank.argsort(axis=1)


def _close(undecided: np.ndarray, left: np.ndarray, edges: set[Edge]) -> bool:
    """Settle pairs by counting, to a fixpoint, and say whether any stay
    undecided. A vertex with no degree left closes its pairs as non-edges;
    then one whose degree left equals its undecided pairs closes them as
    edges, added to `edges` and taken off `left` at both ends. A pair that
    both rules would close shows up as r(v) > open(v) at the vertex that
    needed it as an edge, once the non-edges are closed."""
    while True:
        count = undecided.sum(axis=1)
        bad = (left < 0) | (left > count)
        if bad.any():
            v = int(bad.argmax())
            raise DegreeConflict(v, int(left[v]), int(count[v]))
        shut = undecided & (left == 0)[:, None]
        if shut.any():
            undecided &= ~(shut | shut.T)
            continue
        take = undecided & (left == count)[:, None]
        if not take.any():
            return bool(count.any())
        take |= take.T
        edges.update(zip(*(a.tolist() for a in np.triu(take).nonzero())))
        left -= take.sum(axis=1)
        undecided &= ~take


def _decide(o, X, Y, width, src: np.ndarray, cols: np.ndarray, tol: float) -> np.ndarray:
    """Whether each pair (src[p], cols[p]) is an edge; one chunk of a round.

    One array pass certifies both ends of every pair, each with its own
    `width` entry, and a pair keeps the end with the larger headroom (V[i]
    on a tie); UncertifiedPair is raised before the chunk is queried if that
    is at most 1. The kept directions, [s1, s2] per pair, are asked in one
    `query_many`, one `events_at_many` read gives the kept end's indegrees,
    and a pair is an edge iff they differ by exactly one. A degenerate entry
    raises UncertifiedPair from its DegenerateDirection."""
    k = len(src)
    centre, far = np.concatenate([src, cols]), np.concatenate([cols, src])
    S, headroom = _certified_directions(X[centre], Y[centre], X, Y, far, width[centre, far], tol)
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
    return np.abs(counts[0::2] - counts[1::2]) == 1
