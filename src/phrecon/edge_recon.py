"""Edge recovery by bow-tie indegree differencing.

For a candidate pair (v, v') a bow tie at v — the symmetric difference of
the half-planes below v in two directions straddling the perpendicular of
v' - v — isolates v' from every other vertex. The indegrees of v seen from
the two directions then differ by exactly one iff the edge exists, and each
indegree is read off a single persistence diagram, so deciding a pair costs
2 oracle queries.

The two diagrams of a probe pair hold the indegree of every vertex u, and
the same two directions make a bow tie at every u: the vertices w whose
line through u lies within the half-angle of the probed line, mod pi. So
indeg(u, s1) - indeg(u, s2) sums +1 for each edge of u to a w below u
along s1 only and -1 for each to a w below u along s2 only, and it settles
every pair in the bow tie that it pins down.

The input is a plane graph, so no edge properly crosses another: a pair
that crosses a known edge is not an edge. This planarity rule needs no
query, and certified orientations decide each crossing.

`reconstruct_edges_detail` reads every degree off two axis diagrams first,
then asks, nearest first and in batched rounds, only pairs that counting,
the planarity rule and the reads of earlier probe pairs leave open; it
stays within the paper's n(n-1) queries. Each asked pair's bow tie has its
own width (`bowtie_widths`), both ends are tried as its centre, and the
better one is certified once, with no retry; `pair_directions` is the
certifier's one-pair call. The certifier works on vertex indices, and its
heights, from `geometry.heights`, are the rows every probe diagram is read
at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BowTieConflict,
    DegenerateDirection,
    DegeneratePoints,
    DegreeConflict,
    DiagramMismatch,
    UncertifiedPair,
)
from .geometry import TOLERANCE, Direction, Point2, checked_tolerance, height, heights
from .persistence import Diagram, DiagramOracle, events_at_ranks

Edge = tuple[int, int]

#: Directions times 4n (a bound on the simplices per direction) that one
#: edge-phase chunk may hold, and crossing tests that one block of the
#: planarity rule may hold; the arrays of both grow with it.
_BATCH_CELLS = 1 << 15


def bowtie_widths(V: Sequence[Point2], tol: float = TOLERANCE) -> np.ndarray:
    """The (n, n) bow-tie widths: width[i, j] is half the smaller of the two
    angular gaps next to line (V[i], V[j]) among the lines through V[i],
    taken mod pi; the diagonal is inf.

    The line angles come from one (n, n) arctan2 (`_line_angles`) and are
    sorted around each vertex by one argsort. A bow tie at V[i] of
    half-angle below width[i, j] about line (V[i], V[j]) holds V[j] and no
    other vertex. Two vertices impose no constraint, so n = 2 gives pi/8.
    Raises DegeneratePoints when two vertices coincide within tol.
    """
    X, Y = np.array(V, dtype=np.float64).reshape(-1, 2).T
    return _widths(_line_angles(X, Y, tol))


def _line_angles(X: np.ndarray, Y: np.ndarray, tol: float) -> np.ndarray:
    """angle[i, j]: the angle of the line through V[i] and V[j], mod pi, from
    one (n, n) arctan2 of the chords from each V[i]; the diagonal is inf.
    Raises DegeneratePoints when two vertices coincide within tol."""
    n = len(X)
    dx, dy = X - X[:, None], Y - Y[:, None]  # row i: chords from V[i]
    same = np.maximum(np.abs(dx), np.abs(dy)) <= tol
    if np.count_nonzero(same) > n:  # more than the diagonal
        same.flat[:: n + 1] = False
        i, j = np.argwhere(same)[0].tolist()
        raise DegeneratePoints(f"vertices {i} and {j} coincide")
    angle = np.arctan2(dy, dx) % math.pi
    angle.flat[:: n + 1] = math.inf
    return angle


def _widths(angle: np.ndarray) -> np.ndarray:
    """`bowtie_widths` from the line angles of `_line_angles`."""
    n = len(angle)
    if n == 2:
        return np.array([[math.inf, math.pi / 8.0], [math.pi / 8.0, math.inf]])
    rows = np.arange(n)[:, None]
    order = angle.argsort(axis=1)[:, :-1]  # a vertex's own column sorts last
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
    V: Sequence[Point2], i: int, j: int, theta: float, tol: float = TOLERANCE
) -> tuple[Direction, Direction]:
    """The two probe directions forming angles +-theta with the
    perpendicular of V[j] - V[i].

    Certified against V before they are returned: the bow tie at V[i]
    holds exactly V[j] and the heights of V are more than tol apart along
    both directions; otherwise raises UncertifiedPair. A bow tie at V[i]
    never holds V[i], so i == j raises it with headroom 0. This is the
    one-pair call of the certifier the edge phase runs on whole batches.
    Raises IndexError, naming the pair, when i or j is not in [0, n).
    """
    X, Y = np.array(V, dtype=np.float64).reshape(-1, 2).T
    if not (0 <= i < len(X) and 0 <= j < len(X)):
        raise IndexError(f"pair ({i}, {j}) is not a pair of the {len(X)} vertices")
    S, headroom, H = _certified_directions(
        X, Y, np.array([i]), np.array([j]), np.array([theta]), tol
    )
    if not headroom[0] > 1.0:
        raise _uncertified(H[:, 0], i, j, headroom[0])
    (x1, y1), (x2, y2) = S[0].tolist()
    return Direction(x1, y1), Direction(x2, y2)


def _certified_directions(
    X: np.ndarray,
    Y: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    theta: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe directions at vertex rows[r] towards vertex cols[r]: the
    perpendicular of the chord turned by +theta[r] and -theta[r], as a
    (len(cols), 2, 2) array of unit [s1, s2] per row; each row's headroom;
    and H, the (2, len(cols), n) vertex heights along s1 and s2, from which
    the centre's own height is read too.

    The headroom is the smallest gap between the heights of all vertices
    along s1 and s2, divided by tol, and 0 where the bow tie at the row's
    centre does not hold exactly vertex cols[r]; a row is certified when it
    exceeds 1. One attempt per row, no retry.
    """
    r = np.arange(len(cols))
    perp = np.arctan2(X[cols] - X[rows], Y[rows] - Y[cols])  # angle of (-dy, dx)
    turn = perp + np.array([theta, -theta])  # (2, len(cols)): s1, s2
    U = np.stack([np.cos(turn), np.sin(turn)], axis=-1)  # [s1, s2] per row, unit
    H = heights(X, Y, U)
    below = H <= H[:, r, rows][..., None]
    inside = below[0] != below[1]
    holds = (inside.sum(axis=1) == 1) & inside[r, cols]
    ascending = np.sort(H, axis=2)
    gap = (ascending[..., 1:] - ascending[..., :-1]).min(axis=(0, 2), initial=math.inf)
    return U.transpose(1, 0, 2), np.where(holds, gap / tol, 0.0), H


def _uncertified(h: np.ndarray, i, j, headroom) -> UncertifiedPair:
    """The error for the bow tie at vertex i towards vertex j whose (2, n)
    vertex heights along s1 and s2 are h; k is the vertex outside (i, j)
    that sets the smallest height gap with another vertex, None if there is
    none."""
    near = []
    for row in h.tolist():
        up = sorted(range(len(row)), key=row.__getitem__)
        near += [(row[b] - row[a], a, b) for a, b in zip(up, up[1:]) if not {a, b} <= {i, j}]
    _, a, b = min(near, default=(None, None, None))
    return UncertifiedPair(i, j, b if a in (i, j) else a, float(headroom))


def indegree_from_diagrams(d: Diagram, v: Point2, tol: float = TOLERANCE) -> int:
    """Indegree of v read off one diagram: dim-0 deaths at v's height
    (diagonal pairs included) plus dim-1 births there. Infinite deaths
    never match. A tol outside [0, inf) raises ValueError, as in
    `Diagram.events_at`."""
    return d.events_at(height(v, d.direction), tol)


@dataclass(frozen=True)
class EdgeReconResult:
    edges: frozenset[Edge]
    queries: int
    retries: int  # always 0: nothing is asked twice


def reconstruct_edges_detail(
    o: DiagramOracle, V: np.ndarray | Sequence[Point2], tol: float = TOLERANCE
) -> EdgeReconResult:
    """Decide every unordered pair (i, j), asking the oracle only about the
    pairs that the reads of the degree diagrams and of earlier probe pairs
    cannot settle.

    V must be the vertices exactly, as `reconstruct_vertices` returns them
    or as (x, y) pairs: each probe diagram is checked against V's heights.

    Degrees first: indeg(v, s) + indeg(v, -s) = deg(v), so the diagrams of
    (1, 0) and (-1, 0), asked in one `query_many`, give every degree
    (`_degrees`); this needs V's x-coordinates more than tol apart, as the
    vertex phase does. Each degree is a read of its vertex's row.
    `_Reads.settle` applies one rule to these reads and to those of the
    asked probe pairs, to one joint fixpoint, and says whether any pair is
    still undecided. With r(v) the degree v has left and open(v) its
    undecided pairs, the rule on a degree read is counting: r(v) = 0 closes
    v's pairs as non-edges, r(v) = open(v) closes them as edges, and r(v)
    outside [0, open(v)] raises DegreeConflict naming v. Whenever the reads
    decide nothing more, the planarity rule (`_crossing_pairs`) closes as a
    non-edge every undecided pair that properly crosses a known edge, and
    the reads go on from there. A crossing counts only when its four
    orientations have certified signs: each larger than tol and than its
    rounding-error bound. A pair whose crossing is not certified stays open
    and is asked as any other. The oracle's graph must therefore be plane,
    as `validate` checks: on a graph whose edges cross, the rule can close
    an edge, and a wrong edge set can come back.

    While pairs stay undecided, a round asks more. Each vertex with pairs
    left proposes its min(r(v), 2) nearest open pairs, by one global key
    (squared length, then (i, j)). The round's pairs, in (i, j) order, are
    asked by `_probe` in chunks of at most max(1, _BATCH_CELLS // 8n)
    pairs, so that a chunk's k directions keep k * 4n within _BATCH_CELLS
    (4n bounds the n + m simplices of a direction, since a plane graph has
    m <= 3n - 6). A pair is certified only if it is asked. Each asked
    probe pair is read at every vertex, and the next settle applies the
    new reads with all the others; an asked pair is settled by the read at
    its own centre, whose bow tie holds it alone. Settling once per round,
    not per chunk, keeps the query log independent of the chunk size. The
    loop ends on a settle, so every read is checked against every decision.

    The budget: each asked pair is settled in its own round, so it is asked
    once, for 2 queries, and the reads and the planarity rule only settle
    pairs that would otherwise be asked: they remove asks and add none. At
    a fixpoint neither the rule nor a degree read decides, so every vertex
    with open pairs has 0 < r(v) < open(v): it proposes at least one pair
    and not its last one. The longest open pair is last in both of its
    ends' orders, as the key is global, so no round asks it; after the
    final round it is settled without a query. With P = n(n - 1)/2 pairs,
    at most P - 1 are asked, and the queries number at most
    2 + 2(P - 1) = n(n - 1).

    A tol outside [0, inf), NaN included, raises ValueError before any
    query."""
    checked_tolerance(tol)
    n = len(V)
    if n < 2:
        return EdgeReconResult(frozenset(), 0, 0)
    X, Y = np.array(V, dtype=np.float64).T
    start = o.query_count
    degree = _degrees(o, X, Y, tol)
    undecided = ~np.eye(n, dtype=bool)
    edge = np.zeros((n, n), dtype=bool)
    reads, geometry, chunks = _Reads(X, Y, tol, degree), None, []
    rows = np.arange(n)[:, None]
    chunk = max(1, _BATCH_CELLS // (8 * n))
    while reads.settle(undecided, edge, chunks):
        if geometry is None:  # only rounds need the geometry
            geometry = _geometry(X, Y, tol)
        nearest = geometry.nearest
        ranked = undecided[rows, nearest]
        left = degree - edge.sum(axis=1)
        pick = ranked & (ranked.cumsum(axis=1) <= np.minimum(left, 2)[:, None])
        ask = np.zeros_like(undecided)
        ask[pick.nonzero()[0], nearest[pick]] = True
        src, cols = np.triu(ask | ask.T).nonzero()
        chunks = [
            _probe(o, X, Y, geometry, src[a : a + chunk], cols[a : a + chunk], tol)
            for a in range(0, len(src), chunk)
        ]
    i, j = np.triu(edge).nonzero()
    return EdgeReconResult(frozenset(zip(i.tolist(), j.tolist())), o.query_count - start, 0)


def _degrees(o: DiagramOracle, X: np.ndarray, Y: np.ndarray, tol: float) -> np.ndarray:
    """Every vertex's degree, indeg(v, s) + indeg(v, -s) for s = (1, 0),
    from the two diagrams asked in one `query_many` and read in one
    `events_at_ranks` call at the vertex heights along each diagram's own
    direction. A diagram that does not match the heights raises
    DiagramMismatch."""
    answers = o.query_many([Direction(1.0, 0.0), Direction(-1.0, 0.0)])
    H = heights(X, Y, np.array([d.direction for d in answers]))
    indegree, mismatched = events_at_ranks(answers, H, tol)
    if mismatched.any():
        raise DiagramMismatch(direction=answers[int(mismatched.argmax())].direction)
    return indegree.sum(axis=0)


#: How far past the bow tie's half-angle the chord window reaches, in
#: radians: the angles of the window and of the probe directions come from
#: different arctan2 calls. Members are decided by height, not by angle.
_WINDOW_PAD = 64 * math.ulp(math.pi)


class _Geometry(NamedTuple):
    """What the rounds need of V, computed once.

    - `width`: the bow-tie widths, as `bowtie_widths`.
    - `nearest`: row v lists the vertices in the order of the pairs (v, u)
      under the global key (squared length, then (i, j) with i < j); v
      itself comes last.
    - `line`: the line angle of every pair {i, j}, `_line_angles`' angle[i, j]
      for i < j, the same both ways round.
    - `table`: all n(n - 1)/2 line angles sorted, then extended by the
      upper half shifted down by pi and the lower half shifted up by pi, so
      that any window of half-width at most pi/2 about an angle in [0, pi)
      is one range of it; `chord` holds each entry's i * n + j, i < j. A
      bow-tie width is at most pi/4, half the smaller of two gaps that
      share pi, so every window fits.
    """

    width: np.ndarray
    nearest: np.ndarray
    line: np.ndarray
    table: np.ndarray
    chord: np.ndarray


def _geometry(X: np.ndarray, Y: np.ndarray, tol: float) -> _Geometry:
    n = len(X)
    angle = _line_angles(X, Y, tol)
    upper = np.arange(n)[:, None] < np.arange(n)
    i, j = upper.nonzero()
    # a square rounds the same both ways round, so the key is global, and a
    # stable sort orders equal lengths by u, which is (i, j) order in row v
    length2 = (X - X[:, None]) ** 2 + (Y - Y[:, None]) ** 2
    length2.flat[:: n + 1] = math.inf
    line = np.where(upper, angle, angle.T)
    order = line[upper].argsort()
    ascending = line[upper][order]
    half = int(ascending.searchsorted(0.5 * math.pi))
    table = np.concatenate([ascending[half:] - math.pi, ascending, ascending[:half] + math.pi])
    chord = (i * n + j)[np.concatenate([order[half:], order, order[:half]])]
    return _Geometry(_widths(angle), length2.argsort(axis=1, kind="stable"), line, table, chord)


def _probe(o, X, Y, geometry: _Geometry, src: np.ndarray, cols: np.ndarray, tol: float):
    """Ask the pairs (src[p], cols[p]) of one chunk and read each asked
    probe pair at every vertex; returns one chunk for `_Reads.settle`.

    One array pass certifies both ends of every pair, each with its own
    width, and a pair keeps the end with the larger headroom (V[i] on a
    tie); UncertifiedPair is raised before the chunk is queried if that is
    at most 1. The kept directions, [s1, s2] per pair, are asked in one
    `query_many`; should the oracle raise DegenerateDirection, the pair
    whose asked direction lies nearest the error's unit raises
    UncertifiedPair from it.

    The certificate's heights along s1 and s2 are more than tol apart, so
    they fix every vertex's side of every other along both directions and
    give each diagram event one vertex. `events_at_ranks` reads the
    diagrams at those heights, and DiagramMismatch is raised where they
    disagree; D(u) = indeg(u, s1) -
    indeg(u, s2) follows for every u. The bow tie at u holds the w whose
    line through u is within the kept width of the pair's line: one range
    of the chord table per pair, padded by `_WINDOW_PAD`, with each
    member's side decided by the heights. A group is one pair read at one
    vertex u, tagged (c * n + f) * n + u for the pair's kept centre c and
    far end f: its D(u) and its members, each a pair index i * n + j with
    sign +1 where the other end lies below u along s1 only and -1 where
    along s2 only. A group with no member and D(u) = 0 passes its one check
    for good and is not returned. The centre's group holds its asked pair.

    Returns (tag, D, group, pair, sign): per group, in (pair, u) order, its
    tag and its D(u); per member its group, its pair and its sign."""
    k, n = len(src), len(X)
    centre, far = np.concatenate([src, cols]), np.concatenate([cols, src])
    S, headroom, H = _certified_directions(X, Y, centre, far, geometry.width[centre, far], tol)
    kept = np.arange(k) + k * (headroom[k:] > headroom[:k])
    certified = headroom[kept] > 1.0
    if not certified.all():
        r = int(kept[certified.argmin()])
        raise _uncertified(H[:, r], int(centre[r]), int(far[r]), headroom[r])
    asked = S[kept].reshape(-1, 2)
    try:
        answers = o.query_many(list(map(Direction._make, asked.tolist())))
    except DegenerateDirection as err:
        # the oracle normalizes again, so the tied unit may be an ulp off its row
        r = int(kept[((asked - err.direction) ** 2).sum(axis=1).argmin() // 2])
        raise _uncertified(H[:, r], int(centre[r]), int(far[r]), headroom[r]) from err
    centre, far = centre[kept], far[kept]
    # rows p along s1, then rows k + p along s2: the diagrams in that order
    H = H[:, kept].reshape(2 * k, n)
    indegree, mismatched = events_at_ranks(answers[0::2] + answers[1::2], H, tol)
    if mismatched.any():
        e = int(mismatched.argmax())
        raise DiagramMismatch(int(centre[e % k]), int(far[e % k]), answers[2 * (e % k) + e // k].direction)
    D = (indegree[:k] - indegree[k:]).ravel()
    H = H.ravel()

    # the chords within each pair's window, then their sides by height
    line, reach = geometry.line[centre, far], geometry.width[centre, far] + _WINDOW_PAD
    first = geometry.table.searchsorted(line - reach)
    size = geometry.table.searchsorted(line + reach) - first
    p = np.repeat(np.arange(0, k * n, n), size)
    pair = geometry.chord[np.arange(len(p)) + np.repeat(first - size.cumsum() + size, size)]
    a, b = np.divmod(pair, n)
    ka, kb = p + a, p + b
    h1, h2 = H[: k * n], H[k * n :]
    below1 = h1[kb] < h1[ka]
    inside = below1 != (h2[kb] < h2[ka])
    sign = np.where(below1[inside], 1.0, -1.0)
    pair, group = pair[inside], np.concatenate([ka[inside], kb[inside]])
    keep = (np.bincount(group, minlength=k * n) > 0) | (D != 0)
    tag = (((centre * n + far) * n)[:, None] + np.arange(n)).ravel()[keep]
    group = (keep.cumsum() - 1)[group]
    return tag, D[keep], group, np.concatenate([pair, pair]), np.concatenate([sign, -sign])


#: Shewchuk's relative bound on the rounding error of an orientation
#: (a - c) * (b' - c') - (a' - c') * (b - c) of exact coordinates: the error
#: is at most this times the sum of the two products' sizes.
_ORIENTATION_ERROR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _crossing_pairs(
    X: np.ndarray, Y: np.ndarray, undecided: np.ndarray, edge: np.ndarray, tol: float
) -> np.ndarray:
    """The planarity rule: the undecided pairs that properly cross a known
    edge, as indices i * n + j, i < j. undecided and edge are the raveled
    (n, n) masks, read in their upper triangles. No edge of a plane graph
    crosses another, so none of these pairs is an edge.

    Pair (i, j) is tested against every known edge (m, w) at a known
    neighbour m of i or of j, so it costs O(sum of deg^2), not O(edges).
    From its end e, with f the other end, it crosses (m, w) when the
    orientations cross(e, f, m) and cross(e, f, w) have opposite signs, and
    so do cross(m, w, e) and cross(m, w, f), each computed as validate's
    cross(o, p, q). A sign counts only where its orientation's size exceeds
    both tol and its rounding-error bound (`_ORIENTATION_ERROR`), so w = e
    or w = f never counts, and a pair with any other sign stays open.
    Nothing is tested below four vertices, with no known edge or with no
    undecided pair."""
    n = len(X)
    closed = [np.empty(0, np.intp)]
    a, b = np.divmod(np.flatnonzero(edge), n)
    i, j = np.divmod(np.flatnonzero(undecided), n)
    if n < 4 or not len(a) or not len(i):
        return closed[0]
    a, b = a[a < b], b[a < b]
    e, f = np.concatenate([i[i < j], j[i < j]]), np.concatenate([j[i < j], i[i < j]])
    # the known neighbours of vertex v are nb[first[v] : first[v] + deg[v]]
    a, b = np.concatenate([a, b]), np.concatenate([b, a])
    nb = b[a.argsort(kind="stable")]
    deg = np.bincount(a, minlength=n)
    first = deg.cumsum() - deg
    r, m = _neighbours(e, deg, first, nb)
    e, f = e[r], f[r]
    side = _orientation(X, Y, e, f, m, tol)
    step = max(1, _BATCH_CELLS // int(deg.max()))  # a block's rows test at most _BATCH_CELLS edges
    for start in range(0, len(m), step):
        rows = slice(start, start + step)
        r, w = _neighbours(m[rows], deg, first, nb)
        e2, f2, m2 = e[rows][r], f[rows][r], m[rows][r]
        keep = side[rows][r] * _orientation(X, Y, e2, f2, w, tol) < 0.0
        e2, f2, m2, w = e2[keep], f2[keep], m2[keep], w[keep]
        keep = _orientation(X, Y, m2, w, e2, tol) * _orientation(X, Y, m2, w, f2, tol) < 0.0
        closed.append((np.minimum(e2, f2) * n + np.maximum(e2, f2))[keep])
    return np.concatenate(closed)


def _neighbours(v: np.ndarray, deg: np.ndarray, first: np.ndarray, nb: np.ndarray):
    """Every known neighbour of every v[r]: the rows r, each repeated deg[v[r]]
    times, and the neighbours, in the layout of `_crossing_pairs`."""
    k = deg[v]
    r = np.repeat(np.arange(len(v)), k)
    return r, nb[np.arange(len(r)) + np.repeat(first[v] - k.cumsum() + k, k)]


def _orientation(X, Y, o, p, q, tol: float) -> np.ndarray:
    """The sign of validate's cross(V[o], V[p], V[q]) where its size exceeds
    tol and its rounding-error bound, and 0 where it does not."""
    ox, oy = X[o], Y[o]
    left, right = (X[p] - ox) * (Y[q] - oy), (Y[p] - oy) * (X[q] - ox)
    d = left - right
    certain = np.abs(d) > np.maximum(tol, _ORIENTATION_ERROR * (np.abs(left) + np.abs(right)))
    return np.where(certain, np.sign(d), 0.0)


class _Reads:
    """The reads, each kept while it can still decide: the n degree reads,
    groups 0 to n - 1, and every asked probe pair read at every vertex
    (`_probe`) while it holds an undecided pair.

    A group is one read: a count D and its members, pairs of sign +1 or
    -1, with D the sum of the signs of the members that are edges. With the
    pairs already decided, its residual is D less the sign of every known
    edge among its members, and with p and q its undecided members of sign
    +1 and -1 the residual must lie in [-q, p]; outside it raises
    DegreeConflict for a degree read and BowTieConflict for a probe read. A
    residual of p makes the + members edges and the - members non-edges,
    and a residual of -q the reverse. The degree read of v is its row of
    pairs, each of sign +1, so its residual is r(v), p = open(v) and q = 0:
    for it the rule is counting, and the centre read of an asked pair is
    the case p + q = 1. Both conclusions only grow more certain as pairs get
    decided, so applying them to a fixpoint settles the same pairs in any
    order. The planarity rule closes pairs between the passes; a non-edge
    changes no residual, and a read that needed such a pair as an edge
    raises in the next pass.
    """

    def __init__(self, X, Y, tol, degree):
        self.X, self.Y, self.tol = X, Y, tol  # the vertices, for the planarity rule
        self.degree, self.D, self.sign = degree, degree, np.empty(0)
        self.tag = self.group = self.pair = np.empty(0, np.intp)

    def settle(self, undecided: np.ndarray, edge: np.ndarray, chunks) -> bool:
        """Take the round's chunks, as `_probe` returns them, and empty the
        list; then apply every read to a fixpoint and say whether any pair
        is still undecided. Decided pairs leave `undecided`, and edges join
        `edge`; both stay symmetric.

        The chunks' groups are numbered in place after those held. Each
        pass first folds the decided members into their groups: D loses the
        signs of their known edges, and they are dropped. The members held
        between settles are all undecided, so the first pass folds only the
        new reads, whose members are every pair in their bow ties, the
        decided ones too. Every member is then undecided, and D is its
        group's residual; a degree read's residual and members are its rows
        of `edge` and `undecided`. With A the group's members and B the sum
        of their signs (so p = (A + B)/2 and q = (A - B)/2), t = 2D - B must
        lie in [-A, A]; t = A is D = p and t = -A is D = -q, and a group
        with no member must have D = 0. The pass applies every group's
        decision at once. When no group decides a pair, the probe reads with
        no member left go, and the planarity rule closes the pairs that
        cross a known edge, non-edges whose fold leaves D unchanged, and the
        passes go on. The fixpoint is reached when the rule closes nothing
        either. A pass writes each pair i * n + j, i < j, and mirrors it."""
        n = len(undecided)
        und, known = undecided.ravel(), edge.ravel()
        start = len(self.D)
        for _, d, g, _, _ in chunks:
            g += start
            start += len(d)
        parts = zip((self.tag, self.D, self.group, self.pair, self.sign), *chunks)
        tag, D, group, pair, sign = map(np.concatenate, parts)
        chunks.clear()
        G = len(D)
        while True:
            D = D - np.bincount(group, weights=sign * known[pair], minlength=G)
            live = und[pair]
            group, pair, sign = group[live], pair[live], sign[live]
            A = np.bincount(group, minlength=G)
            B = np.bincount(group, weights=sign, minlength=G)
            A[:n] = B[:n] = undecided.sum(axis=1)
            D[:n] = self.degree - edge.sum(axis=1)
            t = 2.0 * D - B
            size = np.abs(t)
            bad = size > A
            if bad.any():
                raise self._conflict(int(bad.argmax()), tag, D, A, B, n)
            # +1: the + members are edges and the - members are not; -1: the reverse
            vote = np.sign(t) * (size == A)
            if vote.any():
                # an edge wins a pair also read as a non-edge; the read that
                # refused it raises in the next pass
                row, member = vote[:n, None], vote[group] * sign
                edge |= undecided & (row > 0)
                undecided &= row == 0
                und[pair[member != 0]] = False
                known[pair[member > 0]] = True
            else:
                # the probe reads left with no member passed their last check and go;
                # then the planarity rule, whose non-edges change no residual
                keep = A > 0
                keep[:n] = True
                tag, D, group = tag[keep[n:]], D[keep], (keep.cumsum() - 1)[group]
                G = len(D)
                decided = _crossing_pairs(self.X, self.Y, und, known, self.tol)
                if not len(decided):
                    break
                und[decided] = False
            undecided &= undecided.T
            edge |= edge.T
        self.tag, self.D, self.group, self.pair, self.sign = tag, D, group, pair, sign
        return bool(undecided.any())

    @staticmethod
    def _conflict(e, tag, D, A, B, n):
        """The error for group e, whose residual D[e] lies outside its range."""
        r, p, m = int(D[e]), int(A[e] + B[e]) // 2, int(A[e] - B[e]) // 2
        if e < n:
            return DegreeConflict(e, r, p)
        probe, u = divmod(int(tag[e - n]), n)
        return BowTieConflict(*divmod(probe, n), u, r, p, m)
