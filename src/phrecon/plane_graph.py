"""Ground-truth embedded graphs: representation, validation, generation.

A PlaneGraph is a straight-line embedded graph whose vertices are assumed
to be in general position (pairwise distinct x- and y-coordinates, no three
collinear) and whose edges do not cross. It holds its coordinates and edges
as arrays, converted once when it is built. `validate` reports violations
of those assumptions as data; `random_plane_graph` produces instances that
satisfy them by construction. `PlaneGraph.arrays`, the form the oracle
reads, refuses a non-finite coordinate, an edge index outside [0, n) or
not an integer, and a self-loop, and `graph_from_json` raises ValueError
for any malformed entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import GenerationFailed, InvalidGraph
from .geometry import TOLERANCE, Point2

Edge = tuple[int, int]

#: Coordinate-gap and collinearity margin enforced by the generator; kept
#: three orders of magnitude above TOLERANCE so downstream third-direction
#: and bow-tie constructions stay far from the comparison threshold.
GENERATOR_MARGIN = 1e-3

_MAX_ATTEMPTS = 10_000

#: Cells an array block evaluates: triangle areas in the general-position
#: and collinearity checks; four per candidate edge pair (its point-segment
#: operands) in validate's crossing sweep, so a block holds at most
#: _TRIPLE_CELLS // 4 pairs.
_TRIPLE_CELLS = 1 << 14


@dataclass(frozen=True, init=False, eq=False, repr=False)
class PlaneGraph:
    """Immutable embedded graph held as three read-only arrays: the
    float64 vertex coordinates `x` and `y`, and `edge_rows`, the (m, 2)
    edges, each row (min(i, j), max(i, j)), sorted lexicographically
    without repeats.

    `PlaneGraph(vertices, edges)` takes (x, y) pairs and index pairs,
    as sequences, iterators or arrays. Edge indices are kept as given, so
    `validate` can report and `arrays` refuse an index outside [0, n), one
    that is not an integer, and a self-loop. The rows are intp when numpy
    reads every index as an integer that intp holds, and otherwise the
    given objects in an object array.
    `vertices`, a tuple of Point2, and `edges`, a frozenset of index pairs,
    are built the first time each is read; equality, hashing and repr read
    them.
    """

    x: np.ndarray
    y: np.ndarray
    edge_rows: np.ndarray

    def __init__(self, vertices, edges=()):
        xy = np.array(vertices if isinstance(vertices, np.ndarray) else list(vertices), np.float64)
        if xy.shape == (0,):
            xy = xy.reshape(0, 2)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"vertices must be (x, y) pairs, got an array of shape {xy.shape}")
        x, y = xy.T.copy()
        e = _edge_rows(edges)
        for a in (x, y, e):
            a.flags.writeable = False
        vars(self).update(x=x, y=y, edge_rows=e)

    @cached_property
    def vertices(self) -> tuple[Point2, ...]:
        return tuple(map(Point2._make, zip(self.x.tolist(), self.y.tolist())))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(map(tuple, self.edge_rows.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"PlaneGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The checked array form, kept once checked: `x`, `y` and the
        edge rows as an (m, 2) intp array. Raises InvalidGraph naming the
        first vertex with a non-finite coordinate; else the first edge, in
        sorted order, with an index outside [0, n); else the first with an
        index that is not an integer; else the first self-loop (i, i)."""
        bad = ~(np.isfinite(self.x) & np.isfinite(self.y))
        if bad.any():
            raise InvalidGraph(f"non-finite coordinate at vertex {int(bad.argmax())}")
        faults, index = _edge_faults(self.edge_rows, self.n)
        for fault, message in zip(faults, _EDGE_FAULTS):
            if fault.any():
                i, j = self.edge_rows[fault.argmax()].tolist()
                raise InvalidGraph(message.format(i, j))
        index.flags.writeable = False
        return self.x, self.y, index


#: The message of each edge fault, in the order `_edge_faults` decides them.
_EDGE_FAULTS = ("edge ({}, {}) out of range", "non-integer edge ({}, {})", "self-loop edge ({}, {})")


def _edge_rows(edges) -> np.ndarray:
    """The rows (min(i, j), max(i, j)) of the index pairs in edges, sorted
    lexicographically without repeats: intp when numpy reads every index
    as an integer that intp holds, else an object array of the given
    indices, ordered and deduplicated by Python's own comparisons. A pair
    is swapped only when j < i, so a NaN index stays where it was given
    and `validate` reports (0, nan) as out of range, not as a self-loop."""
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    e = np.asarray(pairs)
    if e.shape == (0,):
        return np.empty((0, 2), np.intp)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be index pairs, got an array of shape {e.shape}")
    if e.dtype.kind not in "iu" or not np.can_cast(e.dtype, np.intp):
        rows = sorted({(i, j) if not j < i else (j, i) for i, j in pairs})
        return np.array(rows, dtype=object).reshape(-1, 2)
    e = np.sort(e, axis=1).astype(np.intp, copy=False)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    first = np.ones(len(e), bool)
    first[1:] = (e[1:] != e[:-1]).any(axis=1)
    return e[first]


def _edge_faults(e: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The faults of the edge rows e on n vertices as a (3, m) mask, one
    row per fault in the order they are decided: an index outside [0, n),
    an index that is not an integer, a self-loop. An edge's first fault is
    its fault. Also e as intp, where a faulty row holds no meaning."""
    # each row is (min, max), so its ends bound it
    if e.dtype == np.intp:
        outside = (e[:, 0] < 0) | (e[:, 1] >= n)
        index, fractional = e, np.zeros(len(e), bool)
    else:
        with np.errstate(invalid="ignore"):  # a NaN index is outside, with no warning
            outside = ~((e[:, 0] >= 0) & (e[:, 1] < n))
        # an index in [0, n) is a number a float64 holds exactly, if an integer
        f = np.zeros(e.shape)
        f[~outside] = e[~outside]
        fractional = (f != np.floor(f)).any(axis=1)
        index = f.astype(np.intp)
    return np.array([outside, fractional, index[:, 0] == index[:, 1]]), index


def validate(g: PlaneGraph, tol: float = TOLERANCE) -> list[str]:
    """Check all PlaneGraph invariants; return one message per violation.

    An empty list means the graph satisfies the standing assumptions:
    finite coordinates, general position (distinct x, distinct y, no three
    collinear within tol), integer, index-valid non-loop edges, and a plane
    straight-line embedding (no two edge segments intersect except at a
    shared endpoint).

    The pair and triple checks run on arrays and decide as loops over
    vertex pairs, triples and edge pairs would, message for message and in
    that order (the tests keep those loops as the reference). Shared
    coordinates sort each axis once: O(n log n) plus the pairs found.
    Collinearity evaluates all O(n^3) triples (`_triples_where`), in
    blocks of at most about _TRIPLE_CELLS areas (one row once a row is
    longer). Crossings sweep the edges' bounding boxes and decide only the
    pairs whose boxes come within a certified pad of each other
    (`_touching_edge_pairs`): O(m log m) plus the candidates, in blocks of
    at most _TRIPLE_CELLS // 4 pairs. No array grows as m^2 or n^3, even
    when the pad is infinite and every edge pair is decided. Non-finite
    and huge finite coordinates are reported, never raised on.
    """
    x, y = g.x, g.y
    bad = ~(np.isfinite(x) & np.isfinite(y))
    issues = [f"non-finite coordinate at vertex {i}" for i in np.flatnonzero(bad).tolist()]
    # non-finite and huge coordinates give NaN or inf, silently as Python floats do
    with np.errstate(invalid="ignore", over="ignore"):
        issues.extend(_shared_coordinates(x, y, tol))
        for block in _triples_where(x, y, lambda area2: np.abs(area2) <= tol):
            issues.extend(f"collinear vertices ({i}, {j}, {k})" for i, j, k in block.tolist())
        faults, index = _edge_faults(g.edge_rows, g.n)
        faulty = faults.any(axis=0)
        kinds, rows = faults.argmax(axis=0)[faulty].tolist(), g.edge_rows[faulty].tolist()
        issues.extend(_EDGE_FAULTS[k].format(i, j) for k, (i, j) in zip(kinds, rows))
        e = index[~faulty]
        crossing = _touching_edge_pairs(x, y, e, tol).tolist()
        issues.extend(f"crossing edges ({a}, {b}) x ({c}, {d})" for a, b, c, d in crossing)
    return issues


def _close_pairs(v: np.ndarray, tol: float) -> np.ndarray:
    """The pairs (i, j), i < j, with abs(v[i] - v[j]) <= tol, as a
    (count, 2) array in no particular order.

    After a sort, the values within tol above a are a run that ends at
    a + nextafter(tol, inf): b - a can round to tol or less only if it is
    at most that bound exactly, and rounding the bound keeps every such b
    below it (a + tol alone can round below such a b). `searchsorted` finds
    each run; each candidate in it is then decided by the loop's own
    `abs(a - b) <= tol`.
    """
    order = np.argsort(v, kind="stable")
    s = v[order]
    end = np.searchsorted(s, s + np.nextafter(tol, np.inf), side="right")
    count = np.maximum(end - np.arange(1, len(s) + 1), 0)
    first = np.repeat(np.arange(len(s)), count)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    i, j = order[first], order[second]
    pairs = np.sort(np.column_stack([i, j]), axis=1)
    return pairs[np.abs(v[i] - v[j]) <= tol]


def _shared_coordinates(x: np.ndarray, y: np.ndarray, tol: float) -> list[str]:
    """validate's shared-coordinate messages in the loop's order: vertex
    pairs (i, j) lexicographically, x before y within a pair."""
    # in sorted order a rounded b - a never shrinks as b moves up, so when
    # no value is within tol of the next one on its axis, no pair is
    s = np.sort(np.stack([x, y]), axis=1)
    if not (s[:, 1:] - s[:, :-1] <= tol).any():
        return []
    xs, ys = _close_pairs(x, tol), _close_pairs(y, tol)
    pairs = np.concatenate([xs, ys])
    axis = np.repeat([0, 1], [len(xs), len(ys)])
    order = np.lexsort((axis, pairs[:, 1], pairs[:, 0]))
    return [
        f"shared {'xy'[a]}-coordinate: vertices ({i}, {j})"
        for (i, j), a in zip(pairs[order].tolist(), axis[order].tolist())
    ]


def _touching_edge_pairs(x: np.ndarray, y: np.ndarray, e: np.ndarray, tol: float) -> np.ndarray:
    """The pairs of edges e[p], e[q], p < q, with no common endpoint whose
    segments cross or come within tol, in lexicographic (p, q) order: a
    (count, 4) array of their endpoints (a, b, c, d).

    A sweep picks the candidates. With the edges sorted by their smallest
    x, the candidates of an edge are the later ones whose smallest x is at
    most its largest x plus pad; those whose y-ranges also come within pad
    of its own and that share no endpoint with it are decided. That is
    O(m log m + k) for k candidates. They are taken in blocks of at most
    _TRIPLE_CELLS // 4 pairs, so no array grows as m^2 even when every pair
    is a candidate, and the hits are sorted once.

    A block stacks the four operands of each pair on a leading axis. For
    segments p1p2 = (a, b) and p3p4 = (c, d), operand k is a point p
    against the segment from o to o + (dx, dy): (p1, p3p4), (p2, p3p4),
    (p3, p1p2) and (p4, p1p2). The same operand gives the loop's
    orientation d1..d4, cross(p3, p4, p1) and so on, and its point-segment
    distance. Every operand is that of the loop kept in
    tests/validate_reference.py: the distance clamps t to [0, 1] as
    Python's min(1.0, max(0.0, t)) does (NaN gives 0.0), measures from o
    when the squared length is 0.0, squares by multiplying and roots with
    `** 0.5`. So every decision is the loop's, except that squares that
    overflow give inf where Python's `** 2` raised OverflowError.

    The pad. Let M be the largest |coordinate| of e's endpoints and
    u = 2^-53. When 33 u M^2 + 2^-1070 < tol as computed,
    pad = tol (1 + 8u) + 16 u M + 1e-150, and the loop reports no pair
    whose boxes lie more than pad apart along x or y. Otherwise (tol <= 0,
    NaN or inf, M NaN or inf, or M too large for tol) pad = inf: the box
    tests are skipped, so a NaN drops no pair, and every pair without a
    shared endpoint is decided. The proof takes
    fl(a op b) = (a op b)(1 + d) + h with |d| <= u, h = 0 for + and -, and
    |h| <= 2^-1075 for * (underflow), and a pair whose boxes are g apart:

    - Crossing. The segments are disjoint, so the exact orientations of one
      of the two operand pairs, say d1 and d2, do not have strictly
      opposite signs. Every difference in an orientation is at most 2M,
      each of its two products at most 4M^2, and so the computed
      orientation is off by at most 8M^2((1 + u)^4 - 1) + 2^-1073
      <= 32 u M^2 (1 + 2u) + 2^-1073, which the computed test keeps below
      tol. Computed d1 and d2 are then not beyond tol with opposite signs.
    - Contact. Say the gap is along x, and take a point p against the
      segment from o to o + D. Whatever t in [0, 1] the clamp gives,
      o + tD lies in the segment's box, so |px - (ox + t Dx)| >= g.
      Rounding dx, t * dx and ox + t * dx moves the subtrahend by at most
      5 u M (1 + 2u) + 2^-1074, and the difference is rounded once more,
      so |qx| >= (g - 5.1 u M - 2^-1074)(1 - u). If that is above 1e-154,
      its square does not underflow; adding the other square does not
      make the sum smaller; and a root within one unit in the last place
      (numpy's is correctly rounded, and libm's pow, in the re-check next
      to tol, is taken to be) loses at most a factor (1 - u)^(1/2)(1 - 2u).
      So the distance exceeds tol when g > tol (1 + 3.6u) + 5.1 u M + 1e-150 / 2.
    - Sweep. A pair is dropped only when a smallest coordinate of one box
      exceeds fl(largest + pad) of the other, with pad rounded three
      times, so g > pad (1 - 4u) - u M >= tol (1 + 3.9u) + 14 u M + 0.9e-150.
    """
    m = len(e)
    if m < 2 or len(x) < 4:  # two edges without a common end need four vertices
        return np.empty((0, 4), np.intp)
    order = np.argsort(np.minimum(*x[e].T))
    s = e[order]  # from here on, edges in order of their smallest x
    first, second = s.T
    # per edge: its ends xa, xb, ya, yb, then its segment ox, oy, dx, dy, dd
    table = np.empty((9, m))
    table[:2], table[2:4] = x[s].T, y[s].T
    table[4:6] = table[0:4:2]
    table[6:8] = table[1:4:2] - table[0:4:2]
    table[8] = table[6] * table[6] + table[7] * table[7]
    u, big = 2.0**-53, float(np.abs(table[:4]).max())
    certified = 33 * u * big * big + 2.0**-1070 < tol
    pad = tol * (1 + 8 * u) + 16 * u * big + 1e-150 if certified else np.inf
    boxed = pad < np.inf
    # each edge's box (x, y), its top widened by pad
    lo, top = np.minimum(table[0:4:2], table[1:4:2]), np.maximum(table[0:4:2], table[1:4:2]) + pad
    xlo, ylo, xtop, ytop = lo[0], lo[1], top[0], top[1]
    end = np.searchsorted(xlo, xtop, side="right") if boxed else np.full(m, m)
    # edge i pairs with the edges i + 1 .. end[i] - 1: candidate f of the
    # flat list, counted by stop, is the pair (i, f + shift[i])
    stop = np.cumsum(end - np.arange(1, m + 1))
    shift, total = end - stop, int(stop[-1])
    block, tie, found = max(1, _TRIPLE_CELLS // 4), 2 * np.spacing(tol), []
    for start in range(0, total, block):
        f = np.arange(start, min(start + block, total))
        i = np.searchsorted(stop, f, side="right")
        j = f + shift[i]
        a, b, c, d = first[i], second[i], first[j], second[j]
        keep = (a != c) & (a != d) & (b != c) & (b != d)
        if boxed:
            keep &= (ylo[j] <= ytop[i]) & (ylo[i] <= ytop[j])
        if not keep.any():
            continue
        i, j = i[keep], j[keep]
        one, other = table[:, i], table[:, j]
        ops = np.empty((7, 4, len(i)))
        ops[:2, :2] = one[:4].reshape(2, 2, -1)
        ops[:2, 2:] = other[:4].reshape(2, 2, -1)
        ops[2:, :2] = other[4:, None]
        ops[2:, 2:] = one[4:, None]
        px, py, ox, oy, dx, dy, dd = ops
        rx, ry = px - ox, py - oy
        side = dx * ry - dy * rx
        above, below = side > tol, side < -tol
        cross = ((above[0::2] & below[1::2]) | (below[0::2] & above[1::2])).all(axis=0)
        t = np.divide(rx * dx + ry * dy, dd, out=np.zeros_like(dd), where=dd != 0.0)
        # fmax maps NaN to 0.0 as Python's max(0.0, t) does; a -0.0 it keeps
        # only flips the sign of a zero difference, which squaring drops
        t = np.fmin(np.fmax(t, 0.0), 1.0)
        qx, qy = px - (ox + t * dx), py - (oy + t * dy)
        sums = qx * qx + qy * qy
        root = sums**0.5
        close = root <= tol
        near = np.abs(root - tol) <= tie
        if near.any():
            # numpy's root is correctly rounded; libm's pow, behind Python's
            # float ** 0.5, can be one unit in the last place off, which
            # decides differently only next to tol
            close[near] = [v**0.5 <= tol for v in sums[near].tolist()]
        hit = cross | close.any(axis=0)
        if hit.any():
            found.append(order[np.stack([i[hit], j[hit]])])
    if not found:
        return np.empty((0, 4), np.intp)
    pairs = np.sort(np.concatenate(found, axis=1), axis=0)
    pairs = pairs[:, np.lexsort(pairs[::-1])]  # edge rows (p, q), p < q, lexicographically
    return e[pairs].transpose(1, 0, 2).reshape(-1, 4)


def _triples_where(x: np.ndarray, y: np.ndarray, hit) -> Iterator[np.ndarray]:
    """The triples (i, j, k), i < j < k, of points (x, y) whose doubled
    area passes `hit`, in lexicographic order: a (count, 3) array for each
    block of first vertices i that has any.

    A block holds at most about _TRIPLE_CELLS areas (one row of O(n^2) once
    n^2 exceeds it). Each area is
    (xj - xi) * (yk - yi) - (yj - yi) * (xk - xi), operand for operand the
    `cross(V[i], V[j], V[k])` of a loop over triples
    (tests/validate_reference.py), so every decision is that of the loop.
    """
    n = len(x)
    if n < 3:
        return
    rows = max(1, _TRIPLE_CELLS // (n * n))
    index = np.arange(n)
    later = index[:, None] < index  # later[a, b]: b > a
    for start in range(0, n - 2, rows):
        stop = min(start + rows, n - 2)
        dx = x[start + 1 :] - x[start:stop, None]  # (block, j): xj - xi for j > start
        dy = y[start + 1 :] - y[start:stop, None]
        area2 = dx[:, :, None] * dy[:, None, :] - dy[:, :, None] * dx[:, None, :]
        triple = later[start:stop, start + 1 :, None] & later[None, start + 1 :, start + 1 :]
        found = triple & hit(area2)
        if found.any():
            yield np.argwhere(found) + (start, start + 1, start + 1)


def _general_position_ok(pts: np.ndarray, margin: float) -> bool:
    """Coordinate gaps and every triple's doubled area are at least margin.
    The triples are checked as arrays by `_triples_where`."""
    for axis in (0, 1):
        coords = np.sort(pts[:, axis])
        if len(coords) > 1 and np.min(np.diff(coords)) < margin:
            return False
    close = _triples_where(pts[:, 0], pts[:, 1], lambda area2: np.abs(area2) < margin)
    return next(close, None) is None


def _delaunay_edges(pts: np.ndarray) -> np.ndarray:
    from scipy.spatial import Delaunay

    n = len(pts)
    tri = np.sort(Delaunay(pts).simplices, axis=1).astype(np.int64)  # int32 keys overflow
    # edge (a, b), a < b, as the key a * n + b: one 1-D unique sorts and
    # dedupes all three edge columns (np.unique with axis=0 costs more than
    # the set it replaces on small graphs); its rows come out sorted
    keys = np.unique(tri[:, [0, 1, 0]] * n + tri[:, [1, 2, 2]])
    return np.array(np.divmod(keys, n)).T


def random_plane_graph(
    n: int,
    density: float,
    seed: int,
    margin: float = GENERATOR_MARGIN,
) -> PlaneGraph:
    """Deterministically generate a valid random plane graph.

    Vertices are drawn uniformly from the unit square and resampled until
    general position holds with coordinate gaps and a collinearity margin
    of at least `margin`. Edges are a uniform subsample (fraction
    `density`) of the Delaunay triangulation's edge set, which cannot
    cross by construction.

    Raises GenerationFailed after 10 000 unsuccessful resampling attempts.
    The default margin keeps rejection rates practical up to n of about 20;
    pass a smaller margin for larger graphs (at the cost of conditioning).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    pts = None
    for _ in range(_MAX_ATTEMPTS):
        cand = rng.random((n, 2))
        if _general_position_ok(cand, margin):
            pts = cand
            break
    if pts is None:
        raise GenerationFailed(
            f"no general-position sample with margin {margin} after {_MAX_ATTEMPTS} attempts"
        )
    if n == 1:
        all_edges = np.empty((0, 2), np.intp)
    elif n == 2:
        all_edges = np.array([[0, 1]])
    else:
        all_edges = _delaunay_edges(pts)
    k = int(round(density * len(all_edges)))
    chosen = rng.choice(len(all_edges), size=k, replace=False)
    return PlaneGraph(pts, all_edges[np.sort(chosen)])


def graph_to_json(g: PlaneGraph) -> str:
    """Canonical Graph JSON: vertex order preserved, edges sorted, numbers
    in shortest round-trip decimal form."""
    payload = {
        "vertices": np.stack([g.x, g.y], axis=1).tolist(),
        "edges": g.edge_rows.tolist(),
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def _edge_index(v) -> int:
    i = int(v)
    if isinstance(v, float) and i != v:
        raise ValueError(f"edge index {v!r} is not an integer")
    return i


def graph_from_json(text: str) -> PlaneGraph:
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON must contain 'vertices' and 'edges'")
    try:
        vertices = [(float(x), float(y)) for x, y in data["vertices"]]
        edges = [(_edge_index(i), _edge_index(j)) for i, j in data["edges"]]
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"malformed vertex or edge entry in graph JSON: {err}") from err
    return PlaneGraph(vertices, edges)


def save_graph(g: PlaneGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g))


def load_graph(path) -> PlaneGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())
