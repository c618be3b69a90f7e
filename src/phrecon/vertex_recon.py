"""Vertex recovery from three directional dim-0 diagrams.

The dim-0 births of a diagram put every vertex on a known filtration line
{p : p . s = birth}. Along (1, 0) and (0, 1) the births already are the
vertices' x- and y-coordinates, an n-by-n grid of candidate locations; a
third direction s3, chosen from the grid's box geometry so that each of its
lines can meet the grid in at most one point, singles out the true vertices.
Since s3 points upward, its lines cross every vertical line in the order of
their heights, so the i-th lowest height pairs with the i-th lowest y, and
x = (h3 - s3.dy * y) / s3.dx says which (1, 0) birth is the vertex's x. The
returned x is that birth, the hidden x bit for bit, once the formula's
forward error is certified to single it out. The phase returns one array,
no object per vertex, in O(n log n) after the three oracle queries.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import DuplicateHeights, ParallelLines, UncertifiedVertices
from .geometry import PARALLEL_EPS, TOLERANCE, Direction, VertexArray, checked_tolerance
from .persistence import Diagram, DiagramOracle

AXIS_X = Direction(1.0, 0.0)
AXIS_Y = Direction(0.0, 1.0)

#: Third direction used when at most one vertex leaves no box geometry to
#: exploit; any direction independent of both axes works.
_SINGLE_VERTEX_DIRECTION = Direction(math.sqrt(0.5), math.sqrt(0.5))

#: The spacing of floats at 1.0, twice the unit roundoff.
_EPS = float(np.finfo(np.float64).eps)


def lines_from_dgm0(d: Diagram, tol: float = TOLERANCE) -> np.ndarray:
    """The ascending dim-0 births of d, read-only: birth b stands for the
    filtration line {p : p . d.direction = b}.

    Raises DuplicateHeights when two births coincide within tol (the
    diagram then cannot pin one line per vertex).
    """
    births = d.births
    close = births[1:] - births[:-1] <= tol
    if close.any():
        k = int(close.argmax())
        a, b = float(births[k]), float(births[k + 1])
        raise DuplicateHeights(
            f"dim-0 births {a} and {b} coincide for direction {d.direction}"
        )
    return births


def third_direction(xs: np.ndarray, ys: np.ndarray) -> Direction:
    """Direction whose filtration lines meet the xs-by-ys grid once each.

    xs and ys are the ascending births along (1, 0) and (0, 1). With w the
    full width of xs and h the smallest adjacent gap of ys, any line
    perpendicular to (w, h/2) rises less than h while crossing the grid
    box, so it cannot meet two horizontal lines inside it. Returns the unit
    perpendicular with positive y-component, or _SINGLE_VERTEX_DIRECTION
    for at most one vertex.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"axes must have equal size, got {n}, {len(ys)}")
    if n <= 1:
        return _SINGLE_VERTEX_DIRECTION
    w = float(xs[-1] - xs[0])
    h = float((ys[1:] - ys[:-1]).min())
    return Direction(w, h / 2.0).perp().normalized()


def match_and_intersect(
    xs: np.ndarray, ys: np.ndarray, s3: Direction, h3: np.ndarray
) -> VertexArray:
    """Pair the i-th lowest y with the i-th lowest height h3 along s3, and
    snap each vertex's x onto the (1, 0) birth in xs it stands for: row i
    of the read-only float64 (n, 2) `VertexArray` returned is (x, ys[i]).

    s3 is the third diagram's unit direction, with s3.dy > 0, so ascending
    h3 is the order in which its lines cross any vertical line. Under the
    third-direction guarantee that order agrees with the vertices' y-order,
    so vertex i lies at (f[i], ys[i]) with f = (h3 - s3.dy * ys) / s3.dx, up
    to rounding. The r-th lowest f is snapped onto xs[r], so the x's come
    out as a permutation of the births.

    The snap is certified: every f may differ from its birth by at most a
    bound on the forward error of the oracle's heights and the formula,
    4 eps (max|h3| + max|s3.dy * y|) / |s3.dx|, which exceeds their
    first-order rounding error of at most eps (2|h3| + 2.5|s3.dy * y|) /
    |s3.dx| per vertex; and that bound must stay below half the
    smallest gap of xs. Then the birth within the bound is the only one
    near f, and it is the birth of f's rank. Otherwise raises
    UncertifiedVertices, naming the farthest f or, when the bound is too
    wide, the lowest. Raises ParallelLines when |s3.dx| <= PARALLEL_EPS,
    where the lines of s3 are numerically horizontal.

    numpy's default argsort ranks f: two equal f's would lie within bound <
    half_gap of births 2 half_gap apart, so a certified snap's f's are
    distinct, ranked alike by every sort. The raise ranks f again, stably.
    """
    if not len(xs) == len(ys) == len(h3):
        raise ValueError(f"family sizes differ: {len(xs)}, {len(ys)}, {len(h3)}")
    if abs(s3.dx) <= PARALLEL_EPS:
        raise ParallelLines(f"direction {s3} is parallel to the horizontal lines")
    f = (h3 - s3.dy * ys) / s3.dx
    # h3 and ys ascend and s3.dy > 0: the largest magnitudes are at the ends
    top = max(-h3[0], h3[-1]) + s3.dy * max(-ys[0], ys[-1]) if len(ys) else 0.0
    bound = 4.0 * _EPS * float(top) / abs(s3.dx)
    half_gap = 0.5 * (xs[1:] - xs[:-1]).min(initial=math.inf)
    rank = f.argsort()
    off = np.abs(f[rank] - xs)
    if not (bound < half_gap and off.max(initial=0.0) <= bound):
        r = int(off.argmax()) if bound < half_gap else 0
        rank = f.argsort(kind="stable")
        raise UncertifiedVertices(int(rank[r]), float(f[rank[r]]), float(xs[r]), bound, half_gap)
    V = np.empty((len(ys), 2)).view(VertexArray)
    V[rank, 0] = xs
    V[:, 1] = ys
    V.flags.writeable = False
    return V


def reconstruct_vertices(o: DiagramOracle, tol: float = TOLERANCE) -> VertexArray:
    """Recover all vertex coordinates using exactly three oracle queries.

    Queries (1, 0) and (0, 1) in one `query_many`, then the derived third
    direction. Returns the vertices as a read-only float64 (n, 2)
    `VertexArray` of (x, y) rows in ascending y, each coordinate an axis
    birth; a row read alone is its Point2. A single vertex is read off the
    two axis births, with any -0.0 made 0.0. A tol outside [0, inf), NaN
    included, raises ValueError before any query.

    The array carries the three diagrams, tied to o: `reconstruct_edges_detail`
    with this same o reads them as it reads its own diagrams, and asks
    (1, 0) no second time (`VertexArray.diagrams_of`). The edge phase's
    reads of them, like all its reads, assume o's graph is plane, as
    `validate` checks: on a graph whose edges cross, a wrong edge set can
    come back.
    """
    checked_tolerance(tol)
    d1, d2 = o.query_many([AXIS_X, AXIS_Y])
    xs = lines_from_dgm0(d1, tol)
    ys = lines_from_dgm0(d2, tol)
    d3 = o.query(third_direction(xs, ys))
    if len(xs) == 1:
        V = (np.array([xs, ys]).T + 0.0).view(VertexArray)
        V.flags.writeable = False
    else:
        V = match_and_intersect(xs, ys, d3.direction, lines_from_dgm0(d3, tol))
    V._read_from = (weakref.ref(o), (d1, d2, d3))
    return V
