"""Vertex recovery from three directional dim-0 diagrams.

The dim-0 births of a diagram put every vertex on a known filtration line.
Two axis-aligned diagrams give an n-by-n grid of candidate locations; a
third direction, chosen from the grid's box geometry so that each of its
lines can meet the grid in at most one point, singles out the true vertices.
The matching between the second and third family reduces to sorting both
along the leftmost vertical line, so the whole phase is O(n log n) after
the three oracle queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, DuplicateHeights, ParallelLines
from .geometry import (
    PARALLEL_EPS,
    TOLERANCE,
    Direction,
    Line,
    Point2,
    filtration_line,
)
from .persistence import Diagram, DiagramOracle

AXIS_X = Direction(1.0, 0.0)
AXIS_Y = Direction(0.0, 1.0)

#: Third direction used when a single vertex leaves no box geometry to
#: exploit; any direction independent of both axes works.
_SINGLE_VERTEX_DIRECTION = Direction(math.sqrt(0.5), math.sqrt(0.5))


@dataclass(frozen=True, eq=False)
class LineFamily:
    """Parallel filtration lines of one direction, ascending by offset.

    Line i is {p : p . normal = offsets[i]}, the filtration line of
    births[i]. The normal and offsets carry exactly the floats of
    `filtration_line(direction, births[i])`: the direction is normalized,
    divided by its `hypot` once more, flipped to a lexicographically
    positive sign, and given `+ 0.0`. When the sign flips, births run
    descending so that offsets still ascend. Families compare by
    identity, since their fields are arrays.
    """

    direction: Direction
    births: np.ndarray
    normal: Direction
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    def line(self, i: int) -> Line:
        return filtration_line(self.direction, float(self.births[i]))

    @property
    def lines(self) -> tuple[Line, ...]:
        """Every line as a `Line`, built on each read."""
        return tuple(filtration_line(self.direction, b) for b in self.births.tolist())


def line_family(direction: Direction, births: np.ndarray) -> LineFamily:
    """The family of lines along `direction` through ascending `births`."""
    u = Direction(*direction).normalized()
    n = u.norm()
    nx, ny = u.dx / n, u.dy / n
    offsets = births / n
    if nx < 0.0 or (nx == 0.0 and ny < 0.0):
        nx, ny, offsets = -nx, -ny, -offsets[::-1]
        births = births[::-1]
    offsets = offsets + 0.0  # collapses any -0.0, as Line does
    offsets.flags.writeable = False
    return LineFamily(direction, births, Direction(nx + 0.0, ny + 0.0), offsets)


def lines_from_dgm0(d: Diagram, tol: float = TOLERANCE) -> LineFamily:
    """One filtration line per dim-0 birth, sorted by offset.

    Raises DuplicateHeights when two births coincide within tol (the
    diagram then cannot pin one line per vertex).
    """
    births = d.births0()
    close = births[1:] - births[:-1] <= tol
    if close.any():
        k = int(close.argmax())
        a, b = float(births[k]), float(births[k + 1])
        raise DuplicateHeights(
            f"dim-0 births {a} and {b} coincide for direction {d.direction}"
        )
    return line_family(d.direction, births)


def third_direction(f1: LineFamily, f2: LineFamily) -> Direction:
    """Direction whose filtration lines meet the f1-x-f2 grid once each.

    f1 must come from (1, 0) (vertical lines) and f2 from (0, 1)
    (horizontal lines). With w the full width of the f1 offsets and h the
    smallest adjacent gap of the f2 offsets, any line perpendicular to
    (w, h/2) rises less than h while crossing the grid box, so it cannot
    meet two horizontal lines inside it. Returns the unit perpendicular
    with positive y-component.
    """
    if abs(f1.direction.dx - 1.0) > 1e-12 or abs(f1.direction.dy) > 1e-12:
        raise ValueError(f"f1 must be the (1, 0) family, got {f1.direction}")
    if abs(f2.direction.dx) > 1e-12 or abs(f2.direction.dy - 1.0) > 1e-12:
        raise ValueError(f"f2 must be the (0, 1) family, got {f2.direction}")
    n = len(f1)
    if n != len(f2) or n < 1:
        raise ValueError(f"families must have equal positive size, got {n}, {len(f2)}")
    if n == 1:
        return _SINGLE_VERTEX_DIRECTION
    xs, ys = f1.offsets, f2.offsets
    w = float(xs[-1] - xs[0])
    h = float((ys[1:] - ys[:-1]).min())
    return Direction(w, h / 2.0).perp().normalized()


def match_and_intersect(
    f2: LineFamily, f3: LineFamily, leftmost_of_f1: Line
) -> list[Point2]:
    """Pair the i-th horizontal line with the i-th third-direction line.

    f2 is ordered by y-intercept; f3 by the y-coordinate of each line's
    intersection with the leftmost vertical line. Under the third-direction
    guarantee these orders agree with the vertices' y-order, so matched
    intersections are exactly the vertices. Linear after the sort.

    Both intersections evaluate `intersect_lines` elementwise, operand for
    operand (a product with a zero normal component included, so signed
    zeros come out the same), and f3 is ordered by a stable argsort, so
    the points are those of intersecting the `Line`s one by one.
    """
    if len(f2) != len(f3):
        raise ValueError(f"family sizes differ: {len(f2)} vs {len(f3)}")
    if not len(f3):
        return []
    (n2x, n2y), (n3x, n3y) = f2.normal, f3.normal
    left = leftmost_of_f1
    # intersect_lines(line of f3, left).y for every f3 line
    det = _det(f3.normal, left.normal)
    left_y = (n3x * left.offset - left.normal.dx * f3.offsets) / det
    off3 = f3.offsets[left_y.argsort(kind="stable")]
    # intersect_lines(i-th line of f2, i-th line of f3 in that order)
    det = _det(f2.normal, f3.normal)
    off2 = f2.offsets
    xs = (off2 * n3y - off3 * n2y) / det
    ys = (n2x * off3 - n3x * off2) / det
    return list(map(Point2._make, zip(xs.tolist(), ys.tolist())))


def _det(a: Direction, b: Direction) -> float:
    """`intersect_lines`' determinant of two unit normals; raises
    ParallelLines as it does."""
    det = a.dx * b.dy - a.dy * b.dx
    if abs(det) <= PARALLEL_EPS:
        raise ParallelLines(f"normals {a} and {b} are parallel")
    return det


def reconstruct_vertices(o: DiagramOracle, tol: float = TOLERANCE) -> list[Point2]:
    """Recover all vertex coordinates using exactly three oracle queries.

    Queries (1, 0) and (0, 1) in one `query_many`, raising the first
    degenerate entry, then the derived third direction. Returns the
    vertices sorted by ascending y-coordinate. A single vertex is read off
    the two axis families: its x and y are their offsets, the floats that
    intersecting their lines gives.
    """
    axes = o.query_many([AXIS_X, AXIS_Y])
    for d in axes:
        if isinstance(d, DegenerateDirection):
            raise d
    d1, d2 = axes
    f1 = lines_from_dgm0(d1, tol)
    f2 = lines_from_dgm0(d2, tol)
    s3 = third_direction(f1, f2)
    d3 = o.query(s3)
    if len(f1) == 1:
        return [Point2(float(f1.offsets[0]), float(f2.offsets[0]))]
    f3 = lines_from_dgm0(d3, tol)
    return match_and_intersect(f2, f3, f1.line(0))
