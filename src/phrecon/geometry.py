"""Planar primitives: points, directions, lines, and the operations on them.

Everything here is pure 64-bit float arithmetic. A single global tolerance
(`TOLERANCE`, default 1e-9, overridable through the ``PHRECON_TOLERANCE``
environment variable) governs on-line and coincidence tests; a tighter
constant (`PARALLEL_EPS`) governs parallelism of unit normals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParallelLines


def _tolerance_from_env() -> float:
    return float(os.environ.get("PHRECON_TOLERANCE", "1e-9"))


#: Global absolute tolerance for height/coincidence comparisons (inputs O(1)).
TOLERANCE = _tolerance_from_env()

#: Threshold on the cross product of unit normals below which lines are
#: treated as parallel.
PARALLEL_EPS = 1e-12


class Point2(NamedTuple):
    """A point in the plane."""

    x: float
    y: float


class Direction(NamedTuple):
    """A non-zero direction vector; unit length unless stated otherwise."""

    dx: float
    dy: float

    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def normalized(self) -> "Direction":
        """Scale to unit length. Raises ValueError on the zero vector."""
        n = self.norm()
        if n == 0.0 or not math.isfinite(n):
            raise ValueError(f"cannot normalize direction {self}")
        return Direction(self.dx / n, self.dy / n)

    def is_unit(self, eps: float = 1e-12) -> bool:
        return abs(self.dx * self.dx + self.dy * self.dy - 1.0) <= eps

    def perp(self) -> "Direction":
        """Counter-clockwise perpendicular (rotation by +pi/2)."""
        return Direction(-self.dy, self.dx)

    def __neg__(self) -> "Direction":
        return Direction(-self.dx, -self.dy)


@dataclass(frozen=True, slots=True)
class Line:
    """The line {p : p . normal = offset}, stored canonically.

    On construction the normal is scaled to unit length with a
    lexicographically positive sign (first non-zero component positive) and
    the offset rescaled accordingly, so two Lines describing the same point
    set compare equal and sort deterministically.
    """

    normal: Direction
    offset: float

    def __post_init__(self):
        n = self.normal.norm()
        if n == 0.0 or not math.isfinite(n):
            raise ValueError(f"line normal must be non-zero, got {self.normal}")
        nx, ny = self.normal.dx / n, self.normal.dy / n
        off = self.offset / n
        if nx < 0.0 or (nx == 0.0 and ny < 0.0):
            nx, ny, off = -nx, -ny, -off
        # +0.0 collapses any -0.0 produced by the sign flip
        object.__setattr__(self, "normal", Direction(nx + 0.0, ny + 0.0))
        object.__setattr__(self, "offset", off + 0.0)

    def residual(self, p: Point2) -> float:
        """Signed distance-like residual p . normal - offset."""
        return p.x * self.normal.dx + p.y * self.normal.dy - self.offset

    def contains(self, p: Point2, tol: float = TOLERANCE) -> bool:
        return abs(self.residual(p)) <= tol


def height(p: Point2, s: Direction) -> float:
    """Height of p in direction s: the dot product p . s."""
    return p[0] * s[0] + p[1] * s[1]


def filtration_line(s: Direction, h: float) -> Line:
    """The line through h*s perpendicular to s (s is normalized on entry).

    Every point q on the result satisfies q . s = h for unit s.
    """
    u = Direction(*s).normalized()
    return Line(u, h)


def intersect_lines(a: Line, b: Line) -> Point2:
    """Intersection point of two non-parallel lines.

    Raises ParallelLines when the cross product of the unit normals falls
    below PARALLEL_EPS.
    """
    det = a.normal.dx * b.normal.dy - a.normal.dy * b.normal.dx
    if abs(det) <= PARALLEL_EPS:
        raise ParallelLines(f"normals {a.normal} and {b.normal} are parallel")
    x = (a.offset * b.normal.dy - b.offset * a.normal.dy) / det
    y = (a.normal.dx * b.offset - b.normal.dx * a.offset) / det
    return Point2(x, y)
