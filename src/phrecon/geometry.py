"""Planar primitives: points, directions and heights.

Everything here is pure 64-bit float arithmetic. One constant tolerance,
`TOLERANCE` = 1e-9, is the default of every height and coincidence test;
a caller passes another through the `tol=` arguments or the command line's
``--tolerance``. A tighter constant (`PARALLEL_EPS`) bounds the
x-component of the vertex phase's third direction away from zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Default absolute tolerance for height/coincidence comparisons (inputs O(1)).
TOLERANCE = 1e-9

#: Threshold on |s3.dx| of the unit third direction below which its lines
#: are treated as parallel to the horizontal ones.
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

    def perp(self) -> "Direction":
        """Counter-clockwise perpendicular (rotation by +pi/2)."""
        return Direction(-self.dy, self.dx)

    def __neg__(self) -> "Direction":
        return Direction(-self.dx, -self.dy)


def height(p: Point2, s: Direction) -> float:
    """Height of p in direction s: the dot product p . s."""
    return p[0] * s[0] + p[1] * s[1]

