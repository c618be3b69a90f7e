"""Planar primitives: points, directions and heights.

Everything here is pure 64-bit float arithmetic. A single global tolerance
(`TOLERANCE`, default 1e-9, overridable through the ``PHRECON_TOLERANCE``
environment variable) governs height and coincidence tests; a tighter
constant (`PARALLEL_EPS`) bounds the x-component of the vertex phase's
third direction away from zero.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple


def _tolerance_from_env() -> float:
    return float(os.environ.get("PHRECON_TOLERANCE", "1e-9"))


#: Global absolute tolerance for height/coincidence comparisons (inputs O(1)).
TOLERANCE = _tolerance_from_env()

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

