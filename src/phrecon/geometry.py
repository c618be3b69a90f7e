"""Planar primitives: points, directions and heights.

`height` is one point's height along one direction, and `heights` is the
array kernel every layer reads vertex heights from: the oracle's sweep,
the edge phase's certifier and indegree reads, and the renderer's
filtration lines. Both round x*dx + y*dy the same way.

Everything here is pure 64-bit float arithmetic. One constant tolerance,
`TOLERANCE` = 1e-9, is the default of every height and coincidence test;
a caller passes another through the `tol=` arguments or the command line's
``--tolerance``. The oracle and both reconstruction phases refuse a tol
outside [0, inf) (`checked_tolerance`). A tighter constant
(`PARALLEL_EPS`) bounds the x-component of the vertex phase's third
direction away from zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: Default absolute tolerance for height/coincidence comparisons (inputs O(1)).
TOLERANCE = 1e-9

#: Threshold on |s3.dx| of the unit third direction below which its lines
#: are treated as parallel to the horizontal ones.
PARALLEL_EPS = 1e-12


class Point2(NamedTuple):
    """A point in the plane."""

    x: float
    y: float


class VertexArray(np.ndarray):
    """The vertex phase's answer: a read-only float64 (n, 2) array of (x, y)
    rows. A row read alone, V[i] or by iterating, is its Point2, so code
    written for a list of points runs unchanged, and no object is made for
    a row that is not read so. Other indices and computed arrays are plain.

    The array `reconstruct_vertices(o)` returns also carries the diagrams it
    was read from, tied to o by a weak reference: `diagrams_of(o)` gives
    them to the edge phase. Slices, views and copies carry nothing."""

    #: (weak reference to the oracle, the diagrams it answered), set on the
    #: vertex phase's answer only
    _read_from = None

    def diagrams_of(self, oracle) -> tuple:
        """The diagrams these vertices were read from, when oracle answered
        them; else ()."""
        read = self._read_from
        return read[1] if read is not None and read[0]() is oracle else ()

    def __getitem__(self, key):
        item = self.view(np.ndarray)[key]
        if self.shape[1:] != (2,) or self.strides[1] != self.itemsize:
            return item  # not (x, y) side by side, as in V.T
        if isinstance(key, slice):
            return item.view(VertexArray)
        if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
            return Point2(*item.tolist())
        return item

    def __array_wrap__(self, out, context=None, return_scalar=False):
        # a 0-d result is a scalar, also on numpy 1.x, which passes no return_scalar
        return out[()] if out.ndim == 0 else out.view(np.ndarray)


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


def checked_tolerance(tol: float) -> float:
    """tol, when 0 <= tol < inf; else ValueError. A negative or NaN tol
    would let equal heights through every tie check."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def height(p: Point2, s: Direction) -> float:
    """Height of p in direction s: the dot product p . s."""
    return p[0] * s[0] + p[1] * s[1]


def heights(x: np.ndarray, y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Heights of the points (x, y) along every direction of U: U is a
    (..., 2) array of directions, and the result has shape (..., len(x)).

    Computed as x*dx + y*dy elementwise, which rounds exactly like `height`
    (a dot product would not), so equal inputs give equal heights. A
    direction normalized again is another input: the oracle's heights can
    differ from the certifier's by an ulp."""
    return U[..., :1] * x + U[..., 1:] * y
