"""References for the vertex phase.

The paper's construction, line by line: one canonical `Line` per dim-0
birth, sorted in Python and intersected one pair at a time with
`intersect_lines`. The array vertex phase reads coordinates instead, and
`reference_formula_vertices` is the per-vertex Python loop of its formula
x = (h3 - s3.dy * y) / s3.dx. Also kept: `triple_intersections`, the
brute-force reference for the matching, and `locate_point`, the line
intersection the single-vertex case reads off the axis births.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from phrecon import Direction, DuplicateHeights, ParallelLines, Point2
from phrecon.errors import PhreconError
from phrecon.geometry import PARALLEL_EPS, TOLERANCE
from phrecon.vertex_recon import AXIS_X, AXIS_Y


class WrongCardinality(PhreconError):
    """A diagram does not contain the expected number of features."""


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


def reference_births(d, tol: float = TOLERANCE) -> list[float]:
    """The ascending dim-0 births; raises DuplicateHeights as the phase does."""
    births = sorted(p.birth for p in d.dim0)
    for a, b in zip(births, births[1:]):
        if abs(a - b) <= tol:
            raise DuplicateHeights(f"dim-0 births {a} and {b} coincide for direction {d.direction}")
    return births


def reference_lines(d, tol: float = TOLERANCE) -> tuple[Line, ...]:
    """One filtration line per dim-0 birth, sorted by offset."""
    births = reference_births(d, tol)
    return tuple(sorted((filtration_line(d.direction, b) for b in births), key=lambda l: l.offset))


def reference_third_direction(xs, ys) -> Direction:
    if len(xs) == 1:
        return Direction(math.sqrt(0.5), math.sqrt(0.5))
    w = xs[-1] - xs[0]
    h = min(b - a for a, b in zip(ys, ys[1:]))
    return Direction(w, h / 2.0).perp().normalized()


def reference_match_and_intersect(lines2, lines3, leftmost: Line) -> list[Point2]:
    by_y = sorted(lines2, key=lambda l: l.offset)
    by_left = sorted(lines3, key=lambda l: intersect_lines(l, leftmost).y)
    return [intersect_lines(a, b) for a, b in zip(by_y, by_left)]


def reference_reconstruct_vertices(o, tol: float = TOLERANCE) -> list[Point2]:
    """The paper's construction with `Line`s, asking o the phase's queries."""
    d1 = o.query(AXIS_X)
    d2 = o.query(AXIS_Y)
    lines1 = reference_lines(d1, tol)
    lines2 = reference_lines(d2, tol)
    xs, ys = [l.offset for l in lines1], [l.offset for l in lines2]
    d3 = o.query(reference_third_direction(xs, ys))
    if len(lines1) == 1:
        return [intersect_lines(lines1[0], lines2[0])]
    return reference_match_and_intersect(lines2, reference_lines(d3, tol), lines1[0])


def reference_formula_vertices(o, tol: float = TOLERANCE) -> list[Point2]:
    """The phase's formula, one vertex at a time on Python floats: the i-th
    lowest y with the i-th lowest height h3 along the third diagram's unit
    direction s3, at x = (h3 - s3.dy * y) / s3.dx."""
    xs = reference_births(o.query(AXIS_X), tol)
    ys = reference_births(o.query(AXIS_Y), tol)
    d3 = o.query(reference_third_direction(xs, ys))
    if len(xs) == 1:
        return [Point2(xs[0] + 0.0, ys[0] + 0.0)]
    s3 = d3.direction
    return [Point2((h - s3.dy * y) / s3.dx, y) for y, h in zip(ys, reference_births(d3, tol))]


def locate_point(dgm0_a, dgm0_b) -> Point2:
    """Position of the sole vertex from two single-feature diagrams."""
    for d in (dgm0_a, dgm0_b):
        count = len(d.births)
        if count != 1:
            raise WrongCardinality(f"expected exactly one dim-0 feature, got {count}")
    la = filtration_line(dgm0_a.direction, float(dgm0_a.births[0]))
    lb = filtration_line(dgm0_b.direction, float(dgm0_b.births[0]))
    return intersect_lines(la, lb)


def triple_intersections(d1, d2, d3, tol: float = TOLERANCE) -> set[Point2]:
    """All points where one filtration line of each diagram meet, within tol.

    Brute-force reference for `match_and_intersect`: intersects every
    d1/d2 line pair and keeps the points lying on some d3 line.
    """
    result: set[Point2] = set()
    lines3 = reference_lines(d3, tol)
    if not lines3:
        return result
    normal3 = lines3[0].normal
    offsets3 = [line.offset for line in lines3]
    lines2 = reference_lines(d2, tol)
    for a in reference_lines(d1, tol):
        for b in lines2:
            try:
                p = intersect_lines(a, b)
            except ParallelLines:
                continue
            q = p.x * normal3.dx + p.y * normal3.dy
            k = bisect_left(offsets3, q)
            near = offsets3[max(0, k - 1) : k + 1]
            if any(abs(q - off) <= tol for off in near):
                result.add(p)
    return result
