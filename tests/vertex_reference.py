"""Line-by-line vertex phase: the reference the array vertex phase is
checked against, bit for bit.

It builds one `Line` per dim-0 birth, sorts the lines in Python and
intersects them one pair at a time with `intersect_lines`. It also keeps
`triple_intersections`, the brute-force reference for the matching, and
`locate_point`, the line intersection the single-vertex case reads off the
axis offsets.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from phrecon import (
    Direction,
    DuplicateHeights,
    Line,
    ParallelLines,
    Point2,
    filtration_line,
    intersect_lines,
)
from phrecon.errors import PhreconError
from phrecon.geometry import TOLERANCE
from phrecon.vertex_recon import AXIS_X, AXIS_Y, LineFamily


class WrongCardinality(PhreconError):
    """A diagram does not contain the expected number of features."""


def reference_lines(d, tol: float = TOLERANCE) -> tuple[Line, ...]:
    """One filtration line per dim-0 birth, sorted by offset."""
    births = sorted(p.birth for p in d.dim0)
    for a, b in zip(births, births[1:]):
        if abs(a - b) <= tol:
            raise DuplicateHeights(f"dim-0 births {a} and {b} coincide for direction {d.direction}")
    return tuple(sorted((filtration_line(d.direction, b) for b in births), key=lambda l: l.offset))


def reference_third_direction(lines1, lines2) -> Direction:
    if len(lines1) == 1:
        return Direction(math.sqrt(0.5), math.sqrt(0.5))
    xs = [l.offset for l in lines1]
    ys = [l.offset for l in lines2]
    w = xs[-1] - xs[0]
    h = min(b - a for a, b in zip(ys, ys[1:]))
    return Direction(w, h / 2.0).perp().normalized()


def reference_match_and_intersect(lines2, lines3, leftmost: Line) -> list[Point2]:
    by_y = sorted(lines2, key=lambda l: l.offset)
    by_left = sorted(lines3, key=lambda l: intersect_lines(l, leftmost).y)
    return [intersect_lines(a, b) for a, b in zip(by_y, by_left)]


def reference_reconstruct_vertices(o, tol: float = TOLERANCE) -> list[Point2]:
    d1 = o.query(AXIS_X)
    d2 = o.query(AXIS_Y)
    lines1 = reference_lines(d1, tol)
    lines2 = reference_lines(d2, tol)
    d3 = o.query(reference_third_direction(lines1, lines2))
    if len(lines1) == 1:
        return [intersect_lines(lines1[0], lines2[0])]
    return reference_match_and_intersect(lines2, reference_lines(d3, tol), lines1[0])


def locate_point(dgm0_a, dgm0_b) -> Point2:
    """Position of the sole vertex from two single-feature diagrams."""
    for d in (dgm0_a, dgm0_b):
        count = len(d.births0())
        if count != 1:
            raise WrongCardinality(f"expected exactly one dim-0 feature, got {count}")
    la = filtration_line(dgm0_a.direction, float(dgm0_a.births0()[0]))
    lb = filtration_line(dgm0_b.direction, float(dgm0_b.births0()[0]))
    return intersect_lines(la, lb)


def triple_intersections(
    f1: LineFamily, f2: LineFamily, f3: LineFamily, tol: float = TOLERANCE
) -> set[Point2]:
    """All points where one line of each family meet, within tol.

    Brute-force reference for `match_and_intersect`: intersects every
    f1/f2 pair and keeps the points lying on some f3 line.
    """
    result: set[Point2] = set()
    lines3 = f3.lines
    if not lines3:
        return result
    normal3 = lines3[0].normal
    offsets3 = [line.offset for line in lines3]
    for a in f1.lines:
        for b in f2.lines:
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
