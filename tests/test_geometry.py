import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrecon import Direction, ParallelLines, Point2, height
from phrecon.geometry import VertexArray, heights

from edge_reference import CoincidentPoints, line_angle_mod_pi, rotate
from vertex_reference import Line, filtration_line, intersect_lines

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
nonzero_pair = st.tuples(coord, coord).filter(lambda t: abs(t[0]) + abs(t[1]) > 1e-6)


def test_height_examples():
    assert height(Point2(0.25, 0.0), Direction(1.0, 0.0)) == 0.25
    assert height(Point2(1.0, 1.0), Direction(0.0, 1.0)) == 1.0
    assert height(Point2(-1.0, 2.0), Direction(0.6, 0.8)) == pytest.approx(1.0)


@settings(max_examples=50, derandomize=True)
@given(coord, coord, nonzero_pair, coord)
def test_height_linear_in_direction(x, y, d, alpha):
    p = Point2(x, y)
    s = Direction(*d)
    scaled = Direction(alpha * s.dx, alpha * s.dy)
    assert height(p, scaled) == pytest.approx(alpha * height(p, s), abs=1e-6)


def test_heights_round_as_height_bit_for_bit():
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e3, 1e9):
        x, y = scale * rng.normal(size=(2, 50))  # negative coordinates too
        angle = rng.uniform(0.0, 2.0 * math.pi, size=(2, 7))
        U = np.stack([np.cos(angle), np.sin(angle)], axis=-1)  # (2, 7, 2) units
        points = [Point2(*p) for p in zip(x.tolist(), y.tolist())]
        for directions in (U[0], U):  # (k, n) and (2, k, n)
            H = heights(x, y, directions)
            assert H.shape == directions.shape[:-1] + (50,)
            want = [[height(p, Direction(*s)) for p in points] for s in directions.reshape(-1, 2).tolist()]
            assert H.reshape(-1, 50).tolist() == want


def test_vertex_array_reads_a_row_alone_as_its_point2():
    V = np.array([[0.5, -0.0], [2.0, 1.0], [-3.0, 4.0]]).view(VertexArray)
    # a row by index or by iteration is a Point2, as in a list of points
    assert type(V[0]) is Point2 and V[-1] == Point2(-3.0, 4.0)
    assert V[np.int64(1)]._replace(x=V[1].x + 1.0) == Point2(3.0, 1.0)
    assert list(V) == [Point2(0.5, -0.0), Point2(2.0, 1.0), Point2(-3.0, 4.0)]
    assert math.copysign(1.0, V[0].y) == -1.0
    assert type(V[1:]) is VertexArray and list(V[::-2]) == [V[2], V[0]]
    with pytest.raises(IndexError):
        V[3]
    # any other index, and any array computed from V, is a plain ndarray
    for other in (V[:, 0], V[[0, 2]], V[V[:, 0] > 0], V[True], V + 1.0, V == V, np.asarray(V)):
        assert type(other) is np.ndarray
    assert type(V.sum()) is np.float64 and V.max() == 4.0
    x, y = V.T  # columns, not rows of (x, y)
    assert x.tolist() == [0.5, 2.0, -3.0] and type(V.T[0]) is np.ndarray
    square = V[:2]
    assert type(square.T[0]) is np.ndarray and square.T[0].tolist() == [0.5, 2.0]


def test_filtration_line_axis_cases():
    vert = filtration_line(Direction(1.0, 0.0), 2.0)
    assert vert.normal == Direction(1.0, 0.0)
    assert vert.offset == 2.0

    horiz = filtration_line(Direction(0.0, 1.0), -1.0)
    assert horiz.normal == Direction(0.0, 1.0)
    assert horiz.offset == -1.0


def test_filtration_line_through_anchor_point():
    # line for (3/5, 4/5) at height 5 passes through (3, 4), direction (-4, 3)
    line = filtration_line(Direction(0.6, 0.8), 5.0)
    assert line.contains(Point2(3.0, 4.0))
    assert line.contains(Point2(3.0 - 4.0, 4.0 + 3.0))


@settings(max_examples=50, derandomize=True)
@given(nonzero_pair, coord, st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_filtration_line_membership(d, h, t):
    s = Direction(*d).normalized()
    line = filtration_line(s, h)
    p = Point2(s.dx * h - s.dy * t, s.dy * h + s.dx * t)  # walk along the line
    assert abs(height(p, s) - h) <= 1e-9 * max(1.0, abs(h), abs(t))


def test_filtration_line_rejects_zero_direction():
    with pytest.raises(ValueError):
        filtration_line(Direction(0.0, 0.0), 1.0)


def test_intersect_axis_grid():
    a = filtration_line(Direction(1.0, 0.0), 3.0)
    b = filtration_line(Direction(0.0, 1.0), 7.0)
    assert intersect_lines(a, b) == Point2(3.0, 7.0)


def test_intersect_parallel_raises():
    a = filtration_line(Direction(1.0, 0.0), 3.0)
    b = filtration_line(Direction(1.0, 0.0), 4.0)
    with pytest.raises(ParallelLines):
        intersect_lines(a, b)


def test_intersect_oblique():
    # both lines pass through (3, 7); solved by hand from the 2x2 system
    a = Line(Direction(1.0, 0.0), 3.0)
    b = Line(Direction(0.6, 0.8), 0.6 * 3.0 + 0.8 * 7.0)
    p = intersect_lines(a, b)
    assert p.x == pytest.approx(3.0, abs=1e-9)
    assert p.y == pytest.approx(7.0, abs=1e-9)


def test_intersect_symmetric():
    a = Line(Direction(0.3, 1.1), 0.7)
    b = Line(Direction(-2.0, 0.5), 1.3)
    assert intersect_lines(a, b) == intersect_lines(b, a)


def test_line_canonicalization():
    # same point set, opposite normals: canonical forms compare equal
    assert Line(Direction(-0.6, -0.8), -5.0) == Line(Direction(0.6, 0.8), 5.0)
    assert Line(Direction(0.0, -2.0), 4.0) == Line(Direction(0.0, 1.0), -2.0)


def test_rotate_examples():
    s = rotate(Direction(1.0, 0.0), math.pi / 2.0)
    assert s.dx == pytest.approx(0.0, abs=1e-12)
    assert s.dy == pytest.approx(1.0, abs=1e-12)
    assert rotate(Direction(1.0, 0.0), 0.0) == Direction(1.0, 0.0)
    anti = rotate(Direction(0.6, 0.8), math.pi)
    assert anti.dx == pytest.approx(-0.6, abs=1e-12)
    assert anti.dy == pytest.approx(-0.8, abs=1e-12)


@settings(max_examples=50, derandomize=True)
@given(nonzero_pair, st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_rotate_roundtrip(d, angle):
    s = Direction(*d).normalized()
    back = rotate(rotate(s, angle), -angle)
    assert back.dx == pytest.approx(s.dx, abs=1e-12)
    assert back.dy == pytest.approx(s.dy, abs=1e-12)
    assert abs(back.dx * back.dx + back.dy * back.dy - 1.0) <= 1e-12


def test_line_angle_examples():
    assert line_angle_mod_pi(Point2(0, 0), Point2(1, 0)) == 0.0
    assert line_angle_mod_pi(Point2(0, 0), Point2(-1, -1)) == pytest.approx(math.pi / 4)
    assert line_angle_mod_pi(Point2(0, 0), Point2(0, 5)) == pytest.approx(math.pi / 2)


@settings(max_examples=50, derandomize=True)
@given(coord, coord, coord, coord)
def test_line_angle_symmetric_and_in_range(ux, uy, vx, vy):
    u, v = Point2(ux, uy), Point2(vx, vy)
    if ux == vx and uy == vy:
        with pytest.raises(CoincidentPoints):
            line_angle_mod_pi(u, v)
        return
    a = line_angle_mod_pi(u, v)
    assert a == line_angle_mod_pi(v, u)
    assert 0.0 <= a < math.pi


def test_line_angle_coincident():
    with pytest.raises(CoincidentPoints):
        line_angle_mod_pi(Point2(2.0, 3.0), Point2(2.0, 3.0))
