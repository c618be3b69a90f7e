import math

import numpy as np
import pytest

from phrecon import (
    Diagram,
    DiagramOracle,
    Direction,
    DuplicateHeights,
    ParallelLines,
    PersistencePair,
    PlaneGraph,
    Point2,
    height,
    lines_from_dgm0,
    match_and_intersect,
    random_plane_graph,
    reconstruct_vertices,
    third_direction,
    validate,
)
from phrecon.errors import DegenerateDirection, PhreconError, UncertifiedVertices
from phrecon.vertex_recon import AXIS_X, AXIS_Y

from vertex_reference import (
    Line,
    WrongCardinality,
    intersect_lines,
    locate_point,
    reference_formula_vertices,
    reference_lines,
    reference_reconstruct_vertices,
    triple_intersections,
)

from conftest import assert_points_close

INF = math.inf


def dgm0(direction, births):
    return Diagram(
        Direction(*direction).normalized(),
        tuple(sorted(PersistencePair(b, INF) for b in births)),
        (),
    )


def family(direction, births):
    return lines_from_dgm0(dgm0(direction, births))


def test_lines_from_single_birth():
    assert family((1.0, 0.0), [0.25]).tolist() == [0.25]


def test_lines_from_empty_diagram():
    assert len(family((1.0, 0.0), [])) == 0


def test_lines_sorted_by_offset():
    assert family((0.0, 1.0), [2.0, 0.0, 1.0]).tolist() == [0.0, 1.0, 2.0]


def test_lines_from_dgm0_returns_the_ascending_read_only_births():
    # along any direction, unflipped: the births float for float, -0.0 kept
    for direction in (AXIS_X, AXIS_Y, Direction(-0.3, 0.8), Direction(0.6, -0.2)):
        births = [3.0, -2.5, 0.75, -0.0, 1e-3]
        f = family(direction, births)
        assert f.dtype == np.float64 and not f.flags.writeable
        assert [x.hex() for x in f.tolist()] == [x.hex() for x in sorted(births)]


def test_lines_duplicate_births_rejected():
    with pytest.raises(DuplicateHeights):
        family((1.0, 0.0), [1.0, 1.0 + 1e-12])


def test_third_direction_appendix_box():
    f1 = family((1.0, 0.0), [0.0, 2.0])  # w = 2
    f2 = family((0.0, 1.0), [0.0, 1.0])  # h = 1
    s3 = third_direction(f1, f2)
    assert s3.dx == pytest.approx(-1.0 / math.sqrt(17.0), abs=1e-12)
    assert s3.dy == pytest.approx(4.0 / math.sqrt(17.0), abs=1e-12)


def test_third_direction_unit_box():
    s3 = third_direction(family((1, 0), [0.0, 1.0]), family((0, 1), [0.0, 1.0]))
    assert s3.dx == pytest.approx(-1.0 / math.sqrt(5.0), abs=1e-12)
    assert s3.dy == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)


def test_third_direction_full_width_not_adjacent_gap():
    # x-offsets {0, 0.2, 2}: the width is 2, not the largest adjacent gap 1.8
    f1 = family((1, 0), [0.0, 0.2, 2.0])
    f2 = family((0, 1), [0.0, 1.0, 5.0])
    s3 = third_direction(f1, f2)
    assert s3 == Direction(2.0, 0.5).perp().normalized()


def test_third_direction_single_vertex_fallback():
    s3 = third_direction(family((1, 0), [0.3]), family((0, 1), [0.7]))
    assert s3 == Direction(math.sqrt(0.5), math.sqrt(0.5))
    assert third_direction(family((1, 0), []), family((0, 1), [])) == s3  # no vertex


def test_match_and_intersect_single():
    target = Point2(0.3, 0.7)
    s3 = Direction(math.sqrt(0.5), math.sqrt(0.5))
    xs, ys = family((1, 0), [0.3]), family((0, 1), [0.7])
    pts = match_and_intersect(xs, ys, s3, family(s3, [height(target, s3)]))
    _assert_vertices(pts, [target])


def test_match_and_intersect_2x2_grid():
    # true vertices (0,0) and (2,1) on the grid x in {0,2}, y in {0,1}
    truth = [Point2(0.0, 0.0), Point2(2.0, 1.0)]
    d1, d2 = dgm0((1, 0), [0.0, 2.0]), dgm0((0, 1), [0.0, 1.0])
    s3 = third_direction(lines_from_dgm0(d1), lines_from_dgm0(d2))
    d3 = dgm0(s3, [height(p, s3) for p in truth])
    got = match_and_intersect(lines_from_dgm0(d1), lines_from_dgm0(d2), d3.direction, lines_from_dgm0(d3))
    _assert_vertices(got, truth)
    assert triple_intersections(d1, d2, d3) == set(map(tuple, got.tolist()))


def test_match_equals_triple_intersections_on_random_instance():
    g = random_plane_graph(4, 0.5, 18)
    o = DiagramOracle(g)
    d1, d2 = o.query(AXIS_X), o.query(AXIS_Y)
    xs, ys = lines_from_dgm0(d1), lines_from_dgm0(d2)
    d3 = o.query(third_direction(xs, ys))
    matched = match_and_intersect(xs, ys, d3.direction, lines_from_dgm0(d3))
    brute = triple_intersections(d1, d2, d3)
    assert len(matched) == len(brute) == 4
    for x, y in matched.tolist():
        assert any(abs(x - q.x) <= 1e-9 and abs(y - q.y) <= 1e-9 for q in brute)


def test_triple_intersections_disjoint_families():
    d1 = dgm0((1, 0), [0.0])
    d2 = dgm0((0, 1), [0.0])
    d3 = dgm0((math.sqrt(0.5), math.sqrt(0.5)), [5.0])  # misses the origin
    assert triple_intersections(d1, d2, d3) == set()


def test_locate_point_examples():
    assert locate_point(dgm0((1, 0), [3.0]), dgm0((0, 1), [7.0])) == Point2(3.0, 7.0)
    assert locate_point(dgm0((1, 0), [0.0]), dgm0((0, 1), [0.0])) == Point2(0.0, 0.0)
    # solve x = 1, (3x + 4y)/5 = 1  =>  y = 1/2
    p = locate_point(dgm0((1, 0), [1.0]), dgm0((0.6, 0.8), [1.0]))
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(0.5, abs=1e-12)


def test_locate_point_errors():
    with pytest.raises(WrongCardinality):
        locate_point(dgm0((1, 0), [1.0, 2.0]), dgm0((0, 1), [0.0]))
    with pytest.raises(ParallelLines):
        locate_point(dgm0((1, 0), [1.0]), dgm0((2, 0), [0.0]))


def _assert_vertices(got, want):
    """got is the vertex phase's answer, one read-only float64 (n, 2) array,
    and its rows are the points of want, float.hex for float.hex, each
    row read alone a Point2."""
    assert got.dtype == np.float64 and got.shape == (len(want), 2)
    assert not got.flags.writeable
    assert all(type(p) is Point2 for p in got)
    assert _hex(got) == _hex(want)


def test_reconstruct_single_vertex():
    for points in ([(3.0, 7.0)], []):  # and no vertex
        o = DiagramOracle(PlaneGraph(points, []))
        _assert_vertices(reconstruct_vertices(o), points)
        assert o.query_count == 3


def test_reconstruct_appendix_graph(appendix_graph):
    o = DiagramOracle(appendix_graph)
    got = reconstruct_vertices(o)
    assert o.query_count == 3
    assert o.query_log[0] == Direction(1.0, 0.0)
    assert o.query_log[1] == Direction(0.0, 1.0)
    want = sorted(appendix_graph.vertices, key=lambda p: p.y)
    assert_points_close(got, want)


def test_reconstruct_100_random_vertices():
    rng = np.random.default_rng(77)
    xs = (np.arange(100) + 0.1 + 0.8 * rng.random(100)) / 100.0
    ys = (np.arange(100) + 0.1 + 0.8 * rng.random(100)) / 100.0
    pts = list(zip(xs.tolist(), rng.permutation(ys).tolist()))
    o = DiagramOracle(PlaneGraph(pts, []))
    got = reconstruct_vertices(o)
    assert o.query_count == 3
    _assert_vertices(got, sorted(pts, key=lambda p: p[1]))
    assert_points_close(sorted(got.tolist()), sorted(pts), tol=1e-6)


def test_reconstruct_rejects_degenerate_hidden_graph():
    o = DiagramOracle(PlaneGraph([(0.0, 0.0), (0.0, 1.0)], []))  # shared x
    with pytest.raises(PhreconError):
        reconstruct_vertices(o)


def test_reconstruct_raises_parallel_lines_on_a_flat_wide_box():
    # w = 1e4 and h = 2e-9 give |s3.dx| = 1e-13 <= PARALLEL_EPS: the third
    # family's lines are horizontal to working precision
    g = PlaneGraph([(0.0, 0.5), (1e4, 0.5 + 2e-9)], [])
    assert validate(g) == []
    o = DiagramOracle(g)
    with pytest.raises(ParallelLines):
        reconstruct_vertices(o)
    assert o.query_count == 3


def test_a_wide_flat_pair_comes_back_bit_for_bit():
    # the third diagram's x is 5.6e-5 off for the second vertex and -0.0 for
    # the first; the snap returns the (1, 0) births, the hidden x's
    g = PlaneGraph([(0.0, 0.5), (1000.0, 0.500000002)], [])
    assert validate(g) == []
    _assert_vertices(reconstruct_vertices(DiagramOracle(g)), g.vertices)


class ShiftedThirdOracle(DiagramOracle):
    """Moves one third-diagram birth by `shift`, as an oracle whose third
    diagram disagrees with its axis diagrams would."""

    def __init__(self, graph, shift):
        super().__init__(graph)
        self.shift = shift

    def query_many(self, S):
        out = super().query_many(S)
        if len(S) == 1:
            (d,) = out
            births = sorted(d.births.tolist())
            births[-1] += self.shift
            out = [Diagram(d.direction, tuple(PersistencePair(b, INF) for b in births), ())]
        return out


def test_an_x_off_every_birth_raises_before_any_edge_query():
    g = PlaneGraph([(0.1, 0.2), (0.5, 0.9), (0.8, 0.4)], [])
    assert len(reconstruct_vertices(ShiftedThirdOracle(g, 0.0))) == 3
    for shift in (1e-9, 0.05):  # off its own birth, or nearer another
        o = ShiftedThirdOracle(g, shift)
        with pytest.raises(UncertifiedVertices) as err:
            reconstruct_vertices(o)
        assert isinstance(err.value, PhreconError) and err.value.i == 2  # the highest y
        assert o.query_count == 3
    # a bound that reaches half the smallest gap fails too: a wide, flat
    # grid whose formula error is about 1e-4 against x's 1e-4 apart
    g = PlaneGraph([(0.0, 0.5), (1e-4, 0.7), (1000.0, 0.500000002)], [])
    with pytest.raises(UncertifiedVertices) as err:
        reconstruct_vertices(DiagramOracle(g))
    assert err.value.bound >= err.value.half_gap


def test_tied_f_are_named_in_their_stable_order():
    # f = h3 - ys is 1 for vertices 0..19 and 0 for 20..39, exactly; more
    # than 16 ties, so numpy's default sort need not keep the index order.
    # The farthest f is the highest one, snapped onto the last birth; in
    # the stable order that is the last vertex with f = 1
    k = 20
    f = np.array([1.0] * k + [0.0] * k)
    ys = 2.0 * np.arange(2 * k)
    xs = np.arange(2.0 * k)
    with pytest.raises(UncertifiedVertices) as err:
        match_and_intersect(xs, ys, Direction(1.0, 1.0), ys + f)
    assert (err.value.i, err.value.f, err.value.birth) == (k - 1, 1.0, 2.0 * k - 1)


def test_axis_queries_are_one_batch_and_the_first_tie_is_raised():
    calls = []

    class Counting(DiagramOracle):
        def query_many(self, S):
            calls.append(len(S))
            return super().query_many(S)

    o = Counting(PlaneGraph([(0.1, 0.7), (0.6, 0.2), (0.9, 0.5)], []))
    reconstruct_vertices(o)
    assert calls == [2, 1] and o.query_log[:2] == (Direction(1.0, 0.0), Direction(0.0, 1.0))
    # both axes tie: the (1, 0) entry comes first; then the (0, 1) one alone
    for points, direction, pair in (
        ([(0.0, 0.0), (0.0, 0.5), (1.0, 0.5)], Direction(1.0, 0.0), (0, 1)),
        ([(0.0, 0.0), (0.3, 0.5), (1.0, 0.5)], Direction(0.0, 1.0), (1, 2)),
    ):
        o = DiagramOracle(PlaneGraph(points, []))
        with pytest.raises(DegenerateDirection) as err:
            reconstruct_vertices(o)
        assert err.value.direction == direction and (err.value.i, err.value.j) == pair
        assert o.query_count == 2


def test_vertex_existence_part_two_on_instances():
    # every third-family line meets an intersection of the first two
    for seed in range(8):
        g = random_plane_graph(2 + seed, 0.5, seed)
        o = DiagramOracle(g)
        d1, d2 = o.query(AXIS_X), o.query(AXIS_Y)
        d3 = o.query(third_direction(lines_from_dgm0(d1), lines_from_dgm0(d2)))
        grid = [intersect_lines(a, b) for a in reference_lines(d1) for b in reference_lines(d2)]
        for line in reference_lines(d3):
            assert any(line.contains(p) for p in grid)


def test_vertex_localization_inside_box():
    # no third-direction line crosses two horizontal lines inside the
    # bounding box of the grid
    for seed in range(8):
        g = random_plane_graph(3 + seed, 0.0, seed + 50)
        o = DiagramOracle(g)
        xs = lines_from_dgm0(o.query(AXIS_X)).tolist()
        ys = lines_from_dgm0(o.query(AXIS_Y)).tolist()
        for line in reference_lines(o.query(third_direction(np.array(xs), np.array(ys)))):
            hits = 0
            for y in ys:
                p = intersect_lines(line, Line(Direction(0.0, 1.0), y))
                if xs[0] - 1e-9 <= p.x <= xs[-1] + 1e-9:
                    hits += 1
            assert hits <= 1


def _hex(points):
    return [(float(x).hex(), float(y).hex()) for x, y in points]


def _same_as_reference(g):
    o, lines, loop = DiagramOracle(g), DiagramOracle(g), DiagramOracle(g)
    got = reconstruct_vertices(o)
    want = reference_reconstruct_vertices(lines)
    formula = reference_formula_vertices(loop)
    # float.hex tells signed zeros and every last bit apart
    assert _hex(o.query_log) == _hex(lines.query_log) == _hex(loop.query_log)
    # every vertex is the hidden vertex of the same y-rank; the formula and
    # the line reference only name which x
    hidden = sorted(g.vertices, key=lambda p: p.y)
    assert list(map(tuple, got.tolist())) == hidden
    # bit for bit, each coordinate is its axis birth: 1.0 * x + 0.0 * y along
    # (1, 0), which differs from the hidden x at most in the sign of a zero;
    # a single vertex has its zeros made 0.0
    births = [(height(p, AXIS_X), height(p, AXIS_Y)) for p in hidden]
    _assert_vertices(got, [(x + 0.0, y + 0.0) for x, y in births] if g.n == 1 else births)
    assert all(math.isclose(p.x, q.x, rel_tol=1e-12) for p, q in zip(formula, want))
    assert len(got) == len(want) == g.n


def test_vertex_phase_equals_line_reference_bit_for_bit():
    for n in range(1, 41):
        for seed in range(3):
            _same_as_reference(random_plane_graph(n, 0.5, 100 * n + seed, margin=1e-6))


def test_vertex_phase_equals_line_reference_on_negative_clouds():
    # vertices on the axes, at -0.0 and in every quadrant
    for pts in (
        [(0.0, 0.0), (0.7, 0.4), (-0.5, 0.9)],
        [(-0.3, 0.0), (0.2, -0.6), (0.9, 0.5)],
        [(0.4, -0.0), (-0.0, -0.7), (-0.8, 0.3), (0.6, -0.9)],
    ):
        _same_as_reference(PlaneGraph(pts, []))
    rng = np.random.default_rng(8)
    for scale in (1e-3, 1e-2, 1.0, 1e2, 1e3):
        for _ in range(8):
            n = int(rng.integers(1, 40))
            pts = rng.normal(loc=-0.5 * scale, scale=scale, size=(n, 2))
            _same_as_reference(PlaneGraph([tuple(p) for p in pts.tolist()], []))
    # a single vertex is read off the axis births: the floats locate_point
    # gets by intersecting the two axis lines
    extremes = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -0.37, 0.81)
    for p in [(x, y) for x in extremes for y in extremes]:
        g = PlaneGraph([p], [])
        _same_as_reference(g)
        want = locate_point(*DiagramOracle(g).query_many([AXIS_X, AXIS_Y]))
        assert _hex(reconstruct_vertices(DiagramOracle(g))) == _hex([want])


def test_vertex_phase_equals_line_reference_on_jittered_grid():
    n = 20_000
    rng = np.random.default_rng(20)
    xs = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
    ys = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
    _same_as_reference(PlaneGraph(list(zip(xs.tolist(), rng.permutation(ys).tolist())), []))



@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_vertex_phase_refuses_a_tolerance_outside_zero_to_infinity(tol):
    o = DiagramOracle(random_plane_graph(10, 1.0, 3))
    with pytest.raises(ValueError, match="tolerance"):
        reconstruct_vertices(o, tol)
    assert o.query_count == 0
    assert len(reconstruct_vertices(o, 0.0)) == 10
