import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from phrecon import (
    DiagramOracle,
    Direction,
    GenerationFailed,
    InvalidGraph,
    PhreconError,
    PlaneGraph,
    graph_from_json,
    graph_to_json,
    random_plane_graph,
    reconstruct_edges_detail,
    reconstruct_vertices,
    validate,
)

from phrecon import plane_graph
from phrecon.geometry import TOLERANCE
from phrecon.plane_graph import _delaunay_edges, _general_position_ok

from conftest import components_by_bfs, jittered_grid_points
from graph_reference import connected_components, degree, indegree_direct, tuple_form
from validate_reference import all_pairs_touching, crossing_messages, shared_coordinate_messages


def test_validate_ok_segment():
    g = PlaneGraph([(0, 0), (1, 1)], [(0, 1)])
    assert validate(g) == []


def test_validate_shared_x():
    g = PlaneGraph([(0, 0), (0, 1)], [])
    issues = validate(g)
    assert len(issues) == 1
    assert "shared x-coordinate" in issues[0] and "(0, 1)" in issues[0]


def test_validate_crossing_edges():
    # segments (0,0)-(2,0) and (1,1)-(1,-1) cross at (1,0)
    g = PlaneGraph([(0, 0), (2, 0), (1, 1), (1, -1)], [(0, 1), (2, 3)])
    issues = validate(g)
    assert any("crossing edges (0, 1) x (2, 3)" in v for v in issues)


def test_validate_collinear_and_loops():
    g = PlaneGraph([(0, 0), (1, 1), (2, 2)], [])
    assert any("collinear vertices (0, 1, 2)" in v for v in validate(g))
    loop = PlaneGraph([(0, 0), (1, 2)], [(1, 1)])
    assert any("self-loop" in v for v in validate(loop))
    bad = PlaneGraph([(0, 0), (1, 2)], [(0, 5)])
    assert any("out of range" in v for v in validate(bad))


def test_generator_single_vertex():
    g = random_plane_graph(1, 0.5, 7)
    assert g.n == 1 and not g.edges


def test_generator_density_zero():
    g = random_plane_graph(5, 0.0, 7)
    assert g.n == 5 and not g.edges
    assert validate(g) == []


def test_generator_full_density_matches_delaunay_size():
    # Euler count for a Delaunay triangulation: |E| = 3n - 3 - hull_size
    from scipy.spatial import ConvexHull

    g = random_plane_graph(8, 1.0, 42)
    assert validate(g) == []
    hull = ConvexHull(np.array([[v.x, v.y] for v in g.vertices]))
    assert len(g.edges) == 3 * g.n - 3 - len(hull.vertices)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generator_deterministic(seed):
    a = random_plane_graph(6, 0.7, seed)
    b = random_plane_graph(6, 0.7, seed)
    assert graph_to_json(a) == graph_to_json(b)


def test_generator_always_valid():
    for seed in range(20):
        g = random_plane_graph(3 + seed % 9, 0.5 + 0.05 * (seed % 10), seed)
        assert validate(g) == []


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        random_plane_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        random_plane_graph(3, 1.5, 1)


def test_generator_failure_on_impossible_margin():
    # 50 points cannot keep pairwise x-gaps of 0.1 inside the unit square
    with pytest.raises(GenerationFailed):
        random_plane_graph(50, 0.5, 1, margin=0.1)


def _general_position_loop(pts: np.ndarray, margin: float) -> bool:
    """The generator's check as a loop over every triple: the reference the
    array form must agree with decision for decision. Python floats round
    like numpy's float64 scalars, and are faster to loop over."""
    for axis in (0, 1):
        coords = np.sort(pts[:, axis])
        if len(coords) > 1 and np.min(np.diff(coords)) < margin:
            return False
    p = pts.tolist()
    for i, j, k in combinations(range(len(p)), 3):
        area2 = (p[j][0] - p[i][0]) * (p[k][1] - p[i][1]) - (p[j][1] - p[i][1]) * (p[k][0] - p[i][0])
        if abs(area2) < margin:
            return False
    return True


def test_general_position_check_matches_the_triple_loop():
    rng = np.random.default_rng(8)
    decisions = []
    for t in range(400):
        n = int(rng.integers(40, 121)) if t % 20 == 0 else int(rng.integers(0, 40))
        margin = float(rng.choice([0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]))
        pts = rng.random((n, 2))
        if n >= 3 and t % 2:
            # move one point to about `margin` of doubled area off the line
            # through two others, so the decision is close
            a, b = pts[rng.choice(n, size=2, replace=False)]
            d = b - a
            area = margin * rng.uniform(0.5, 1.5)
            normal = np.array([-d[1], d[0]]) / (d @ d)
            pts[rng.integers(n)] = a + rng.uniform(-0.5, 1.5) * d + normal * area
        want = _general_position_loop(pts, margin)
        assert _general_position_ok(pts, margin) == want, (t, n, margin)
        decisions.append(want)
    assert 0 < sum(decisions) < len(decisions)


def _collinear_loop(pts: list, tol: float) -> list:
    """validate's collinearity messages from a loop over every triple: the
    reference its array check must match message for message."""
    out = []
    for i, j, k in combinations(range(len(pts)), 3):
        (xi, yi), (xj, yj), (xk, yk) = pts[i], pts[j], pts[k]
        if abs((xj - xi) * (yk - yi) - (yj - yi) * (xk - xi)) <= tol:
            out.append(f"collinear vertices ({i}, {j}, {k})")
    return out


def test_validate_collinearity_matches_the_triple_loop():
    rng = np.random.default_rng(12)
    found = 0
    for t in range(300):
        n = int(rng.integers(40, 71)) if t % 30 == 0 else int(rng.integers(0, 25))
        tol = float(rng.choice([0.0, 1e-9, 1e-6, 1e-3]))
        pts = rng.random((n, 2))
        if t % 3 == 0:
            pts = np.round(pts * 6.0)  # a small integer grid: many exact collinear triples
        for _ in range(int(rng.integers(0, 4)) if n >= 3 else 0):
            # move one point to about tol of doubled area off the line
            # through two others, so the decision is close
            a, b = pts[rng.choice(n, size=2, replace=False)]
            d = b - a
            if not d.any():
                continue
            area = tol * rng.choice([0.0, 0.5, 1.0, 1.5])
            normal = np.array([-d[1], d[0]]) / (d @ d)
            pts[rng.integers(n)] = a + rng.uniform(-0.5, 1.5) * d + normal * area
        if t % 50 == 7 and n:
            pts[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf], size=2)
        g = PlaneGraph(pts.tolist(), [(0, n - 1)] if n >= 2 else [])
        issues = validate(g, tol)
        loop = _collinear_loop([tuple(v) for v in g.vertices], tol)
        rest = [m for m in issues if not m.startswith("collinear")]
        head = sum(1 for m in rest if m.startswith(("non-finite", "shared")))
        assert issues == rest[:head] + loop + rest[head:], (t, n, tol)
        found += len(loop)
    assert found > 0


def _root_tie(rng):
    """A vertex (u, h) whose squared distance s to the point (-0.5, 0) has
    a root that Python's `s ** 0.5` (libm's pow) and a correctly rounded
    sqrt round to different neighbours, with both roots; None when this
    libm rounds every tried one correctly."""
    for u, h in rng.uniform(0.2, 1.0, (20_000, 2)).tolist():
        ex = u - -0.5
        s = ex * ex + h * h
        if s**0.5 != math.sqrt(s):
            return (u, h), (s**0.5, math.sqrt(s))
    return None


def _pair_check_inputs(seed: int, cases: int = 240):
    """(graph, tol) cases for validate's pair checks: random and Delaunay
    edges plus random crossing ones, vertices planted on an edge's midpoint
    and 0, 0.5, 1 and 1.5 tol off it, coordinates tied exactly or at tol,
    coincident and underflowing endpoints, collinear overlapping segments,
    NaN, inf and huge coordinates, a distance whose root libm rounds the
    other way from sqrt next to tol, and the edge cases of the crossing
    sweep's pad (`_sweep_edge_cases`)."""
    rng = np.random.default_rng(seed)
    for t in range(cases):
        n = int(rng.integers(60, 91)) if t % 60 == 0 else int(rng.integers(2, 25))
        tol = float(rng.choice([0.0, 1e-9, 1e-3]))
        pts = rng.random((n, 2))
        edges = _delaunay_edges(pts).tolist() if n >= 3 and t % 2 else []
        if t % 5 == 0:
            pts = np.round(pts * 8.0) / 8.0  # exact coordinate ties and segment contacts
            tol = float(rng.choice([tol, 0.125]))  # 0.125: exact ties at tol
        extra = rng.integers(0, n, size=(int(rng.integers(0, n + 2)), 2))
        edges = edges + [(int(a), int(b)) for a, b in extra if a != b]
        for _ in range(int(rng.integers(0, 3)) if n >= 4 else 0):
            # a vertex on an edge's midpoint, or 0.5, 1 or 1.5 tol off it,
            # with an edge of its own that shares no endpoint
            a, b, k, r = rng.choice(n, size=4, replace=False)
            d = pts[b] - pts[a]
            normal = np.array([-d[1], d[0]]) / max(float(np.hypot(*d)), 1e-300)
            pts[k] = (pts[a] + pts[b]) / 2 + normal * tol * rng.choice([0.0, 0.5, 1.0, 1.5])
            edges += [(int(a), int(b)), (int(k), int(r))]
        for _ in range(int(rng.integers(0, 4)) if n >= 2 else 0):
            # a coordinate tied with another's exactly or at about tol
            i, j = rng.choice(n, size=2, replace=False)
            axis = int(rng.integers(2))
            if rng.random() < 0.7:
                pts[j, axis] = pts[i, axis] + tol * rng.choice([0.0, 0.5, 1.0, 1.5, -1.0])
            else:
                # b - a can round down to tol although b lies above a + tol as rounded
                pts[i, axis] = -tol * rng.random()
                pts[j, axis] = np.nextafter(pts[i, axis] + tol, np.inf)
        if t % 7 == 3 and n >= 2:
            # coincident or underflowing endpoints: squared length 0.0
            a, b = rng.choice(n, size=2, replace=False)
            pts[b] = pts[a] + rng.choice([0.0, 1e-170])
            edges.append((int(a), int(b)))
        if t % 11 == 4 and n >= 4:
            # collinear overlapping segments a-b and c-d on one line
            a, b, c, d = rng.choice(n, size=4, replace=False)
            base, step = rng.random(2), rng.normal(size=2)
            for v, s in zip((a, c, b, d), np.sort(rng.random(4))):
                pts[v] = base + s * step
            edges += [(int(a), int(b)), (int(c), int(d))]
        if t % 13 == 6:
            pts[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf, 1e200], size=2)
        yield PlaneGraph(pts.tolist(), edges), tol
    tie = _root_tie(rng)
    if tie is not None:
        # (u, h) is nearest to the end (-0.5, 0) of segment (-1, 0)-(-0.5, 0)
        (u, h), roots = tie
        g = PlaneGraph([(-1.0, 0.0), (-0.5, 0.0), (u, h), (u + 0.25, h + 1.0)], [(0, 1), (2, 3)])
        for tol in roots:
            yield g, tol
    yield from _sweep_edge_cases(rng)


def _planted(rng, pts: np.ndarray, tol: float, chords: int = 3) -> PlaneGraph:
    """All Delaunay edges of pts plus random chords, which cross them, and
    vertices moved 0, 0.5, 1 or 1.5 tol off an edge's midpoint or
    tol (1 + k 2^-52), k in -2..2, beyond its end along x or y, each with
    an edge of its own that shares no endpoint."""
    n = len(pts)
    edges = _delaunay_edges(pts).tolist()
    edges += rng.integers(0, n, size=(chords, 2)).tolist()
    for _ in range(6):
        a, b, k, r = rng.choice(n, size=4, replace=False).tolist()
        if rng.random() < 0.5:
            d = pts[b] - pts[a]
            normal = np.array([-d[1], d[0]]) / float(np.hypot(*d))
            pts[k] = (pts[a] + pts[b]) / 2 + normal * tol * rng.choice([0.0, 0.5, 1.0, 1.5])
        else:
            axis = int(rng.integers(2))
            end = a if pts[a, axis] > pts[b, axis] else b
            pts[k] = pts[end]
            pts[k, axis] += tol * (1 + int(rng.integers(-2, 3)) * 2.0**-52)
        edges += [(a, b), (k, r)]
    return PlaneGraph(pts, [(a, b) for a, b in edges if a != b])


def _sweep_edge_cases(rng):
    """(graph, tol) cases at the edges of the crossing sweep's pad, where
    a pair that the loop reports must still be a candidate."""
    u = 2.0**-53
    for scale in (1e-3, 1.0, 300.0):
        tol = 1e-9 * max(scale, 1.0)
        for k in range(-2, 3):
            gap = tol * (1 + k * 2.0**-52)
            for flip in (1, -1):  # along x, then along y
                # a vertex gap beyond the end (0, 0) of an edge
                pts = [(-scale, -0.37 * scale), (0.0, 0.0), (gap, 0.0), (gap + 0.5 * scale, scale)]
                yield PlaneGraph([q[::flip] for q in pts], [(0, 1), (2, 3)]), tol
                # a vertex gap beside an axis-parallel edge
                pts = [(0.0, 0.0), (0.0, 2 * scale), (-gap, scale), (-gap - scale, 1.3 * scale)]
                yield PlaneGraph([q[::flip] for q in pts], [(0, 1), (2, 3)]), tol
        # coordinates just under and just past the bound 33 u M^2 + 2^-1070 < tol
        bound = math.sqrt((tol - 2.0**-1070) / (33 * u))
        for factor in (1 - 1e-6, 1 + 1e-6):
            g = _planted(rng, (rng.random((12, 2)) * 2 - 1) * 0.9 * bound, tol)
            far = [(bound * factor, 0.0), (0.5 * bound, -0.95 * bound)]  # M = bound * factor
            yield PlaneGraph([*g.vertices, *far], [*g.edges, (g.n, g.n + 1)]), tol
    # no pad: every pair is decided, and a NaN drops none
    g = _planted(rng, rng.random((10, 2)), 1e-3)
    for tol in (0.0, -1.0, math.nan, math.inf, 1e-3):
        yield g, tol
    x = g.x.copy()
    x[3] = math.nan
    for tol in (1e-3, math.inf):
        yield PlaneGraph(np.column_stack([x, g.y]), g.edge_rows), tol
    # underflowing squares: tol = 1e-300 on coordinates near 1e-160
    pts = (1 + rng.random((10, 2))) * 1e-160
    yield _planted(rng, pts, 1e-300), 1e-300
    # long chords whose boxes all meet: many blocks when _TRIPLE_CELLS is 64
    left, right = rng.random((2, 14, 2))
    left[:, 0] *= 0.1
    right[:, 0] = 0.9 + 0.1 * right[:, 0]
    chords = [(i, 14 + j) for i, j in enumerate(rng.permutation(14).tolist())]
    yield PlaneGraph(np.concatenate([left, right]), chords), 1e-9


@pytest.mark.parametrize("cells", [plane_graph._TRIPLE_CELLS, 64])
def test_validate_edge_pairs_match_the_loop(cells, monkeypatch):
    monkeypatch.setattr(plane_graph, "_TRIPLE_CELLS", cells)
    found = 0
    for g, tol in _pair_check_inputs(cells, 240 if cells > 64 else 120):
        issues = validate(g, tol)
        want = crossing_messages(g, tol)
        assert [m for m in issues if m.startswith("crossing")] == want, (g.n, len(g.edges), tol)
        assert issues[len(issues) - len(want) :] == want
        found += len(want)
    assert found > 0


def _sweep_and_all_pairs(g: PlaneGraph, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The crossing sweep's rows and those of the blocked all-pairs kernel
    it replaced, on g's edges."""
    x, y, e = g.arrays
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.concatenate([np.empty((0, 4), np.intp), *all_pairs_touching(x, y, e, tol)])
        return plane_graph._touching_edge_pairs(x, y, e, tol), want


@pytest.mark.parametrize("n", [300, 1000])
def test_crossing_sweep_matches_all_pairs_on_planted_grids(n):
    rng = np.random.default_rng(n)
    g = _planted(rng, np.array(jittered_grid_points(n, n)), 1e-9, chords=10)
    got, want = _sweep_and_all_pairs(g, 1e-9)
    assert len(want) > 0
    assert got.tolist() == want.tolist()


def test_crossing_sweep_matches_all_pairs_on_edge_dense_graphs():
    found = 0
    for i in range(40):
        g = random_plane_graph(60, 1.0, 7_000_000 + i, margin=1e-5)
        for tol in (1e-9, 1e-2):
            got, want = _sweep_and_all_pairs(g, tol)
            assert got.tolist() == want.tolist(), (i, tol)
            found += len(want)
    assert found > 0


def test_validate_memory_stays_blocked_when_every_pair_is_decided():
    # coordinates near 1e8 put 33 u M^2 above tol: the pad is infinite, and
    # all ~1.1 million pairs of the ~1 500 edges are decided
    pts = np.array(jittered_grid_points(500, 5)) * 1e8
    g = PlaneGraph(pts, _delaunay_edges(pts))
    m = len(g.edge_rows)
    assert m > 1400
    tracemalloc.start()
    try:
        assert validate(g) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # m^2 index pairs alone would take ~18 MB. A block of candidate pairs
    # takes under 4 MB, and the collinearity check's one row of n^2
    # doubled areas about 6.5 MB.
    assert m * m * np.dtype(np.intp).itemsize > 16 * 2**20
    assert peak < 8 * 2**20, peak


def test_validate_shared_coordinates_match_the_loop():
    found = 0
    for g, tol in _pair_check_inputs(3):
        issues = validate(g, tol)
        want = shared_coordinate_messages(g, tol)
        bad = [i for i, v in enumerate(g.vertices) if not (math.isfinite(v.x) and math.isfinite(v.y))]
        head = len(bad)
        assert issues[:head] == [f"non-finite coordinate at vertex {i}" for i in bad]
        assert issues[head : head + len(want)] == want, (g.n, tol)
        assert not any(m.startswith("shared") for m in issues[head + len(want) :])
        found += len(want)
    assert found > 0


def test_validate_reports_huge_coordinates_instead_of_raising():
    # squares of these differences overflow; Python's ** 2 raised OverflowError
    g = PlaneGraph([(0, 0), (1e200, 1), (-5, 1e200), (-3, 2e200)], [(0, 1), (2, 3)])
    issues = validate(g)
    assert isinstance(issues, list)
    assert [m for m in issues if m.startswith("crossing")] == crossing_messages(g, TOLERANCE)


def test_validate_reports_the_rounded_crossing_of_far_collinear_segments():
    # the orientations of these disjoint collinear segments, 1.4e8 apart,
    # round to a crossing, so the loop reports them: with coordinates this
    # large for tol the pad must be infinite
    pts = [
        (5072713.387665059, 11999672.3325338),
        (11383565.154225148, 26928202.204151556),
        (152597108.64255902, 360973538.74858314),
        (310698415.52616346, 734967441.6096863),
    ]
    g = PlaneGraph(pts, [(0, 1), (2, 3)])
    assert validate(g) == crossing_messages(g, TOLERANCE) == ["crossing edges (0, 1) x (2, 3)"]


def _delaunay_edges_loop(pts: np.ndarray) -> list:
    """The generator's Delaunay edge list built one simplex at a time."""
    from scipy.spatial import Delaunay

    edges = set()
    for simplex in Delaunay(pts).simplices:
        for a, b in combinations(sorted(int(x) for x in simplex), 2):
            edges.add((a, b))
    return sorted(edges)


def test_delaunay_edges_match_the_set_loop():
    rng = np.random.default_rng(21)
    sizes = rng.integers(3, 120, size=50).tolist() + [46_400]  # n * n > 2**31
    for t, n in enumerate(sizes):
        pts = rng.random((n, 2))
        if t % 5 == 1:
            pts = np.round(pts * 4.0) / 4.0 + rng.random(pts.shape) * 1e-9  # near-cocircular grid
        assert list(map(tuple, _delaunay_edges(pts).tolist())) == _delaunay_edges_loop(pts), t


def test_indegree_star_with_ties():
    g = PlaneGraph(
        [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    # neighbors at height 0 tie with the center and count as below
    assert indegree_direct(g, 0, Direction(0.0, 1.0)) == 3


def test_indegree_isolated_vertex():
    g = PlaneGraph([(0, 0), (2, 3)], [])
    assert indegree_direct(g, 0, Direction(0.3, 0.7)) == 0


def test_indegree_four_edges_below():
    # four incident edges below the sweep line through v, one above
    g = PlaneGraph(
        [(0, 0), (1.0, -0.5), (-1.0, -0.3), (0.5, -1.0), (-0.5, -0.7), (0.3, 0.8)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
    )
    assert indegree_direct(g, 0, Direction(0.0, 1.0)) == 4


def test_indegree_orientation_pair_sums_to_degree():
    rng = np.random.default_rng(5)
    for seed in range(10):
        g = random_plane_graph(7, 1.0, seed)
        from conftest import tie_free_direction

        s = tie_free_direction(g, rng)
        for v in range(g.n):
            fwd = indegree_direct(g, v, s)
            back = indegree_direct(g, v, Direction(-s.dx, -s.dy))
            assert fwd + back == degree(g, v)


def test_indegree_index_error():
    g = PlaneGraph([(0, 0)], [])
    with pytest.raises(IndexError):
        indegree_direct(g, 3, Direction(1.0, 0.0))


def test_connected_components():
    assert connected_components(PlaneGraph([(0, 0), (1, 1), (2, 0), (3, 1)], [])) == 4
    path = PlaneGraph([(0, 0), (1, 1), (2, 0)], [(0, 1), (1, 2)])
    assert connected_components(path) == 1
    two = PlaneGraph([(0, 0), (1, 1), (2, 0), (3, 1)], [(0, 1), (2, 3)])
    assert connected_components(two) == 2


def test_connected_components_matches_bfs():
    for seed in range(15):
        g = random_plane_graph(2 + seed % 10, 0.4, seed)
        assert connected_components(g) == components_by_bfs(g)


def test_graph_json_roundtrip():
    g = PlaneGraph([(0.25, 0.0), (1.0, 1.0)], [(0, 1)])
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    assert graph_to_json(back) == text
    assert text.endswith("\n")


def test_graph_json_shortest_roundtrip_numbers():
    g = PlaneGraph([(0.1, 0.2), (1 / 3, 2 / 3)], [])
    assert "0.1" in graph_to_json(g)
    assert repr(1 / 3) in graph_to_json(g)


def test_graph_json_rejects_malformed():
    for text in (
        '{"vertices": [[0, 1]]}',
        '{"vertices": [1, 2], "edges": []}',
        '{"vertices": [[0, null]], "edges": []}',
        '{"vertices": [[0, 1, 2]], "edges": []}',
        '{"vertices": 5, "edges": []}',
        '{"vertices": [[0, 1], [1, 0]], "edges": [[0, [1]]]}',
        '{"vertices": [[0, 1], [1, 0]], "edges": [[0, 1e400]]}',
        '{"vertices": [[0, 1], [1, 0]], "edges": [[0, 1.5]]}',
    ):
        with pytest.raises(ValueError):
            graph_from_json(text)


def test_arrays_refuse_edge_index_out_of_range():
    V = [(0.1, 0.2), (0.5, 0.9), (0.8, 0.4)]
    for edges, named in (
        ([(-1, 1)], "(-1, 1)"),
        ([(0, 5)], "(0, 5)"),
        ([(0, 1), (2, 3), (1, 4)], "(1, 4)"),  # the first in sorted order
        ([(0, 10**30)], f"(0, {10**30})"),  # beyond intp
    ):
        g = PlaneGraph(V, edges)
        with pytest.raises(ValueError, match=re.escape(f"edge {named} out of range")):
            g.arrays
        # the oracle kernel reads the arrays, so no index wraps into a row
        with pytest.raises(ValueError, match="out of range"):
            DiagramOracle(g).query_many([Direction(1.0, 0.3), Direction(0.2, 1.0)])
        # validate still reports each such edge as data
        assert f"edge {named} out of range" in validate(g)


def test_arrays_refuse_self_loops():
    V = [(0.1, 0.2), (0.5, 0.9), (0.8, 0.4)]
    for edges, message in (
        ([(1, 1)], "self-loop edge (1, 1)"),
        ([(0, 1), (2, 2), (0, 0)], "self-loop edge (0, 0)"),  # the first in sorted order
        ([(1, 1), (0, 5)], "edge (0, 5) out of range"),  # a range error comes first
    ):
        g = PlaneGraph(V, edges)
        with pytest.raises(ValueError, match=re.escape(message)):
            g.arrays
        # the oracle kernel reads the arrays, so no loop is dropped silently
        with pytest.raises(ValueError, match=re.escape(message)):
            DiagramOracle(g).query_many([Direction(1.0, 0.3)])
    # validate still reports the loop as data
    assert "self-loop edge (1, 1)" in validate(PlaneGraph(V, [(1, 1)]))


def test_arrays_raise_invalid_graph_which_is_a_phrecon_error_and_a_value_error():
    assert issubclass(InvalidGraph, PhreconError) and issubclass(InvalidGraph, ValueError)
    V = [(0.1, 0.2), (0.5, 0.9), (0.8, 0.4)]
    for edges, message in (([(0, 5)], "edge (0, 5) out of range"), ([(2, 2)], "self-loop edge (2, 2)")):
        with pytest.raises(InvalidGraph) as info:
            PlaneGraph(V, edges).arrays
        assert str(info.value) == message


def test_arrays_cached_read_only_and_outside_equality():
    g = PlaneGraph([(0.5, 0.1), (0.2, 0.9), (0.8, 0.7)], [(2, 0), (1, 0)])
    twin = PlaneGraph(g.vertices, g.edges)
    x, y, e = g.arrays
    assert g.arrays is g.arrays
    assert x.tolist() == [0.5, 0.2, 0.8] and y.tolist() == [0.1, 0.9, 0.7]
    assert e.tolist() == [[0, 1], [0, 2]]
    for a in (x, y, e):
        with pytest.raises(ValueError):
            a[0] = 0
    assert g == twin and hash(g) == hash(twin)
    assert graph_to_json(g) == graph_to_json(twin)
    assert PlaneGraph([(0.3, 0.4)], []).arrays[2].shape == (0, 2)


def test_arrays_refuse_non_finite_coordinates_and_non_integer_edges():
    V = [(0.1, 0.2), (0.5, 0.9), (0.8, 0.4)]
    for vertices, edges, message in (
        ([(0.1, 0.2), (math.nan, 0.9), (0.8, -math.inf)], [(0, 1)], "non-finite coordinate at vertex 1"),
        ([(0.1, 0.2), (0.5, 0.9), (0.8, math.inf)], [(0, 5)], "non-finite coordinate at vertex 2"),
        (V, [(0.0, 1.5)], "non-integer edge (0.0, 1.5)"),
        (V, [(1, 2), (0.5, 0.5), (0, 7)], "edge (0, 7) out of range"),  # a range error comes first
        (V, [(0, 0), (0.5, 2)], "non-integer edge (0.5, 2)"),  # then a fraction, then a loop
        (V, [(math.nan, 1)], "edge (nan, 1) out of range"),  # and no RuntimeWarning
        (V, [(0, math.nan)], "edge (0, nan) out of range"),  # a NaN is no self-loop
    ):
        g = PlaneGraph(vertices, edges)
        with pytest.raises(InvalidGraph) as info:
            g.arrays
        assert str(info.value) == message
        # the oracle kernel reads the arrays, so no coordinate or index is read wrong
        with pytest.raises(InvalidGraph, match=re.escape(message)):
            DiagramOracle(g).query_many([Direction(1.0, 0.3)])
    # validate reports every fault as data, each edge in sorted order
    g = PlaneGraph(V, [(2, 2), (1.5, 0), (1.0, 2.0), (0, 7)])
    assert validate(g) == ["non-integer edge (0, 1.5)", "edge (0, 7) out of range", "self-loop edge (2, 2)"]
    assert validate(PlaneGraph(V, [(0, math.nan)])) == ["edge (0, nan) out of range"]
    assert validate(PlaneGraph(V, [(math.nan, 1)])) == ["edge (nan, 1) out of range"]
    # an integer held as a float is an index
    g = PlaneGraph(V, [(1.0, 2.0)])
    assert validate(g) == [] and g.arrays[2].tolist() == [[1, 2]]
    assert graph_from_json('{"vertices": [[0, 1], [1, 0]], "edges": [[0, 1.0]]}').edges == {(0, 1)}


def test_reconstruction_builds_no_tuple_view():
    # the oracle reads the arrays the graph was built from, and nothing else
    for g in (random_plane_graph(9, 1.0, 4), PlaneGraph(*delaunay_lists(40, 3))):
        o = DiagramOracle(g)
        o.query_many([Direction(1.0, 0.0), Direction(0.0, 1.0)])
        assert "vertices" not in vars(g) and "edges" not in vars(g)
        reconstruct_edges_detail(o, reconstruct_vertices(o))
        assert "vertices" not in vars(g) and "edges" not in vars(g)


def delaunay_lists(n: int, seed: int) -> tuple[list, list]:
    """n random points and their Delaunay edges, as lists of lists."""
    pts = np.random.default_rng(seed).random((n, 2))
    return pts.tolist(), _delaunay_edges(pts).tolist()


@pytest.mark.parametrize(
    "edges",
    [
        [(2, 0), (1, 0), (0, 1), (0, 2), (2, 1)],  # reversed and repeated
        [],
        [(0, 10**30), (2, 1), (1, 2)],  # beyond int64: kept as given
        [(0.0, 1.5), (2, 1), (1.0, 2.0)],  # not integers: kept as given
        [(1, 1), (-3, 0)],
    ],
)
def test_views_hash_repr_and_json_are_those_of_the_tuple_form(edges):
    V = [(0.5, 0.1), (0.2, -0.0), (0.8, 0.7)]
    want = tuple_form(V, edges)
    # numpy reads a float index as a numpy float; as objects they stay as given
    kind = object if any(isinstance(i, float) for e in edges for i in e) else None
    for form in (list, tuple, iter, lambda rows: np.array(rows, dtype=kind)):
        g = PlaneGraph(form(V), form(edges))
        assert (g.vertices, g.edges, hash(g), repr(g), graph_to_json(g)) == want
        assert sorted(map(repr, g.edges)) == sorted(map(repr, want[1]))  # the types too
        assert g == PlaneGraph(want[0], want[1]) and g.n == 3
    for vertices, no_edges in (([], []), (np.empty((0, 2)), np.empty((0, 2), np.intp))):
        g = PlaneGraph(vertices, no_edges)
        assert (g.vertices, g.edges, hash(g), repr(g), graph_to_json(g)) == tuple_form([], [])
    with pytest.raises(ValueError):
        PlaneGraph([(0.1, 0.2, 0.3)], [])
    with pytest.raises(ValueError):
        PlaneGraph(V, [(0, 1, 2)])
