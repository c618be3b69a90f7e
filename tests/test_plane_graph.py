from itertools import combinations

import numpy as np
import pytest

from phrecon import (
    Direction,
    GenerationFailed,
    PlaneGraph,
    connected_components,
    graph_from_json,
    graph_to_json,
    indegree_direct,
    random_plane_graph,
    validate,
)

from phrecon.plane_graph import _general_position_ok

from conftest import components_by_bfs


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
            assert fwd + back == g.degree(v)


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
    with pytest.raises((ValueError, KeyError, TypeError)):
        graph_from_json('{"vertices": [[0, 1]]}')


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
