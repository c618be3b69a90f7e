import math
from itertools import combinations

import numpy as np
import pytest

from phrecon import (
    BowTie,
    DegenerateDirection,
    DegeneratePoints,
    DiagramOracle,
    Direction,
    EnumerationOverflow,
    PlaneGraph,
    Point2,
    RetryExhausted,
    enumerate_compatible_graphs,
    global_bowtie_width,
    height,
    indegree_direct,
    indegree_from_diagrams,
    line_angle_mod_pi,
    lower_star_diagrams,
    pair_directions,
    random_plane_graph,
    reconstruct_edges_detail,
    reconstruct_vertices,
    rotate,
)
from phrecon import edge_recon
from phrecon.edge_recon import probe_edge

from conftest import match_to_hidden, remap_edges, tie_free_direction


def test_bowtie_containment():
    bt = BowTie(
        Point2(0.0, 0.0),
        rotate(Direction(0.0, 1.0), 0.2),
        rotate(Direction(0.0, 1.0), -0.2),
        0.2,
    )
    assert bt.contains(Point2(1.0, 0.0))  # on the probed axis
    assert bt.contains(Point2(-1.0, 0.05))
    assert not bt.contains(Point2(0.0, 1.0))  # above both lines
    assert not bt.contains(Point2(0.0, -1.0))  # below both lines
    assert not bt.contains(Point2(0.0, 0.0))  # the center itself


def test_bowtie_width_invariant():
    with pytest.raises(ValueError):
        BowTie(Point2(0, 0), Direction(0.0, 1.0), Direction(1.0, 0.0), 0.1)


def test_global_width_right_triangle():
    # per-vertex minimum angles are {pi/2, pi/4, pi/4}
    V = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)]
    assert global_bowtie_width(V) == pytest.approx(math.pi / 8.0)


def test_global_width_two_vertices():
    assert global_bowtie_width([Point2(0, 0), Point2(1, 1)]) == math.pi / 8.0


def test_global_width_appendix(appendix_graph):
    # per-vertex minima by increasing x: ~0.237, 0.219, 0.399, 0.180 rad
    V = list(appendix_graph.vertices)
    minima = []
    for v in V:
        angles = sorted(line_angle_mod_pi(v, u) for u in V if u != v)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + math.pi - angles[-1])
        minima.append(min(gaps))
    assert minima == pytest.approx([0.237, 0.219, 0.399, 0.180], abs=5e-4)
    width = global_bowtie_width(V)
    assert width == pytest.approx(0.5 * min(minima))
    assert width < 0.180


def test_global_width_coincident_points():
    with pytest.raises(DegeneratePoints):
        global_bowtie_width([Point2(0, 0), Point2(0, 0), Point2(1, 1)])


def test_pair_directions_appendix_base_vector():
    # perpendicular of v' - v is +-(-0.8, 0.6); both probes are theta away
    v, v2 = Point2(0.25, 0.0), Point2(1.0, 1.0)
    theta = 0.09
    s1, s2 = pair_directions(v, v2, theta, [v, v2])
    base1 = rotate(s1, -theta)
    base2 = rotate(s2, theta)
    for base in (base1, base2):
        assert base.dx == pytest.approx(-0.8, abs=1e-12)
        assert base.dy == pytest.approx(0.6, abs=1e-12)


def test_pair_directions_axis_case():
    v, v2 = Point2(0.0, 0.0), Point2(1.0, 0.0)
    theta = math.pi / 8.0
    s1, s2 = pair_directions(v, v2, theta, [v, v2])
    assert s1.dx == pytest.approx(-math.sin(theta), abs=1e-12)
    assert s1.dy == pytest.approx(math.cos(theta), abs=1e-12)
    assert s2.dx == pytest.approx(math.sin(theta), abs=1e-12)
    assert s2.dy == pytest.approx(math.cos(theta), abs=1e-12)


def test_pair_directions_bowtie_isolates_target():
    for seed in range(10):
        g = random_plane_graph(6, 0.5, seed + 100)
        V = list(g.vertices)
        theta = global_bowtie_width(V)
        for i, j in combinations(range(len(V)), 2):
            s1, s2 = pair_directions(V[i], V[j], theta, V)
            bt = BowTie(V[i], s1, s2, _halfangle(s1, s2))
            inside = [u for u in V if u != V[i] and bt.contains(u)]
            assert inside == [V[j]]


def _halfangle(s1, s2):
    dot = s1.dx * s2.dx + s1.dy * s2.dy
    cross = s1.dx * s2.dy - s1.dy * s2.dx
    return 0.5 * math.atan2(abs(cross), dot)


def test_pair_directions_shrinks_on_height_tie():
    # u2 = u1 + t * (line direction of s1): equal heights along the first
    # probe direction force one shrink
    theta = math.pi / 8.0
    s1 = rotate(Direction(0.0, 1.0), theta)
    u1 = Point2(-1.0, 2.0)
    u2 = Point2(u1.x - math.cos(theta), u1.y - math.sin(theta))
    V = [Point2(0.0, 0.0), Point2(1.0, 0.0), u1, u2]
    got1, got2 = pair_directions(V[0], V[1], theta, V)
    want1 = rotate(Direction(0.0, 1.0), 0.9 * theta)
    assert got1.dx == pytest.approx(want1.dx, abs=1e-12)
    assert got1.dy == pytest.approx(want1.dy, abs=1e-12)


class RecordingOracle:
    """Oracle that keeps every direction exactly as the caller passed it."""

    def __init__(self, graph):
        self._inner = DiagramOracle(graph)
        self.asked = []

    @property
    def query_count(self):
        return self._inner.query_count

    def query(self, s):
        self.asked.append(s)
        return self._inner.query(s)

    def query_many(self, S):
        self.asked.extend(S)
        return self._inner.query_many(S)


def test_edge_phase_directions_are_certified_per_pair():
    for n, seed, margin in ((2, 1, 1e-3), (7, 2, 1e-3), (12, 3, 1e-3), (30, 4, 1e-6)):
        g = random_plane_graph(n, 0.7, seed, margin=margin)
        V = list(g.vertices)
        o = RecordingOracle(g)
        detail = reconstruct_edges_detail(o, V)
        assert detail.edges == g.edges
        assert detail.queries == n * (n - 1) and detail.retries == 0
        theta = global_bowtie_width(V)
        pairs = list(combinations(range(n), 2))
        for (i, j), s1, s2 in zip(pairs, o.asked[::2], o.asked[1::2]):
            bt = BowTie(V[i], s1, s2, _halfangle(s1, s2))
            assert [u for u in V if u != V[i] and bt.contains(u)] == [V[j]]
            for s in (s1, s2):
                hs = sorted(height(u, s) for u in V)
                assert all(b - a > 1e-9 for a, b in zip(hs, hs[1:]))
            # one certifier: the one-pair call picks the very same directions
            assert (s1, s2) == pair_directions(V[i], V[j], theta, V)
            # and they are bit for bit the rotated perpendicular of v' - v
            base = Direction(V[j].x - V[i].x, V[j].y - V[i].y).normalized().perp()
            assert (s1, s2) == (rotate(base, theta), rotate(base, -theta))


def test_edge_phase_shrinks_on_height_tie(monkeypatch):
    # the geometry of test_pair_directions_shrinks_on_height_tie, run through
    # the edge phase with its bow-tie width pinned to theta
    theta = math.pi / 8.0
    u1 = Point2(-1.0, 2.0)
    u2 = Point2(u1.x - math.cos(theta), u1.y - math.sin(theta))
    V = [Point2(0.0, 0.0), Point2(1.0, 0.0), u1, u2]
    monkeypatch.setattr(edge_recon, "global_bowtie_width", lambda V, tol: theta)
    o = RecordingOracle(PlaneGraph(V, [(0, 1), (1, 2)]))
    detail = reconstruct_edges_detail(o, V)
    want1 = rotate(Direction(0.0, 1.0), 0.9 * theta)
    assert o.asked[0].dx == pytest.approx(want1.dx, abs=1e-12)
    assert o.asked[0].dy == pytest.approx(want1.dy, abs=1e-12)
    assert detail.edges == {(0, 1), (1, 2)}


class OneDegenerateOracle(RecordingOracle):
    """Reports the first direction of the batch's second pair as degenerate,
    once, as if its heights had tied."""

    def __init__(self, graph):
        super().__init__(graph)
        self.patched = None

    def query_many(self, S):
        out = super().query_many(S)
        if self.patched is None and len(S) >= 4:
            self.patched = S[2]
            out[2] = DegenerateDirection(0, 1, Direction(*S[2]).normalized())
        return out


def test_degenerate_batch_entry_is_decided_by_the_retry_loop():
    g = random_plane_graph(8, 0.7, 3)
    V = list(g.vertices)
    o = OneDegenerateOracle(g)
    detail = reconstruct_edges_detail(o, V)
    assert (0, 2) in g.edges and detail.edges == g.edges
    # the batch billed both directions of the failed attempt
    assert detail.retries == 2 and detail.queries == 8 * 7 + 2 == o.query_count
    # pair (0, 2) is retried once its row is answered, with a narrower bow
    # tie; every other query is as without the fault
    clean = RecordingOracle(g)
    reconstruct_edges_detail(clean, V)
    row = 2 * 7
    retry = list(pair_directions(V[0], V[2], 0.9 * global_bowtie_width(V), V))
    assert o.patched == clean.asked[2]
    assert o.asked == clean.asked[:row] + retry + clean.asked[row:]


def test_uncertifiable_pair_raises_before_its_row_is_queried(monkeypatch):
    # with the bow-tie width pinned, (0, 1) certifies but (0, 2) cannot:
    # V[3] lies on the line through V[0] and V[2]
    V = [Point2(0.0, 0.0), Point2(1.0, 0.3), Point2(1.0, 1.0), Point2(2.0, 2.0)]
    monkeypatch.setattr(edge_recon, "global_bowtie_width", lambda V, tol: math.pi / 16.0)
    pair_directions(V[0], V[1], math.pi / 16.0, V)
    o = DiagramOracle(PlaneGraph(V, [(0, 1)]))
    with pytest.raises(RetryExhausted):
        reconstruct_edges_detail(o, V)
    assert o.query_count == 0


def test_collinear_vertices_raise_retry_exhausted():
    V = [Point2(0.0, 0.0), Point2(1.0, 0.5), Point2(2.0, 1.0)]
    o = DiagramOracle(PlaneGraph(V, [(0, 1)]))
    with pytest.raises(RetryExhausted):
        reconstruct_edges_detail(o, V)
    assert o.query_count == 0  # the first pair fails before it is queried
    with pytest.raises(RetryExhausted):
        pair_directions(V[0], V[2], global_bowtie_width(V), V)


def test_indegree_from_diagrams_appendix(appendix_graph):
    v = Point2(0.25, 0.0)
    v_idx = list(appendix_graph.vertices).index(v)
    cases = [
        (Direction(-0.956, 0.293), 2),
        (Direction(-0.433, 0.902), 1),
        (Direction(0.968, 0.248), 1),
        (Direction(0.472, 0.882), 1),
    ]
    for s, expected in cases:
        d = lower_star_diagrams(appendix_graph, s)
        assert indegree_from_diagrams(d, v) == expected
        assert indegree_direct(appendix_graph, v_idx, s) == expected


def test_indegree_from_diagrams_edgeless():
    g = PlaneGraph([(0.1, 0.2), (0.6, 0.9), (0.9, 0.4)], [])
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    for v in g.vertices:
        assert indegree_from_diagrams(d, v) == 0


def test_indegree_diagrams_equals_direct_sample():
    rng = np.random.default_rng(3)
    for seed in range(20):
        g = random_plane_graph(2 + seed % 8, 0.8, seed)
        s = tie_free_direction(g, rng)
        d = lower_star_diagrams(g, s)
        for v_idx, v in enumerate(g.vertices):
            assert indegree_from_diagrams(d, v) == indegree_direct(g, v_idx, s)


def test_edge_exists_appendix_pairs(appendix_graph):
    o = DiagramOracle(appendix_graph)
    V = list(appendix_graph.vertices)
    theta = global_bowtie_width(V)
    assert probe_edge(o, Point2(0.25, 0.0), Point2(1.0, 1.0), theta, V).exists
    assert not probe_edge(o, Point2(0.25, 0.0), Point2(-1.0, 2.0), theta, V).exists
    assert o.query_count == 4  # two probes, two diagrams each


def test_edge_exists_edgeless_graph():
    g = random_plane_graph(5, 0.0, 12)
    o = DiagramOracle(g)
    V = list(g.vertices)
    theta = global_bowtie_width(V)
    for i, j in combinations(range(5), 2):
        assert not probe_edge(o, V[i], V[j], theta, V).exists


def test_reconstruct_edges_single_vertex():
    o = DiagramOracle(PlaneGraph([(0.3, 0.4)], []))
    assert reconstruct_edges_detail(o, [Point2(0.3, 0.4)]).edges == frozenset()
    assert o.query_count == 0


def test_reconstruct_edges_segment():
    g = PlaneGraph([(0.1, 0.8), (0.7, 0.2)], [(0, 1)])
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, V)
    assert detail.edges == frozenset({(0, 1)})
    assert detail.queries == 2
    assert detail.retries == 0


def test_reconstruct_edges_delaunay_roundtrip():
    g = random_plane_graph(8, 1.0, 42)
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, V)
    assert detail.queries <= 8 * 7
    assert detail.retries == 0
    mapping = match_to_hidden(V, g)
    assert remap_edges(detail.edges, mapping) == set(g.edges)


def test_indegree_difference_decides_every_pair():
    for seed in range(8):
        g = random_plane_graph(6, 0.6, seed + 30)
        o = DiagramOracle(g)
        V = list(g.vertices)  # exact vertices: decision rule checked on its own
        theta = global_bowtie_width(V)
        for i, j in combinations(range(len(V)), 2):
            want = (i, j) in g.edges
            assert probe_edge(o, V[i], V[j], theta, V).exists == want


def test_enumerate_single_vertex():
    g = PlaneGraph([(0.2, 0.5)], [])
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    out = enumerate_compatible_graphs([Point2(0.2, 0.5)], Direction(1.0, 0.0), d)
    assert out == {frozenset()}


def test_enumerate_segment():
    g = PlaneGraph([(0.0, 0.0), (1.0, 0.5)], [(0, 1)])
    s = Direction(1.0, 0.0)
    d = lower_star_diagrams(g, s)
    out = enumerate_compatible_graphs(list(g.vertices), s, d)
    # the edgeless row contradicts the dim-0 death at height 1
    assert out == {frozenset({(0, 1)})}


def test_enumerate_soundness_random():
    rng = np.random.default_rng(8)
    for seed in range(10):
        n = 2 + seed % 4
        g = random_plane_graph(n, 0.7, seed + 60)
        s = tie_free_direction(g, rng)
        d = lower_star_diagrams(g, s)
        out = enumerate_compatible_graphs(list(g.vertices), s, d)
        assert frozenset(g.edges) in out


def test_enumerate_overflow_guard():
    V = [Point2(i / 20.0, ((i * 7) % 13) / 13.0) for i in range(13)]
    with pytest.raises(EnumerationOverflow):
        enumerate_compatible_graphs(V, Direction(1.0, 0.0), None)
