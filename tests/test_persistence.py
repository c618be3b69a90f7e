import math
import sys
import threading

import numpy as np
import pytest

from phrecon import (
    DegenerateDirection,
    Diagram,
    DiagramOracle,
    Direction,
    PersistencePair,
    PlaneGraph,
    Point2,
    connected_components,
    diagram_from_json,
    diagram_to_json,
    height,
    lower_star_diagrams,
    random_plane_graph,
    reconstruct_vertices,
)
from phrecon.edge_recon import global_bowtie_width, probe_edge
from phrecon.persistence import lower_star_many

from conftest import match_to_hidden, tie_free_direction
from sweep_reference import reference_lower_star_diagrams

INF = math.inf


def pairs(diagram_part):
    return sorted((p.birth, p.death) for p in diagram_part)


def test_single_vertex():
    g = PlaneGraph([(0.25, 0.0)], [])
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    assert pairs(d.dim0) == [(0.25, INF)]
    assert d.dim1 == ()


def test_segment_keeps_diagonal_pair():
    g = PlaneGraph([(0, 0), (1, 0)], [(0, 1)])
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    # the vertex born at 1 dies immediately to the edge arriving at 1
    assert pairs(d.dim0) == [(0.0, INF), (1.0, 1.0)]
    assert d.dim1 == ()


def test_triangle_cycle():
    g = PlaneGraph([(0, 0), (1, 0.3), (0.4, 1)], [(0, 1), (0, 2), (1, 2)])
    d = lower_star_diagrams(g, Direction(0.0, 1.0))
    assert pairs(d.dim0) == [(0.0, INF), (0.3, 0.3), (1.0, 1.0)]
    assert pairs(d.dim1) == [(1.0, INF)]


def test_degenerate_direction_reports_pair():
    g = PlaneGraph([(0, 0), (0, 1)], [])  # shared x: tied along (1, 0)
    with pytest.raises(DegenerateDirection) as exc:
        lower_star_diagrams(g, Direction(1.0, 0.0))
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_direction_scale_invariance():
    g = random_plane_graph(6, 1.0, 3)
    a = lower_star_diagrams(g, Direction(1.0, 0.0))
    b = lower_star_diagrams(g, Direction(2.0, 0.0))
    assert a == b


def test_vertex_birth_bijection_and_count_identities():
    rng = np.random.default_rng(11)
    for seed in range(25):
        n = 1 + seed % 11
        g = random_plane_graph(n, (seed % 4) / 3.0, seed)
        s = tie_free_direction(g, rng)
        d = lower_star_diagrams(g, s)
        c = connected_components(g)
        births = sorted(p.birth for p in d.dim0)
        heights = sorted(height(v, s) for v in g.vertices)
        assert births == pytest.approx(heights, abs=1e-12)
        finite = [p for p in d.dim0 if not p.is_infinite]
        assert len(d.dim0) == n
        assert d.n_components == c
        assert len(finite) == n - c
        assert len(d.dim1) == len(g.edges) - n + c
        assert len(finite) + len(d.dim1) == len(g.edges)
        assert all(p.death >= p.birth for p in finite)
        assert all(math.isinf(p.death) for p in d.dim1)


def test_elder_rule_component_minima_survive():
    # each component's oldest birth (its minimum height) is the one that
    # never dies
    rng = np.random.default_rng(23)
    for seed in range(10):
        g = random_plane_graph(8, 0.6, seed)
        s = tie_free_direction(g, rng)
        d = lower_star_diagrams(g, s)
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in g.edges:
            parent[find(a)] = find(b)
        minima = {}
        for v in range(g.n):
            root = find(v)
            h = height(g.vertices[v], s)
            minima[root] = min(minima.get(root, math.inf), h)
        immortal_births = sorted(p.birth for p in d.dim0 if p.is_infinite)
        assert immortal_births == pytest.approx(sorted(minima.values()), abs=1e-12)


def test_oracle_counts_every_query():
    g = PlaneGraph([(0.25, 0.0)], [])
    o = DiagramOracle(g)
    assert o.query_count == 0
    o.query(Direction(1.0, 0.0))
    assert o.query_count == 1
    o.query(Direction(1.0, 0.0))
    assert o.query_count == 2  # identical directions are not cached
    assert len(o.query_log) == 2


def test_oracle_normalizes_direction():
    g = random_plane_graph(5, 0.5, 9)
    o = DiagramOracle(g)
    a = o.query(Direction(2.0, 0.0))
    b = o.query(Direction(1.0, 0.0))
    assert a == b
    assert o.query_log[0] == Direction(1.0, 0.0)


def test_oracle_count_and_log_stay_consistent_under_threads():
    g = random_plane_graph(6, 0.5, 2)
    o = DiagramOracle(g)

    def worker():
        for _ in range(5):
            o.query(Direction(1.0, 0.0))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert o.query_count == len(o.query_log) == 40


def _entry(f, g, s, tol=1e-9):
    try:
        return f(g, s, tol)
    except DegenerateDirection as err:
        return err


def _same_entry(got, want):
    """Exactly equal entries: diagrams equal as pairs and in their raw
    death and cycle lists; degenerate entries name the same pair and
    direction."""
    if isinstance(want, DegenerateDirection):
        return isinstance(got, DegenerateDirection) and vars(got) == vars(want)
    return got == want and got.direction == want.direction and got._raw() == want._raw()


def _tied_direction(g, a, b):
    # perpendicular to V[b] - V[a]: the two heights (nearly) coincide
    va, vb = g.vertices[a], g.vertices[b]
    return Direction(va.y - vb.y, vb.x - va.x)


def test_lower_star_many_equals_single_calls_and_reference():
    rng = np.random.default_rng(41)
    for n in range(41):
        for density in (0.0, 0.2, 0.5, 1.0):
            if n == 0:
                g = PlaneGraph([], [])
            else:
                g = random_plane_graph(n, density, 100 * n + int(10 * density), margin=1e-6)
            S = [tie_free_direction(g, rng) for _ in range(3)]
            if n >= 3:
                S[1:1] = [_tied_direction(g, 0, n - 1), _tied_direction(g, 1, 2)]
            S += [S[0], Direction(3.0 * S[-1].dx, 3.0 * S[-1].dy)]  # repeats, one rescaled
            batch = lower_star_many(g, S)
            assert len(batch) == len(S)
            for s, got in zip(S, batch):
                case = (n, density, s)
                assert _same_entry(got, _entry(lower_star_diagrams, g, s)), case
                assert _same_entry(got, _entry(reference_lower_star_diagrams, g, s)), case
            if n >= 3:
                assert isinstance(batch[1], DegenerateDirection)


def test_lower_star_many_empty_batch():
    g = random_plane_graph(5, 1.0, 2)
    assert lower_star_many(g, []) == []
    assert lower_star_many(PlaneGraph([], []), []) == []
    (d,) = lower_star_many(PlaneGraph([], []), [Direction(1.0, 0.0)])
    assert d.dim0 == () and d.dim1 == () and d.births0().shape == (0,)


def test_lower_star_many_across_basins():
    # Heights along (0, 1) are the y values. A, B and C are local minima.
    # p joins B's basin and meets C's at 0.3 (C dies); T joins A's basin
    # first, then meets B's (B dies at 1.0), C's and p's (both already
    # merged into A's: cycles) and q's (inside A's basin: a cycle). The
    # three edges into T from other basins share their top height, so the
    # lower-endpoint order decides which merges and which closes a cycle.
    A, B, C, p, q, T = range(6)
    g = PlaneGraph(
        [(0.0, 0.0), (1.1, 0.1), (2.0, 0.2), (1.5, 0.3), (0.5, 0.5), (0.9, 1.0)],
        [(A, T), (C, T), (B, T), (p, T), (q, T), (B, p), (C, p), (A, q)],
    )
    d = lower_star_diagrams(g, Direction(0.0, 1.0))
    assert pairs(d.dim0) == [(0.0, INF), (0.1, 1.0), (0.2, 0.3), (0.3, 0.3), (0.5, 0.5), (1.0, 1.0)]
    assert pairs(d.dim1) == [(1.0, INF)] * 3
    # several multi-basin rows in one batch, tied rows between them
    rng = np.random.default_rng(3)
    S = [Direction(0.0, 1.0), _tied_direction(g, A, C)]
    S += [Direction(math.sin(a), math.cos(a)) for a in rng.uniform(-0.4, 0.4, size=6)]
    S += [Direction(0.0, 1.0), _tied_direction(g, B, q), Direction(1.0, 0.0)]
    for s, got in zip(S, lower_star_many(g, S)):
        assert _same_entry(got, _entry(lower_star_diagrams, g, s))
        assert _same_entry(got, _entry(reference_lower_star_diagrams, g, s))


def test_query_many_matches_successive_queries():
    g = random_plane_graph(9, 0.8, 6)
    S = [
        Direction(2.0, 0.0),
        _tied_direction(g, 2, 5),
        Direction(0.3, -0.7),
        Direction(2.0, 0.0),
        Direction(-0.3, 0.7),
    ]
    batched, single = DiagramOracle(g), DiagramOracle(g)
    got = batched.query_many(S)
    want = [_entry(lambda g, s, tol: single.query(s), g, s) for s in S]
    assert batched.query_count == single.query_count == len(S)
    assert batched.query_log == single.query_log
    assert all(_same_entry(a, b) for a, b in zip(got, want))
    err = got[1]
    assert isinstance(err, DegenerateDirection) and {err.i, err.j} == {2, 5}
    assert batched.query_many([]) == [] and batched.query_count == len(S)


def test_oracle_count_and_log_stay_consistent_under_threads_with_query_many():
    g = random_plane_graph(6, 0.5, 2)
    o = DiagramOracle(g)
    batches = [[Direction(1.0, 0.1 * t + 0.01 * k) for k in range(7)] for t in range(8)]

    def worker(batch):
        for _ in range(5):
            o.query_many(batch)
            o.query(batch[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(b,)) for b in batches]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert o.query_count == len(o.query_log) == 8 * 5 * 8
    # each batch sits in the log as one run
    log = o.query_log
    units = [[Direction(*s).normalized() for s in b] for b in batches]
    starts = [k for k in range(len(log)) if any(log[k : k + 7] == tuple(u) for u in units)]
    assert len(starts) == 8 * 5


def test_reconstruction_uses_only_the_oracle_interface():
    # a wrapper exposing nothing but query/query_many/query_count/query_log is enough
    # for the whole reconstruction path
    from phrecon import reconstruct_edges_detail, reconstruct_vertices

    class InterfaceOnly:
        def __init__(self, inner):
            self._inner = inner

        @property
        def query_count(self):
            return self._inner.query_count

        @property
        def query_log(self):
            return self._inner.query_log

        def query(self, s):
            return self._inner.query(s)

        def query_many(self, S):
            return self._inner.query_many(S)

    g = random_plane_graph(6, 0.8, 14)
    o = InterfaceOnly(DiagramOracle(g))
    vs = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, vs)
    assert len(vs) == 6
    assert detail.queries <= 30


def test_tolerance_env_override():
    import os
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", "import phrecon; print(phrecon.TOLERANCE)"],
        env={**os.environ, "PHRECON_TOLERANCE": "1e-3"},
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "0.001"


def test_diagram_json_roundtrip():
    g = random_plane_graph(7, 1.0, 4)
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    text = diagram_to_json(d)
    assert "null" in text  # infinite deaths encoded as null
    back = diagram_from_json(text)
    assert back == d
    # canonical ordering: serialization is stable under re-parsing
    assert diagram_to_json(back) == text


def _diagram_or_tie(f, g, s, tol=1e-9):
    try:
        return f(g, s, tol)
    except DegenerateDirection as err:
        return ("tie", err.i, err.j)


def test_lower_star_equals_reference_sweep_exactly():
    # no approx: the kernel must round and order exactly like the sweep
    rng = np.random.default_rng(5)
    for n in range(1, 41):
        for density in (0.0, 0.5, 1.0):
            g = random_plane_graph(n, density, 1000 * n + int(10 * density), margin=1e-6)
            directions = [Direction(1.0, 0.0), Direction(0.0, -1.0)]
            directions += [tie_free_direction(g, rng) for _ in range(3)]
            for s in directions:
                got = lower_star_diagrams(g, s)
                assert got == reference_lower_star_diagrams(g, s), (n, density, s)
                assert [p.birth for p in got.dim0] == sorted(height(v, got.direction) for v in g.vertices)


def test_lower_star_equals_reference_on_small_shapes():
    single_edge = PlaneGraph([(0.0, 0.0), (1.0, 0.5)], [(0, 1)])
    single_edge_and_isolated = PlaneGraph([(0.0, 0.0), (1.0, 0.5), (0.4, -0.3)], [(0, 1)])
    edgeless = PlaneGraph([(0.1, 0.2), (0.6, 0.9), (0.9, 0.4)], [])
    empty = PlaneGraph([], [])
    for g in (single_edge, single_edge_and_isolated, edgeless, empty):
        for s in (Direction(1.0, 0.0), Direction(-1.0, 0.3), Direction(0.2, 1.0)):
            assert lower_star_diagrams(g, s) == reference_lower_star_diagrams(g, s)
    d = lower_star_diagrams(single_edge, Direction(1.0, 0.0))
    assert pairs(d.dim0) == [(0.0, INF), (1.0, 1.0)]  # the diagonal pair is kept


def test_degenerate_direction_pair_matches_reference():
    exact_ties = PlaneGraph([(0.5, 0.0), (0.2, 1.0), (0.5, 2.0), (0.2, 3.0)], [(0, 1)])
    within_tol = PlaneGraph([(0.3, 0.0), (0.3 + 5e-10, 1.0), (0.1, 2.0), (0.1 - 4e-10, 3.0)], [])
    s = Direction(1.0, 0.0)
    # the first tie in ascending height order, smaller index first
    assert _diagram_or_tie(lower_star_diagrams, exact_ties, s) == ("tie", 1, 3)
    assert _diagram_or_tie(lower_star_diagrams, exact_ties, s, 0.0) == ("tie", 1, 3)
    # 31-way ties: only a stable order reports the two smallest indices
    columns = PlaneGraph([((k * 5) % 13 / 13.0, k / 400.0) for k in range(400)], [])
    assert _diagram_or_tie(lower_star_diagrams, columns, s, 0.0) == ("tie", 0, 13)
    assert _diagram_or_tie(lower_star_diagrams, within_tol, s) == ("tie", 2, 3)
    for g in (exact_ties, within_tol, columns):
        for tol in (0.0, 1e-9):
            assert _diagram_or_tie(lower_star_diagrams, g, s, tol) == _diagram_or_tie(
                reference_lower_star_diagrams, g, s, tol
            )
    # a coarse tolerance makes many heights tie; the first one reported must agree
    rng = np.random.default_rng(17)
    for seed in range(30):
        g = random_plane_graph(3 + seed % 10, 0.5, seed)
        for tol in (1e-3, 2e-2, 0.1):
            s = Direction(*rng.normal(size=2))
            assert _diagram_or_tie(lower_star_diagrams, g, s, tol) == _diagram_or_tie(
                reference_lower_star_diagrams, g, s, tol
            )


def _scan_events(d, h, tol):
    # the indegree read as a scan over the pairs
    deaths = sum(1 for p in d.dim0 if not p.is_infinite and abs(p.death - h) <= tol)
    return deaths + sum(1 for p in d.dim1 if abs(p.birth - h) <= tol)


def test_swept_diagram_equals_its_pairs_through_the_constructor():
    rng = np.random.default_rng(31)
    for seed in range(40):
        g = random_plane_graph(1 + seed % 12, (0.0, 0.5, 1.0)[seed % 3], seed)
        d = lower_star_diagrams(g, tie_free_direction(g, rng))
        heights = [height(v, d.direction) for v in g.vertices]
        probes = heights + [h + 0.7e-9 for h in heights] + [0.5 * (a + b) for a, b in zip(heights, heights[1:])]
        tols = (0.0, 1e-9, 1e-3, 0.2, INF)
        # read from the sweep before the pairs exist
        births, components = d.births0(), d.n_components
        events = [d.events_at(h, tol) for h in probes for tol in tols]
        assert "dim0" not in vars(d)
        t = Diagram(d.direction, d.dim0, d.dim1)
        assert d == t and hash(d) == hash(t) and repr(d) == repr(t)
        assert components == t.n_components == sum(p.is_infinite for p in d.dim0)
        assert births.dtype == np.float64 and not births.flags.writeable
        assert births.tobytes() == t.births0().tobytes()
        assert births.tolist() == [p.birth for p in d.dim0]
        assert events == [t.events_at(h, tol) for h in probes for tol in tols]
        assert events == [_scan_events(d, h, tol) for h in probes for tol in tols]
        assert diagram_to_json(d) == diagram_to_json(t)


def test_events_at_on_unsorted_constructed_pairs():
    d = Diagram(
        Direction(1.0, 0.0),
        (PersistencePair(0.5, 0.5), PersistencePair(0.0, INF), PersistencePair(0.2, 0.5)),
        (PersistencePair(0.9, INF), PersistencePair(0.5, INF)),
    )
    assert d.events_at(0.5, 1e-9) == 3
    assert d.events_at(0.9, 0.0) == 1
    assert d.events_at(0.7, INF) == _scan_events(d, 0.7, INF) == 4
    assert d.births0().tolist() == [0.0, 0.2, 0.5]
    assert d.n_components == 1


def test_vertex_phase_and_probe_build_no_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("a persistence pair was built")

    monkeypatch.setattr(PersistencePair, "_make", refuse)
    assert reconstruct_vertices(DiagramOracle(PlaneGraph([(0.3, 0.7)], []))) == [Point2(0.3, 0.7)]
    g = random_plane_graph(9, 1.0, 5)
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    a, b = match_to_hidden(V[:2], g).values()
    probe = probe_edge(o, V[0], V[1], global_bowtie_width(V), V)
    assert probe.exists == ((min(a, b), max(a, b)) in g.edges)
    with pytest.raises(AssertionError, match="pair was built"):
        lower_star_diagrams(g, Direction(1.0, 0.0)).dim0
