"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them as they complete)."""

import gc
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from phrecon import (
    DiagramOracle,
    Direction,
    PlaneGraph,
    indegree_from_diagrams,
    lines_from_dgm0,
    lower_star_diagrams,
    match_and_intersect,
    random_plane_graph,
    reconstruct_edges_detail,
    reconstruct_vertices,
    third_direction,
)
from phrecon.cli import main
from phrecon.vertex_recon import AXIS_X, AXIS_Y

from conftest import (
    jittered_grid_points,
    match_to_hidden,
    n_components,
    remap_edges,
    tie_free_direction,
)
from edge_reference import enumerate_compatible_graphs
from graph_reference import connected_components, indegree_direct
from vertex_reference import triple_intersections

VERTEX_TOL = 1e-6
THIRD_DIR_TOL = 1e-12
SWEEP_BUDGET_SECONDS = 10.0
SCALE_BUDGET_SECONDS = 5.0
SCALE_RATIO_LIMIT = 25.0


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion failed: {name}"


@dataclass
class SweepRecord:
    seed: int
    n: int
    density: float
    graph: PlaneGraph
    recon_vertices: np.ndarray
    vertex_queries: int
    edge_queries: int
    retries: int
    recon_edges: frozenset
    query_log: tuple


@pytest.fixture(scope="module")
def sweep():
    records = []
    start = time.perf_counter()
    for seed in range(100):
        n = (seed % 12) + 1
        density = (0.0, 0.5, 1.0)[seed % 3]
        g = random_plane_graph(n, density, seed)
        o = DiagramOracle(g)
        vs = reconstruct_vertices(o)
        vertex_queries = o.query_count
        detail = reconstruct_edges_detail(o, vs)
        records.append(
            SweepRecord(
                seed=seed,
                n=n,
                density=density,
                graph=g,
                recon_vertices=vs,
                vertex_queries=vertex_queries,
                edge_queries=detail.queries,
                retries=detail.retries,
                recon_edges=detail.edges,
                query_log=o.query_log,
            )
        )
    return records, time.perf_counter() - start


def test_criterion_1_roundtrip_exactness(sweep):
    records, elapsed = sweep
    ok = elapsed < SWEEP_BUDGET_SECONDS
    for rec in records:
        mapping = match_to_hidden(rec.recon_vertices, rec.graph, eps=VERTEX_TOL)
        ok = ok and remap_edges(rec.recon_edges, mapping) == set(rec.graph.edges)
    _report("1 round-trip exactness (100 seeds, <10s)", ok)


def test_criterion_2_query_budgets(sweep):
    records, _ = sweep
    ok = all(
        rec.vertex_queries == 3
        and rec.edge_queries <= rec.n * (rec.n - 1)
        and rec.retries == 0
        for rec in records
    )
    _report("2 query budgets (3 vertex, <=n(n-1) edge, 0 retries)", ok)


def test_criterion_3_appendix_third_direction():
    from phrecon import Diagram, PersistencePair

    def family(direction, births):
        d = Diagram(
            Direction(*direction),
            tuple(sorted(PersistencePair(b, math.inf) for b in births)),
            (),
        )
        return lines_from_dgm0(d)

    s3 = third_direction(family((1, 0), [0.0, 2.0]), family((0, 1), [0.0, 1.0]))
    want = (-1.0 / math.sqrt(17.0), 4.0 / math.sqrt(17.0))
    ok = (
        abs(abs(s3.dx) - abs(want[0])) <= THIRD_DIR_TOL
        and abs(abs(s3.dy) - abs(want[1])) <= THIRD_DIR_TOL
        and s3.dx * want[0] + s3.dy * want[1] != 0.0
    )
    _report("3 appendix third direction +-(-1, 4)/sqrt(17) @1e-12", ok)


def test_criterion_4_indegree_equivalence_1000_triples():
    rng = np.random.default_rng(2024)
    graphs = [
        random_plane_graph((k % 10) + 2, (0.3, 0.6, 1.0)[k % 3], 1000 + k)
        for k in range(50)
    ]
    ok = True
    for trial in range(1000):
        g = graphs[trial % len(graphs)]
        s = tie_free_direction(g, rng)
        v_idx = int(rng.integers(g.n))
        d = lower_star_diagrams(g, s)
        ok = ok and indegree_from_diagrams(d, g.vertices[v_idx]) == indegree_direct(
            g, v_idx, s
        )
    _report("4 indegree diagrams-vs-direct (1000 triples, exact)", ok)


def test_criterion_5_diagram_invariants(sweep):
    records, _ = sweep
    rng = np.random.default_rng(55)
    ok = True
    for rec in records:
        g = rec.graph
        c = connected_components(g)
        for s in (AXIS_X, AXIS_Y, tie_free_direction(g, rng)):
            d = lower_star_diagrams(g, s)
            finite = [p for p in d.dim0 if not math.isinf(p.death)]
            ok = ok and len(d.dim0) == g.n
            ok = ok and n_components(d) == c
            ok = ok and len(d.dim1) == len(g.edges) - g.n + c
            ok = ok and len(finite) + len(d.dim1) == len(g.edges)
    _report("5 diagram count identities on every instance", ok)


def test_criterion_6_vertex_oracle_equivalence(sweep):
    records, _ = sweep
    ok = True
    for rec in records:
        o = DiagramOracle(rec.graph)
        d1, d2 = o.query(AXIS_X), o.query(AXIS_Y)
        xs, ys = lines_from_dgm0(d1), lines_from_dgm0(d2)
        d3 = o.query(third_direction(xs, ys))
        matched = match_and_intersect(xs, ys, d3.direction, lines_from_dgm0(d3))
        brute = triple_intersections(d1, d2, d3)
        ok = ok and len(matched) == len(brute)
        for p in matched:
            ok = ok and any(
                abs(p.x - q.x) <= 1e-9 and abs(p.y - q.y) <= 1e-9 for q in brute
            )
    _report("6 match_and_intersect equals triple_intersections", ok)


def test_criterion_7_enumerator_soundness(sweep):
    records, _ = sweep
    ok = True
    for rec in records:
        if rec.n > 5:
            continue
        g = rec.graph
        hidden = frozenset(g.edges)
        mapping = match_to_hidden(rec.recon_vertices, g, eps=VERTEX_TOL)
        ok = ok and remap_edges(rec.recon_edges, mapping) == set(hidden)
        compatible_everywhere = True
        for s in rec.query_log:
            d = lower_star_diagrams(g, s)
            out = enumerate_compatible_graphs(list(g.vertices), s, d)
            compatible_everywhere = compatible_everywhere and hidden in out
        ok = ok and compatible_everywhere
    _report("7 enumerator soundness on n<=5 for all used directions", ok)


def _time_vertex_phase(n: int, repeats: int) -> float:
    pts = jittered_grid_points(n, 7)
    g = PlaneGraph(pts, [])
    best = math.inf
    for _ in range(repeats):
        o = DiagramOracle(g)
        gc.collect()
        t0 = time.perf_counter()
        vs = reconstruct_vertices(o)
        best = min(best, time.perf_counter() - t0)
    assert len(vs) == n
    return best


def test_criterion_8_vertex_phase_scaling():
    t3 = _time_vertex_phase(1_000, repeats=3)
    t4 = _time_vertex_phase(10_000, repeats=3)
    t5 = _time_vertex_phase(100_000, repeats=3)
    ok = (
        t5 < SCALE_BUDGET_SECONDS
        and t4 / t3 < SCALE_RATIO_LIMIT
        and t5 / t4 < SCALE_RATIO_LIMIT
    )
    print(f"  timings: n=1e3 {t3:.3f}s, n=1e4 {t4:.3f}s, n=1e5 {t5:.3f}s", flush=True)
    _report("8 vertex phase n=1e5 under 5s, sub-quadratic ratios", ok)


def test_vertex_phase_at_n1e5_sets_off_no_older_collection():
    # criterion 8's points: the answer is one array, so the phase allocates
    # no object per vertex and never fills the collector's younger
    # generations enough to walk the older ones, whatever the heap holds
    g = PlaneGraph(jittered_grid_points(100_000, 7), [])
    g.arrays
    o = DiagramOracle(g)
    generations = []

    def note(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        vs = reconstruct_vertices(o)
    finally:
        gc.callbacks.remove(note)
    assert vs.shape == (100_000, 2)
    assert [k for k in generations if k > 0] == []


def test_criterion_9_pipeline_determinism(tmp_path):
    outputs = []
    for run_dir in ("one", "two"):
        d = tmp_path / run_dir
        d.mkdir()
        g, r, svg = d / "g.json", d / "r.json", d / "fig.svg"
        assert main(["gen", "--n", "6", "--density", "0.5", "--seed", "11", "-o", str(g)]) == 0
        assert main(["reconstruct", str(g), "-o", str(r)]) == 0
        assert main(["render", str(g), "--lines", "--bowtie", "0,1", "-o", str(svg)]) == 0
        outputs.append((g.read_bytes(), r.read_bytes(), svg.read_bytes()))
    ok = outputs[0] == outputs[1]
    _report("9 gen+reconstruct+render byte-identical across runs", ok)
