"""Seeded inputs for the benchmark and the correctness gate around each
reconstruction.

A workload turns the benchmark seed into an endless, deterministic stream of
hidden graphs. Reconstructions are timed in samples of `block` consecutive
instances; small-sweep uses one sample per period of its n/density mix, so
every sample holds the same mix and the per-sample times are comparable.

Library calls go through module attributes (``plane_graph.validate`` rather
than an imported name) so that the traced run can swap in span wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from phrecon import PlaneGraph, plane_graph

#: Vertex pairing tolerance of the correctness gate (as in the acceptance suite).
VERTEX_TOL = 1e-6

#: Generator margin for edge-dense: the default 1e-3 rejects every sample
#: for n >= 25, so large instances use the generator's documented escape.
EDGE_DENSE_MARGIN = 1e-5

SMALL_SWEEP_PERIOD = 12


@dataclass(frozen=True)
class Instance:
    graph: PlaneGraph
    full: bool  # False: vertex phase only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    block: int  # reconstructions per timed sample
    prepare: Callable[[int, int], Instance]  # (benchmark seed, index) -> input


def jittered_delaunay_graph(n: int, seed: int, index: int) -> PlaneGraph:
    """n points, one per column and per row of an n-by-n grid, jittered
    inside their cell (distinct x and distinct y by construction), joined by
    all Delaunay edges. Same construction as acceptance criterion 8."""
    rng = np.random.default_rng([seed, index])
    xs = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
    ys = (np.arange(n) + 0.1 + 0.8 * rng.random(n)) / n
    pts = np.column_stack([xs, rng.permutation(ys)])
    tri = np.sort(Delaunay(pts).simplices, axis=1)
    pairs = np.unique(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]), axis=0)
    return PlaneGraph(pts.tolist(), pairs.tolist())


class InvalidInput(Exception):
    """A generated instance failed `validate`; counted as a failed attempt."""


def _validated(g: PlaneGraph) -> PlaneGraph:
    issues = plane_graph.validate(g)
    if issues:
        raise InvalidInput(f"{len(issues)} validation issues, first: {issues[0]}")
    return g


def edge_dense(n: int = 60) -> Callable[[int, int], Instance]:
    def prepare(seed: int, index: int) -> Instance:
        g = plane_graph.random_plane_graph(n, 1.0, seed * 1_000_000 + index, margin=EDGE_DENSE_MARGIN)
        return Instance(_validated(g), full=True)

    return prepare


def vertex_bulk(n: int = 50_000) -> Callable[[int, int], Instance]:
    def prepare(seed: int, index: int) -> Instance:
        # no validate: it is O(n^3) and the construction guarantees distinct x and y
        return Instance(jittered_delaunay_graph(n, seed, index), full=False)

    return prepare


def small_sweep() -> Callable[[int, int], Instance]:
    def prepare(seed: int, index: int) -> Instance:
        s = seed * 1_200_000 + index  # multiple of the period: block k holds n = 1..12
        n = s % SMALL_SWEEP_PERIOD + 1
        density = (0.0, 0.5, 1.0)[s % 3]
        return Instance(_validated(plane_graph.random_plane_graph(n, density, s)), full=True)

    return prepare


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "edge-dense",
            "n=60 with all ~167 Delaunay edges (generator margin 1e-5): the quadratic edge phase, "
            "3+3540 oracle queries, dominates",
            1,
            edge_dense(),
        ),
        Workload(
            "vertex-bulk",
            "n=50000 jittered grid, all ~150k Delaunay edges, vertex phase only: 3 huge oracle "
            "sweeps plus O(n) line handling",
            1,
            vertex_bulk(),
        ),
        Workload(
            "small-sweep",
            "acceptance mix n=seed%12+1, density 0/0.5/1, default margin: queries on <=12 vertices, "
            "so fixed per-call overhead dominates",
            SMALL_SWEEP_PERIOD,
            small_sweep(),
        ),
    )
}


def check(g: PlaneGraph, vertices, vertex_queries: int, detail) -> str | None:
    """Compare one reconstruction with its hidden graph; None when exact.

    `detail` is the edge phase's result, or None when only the vertex phase
    ran. Returns a short reason on the first mismatch found.
    """
    n = g.n
    if vertex_queries != 3:
        return f"vertex phase used {vertex_queries} queries, expected 3"
    if len(vertices) != n:
        return f"recovered {len(vertices)} vertices, expected {n}"
    dist, idx = cKDTree(np.asarray(g.vertices)).query(np.asarray(vertices, dtype=float), p=np.inf)
    if np.max(dist) > VERTEX_TOL or np.unique(idx).size != n:
        return f"vertices do not pair with the hidden ones within {VERTEX_TOL}"
    idx = idx.tolist()
    if detail is None:
        return None
    if detail.queries > n * (n - 1):
        return f"edge phase used {detail.queries} queries, budget {n * (n - 1)}"
    mapped = {(min(idx[a], idx[b]), max(idx[a], idx[b])) for a, b in detail.edges}
    if mapped != g.edges:
        return f"edge set differs: {len(mapped - g.edges)} extra, {len(g.edges - mapped)} missing"
    return None
