"""Command-line surface: gen, diagrams, reconstruct, verify, render.

Exit codes: 0 ok, 1 verification mismatch, 2 generation failure,
3 degenerate direction, 4 invalid input graph, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .edge_recon import reconstruct_edges_detail
from .errors import DegenerateDirection, GenerationFailed, PhreconError
from .geometry import Direction, Point2
from .persistence import DiagramOracle, diagram_to_json, lower_star_diagrams
from .plane_graph import (
    PlaneGraph,
    load_graph,
    random_plane_graph,
    save_graph,
    validate,
)
from .render import render_svg
from .vertex_recon import reconstruct_vertices

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_GENERATION = 2
EXIT_DEGENERATE = 3
EXIT_INVALID_GRAPH = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunReport:
    """Bookkeeping for one reconstruction run."""

    vertex_queries: int
    edge_queries: int
    retries: int
    max_vertex_error: float
    edge_set_equal: bool
    wall_time_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(", ", ": ")) + "\n"


def _parse_direction(text: str) -> Direction:
    try:
        parts = [float(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"direction must be 'dx,dy', got {text!r}")
    if parts[0] == 0.0 and parts[1] == 0.0:
        raise argparse.ArgumentTypeError("direction must be non-zero")
    return Direction(parts[0], parts[1])


def _match_vertices(
    a: list[Point2], b: list[Point2], eps: float
) -> list[tuple[int, int]] | None:
    """Optimal one-to-one pairing of two point lists with all matched
    L-inf distances <= eps, or None when no such pairing exists."""
    if len(a) != len(b):
        return None
    if not a:
        return []
    from scipy.optimize import linear_sum_assignment

    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    cost = np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2)
    penalized = np.where(cost > eps, 1e18, cost)
    rows, cols = linear_sum_assignment(penalized)
    if np.any(cost[rows, cols] > eps):
        return None
    return list(zip(rows.tolist(), cols.tolist()))


def _remap_edges(edges, mapping: dict[int, int]) -> set[tuple[int, int]]:
    out = set()
    for i, j in edges:
        a, b = mapping[i], mapping[j]
        out.add((min(a, b), max(a, b)))
    return out


def cmd_gen(args) -> int:
    save_graph(random_plane_graph(args.n, args.density, args.seed), args.out)
    return EXIT_OK


def _load_indexed_graph(path) -> PlaneGraph | None:
    """The graph in `path`, or None after reporting an edge index outside
    [0, n) or a self-loop, which `PlaneGraph.arrays` refuses and `validate`
    lists."""
    g = load_graph(path)
    try:
        g.arrays
    except ValueError as err:
        print(f"invalid graph: {err}", file=sys.stderr)
        return None
    return g


def cmd_diagrams(args) -> int:
    g = _load_indexed_graph(args.graph)
    if g is None:
        return EXIT_INVALID_GRAPH
    d = lower_star_diagrams(g, args.direction, args.tolerance)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(diagram_to_json(d))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    hidden = load_graph(args.graph)
    violations = validate(hidden, args.tolerance)
    if violations:
        for v in violations:
            print(f"invalid graph: {v}", file=sys.stderr)
        return EXIT_INVALID_GRAPH
    oracle = DiagramOracle(hidden, args.tolerance)
    start = time.perf_counter()
    vertices = reconstruct_vertices(oracle, args.tolerance)
    vertex_queries = oracle.query_count
    detail = reconstruct_edges_detail(oracle, vertices, args.tolerance)
    wall_ms = (time.perf_counter() - start) * 1000.0
    recon = PlaneGraph(vertices, detail.edges)
    save_graph(recon, args.out)
    if args.report:
        matching = _match_vertices(vertices, list(hidden.vertices), float("inf"))
        if matching is None:
            max_err, edges_equal = float("inf"), False
        else:
            max_err = max(
                (
                    max(
                        abs(vertices[i].x - hidden.vertices[j].x),
                        abs(vertices[i].y - hidden.vertices[j].y),
                    )
                    for i, j in matching
                ),
                default=0.0,
            )
            mapping = dict(matching)
            edges_equal = _remap_edges(detail.edges, mapping) == set(hidden.edges)
        report = RunReport(
            vertex_queries=vertex_queries,
            edge_queries=detail.queries,
            retries=detail.retries,
            max_vertex_error=max_err,
            edge_set_equal=edges_equal,
            wall_time_ms=wall_ms,
        )
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        ga = _load_indexed_graph(args.a)
        gb = _load_indexed_graph(args.b)
    except (OSError, ValueError) as err:
        print(f"error: cannot parse graphs: {err}", file=sys.stderr)
        return EXIT_USAGE
    if ga is None or gb is None:
        return EXIT_INVALID_GRAPH
    matching = _match_vertices(list(ga.vertices), list(gb.vertices), args.eps)
    if matching is None:
        print(
            f"vertex sets do not match within eps={args.eps}: "
            f"{ga.n} vs {gb.n} vertices",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    mapping = dict(matching)
    ea = _remap_edges(ga.edges, mapping)
    eb = set(gb.edges)
    if ea != eb:
        for e in sorted(ea - eb):
            print(f"edge only in {args.a}: {e}", file=sys.stderr)
        for e in sorted(eb - ea):
            print(f"edge only in {args.b}: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_render(args) -> int:
    g = _load_indexed_graph(args.graph)
    if g is None:
        return EXIT_INVALID_GRAPH
    bowtie = None
    if args.bowtie:
        try:
            i, j = (int(part) for part in args.bowtie.split(","))
        except ValueError:
            print(f"bad bow-tie argument {args.bowtie!r}", file=sys.stderr)
            return EXIT_USAGE
        if not (0 <= i < g.n and 0 <= j < g.n) or i == j:
            print(f"bow-tie indices ({i}, {j}) out of range", file=sys.stderr)
            return EXIT_USAGE
        bowtie = (i, j)
    svg = render_svg(g, lines=args.lines, bowtie=bowtie)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_nonnegative(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _finite_positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phrecon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random plane graph")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("diagrams", help="persistence diagrams for one direction")
    p.add_argument("graph")
    p.add_argument("--direction", type=_parse_direction, required=True)
    p.add_argument("--tolerance", type=_finite_positive, default=geometry.TOLERANCE)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("reconstruct", help="reconstruct a graph through the oracle")
    p.add_argument("graph")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--tolerance", type=_finite_positive, default=geometry.TOLERANCE)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="compare two graph files up to vertex pairing")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--eps", type=_finite_nonnegative, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a graph as SVG")
    p.add_argument("graph")
    p.add_argument("--lines", action="store_true")
    p.add_argument("--bowtie", default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DegenerateDirection as err:
        print(f"degenerate direction: vertices {err.i} and {err.j}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GenerationFailed as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return EXIT_GENERATION
    except PhreconError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
