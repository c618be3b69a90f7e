"""Command-line surface: gen, diagrams, reconstruct, verify, render.

Each command parses its arguments, calls the library and writes its
files; `main` alone turns what they raise into exit codes: 0 ok,
1 verification mismatch, 2 generation failure, 3 degenerate direction,
4 invalid input graph, 64 usage error or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import geometry
from .edge_recon import reconstruct_edges_detail
from .errors import DegenerateDirection, GenerationFailed, InvalidGraph, PhreconError
from .geometry import Direction
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


def _compare(a: PlaneGraph, b: PlaneGraph, eps: float) -> tuple[float, list, list] | None:
    """Compare two graphs up to a pairing of their vertices: the one
    optimal assignment on the L-inf distance that pairs no vertices
    farther apart than eps. None when no such pairing exists; otherwise
    the largest paired distance, the edges only in a and the edges only
    in b, each list sorted and in its own graph's indices. Raises
    InvalidGraph for an invalid graph."""
    (ax, ay, _), (bx, by, _) = a.arrays, b.arrays
    if a.n != b.n:
        return None
    from scipy.optimize import linear_sum_assignment

    cost = np.maximum(abs(ax[:, None] - bx), abs(ay[:, None] - by))
    try:
        rows, cols = linear_sum_assignment(np.where(cost > eps, np.inf, cost))
    except ValueError:  # pairs beyond eps make it infeasible
        return None
    to_b, to_a = cols.tolist(), np.argsort(cols).tolist()  # rows is 0, ..., n - 1

    def only(g, h, to):
        return sorted((i, j) for i, j in g.edges if tuple(sorted((to[i], to[j]))) not in h.edges)

    return float(cost[rows, cols].max(initial=0.0)), only(a, b, to_b), only(b, a, to_a)


def cmd_gen(args) -> int:
    save_graph(random_plane_graph(args.n, args.density, args.seed), args.out)
    return EXIT_OK


def cmd_diagrams(args) -> int:
    d = lower_star_diagrams(load_graph(args.graph), args.direction, args.tolerance)
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
    split = time.perf_counter()
    detail = reconstruct_edges_detail(oracle, vertices, args.tolerance)
    end = time.perf_counter()
    recon = PlaneGraph(vertices, detail.edges)
    save_graph(recon, args.out)
    if args.report:
        # reconstruct_vertices returns the hidden vertices or raises, so a pairing exists
        max_err, only_recon, only_hidden = _compare(recon, hidden, math.inf)
        report = {
            "vertex_queries": vertex_queries,
            "edge_queries": detail.queries,
            "retries": detail.retries,
            "max_vertex_error": max_err,
            "edge_set_equal": not only_recon and not only_hidden,
            "vertex_ms": (split - start) * 1000.0,
            "edge_ms": (end - split) * 1000.0,
            "wall_time_ms": (end - start) * 1000.0,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, separators=(", ", ": ")) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    a, b = load_graph(args.a), load_graph(args.b)
    compared = _compare(a, b, args.eps)
    if compared is None:
        print(
            f"vertex sets do not match within eps={args.eps}: {a.n} vs {b.n} vertices",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    _, only_a, only_b = compared
    for e in only_a:
        print(f"edge only in {args.a}: {e}", file=sys.stderr)
    for e in only_b:
        print(f"edge only in {args.b}: {e}", file=sys.stderr)
    return EXIT_MISMATCH if only_a or only_b else EXIT_OK


def cmd_render(args) -> int:
    g = load_graph(args.graph)
    g.arrays  # an invalid graph is refused before the bow-tie argument, as render_svg does
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
    parser = argparse.ArgumentParser(prog="phrecon", description=__doc__)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DegenerateDirection as err:
        print(f"degenerate direction: vertices {err.i} and {err.j}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GenerationFailed as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return EXIT_GENERATION
    except InvalidGraph as err:
        print(f"invalid graph: {err}", file=sys.stderr)
        return EXIT_INVALID_GRAPH
    except (PhreconError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
