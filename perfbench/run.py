"""phrecon benchmark: time to exact reconstruction.

    python3 perfbench/run.py --workload edge-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in one single-threaded process. It reconstructs seeded
hidden graphs through the library's public entry points for `--seconds`,
checks every answer against its hidden graph, prints every metric by name
and unit, and ends with one JSON line: end-to-end metrics with `--trace 0`,
per-layer metrics from a span trace with `--trace 1`. It exits 1 when any
reconstruction fails and 2 when the library sources are missing.
Results and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Time metrics report this quantile of the per-sample times. On a shared
#: host the CPU speed can drift by 1.4x or more for seconds to minutes at a
#: time, so a run's median lands on whichever speed held for most of the
#: run; a low quantile follows the program's speed in the host's fast periods.
TIME_QUANTILE = 0.05


class Outcome(NamedTuple):
    """What the metrics need of one successful reconstruction."""

    n: int
    vertex_queries: int
    full: bool  # the edge phase ran
    edge_queries: int
    edges: int
    retries: int


@dataclass
class Run:
    """Everything one workload run observed."""

    block: int
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)  # lists of instance ids, all successful
    setup: dict = field(default_factory=dict)  # instance -> s
    untraced: dict = field(default_factory=dict)  # instance -> s
    traced: dict = field(default_factory=dict)  # instance -> s
    results: dict = field(default_factory=dict)  # instance -> Outcome

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def trace_targets():
    """(module, attribute, span name, size) for every wrapped layer function."""
    import workloads
    from phrecon import edge_recon, persistence, plane_graph, vertex_recon

    return [
        (persistence, "lower_star_diagrams", "persistence.query", lambda g, *_: g.n + len(g.edges)),
        (vertex_recon, "reconstruct_vertices", "vertex_recon.phase", None),
        (vertex_recon, "lines_from_dgm0", "vertex_recon.lines", None),
        (vertex_recon, "match_and_intersect", "vertex_recon.match", None),
        (edge_recon, "reconstruct_edges_detail", "edge_recon.phase", None),
        (edge_recon, "global_bowtie_width", "edge_recon.width", None),
        (edge_recon, "pair_directions", "edge_recon.probe_select", None),
        (edge_recon, "indegree_from_diagrams", "edge_recon.indegree", None),
        (plane_graph, "random_plane_graph", "plane_graph.generate", None),
        (plane_graph, "validate", "plane_graph.validate", None),
        (workloads, "jittered_delaunay_graph", "plane_graph.generate", None),
    ]


def reconstruct(inst):
    """Fresh oracle, vertex phase, then (for full instances) the edge phase."""
    from phrecon import DiagramOracle, edge_recon, vertex_recon

    o = DiagramOracle(inst.graph)
    vertices = vertex_recon.reconstruct_vertices(o)
    vertex_queries = o.query_count
    detail = edge_recon.reconstruct_edges_detail(o, vertices) if inst.full else None
    return vertices, vertex_queries, detail


def timed_reconstruction(inst, recorder=None):
    """(seconds, vertex queries, detail) of one checked reconstruction;
    raises Failure when it errs or its answer is wrong."""
    from phrecon import PhreconError
    from workloads import check

    with recorder.installed(trace_targets()) if recorder else nullcontext():
        start = perf_counter()
        try:
            with recorder.span("reconstruct") if recorder else nullcontext():
                vertices, vertex_queries, detail = reconstruct(inst)
        except PhreconError as exc:
            raise Failure(type(exc).__name__) from exc
        elapsed = perf_counter() - start
    reason = check(inst.graph, vertices, vertex_queries, detail)
    if reason is not None:
        raise Failure(reason)
    return elapsed, vertex_queries, detail


class Failure(Exception):
    """One attempted reconstruction did not produce the exact hidden graph."""


def run_workload(w, seed: int, seconds: float, recorder=None) -> Run:
    """Reconstruct samples of `w` until `seconds` have passed (at least two).

    A sample prepares its `w.block` instances, collects garbage, then times
    their reconstructions back to back. The traced run repeats the sample
    with spans on, first or second on alternate samples, because the first
    reconstruction of a freshly built graph runs slower. The first sample
    pays one-time costs (lazy imports, the first Delaunay, first queries,
    heap growth), so it is checked and counted but not timed; so is any
    sample with a failure. After it, everything alive is frozen out of the
    collector's reach, so the `gc.collect()` before each timed pass costs
    microseconds instead of a walk over every imported module.
    """
    try:
        return _sample_until(w, seed, seconds, recorder)
    finally:
        gc.unfreeze()


def _sample_until(w, seed: int, seconds: float, recorder) -> Run:
    from phrecon import PhreconError
    from workloads import InvalidInput

    run = Run(w.block)
    deadline = perf_counter() + seconds
    index = 0
    while index < 2 * w.block or perf_counter() < deadline:
        ready = []
        if index == w.block:
            gc.collect()
            gc.freeze()
        for i in range(index, index + w.block):
            run.attempted += 1
            start = perf_counter()
            try:
                if recorder:
                    recorder.instance = i
                    with recorder.installed(trace_targets()), recorder.span("setup"):
                        ready.append((i, w.prepare(seed, i)))
                else:
                    ready.append((i, w.prepare(seed, i)))
            except (PhreconError, InvalidInput) as exc:
                run.failures[type(exc).__name__] += 1
                continue
            run.setup[i] = perf_counter() - start
        passes = [(run.untraced, None)] + ([(run.traced, recorder)] if recorder else [])
        if index // w.block % 2:  # alternate which pass meets the freshly built instances
            passes.reverse()
        index += w.block
        for timings, rec in passes:
            gc.collect()
            survivors = []
            for i, inst in ready:
                if rec:
                    rec.instance = i
                try:
                    timings[i], vertex_queries, detail = timed_reconstruction(inst, rec)
                except Failure as exc:
                    run.failures[str(exc)] += 1
                    continue
                run.results[i] = Outcome(
                    inst.graph.n, vertex_queries, detail is not None,
                    detail.queries if detail else 0, len(detail.edges) if detail else 0,
                    detail.retries if detail else 0,
                )
                survivors.append((i, inst))
            ready = survivors
        sample = [i for i, _inst in ready]
        if len(sample) == w.block and sample[0] >= w.block:
            run.samples.append(sample)
    return run


def _per_sample(run: Run, values: dict) -> list:
    """Each timed sample's mean value per reconstruction."""
    return [sum(values.get(i, 0.0) for i in s) / run.block for s in run.samples]


def _per_reconstruction(run: Run, values: dict) -> float:
    """TIME_QUANTILE over samples of the sample's mean value per reconstruction."""
    per_sample = sorted(_per_sample(run, values))
    if not per_sample:
        return 0.0
    pos = TIME_QUANTILE * (len(per_sample) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(per_sample) - 1)
    return per_sample[lo] + (pos - lo) * (per_sample[hi] - per_sample[lo])


def _ok(run: Run) -> list:
    return [i for s in run.samples for i in s]


def end_to_end(run: Run) -> dict:
    ok = _ok(run)
    queries = [run.results[i].vertex_queries + run.results[i].edge_queries for i in ok]
    return {
        "reconstruct_s": (_per_reconstruction(run, run.untraced), "s"),
        "setup_s": (_per_reconstruction(run, run.setup), "s"),
        "oracle_queries": (sum(queries) / len(queries) if queries else 0.0, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def extra_end_to_end(run: Run) -> dict:
    """End-to-end metrics printed but not part of the result line: the
    median and the tail follow the host's drift too closely to hold a bound,
    the tail exists only with >= 10 samples beyond it, and the failure share
    is 0 on a correct program (its count is the result line's `failed`)."""
    per_sample = _per_sample(run, run.untraced)
    extra = {"failure_share": (run.failed / run.attempted, "ratio")}
    if per_sample:
        extra["reconstruct_s.median"] = (statistics.median(per_sample), "s")
    if len(per_sample) >= 100:
        extra["reconstruct_s.p90"] = (statistics.quantiles(per_sample, n=10)[-1], "s")
    return extra


def per_layer(run: Run, spans) -> dict:
    """Layer metrics from the traced reconstructions of successful samples.

    Times are the TIME_QUANTILE over samples of the value per reconstruction; a
    layer's self time sums the self times of its spans, so it excludes the
    oracle queries the phase waits on. `*_us` metrics are medians per call.
    """
    from spans import self_times

    ok = set(_ok(run))
    totals: dict = {}  # span name or "<layer>.self" -> {instance: seconds}
    calls: dict = {}  # span name -> [seconds per call]
    sizes = []
    for span, own in zip(spans, self_times(spans)):
        if span.instance not in ok:
            continue
        for key, value in ((span.name, span.duration), (span.layer + ".self", own)):
            bucket = totals.setdefault(key, {})
            bucket[span.instance] = bucket.get(span.instance, 0.0) + value
        calls.setdefault(span.name, []).append(span.duration)
        if span.name == "persistence.query":
            sizes.append(span.size)

    def typical(values):
        return _per_reconstruction(run, values)

    def layer(key):
        return typical(totals.get(key, {}))

    def per_call_us(name):
        durations = calls.get(name)
        return statistics.median(durations) * 1e6 if durations else 0.0

    def total(key, i):
        return totals.get(key, {}).get(i, 0.0)

    root = totals.get("reconstruct", {})
    unaccounted = {
        i: t - total("persistence.query", i) - total("vertex_recon.self", i) - total("edge_recon.self", i)
        for i, t in root.items()
    }
    edge_runs = [r for r in (run.results[i] for i in ok) if r.full]
    edge_queries = sum(r.edge_queries for r in edge_runs)
    pairs = sum(r.n * (r.n - 1) // 2 for r in edge_runs)
    traced = typical(run.traced)
    return {
        "persistence.calls": (len(sizes) / len(ok) if ok else 0.0, "count"),
        "persistence.simplices_per_query": (statistics.fmean(sizes) if sizes else 0.0, "count"),
        "persistence.query_us": (per_call_us("persistence.query"), "us"),
        "persistence.busy_s": (layer("persistence.query"), "s"),
        "persistence.share": (typical({i: total("persistence.query", i) / t for i, t in root.items()}), "ratio"),
        "persistence.degenerate": (
            sum(1 for s in spans if s.name == "persistence.query" and s.error == "DegenerateDirection"),
            "count",
        ),
        "vertex_recon.phase_s": (layer("vertex_recon.phase"), "s"),
        "vertex_recon.self_s": (layer("vertex_recon.self"), "s"),
        "vertex_recon.lines_s": (layer("vertex_recon.lines"), "s"),
        "vertex_recon.match_s": (layer("vertex_recon.match"), "s"),
        "edge_recon.phase_s": (layer("edge_recon.phase"), "s"),
        "edge_recon.self_s": (layer("edge_recon.self"), "s"),
        "edge_recon.probe_select_us": (per_call_us("edge_recon.probe_select"), "us"),
        "edge_recon.indegree_us": (per_call_us("edge_recon.indegree"), "us"),
        "edge_recon.width_s": (layer("edge_recon.width"), "s"),
        "edge_recon.queries_per_pair": (edge_queries / pairs if pairs else 0.0, "ratio"),
        "edge_recon.edges_per_query": (
            sum(r.edges for r in edge_runs) / edge_queries if edge_queries else 0.0,
            "ratio",
        ),
        "edge_recon.retries": (sum(r.retries for r in edge_runs), "count"),
        "plane_graph.generate_s": (layer("plane_graph.generate"), "s"),
        "plane_graph.validate_s": (layer("plane_graph.validate"), "s"),
        "trace.reconstruct_s": (traced, "s"),
        "trace.overhead_s": (traced - typical(run.untraced), "s"),
        "trace.unaccounted_s": (typical(unaccounted), "s"),
    }


def report(w, args, env: dict, run: Run, metrics: dict, printed: dict) -> dict:
    """Print every metric by name and unit; return the result line."""
    print("env: " + json.dumps(env))
    print(
        f"{w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
        f"{len(run.samples)} timed samples of {w.block} reconstruction(s), "
        f"{run.attempted} attempted, {run.failed} failed"
    )
    for reason, count in sorted(run.failures.items()):
        print(f"  FAILED x{count}: {reason}")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        parts = [metrics[k][0] for k in (
            "persistence.busy_s", "vertex_recon.self_s", "edge_recon.self_s", "trace.unaccounted_s")]
        print(
            f"  accounting (p{TIME_QUANTILE * 100:g} per reconstruction): trace.reconstruct_s "
            f"{metrics['trace.reconstruct_s'][0]:.6g} s = persistence.busy_s {parts[0]:.6g} "
            f"+ vertex_recon.self_s {parts[1]:.6g} + edge_recon.self_s {parts[2]:.6g} "
            f"+ unaccounted {parts[3]:.6g}; quantiles leave {metrics['trace.reconstruct_s'][0] - sum(parts):.3g} s"
        )
    return {
        "correct": run.failed == 0 and bool(run.samples),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args, names) -> int:
    """Each workload in its own process; non-zero if any of them failed."""
    codes = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)]
        codes[name] = subprocess.run(cmd, check=False).returncode
    print("all: " + json.dumps(codes))
    return 0 if not any(codes.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT, help="directory for result and span files")
    args = parser.parse_args(argv)

    if not (SRC / "phrecon" / "__init__.py").is_file():
        print(f"perfbench: phrecon sources not found under {SRC}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from spans import SpanRecorder

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")

    env = environment()
    recorder = SpanRecorder() if args.trace else None
    run = run_workload(w, args.seed, args.seconds, recorder)
    if recorder:
        metrics, printed = per_layer(run, recorder.finished()), {}
    else:
        metrics, printed = end_to_end(run), extra_end_to_end(run)
    result = report(w, args, env, run, metrics, printed)

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}_seed{args.seed}_trace{args.trace}"
    record = {"env": env, "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
              "block": w.block, "failures": dict(run.failures),
              "sample_reconstruct_s": _per_sample(run, run.untraced),
              "sample_setup_s": _per_sample(run, run.setup),
              **result, "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()}}
    (args.out / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if recorder:
        recorder.write(args.out / f"spans_{stem}.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
