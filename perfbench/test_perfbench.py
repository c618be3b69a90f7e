"""Tests of the benchmark itself (run with: python -m pytest perfbench)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from phrecon import DiagramOracle, edge_recon, reconstruct_edges_detail, reconstruct_vertices  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "edge-dense": workloads.edge_dense(7),
    "vertex-bulk": workloads.vertex_bulk(300),
    "small-sweep": workloads.small_sweep(),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, prepare in TINY.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], prepare=prepare)
        )


def _main(capsys, tmp_path, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace),
         "--out", str(tmp_path)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(tiny, capsys, tmp_path, workload, trace):
    code, human, result = _main(capsys, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {(p[0], p[3]) for p in (line.split() for line in human) if len(p) == 4 and p[1] == "="}
    for m in spec:
        assert (m["name"], m["unit"]) in printed
    if not trace:
        assert ("failure_share", "ratio") in printed
        assert result["metrics"]["oracle_queries"]["value"] >= 3
    assert (tmp_path / f"BENCH_{workload}_seed3_trace{trace}.json").is_file()


def test_tail_reported_only_with_ten_samples_beyond_it():
    r = run.Run(block=1, attempted=100)
    r.samples = [[i] for i in range(99)]
    r.untraced = {i: float(i) for i in range(100)}
    assert "reconstruct_s.p90" not in run.extra_end_to_end(r)
    r.samples.append([99])
    assert run.extra_end_to_end(r)["reconstruct_s.p90"] == (pytest.approx(89.9), "s")


def test_time_metrics_take_the_low_quantile_of_sample_means():
    r = run.Run(block=2, attempted=200)
    r.samples = [[2 * k, 2 * k + 1] for k in range(100)]
    r.untraced = {i: float(i) for i in range(200)}  # sample k has mean 2k + 0.5
    assert run._per_reconstruction(r, r.untraced) == pytest.approx(2 * 99 * run.TIME_QUANTILE + 0.5)
    r.samples = r.samples[:1]
    assert run._per_reconstruction(r, r.untraced) == 0.5


def _drop_one_edge(original):
    def corrupted(o, vertices, *args, **kwargs):
        detail = original(o, vertices, *args, **kwargs)
        edges = sorted(detail.edges)[1:]
        return dataclasses.replace(detail, edges=frozenset(edges))

    return corrupted


def test_corrupted_answer_is_a_failure_and_untimed(monkeypatch):
    monkeypatch.setattr(
        edge_recon, "reconstruct_edges_detail", _drop_one_edge(edge_recon.reconstruct_edges_detail)
    )
    w = dataclasses.replace(workloads.WORKLOADS["edge-dense"], prepare=TINY["edge-dense"])
    r = run.run_workload(w, seed=5, seconds=0.05)
    assert r.attempted >= 1 and r.failed == r.attempted
    assert all(reason.startswith("edge set differs") for reason in r.failures)
    assert r.samples == [] and r.untraced == {}
    assert run.end_to_end(r)["reconstruct_s"][0] == 0.0


def test_corrupted_answer_makes_the_run_exit_nonzero(tiny, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(
        edge_recon, "reconstruct_edges_detail", _drop_one_edge(edge_recon.reconstruct_edges_detail)
    )
    code, human, result = _main(capsys, tmp_path, "edge-dense", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert any("FAILED" in line for line in human)


def test_gate_rejects_each_kind_of_wrong_answer():
    g = TINY["edge-dense"](1, 0).graph
    o = DiagramOracle(g)
    vs = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, vs)
    assert workloads.check(g, vs, 3, detail) is None
    assert "queries" in workloads.check(g, vs, 4, detail)
    moved = [vs[0]._replace(x=vs[0].x + 1e-5)] + list(vs[1:])
    assert "pair" in workloads.check(g, moved, 3, detail)
    assert "vertices" in workloads.check(g, vs[1:], 3, detail)
    over = dataclasses.replace(detail, queries=g.n * (g.n - 1) + 1)
    assert "budget" in workloads.check(g, vs, 3, over)
    extra = dataclasses.replace(detail, edges=detail.edges | {(0, 0)})
    assert "edge set differs" in workloads.check(g, vs, 3, extra)


def test_span_wrappers_are_restored_and_self_time_excludes_children():
    rec = SpanRecorder()
    original = edge_recon.pair_directions
    with pytest.raises(RuntimeError):
        with rec.installed([(edge_recon, "pair_directions", "edge_recon.probe_select", None)]):
            assert edge_recon.pair_directions is not original
            raise RuntimeError
    assert edge_recon.pair_directions is original

    inner = rec.wrap("b.inner", lambda: None)
    with rec.span("a.outer"):
        inner()
        inner()
    outer, first, second = rec.finished()
    assert first.parent == second.parent == 0 and outer.parent == -1
    own = self_times(rec.finished())
    assert own[0] == pytest.approx(outer.duration - first.duration - second.duration)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
