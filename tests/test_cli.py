import json
import math
from pathlib import Path

import pytest

from phrecon import PlaneGraph, load_graph, render_svg, save_graph
from phrecon.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def appendix_file(tmp_path, appendix_graph):
    path = tmp_path / "appendix.json"
    save_graph(appendix_graph, path)
    return path


def test_gen_writes_valid_graph(tmp_path):
    out = tmp_path / "g.json"
    assert run("gen", "--n", 4, "--density", 0.8, "--seed", 1, "-o", out) == 0
    from phrecon import validate

    assert validate(load_graph(out)) == []


def test_gen_single_vertex(tmp_path):
    out = tmp_path / "g.json"
    assert run("gen", "--n", 1, "--seed", 3, "-o", out) == 0
    assert load_graph(out).n == 1


def test_gen_usage_error(tmp_path, capsys):
    assert run("gen", "--n", 0, "--seed", 1, "-o", tmp_path / "x.json") == 64
    assert "error" in capsys.readouterr().err


def test_diagrams_single_vertex(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertices": [[0.25, 0.0]], "edges": []}\n')
    out = tmp_path / "d.json"
    assert run("diagrams", gpath, "--direction", "1,0", "-o", out) == 0
    data = json.loads(out.read_text())
    assert data["dim0"] == [[0.25, None]]
    assert data["dim1"] == []


def test_diagrams_edgeless_has_no_dim1(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertices": [[0.1, 0.5], [0.4, 0.2], [0.8, 0.9]], "edges": []}\n')
    out = tmp_path / "d.json"
    assert run("diagrams", gpath, "--direction", "0,1", "-o", out) == 0
    assert json.loads(out.read_text())["dim1"] == []


def test_diagrams_zero_direction_usage_error(tmp_path, appendix_file):
    assert run("diagrams", appendix_file, "--direction", "0,0", "-o", tmp_path / "d.json") == 64


def test_diagrams_degenerate_direction_exit3(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertices": [[0.0, 0.0], [0.0, 1.0]], "edges": []}\n')
    assert run("diagrams", gpath, "--direction", "1,0", "-o", tmp_path / "d.json") == 3
    err = capsys.readouterr().err
    assert "0" in err and "1" in err


def test_reconstruct_appendix_roundtrip(tmp_path, appendix_file, appendix_graph):
    out = tmp_path / "recon.json"
    report = tmp_path / "report.json"
    assert run("reconstruct", appendix_file, "-o", out, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert rep["vertex_queries"] == 3
    assert rep["edge_queries"] <= 4 * 3
    assert rep["retries"] == 0
    assert rep["edge_set_equal"] is True
    assert rep["max_vertex_error"] <= 1e-6
    # the two phases' times split the wall time between them
    assert rep["vertex_ms"] >= 0.0 and rep["edge_ms"] >= 0.0
    assert math.isclose(rep["vertex_ms"] + rep["edge_ms"], rep["wall_time_ms"])
    assert run("verify", appendix_file, out, "--eps", "1e-6") == 0


def test_reconstruct_n12_accuracy(tmp_path):
    gpath = tmp_path / "g.json"
    out = tmp_path / "r.json"
    report = tmp_path / "rep.json"
    assert run("gen", "--n", 12, "--density", 0.5, "--seed", 5, "-o", gpath) == 0
    assert run("reconstruct", gpath, "-o", out, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert rep["max_vertex_error"] <= 1e-6
    assert rep["edge_set_equal"] is True


def test_reconstruct_invalid_graph_exit4(tmp_path, capsys):
    gpath = tmp_path / "bad.json"
    gpath.write_text('{"vertices": [[0.0, 0.0], [0.0, 1.0]], "edges": []}\n')
    assert run("reconstruct", gpath, "-o", tmp_path / "r.json") == 4
    assert "shared x-coordinate" in capsys.readouterr().err


def test_verify_identical_files(tmp_path, appendix_file):
    assert run("verify", appendix_file, appendix_file) == 0


def test_verify_detects_moved_vertex(tmp_path, appendix_graph):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_graph(appendix_graph, a)
    moved = [(v.x + (1e-3 if i == 0 else 0.0), v.y) for i, v in enumerate(appendix_graph.vertices)]
    from phrecon import PlaneGraph

    save_graph(PlaneGraph(moved, appendix_graph.edges), b)
    assert run("verify", a, b, "--eps", "1e-6") == 1


def test_verify_detects_edge_difference(tmp_path, appendix_graph):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_graph(appendix_graph, a)
    from phrecon import PlaneGraph

    fewer = set(appendix_graph.edges) - {(0, 3)}
    save_graph(PlaneGraph(appendix_graph.vertices, fewer), b)
    assert run("verify", a, b) == 1


def test_verify_prints_each_edge_difference_in_its_own_files_indices(tmp_path, appendix_graph, capsys):
    """b lists a's vertices 3, 2, 0, 1 in that order, so a's edge (0, 3) is
    b's (0, 2); b trades it for its (1, 2), which is a's (0, 2)."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(appendix_graph, a)
    V = appendix_graph.vertices
    save_graph(PlaneGraph([V[3], V[2], V[0], V[1]], [(1, 3), (0, 3), (0, 1), (1, 2)]), b)
    assert run("verify", a, b) == 1
    assert capsys.readouterr().err.splitlines() == [f"edge only in {a}: (0, 3)", f"edge only in {b}: (1, 2)"]


def test_verify_finds_the_pairing_within_eps_at_any_scale(tmp_path):
    """The identity pairing is within eps = 1.5e19; pairing the vertices the
    other way is cheaper in total but 2e19 and 4e19 apart."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(PlaneGraph([(0.0, 0.0), (3e19, 1.0)], [(0, 1)]), a)
    save_graph(PlaneGraph([(1e19, 0.0), (4e19, 1.0)], [(0, 1)]), b)
    assert run("verify", a, b, "--eps", "1.5e19") == 0
    assert run("verify", a, b, "--eps", "0.5e19") == 1


@pytest.mark.parametrize("edge", [[-1, 1], [0, 5], [1, 1]])
@pytest.mark.parametrize("bad", ["a", "b"])
def test_verify_invalid_graph_exit4_with_one_line(tmp_path, appendix_file, capsys, bad, edge):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"vertices": [[0.1, 0.2], [0.5, 0.9], [0.8, 0.4]], "edges": [edge]}))
    files = [gpath, appendix_file] if bad == "a" else [appendix_file, gpath]
    assert run("verify", *files) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid graph: ")


def test_verify_refuses_eps_nan_which_pairs_any_vertices(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "--n", 8, "--density", 0, "--seed", 1, "-o", a) == 0
    assert run("gen", "--n", 8, "--density", 0, "--seed", 2, "-o", b) == 0
    assert run("verify", a, b) == 1
    assert run("verify", a, b, "--eps", "nan") == 64


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_verify_bad_eps_usage_error(appendix_file, capsys, value):
    assert run("verify", appendix_file, appendix_file, f"--eps={value}") == 64
    assert "--eps" in capsys.readouterr().err


def test_verify_eps_zero_accepts_identical_files(appendix_file):
    assert run("verify", appendix_file, appendix_file, "--eps", 0) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["diagrams", "reconstruct"])
def test_bad_tolerance_usage_error(tmp_path, appendix_file, capsys, command, value):
    out = tmp_path / "out"
    argv = {"diagrams": ["--direction", "1,0"], "reconstruct": []}[command]
    assert run(command, appendix_file, *argv, f"--tolerance={value}", "-o", out) == 64
    assert "--tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_verify_parse_failure(tmp_path, appendix_file):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run("verify", appendix_file, bad) == 64


def test_render_plain_and_lines(tmp_path, appendix_file, appendix_graph):
    plain = tmp_path / "plain.svg"
    assert run("render", appendix_file, "-o", plain) == 0
    text = plain.read_text()
    assert text.count("<circle") == appendix_graph.n
    assert text.count('class="edge"') == len(appendix_graph.edges)
    assert "<line" not in text

    lined = tmp_path / "lines.svg"
    assert run("render", appendix_file, "--lines", "-o", lined) == 0
    assert lined.read_text().count("<line") == 3 * appendix_graph.n


def test_render_bowtie(tmp_path, appendix_file):
    out = tmp_path / "bt.svg"
    assert run("render", appendix_file, "--bowtie", "2,3", "-o", out) == 0
    assert out.read_text().count('class="bowtie"') == 2


def test_render_bad_indices(tmp_path, appendix_file):
    assert run("render", appendix_file, "--bowtie", "0,9", "-o", tmp_path / "x.svg") == 64
    assert run("render", appendix_file, "--bowtie", "1", "-o", tmp_path / "x.svg") == 64


def test_render_single_vertex(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertices": [[0.25, 0.0]], "edges": []}\n')
    out = tmp_path / "one.svg"
    assert run("render", gpath, "--lines", "-o", out) == 0
    assert out.read_text().count("<line") == 3


def test_reconstruct_explicit_tolerance(tmp_path, appendix_file):
    out = tmp_path / "r.json"
    assert run("reconstruct", appendix_file, "-o", out, "--tolerance", "1e-9") == 0
    assert run("verify", appendix_file, out) == 0


def test_unknown_command_usage_error():
    assert run("frobnicate") == 64


@pytest.mark.parametrize("seed", [0, 3, 8, 21, 34])
def test_reconstruct_then_verify_fuzz(tmp_path, seed):
    g = tmp_path / "g.json"
    r = tmp_path / "r.json"
    n = 2 + seed % 9
    assert run("gen", "--n", n, "--density", 0.6, "--seed", seed, "-o", g) == 0
    assert run("reconstruct", g, "-o", r) == 0
    assert run("verify", g, r, "--eps", "1e-6") == 0


def test_gen_generation_failure_exit2(tmp_path, monkeypatch, capsys):
    from phrecon import GenerationFailed
    from phrecon import cli as cli_mod

    def explode(*args, **kwargs):
        raise GenerationFailed("simulated")

    monkeypatch.setattr(cli_mod, "random_plane_graph", explode)
    assert run("gen", "--n", 4, "--seed", 1, "-o", tmp_path / "g.json") == 2
    assert "generation failed" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("instance", ["gen_n12_d1.0_s7", "gen_n18_d0.6_s3"])
def test_golden_diagrams_and_reconstruct_outputs(tmp_path, instance):
    """`<instance>.graph.json` is `phrecon gen --n 12 --density 1.0 --seed 7`
    (and `--n 18 --density 0.6 --seed 3`); the `.diagrams.json` and
    `.recon.json` files are the outputs of `phrecon diagrams --direction 3,-4`
    and `phrecon reconstruct` on it. Every vertex is the hidden vertex: its
    y is read off the (0, 1) births, and its x is the (1, 0) birth the third
    diagram names."""
    graph = DATA / f"{instance}.graph.json"
    diagrams = tmp_path / "d.json"
    recon = tmp_path / "r.json"
    assert run("diagrams", graph, "--direction", "3,-4", "-o", diagrams) == 0
    assert run("reconstruct", graph, "-o", recon) == 0
    assert diagrams.read_bytes() == (DATA / f"{instance}.diagrams.json").read_bytes()
    assert recon.read_bytes() == (DATA / f"{instance}.recon.json").read_bytes()


@pytest.mark.parametrize("edge", [[-1, 1], [0, 5]])
@pytest.mark.parametrize("command", ["diagrams", "render"])
def test_edge_index_out_of_range_exit4_writes_nothing(tmp_path, capsys, command, edge):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"vertices": [[0.1, 0.2], [0.5, 0.9], [0.8, 0.4]], "edges": [edge]}))
    out = tmp_path / "out"
    extra = ["--direction", "1,0.3"] if command == "diagrams" else []
    assert run(command, gpath, *extra, "-o", out) == 4
    assert capsys.readouterr().err == f"invalid graph: edge ({edge[0]}, {edge[1]}) out of range\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["diagrams", "render"])
def test_self_loop_exit4_writes_nothing(tmp_path, capsys, command):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"vertices": [[0.1, 0.2], [0.5, 0.9], [0.8, 0.4]], "edges": [[1, 1]]}))
    out = tmp_path / "out"
    extra = ["--direction", "1,0.3"] if command == "diagrams" else []
    assert run(command, gpath, *extra, "-o", out) == 4
    assert capsys.readouterr().err == "invalid graph: self-loop edge (1, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["diagrams", "reconstruct", "render", "verify"])
def test_non_finite_coordinate_exit4_writes_nothing(tmp_path, capsys, appendix_file, command, value):
    gpath = tmp_path / "g.json"
    gpath.write_text(f'{{"vertices": [[0.1, 0.2], [{value}, 0.9], [0.8, 0.4]], "edges": [[0, 1]]}}')
    out = tmp_path / "out"
    argv = {
        "diagrams": [gpath, "--direction", "1,0.3", "-o", out],
        "reconstruct": [gpath, "-o", out],
        "render": [gpath, "--bowtie", "0,1", "-o", out],
        "verify": [appendix_file, gpath],
    }[command]
    assert run(command, *argv) == 4
    assert capsys.readouterr().err == "invalid graph: non-finite coordinate at vertex 1\n"
    assert not out.exists()


def test_reconstruct_then_verify_the_empty_graph(tmp_path):
    gpath, out, report = tmp_path / "g.json", tmp_path / "r.json", tmp_path / "report.json"
    gpath.write_text('{"vertices": [], "edges": []}\n')
    assert run("reconstruct", gpath, "-o", out, "--report", report) == 0
    assert out.read_text() == '{"vertices": [], "edges": []}\n'
    rep = json.loads(report.read_text())
    assert (rep["vertex_queries"], rep["edge_queries"], rep["edge_set_equal"]) == (3, 0, True)
    assert run("verify", gpath, out) == 0


def test_render_svg_refuses_an_edge_index_out_of_range():
    V = [(0.1, 0.2), (0.5, 0.9), (0.8, 0.4)]
    with pytest.raises(ValueError, match=r"edge \(-1, 1\) out of range"):
        render_svg(PlaneGraph(V, [(-1, 1)]))
    with pytest.raises(ValueError, match=r"self-loop edge \(2, 2\)"):
        render_svg(PlaneGraph(V, [(0, 1), (2, 2)]), lines=True)
    assert render_svg(PlaneGraph(V, [(0, 1)])).count('class="edge"') == 1


@pytest.mark.parametrize("command", ["diagrams", "reconstruct", "render", "verify"])
def test_malformed_graph_file_exit64_with_one_error_line(tmp_path, capsys, command):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertices": [1, 2], "edges": []}\n')
    out = tmp_path / "out"
    argv = {
        "diagrams": [gpath, "--direction", "1,0", "-o", out],
        "reconstruct": [gpath, "-o", out],
        "render": [gpath, "-o", out],
        "verify": [gpath, gpath],
    }[command]
    assert run(command, *argv) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()
