import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphfilt import (
    CgConfig,
    arma_apply_cg,
    build_knn_directed,
    cli,
    graph_from_json,
    graph_to_json,
    normalize,
    uniform_real_grid,
)
from graphfilt.arma import arma_from_json
from graphfilt.cg import CgTrace, trace_to_csv
from graphfilt.design import best_order_search, ideal_lowpass, report_record
from graphfilt.errors import DivergenceError, InstabilityError
from graphfilt.graphs import NORMALIZED_LAPLACIAN, read_id_table


def run(argv):
    return cli.main(argv)


def write_signal(path, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])


def read_signal(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[1]) for r in rows])


@pytest.fixture
def er_graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert run(["gen-graph", "--er", "--n", "24", "--p", "0.3", "--seed", "7",
                "-o", str(path)]) == 0
    return path


class TestGenGraph:
    def test_er_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-graph", "--er", "--n", "30", "--p", "0.2", "--seed", "3"]
        assert run(args + ["-o", str(p1)]) == 0
        assert run(args + ["-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_knn_out_degree(self, tmp_path):
        coords = tmp_path / "c.csv"
        rng = np.random.default_rng(0)
        with open(coords, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "x", "y"])
            for i, (x, y) in enumerate(rng.random((16, 2))):
                writer.writerow([i, x, y])
        out = tmp_path / "g.json"
        assert run(["gen-graph", "--knn", "4", "--coords", str(coords),
                    "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["directed"]
        degree = [0] * payload["n"]
        for i, _, _ in payload["edges"]:
            degree[i] += 1
        assert all(d == 4 for d in degree)

    def test_malformed_csv_exits_with_parse_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,weight\n0,x,1.0\n")
        code = run(["gen-graph", "--edges", str(bad), "--directed",
                    "-o", str(tmp_path / "g.json")])
        assert code == cli.EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name, text", [
        pytest.param(["--directed", "--edges"], "e.csv", "src,dst,weight\n0,1,1.0\n1,2,inf\n",
                     id="edge-weight-inf"),
        pytest.param(["--knn", "1", "--coords"], "c.csv",
                     "id,x,y\n0,0.0,0.0\n1,nan,1.0\n2,1.0,1.0\n", id="coordinate-nan"),
    ])
    def test_non_finite_csv_field_exits_with_its_line(self, tmp_path, capsys, flags,
                                                      name, text):
        (tmp_path / name).write_text(text)
        code = run(["gen-graph", *flags, str(tmp_path / name), "-o", str(tmp_path / "g.json")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: line 3: ")


class TestDesign:
    def test_fir_filter_file(self, tmp_path):
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        code = run(["design", "--method", "fir", "--grid", "uniform-real",
                    "--grid-size", "40", "--response", "lowpass:1.0",
                    "--k", "6", "-o", str(out), "--report", str(report)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "fir" and len(payload["g"]) == 7
        assert "rnmse" in json.loads(report.read_text())

    @pytest.mark.parametrize("k, warned", [(48, True), (8, False)])
    def test_rank_deficient_fir_warns(self, tmp_path, capsys, k, warned):
        # the K = 48 fit still writes its filter and exits 0, but says on
        # stderr and in the report that the fit is rank-deficient
        out, report = tmp_path / "f.json", tmp_path / "r.json"
        code = run(["design", "--method", "fir", "--grid", "uniform-real",
                    "--response", "lowpass:1.0", "--k", str(k),
                    "-o", str(out), "--report", str(report)])
        assert code == cli.EXIT_OK
        assert len(json.loads(out.read_text())["g"]) == k + 1
        lines = capsys.readouterr().err.splitlines()
        rep = json.loads(report.read_text())
        if warned:
            assert rep["warnings"] == ["rank-deficient"]
            assert len(lines) == 1 and lines[0].startswith("warning: FIR fit of order 48 ")
        else:
            assert rep["warnings"] == [] and lines == []

    @pytest.mark.parametrize("orders, warned", [
        (["--budget", "19"], ["iterative design of orders (8, 11): rank-deficient"]),
        (["--p", "9", "--q", "10"], ["iterative design of orders (9, 10): rank-deficient"]),
        (["--budget", "5"], []),
    ])
    def test_arma_design_warnings_on_stderr(self, tmp_path, capsys, orders, warned):
        # a search and a fixed-order design both still write their filter
        # and exit 0, with one stderr line per warning of the report
        out, report = tmp_path / "f.json", tmp_path / "r.json"
        code = run(["design", "--method", "iterative", "--grid", "uniform-real",
                    "--response", "lowpass:1.0", *orders,
                    "-o", str(out), "--report", str(report)])
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["type"] == "arma"
        rep = json.loads(report.read_text())
        assert rep["warnings"] == [w.rsplit(": ", 1)[1] for w in warned]
        assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in warned]

    def test_iterative_budget_search(self, tmp_path):
        out = tmp_path / "f.json"
        report = tmp_path / "r.json"
        code = run(["design", "--method", "iterative", "--grid", "uniform-real",
                    "--grid-size", "50", "--response", "lowpass:1.0",
                    "--budget", "5", "-o", str(out), "--report", str(report)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "arma" and payload["a"][0] == 1.0
        rep = json.loads(report.read_text())
        assert rep["ar_order"] + rep["ma_order"] == 5
        assert rep["error_history"]
        # the design report's own record, plus the orders and the config echo
        grid = uniform_real_grid(50)
        want = best_order_search(grid, ideal_lowpass(grid, 1.0), 5, "iterative")
        assert rep.pop("config")["budget"] == 5
        assert rep == {**report_record(want), "ar_order": want.filter.ar_order,
                       "ma_order": want.filter.ma_order}

    @pytest.mark.parametrize("budget", [5, 19])
    def test_spectrum_grid_of_nearly_defective_adjacency(self, tmp_path, budget):
        # this directed k-NN adjacency has no well-conditioned eigenvector
        # basis (eigendecompose's reconstruction residual is 2.27), but a
        # design grid needs only its eigenvalues
        rng = np.random.default_rng([35, 5, 1])
        graph = tmp_path / "g.json"
        coords = rng.random((64, 2)) * 3 * np.sqrt(2)
        graph.write_text(graph_to_json(build_knn_directed(coords, 6)))
        out, report = tmp_path / "f.json", tmp_path / "r.json"
        code = run(["design", "--method", "iterative", "--grid", "graph-spectrum",
                    "--graph", str(graph), "--shift", "adjacency", "--response", "lowpass:1.0",
                    "--budget", str(budget), "-o", str(out), "--report", str(report)])
        assert code == cli.EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["ar_order"] + rep["ma_order"] == budget
        assert rep["stable"] and rep["rnmse_true"] < 0.25

    def test_symmetry_violation_exit_code(self, tmp_path):
        resp = tmp_path / "h.csv"
        with open(resp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im"])
            for _ in range(10):
                writer.writerow([1.0, 0.5])  # imaginary part on real grid
        code = run(["design", "--method", "prony-ls", "--grid", "uniform-real",
                    "--grid-size", "10", "--response", f"file:{resp}",
                    "--p", "1", "--q", "1", "-o", str(tmp_path / "f.json")])
        assert code == cli.EXIT_SYMMETRY

    def test_file_response_writes_the_filter_of_its_spec(self, tmp_path):
        grid = uniform_real_grid(100)
        resp = tmp_path / "h.csv"
        with open(resp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im"])
            for h in ideal_lowpass(grid, 1.0):
                writer.writerow([repr(float(h.real)), repr(float(h.imag))])
        outs = []
        for spec in (f"file:{resp}", "lowpass:1.0"):
            outs.append(tmp_path / f"f{len(outs)}.json")
            assert run(["design", "--method", "prony-ls", "--grid", "uniform-real",
                        "--response", spec, "--p", "2", "--q", "2",
                        "-o", str(outs[-1])]) == cli.EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_file_response_with_wrong_row_count_exits_with_dimension_code(self, tmp_path):
        resp = tmp_path / "h.csv"
        resp.write_text("re,im\n" + "1.0,0.0\n" * 9)
        code = run(["design", "--method", "prony-ls", "--grid", "uniform-real",
                    "--grid-size", "10", "--response", f"file:{resp}",
                    "--p", "1", "--q", "1", "-o", str(tmp_path / "f.json")])
        assert code == cli.EXIT_DIMENSION
        assert not (tmp_path / "f.json").exists()

    def test_allpass_response(self, tmp_path):
        out = tmp_path / "f.json"
        code = run(["design", "--method", "prony-ls", "--grid", "complex-disc",
                    "--grid-size", "20", "--response", "allpass",
                    "--p", "0", "--q", "0", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["b"] == [1.0]


class TestApply:
    def test_identity_arma_round_trip(self, tmp_path, er_graph_file):
        filt = tmp_path / "f.json"
        filt.write_text('{"type": "arma", "a": [1.0], "b": [1.0]}')
        x = np.linspace(-1, 1, 24)
        xin = tmp_path / "x.csv"
        write_signal(xin, x)
        out = tmp_path / "y.csv"
        code = run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--shift", "laplacian", "--input", str(xin),
                    "--solver", "direct", "-o", str(out)])
        assert code == 0
        assert np.allclose(read_signal(out), x)

    def test_cg_trace_and_direct_agreement(self, tmp_path, er_graph_file):
        filt = tmp_path / "f.json"
        filt.write_text('{"type": "arma", "a": [1.0, 0.3], "b": [0.5, 0.2]}')
        x = np.sin(np.arange(24))
        xin = tmp_path / "x.csv"
        write_signal(xin, x)
        direct_out = tmp_path / "yd.csv"
        cg_out = tmp_path / "yc.csv"
        trace = tmp_path / "t.csv"
        assert run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "--solver", "direct",
                    "-o", str(direct_out)]) == 0
        assert run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "--solver", "cg", "--cg-eps", "1e-10",
                    "--cg-max-iter", "300", "--trace", str(trace),
                    "-o", str(cg_out)]) == 0
        yd, yc = read_signal(direct_out), read_signal(cg_out)
        assert np.linalg.norm(yc - yd) <= 1e-6 * np.linalg.norm(yd)
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "residual_norm"]
        assert len(rows) > 2

    def test_fir_filter_apply(self, tmp_path, er_graph_file):
        filt = tmp_path / "f.json"
        filt.write_text('{"type": "fir", "g": [1.0, 0.0]}')
        x = np.arange(24.0)
        xin = tmp_path / "x.csv"
        write_signal(xin, x)
        out = tmp_path / "y.csv"
        assert run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "-o", str(out)]) == 0
        assert np.allclose(read_signal(out), x)

    @pytest.mark.parametrize("payload, solver", [
        pytest.param('{"type": "arma", "a": [1.0], "b": [1.0]}', "direct", id="arma-direct"),
        pytest.param('{"type": "arma", "a": [1.0], "b": [1.0]}', "cg", id="arma-cg"),
        pytest.param('{"type": "fir", "g": [1.0]}', "direct", id="fir"),
    ])
    def test_dimension_mismatch_exit_code(self, tmp_path, er_graph_file, payload, solver):
        # each filter's own apply checks the signal length
        filt = tmp_path / "f.json"
        filt.write_text(payload)
        xin = tmp_path / "x.csv"
        write_signal(xin, np.ones(5))
        code = run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "--solver", solver, "-o", str(tmp_path / "y.csv")])
        assert code == cli.EXIT_DIMENSION


    def test_unconverged_cg_warns_and_writes_its_result(self, tmp_path, capsys):
        # the (1,2) lowpass design has a pole on the Laplacian's spectrum:
        # plain CG on a(S) does not reach epsilon, and apply says so on stderr
        graph, filt = tmp_path / "g.json", tmp_path / "f.json"
        xin, out = tmp_path / "x.csv", tmp_path / "y.csv"
        assert run(["gen-graph", "--er", "--n", "500", "--p", "0.02", "--seed", "1",
                    "-o", str(graph)]) == 0
        assert run(["design", "--method", "iterative", "--grid", "uniform-real",
                    "--response", "lowpass:1.0", "--p", "1", "--q", "2",
                    "-o", str(filt)]) == 0
        x = np.random.default_rng(0).standard_normal(500)
        write_signal(xin, x)
        capsys.readouterr()
        code = run(["apply", "--filter", str(filt), "--graph", str(graph),
                    "--input", str(xin), "--solver", "cg", "-o", str(out)])
        assert code == cli.EXIT_OK
        op = normalize(graph_from_json(graph.read_text()), NORMALIZED_LAPLACIAN)
        y, trace = arma_apply_cg(arma_from_json(filt.read_text()), op, read_signal(xin),
                                 CgConfig())
        assert not trace.converged
        assert np.array_equal(read_signal(out), y)
        lines = capsys.readouterr().err.splitlines()
        residual = trace.residual_norms[-1] / trace.residual_norms[0]
        assert lines == [
            f"warning: CG did not converge in {trace.iterations} iterations: "
            f"relative residual {residual:.3g}, epsilon 0.001"
        ]

    @pytest.mark.parametrize("payload, solver, traced", [
        pytest.param('{"type": "fir", "g": [1.0, 0.5]}', "cg", False, id="fir"),
        pytest.param('{"type": "arma", "a": [1.0, 0.3], "b": [0.5, 0.2]}', "direct", False,
                     id="arma-direct"),
        pytest.param('{"type": "arma", "a": [1.0, 0.3], "b": [0.5, 0.2]}', "cg", True,
                     id="arma-cg"),
    ])
    def test_trace_without_a_cg_solve_warns(self, tmp_path, capsys, er_graph_file, payload,
                                            solver, traced):
        # only an ARMA filter under --solver cg has a trace; otherwise apply
        # says that it wrote none, and still succeeds
        filt, xin = tmp_path / "f.json", tmp_path / "x.csv"
        trace, out = tmp_path / "t.csv", tmp_path / "y.csv"
        filt.write_text(payload)
        write_signal(xin, np.sin(np.arange(24)))
        code = run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "--solver", solver, "--trace", str(trace),
                    "-o", str(out)])
        assert code == cli.EXIT_OK
        assert out.exists()
        lines = capsys.readouterr().err.splitlines()
        if traced:
            assert lines == []
            assert trace.read_text().startswith("iter,residual_norm\n")
        else:
            assert lines == [f"warning: no trace written to {trace}: only an ARMA filter "
                             f"under --solver cg has a CG trace"]
            assert not trace.exists()

    def test_direct_solver_past_its_cap_exits_with_parse_code(self, tmp_path, capsys):
        graph, xin, out = tmp_path / "g.json", tmp_path / "x.csv", tmp_path / "y.csv"
        filt = tmp_path / "f.json"
        filt.write_text(ARMA_LOWPASS)
        assert run(["gen-graph", "--er", "--n", "2001", "--p", "0.01", "--seed", "1",
                    "-o", str(graph)]) == 0
        write_signal(xin, np.ones(2001))
        code = run(["apply", "--filter", str(filt), "--graph", str(graph),
                    "--input", str(xin), "--solver", "direct", "-o", str(out)])
        assert code == cli.EXIT_PARSE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: direct solve capped at n=2000")
        assert not out.exists()

    def test_converged_cg_is_silent(self, tmp_path, capsys, er_graph_file):
        filt = tmp_path / "f.json"
        filt.write_text('{"type": "arma", "a": [1.0, 0.3], "b": [0.5, 0.2]}')
        xin = tmp_path / "x.csv"
        write_signal(xin, np.sin(np.arange(24)))
        assert run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "--solver", "cg",
                    "-o", str(tmp_path / "y.csv")]) == 0
        assert capsys.readouterr().err == ""


class TestMalformedGraph:
    @pytest.mark.parametrize("edges", [
        pytest.param([[0, 1], [1, 0]], id="two-fields"),
        pytest.param([[0, "x", 1.0], [1, 0, 1.0]], id="non-numeric"),
        pytest.param([[0, 1.5, 1.0], [1.5, 0, 1.0]], id="fractional-index"),
        pytest.param([["0", "1", "2.5"], ["1", "0", "2.5"]], id="string-fields"),
    ])
    def test_apply_exits_with_parse_code(self, tmp_path, capsys, edges):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 2, "directed": False, "edges": edges}))
        filt = tmp_path / "f.json"
        filt.write_text('{"type": "fir", "g": [1.0]}')
        xin = tmp_path / "x.csv"
        write_signal(xin, np.ones(2))
        code = run(["apply", "--filter", str(filt), "--graph", str(graph),
                    "--input", str(xin), "-o", str(tmp_path / "y.csv")])
        assert code == cli.EXIT_PARSE
        assert "graph JSON" in capsys.readouterr().err


FIR_IDENTITY = '{"type": "fir", "g": [1.0]}'
ARMA_LOWPASS = '{"type": "arma", "a": [1.0, 0.3], "b": [0.5, 0.2]}'
TWO_NODE_SIGNAL = "node_id,value\n0,1.0\n1,2.0\n"
NAN_SIGNAL = "node_id,value\n0,1.0\n1,nan\n"


class TestMalformedApplyInput:
    @pytest.mark.parametrize("signal, filt, solver", [
        pytest.param("node_id,value\n0\n1,2.0\n", FIR_IDENTITY, "direct",
                     id="signal-one-field"),
        pytest.param("node_id,value\n0,1.0\n0,3.0\n1,2.0\n", FIR_IDENTITY, "direct",
                     id="signal-duplicate-node"),
        pytest.param(NAN_SIGNAL, ARMA_LOWPASS, "cg", id="signal-nan-cg"),
        pytest.param(NAN_SIGNAL, ARMA_LOWPASS, "direct", id="signal-nan-direct"),
        pytest.param("node_id,value\n0,-inf\n1,2.0\n", FIR_IDENTITY, "direct",
                     id="signal-inf-fir"),
        pytest.param(TWO_NODE_SIGNAL, '{"type": "fir", "g": [1.0', "direct",
                     id="filter-invalid-json"),
        pytest.param(TWO_NODE_SIGNAL, "[1.0, 2.0]", "direct", id="filter-not-object"),
        pytest.param(TWO_NODE_SIGNAL, '{"type": "fir"}', "direct", id="fir-lacks-g"),
        pytest.param(TWO_NODE_SIGNAL, '{"type": "arma", "b": [1.0]}', "direct",
                     id="arma-lacks-a"),
        pytest.param(TWO_NODE_SIGNAL, '{"type": "arma", "a": [1.0]}', "direct",
                     id="arma-lacks-b"),
    ])
    def test_apply_exits_with_parse_code(self, tmp_path, capsys, signal, filt, solver):
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 2, "directed": false, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}')
        (tmp_path / "f.json").write_text(filt)
        (tmp_path / "x.csv").write_text(signal)
        code = run(["apply", "--filter", str(tmp_path / "f.json"), "--graph", str(graph),
                    "--input", str(tmp_path / "x.csv"), "--solver", solver,
                    "-o", str(tmp_path / "y.csv")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize("table, flags", [
        pytest.param("src,dst,weight\n0,1,1.0\n", ["--directed", "--one-based"],
                     id="edge-negative-after-offset"),
        pytest.param("src,dst,weight\n0,1,1.0\n0,1,2.0\n", ["--directed"],
                     id="edge-conflicting-duplicate"),
        pytest.param("src,dst,weight\n", ["--directed"], id="edge-list-empty"),
        pytest.param("src,dst,weight\n0,1,1.0\n1,0,2.0\n", [],
                     id="edge-undirected-asymmetric"),
        pytest.param("id,x,y\n0,0.0,0.0\n1,1.0,0.0\n1,0.0,1.0\n", ["--knn", "1"],
                     id="coords-duplicate-id"),
        pytest.param("id,x,y\n", ["--knn", "1"], id="coords-empty"),
    ])
    def test_gen_graph_table_exits_with_parse_code(self, tmp_path, capsys, table, flags):
        path = tmp_path / "table.csv"
        path.write_text(table)
        source = "--coords" if "--knn" in flags else "--edges"
        out = tmp_path / "g.json"
        code = run(["gen-graph", source, str(path), *flags, "-o", str(out)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_signal_ids_that_skip_a_node_exit_with_parse_code(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 2, "directed": false, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}')
        (tmp_path / "f.json").write_text(FIR_IDENTITY)
        (tmp_path / "x.csv").write_text("node_id,value\n0,1.0\n2,2.0\n")
        code = run(["apply", "--filter", str(tmp_path / "f.json"), "--graph", str(graph),
                    "--input", str(tmp_path / "x.csv"), "-o", str(tmp_path / "y.csv")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "y.csv").exists()

    def test_response_row_with_one_field_exits_with_parse_code(self, tmp_path, capsys):
        response = tmp_path / "h.csv"
        response.write_text("re,im\n1.0,0.0\n1.0\n1.0,0.0\n")
        code = run(["design", "--method", "fir", "--k", "1", "--grid", "uniform-real",
                    "--grid-size", "3", "--response", f"file:{response}",
                    "-o", str(tmp_path / "f.json")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: line 3: ")

    @pytest.mark.parametrize("row", [
        pytest.param("nan,0.0", id="real-nan"),
        pytest.param("1.0,inf", id="imag-inf"),
    ])
    def test_non_finite_response_row_exits_with_parse_code(self, tmp_path, capsys, row):
        rows = ["1.0,0.0"] * 10
        rows[4] = row
        response = tmp_path / "h.csv"
        response.write_text("re,im\n" + "\n".join(rows) + "\n")
        code = run(["design", "--method", "iterative", "--p", "2", "--q", "2",
                    "--grid", "uniform-real", "--grid-size", "10",
                    "--response", f"file:{response}", "-o", str(tmp_path / "f.json")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: line 6: ")


class TestBadValues:
    @pytest.mark.parametrize("argv, config", [
        pytest.param(["design", "--method", "fir", "--k", "2", "--grid", "uniform-real",
                      "--response", "lowpass:abc"], None, id="lowpass-cutoff-not-number"),
        pytest.param(["design", "--method", "fir", "--k", "4", "--grid", "uniform-real",
                      "--response", "lowpass:nan"], None, id="lowpass-cutoff-nan"),
        pytest.param(["experiment", "universal", "--k-step", "0"], None, id="k-step-zero"),
        pytest.param(["experiment", "universal", "--k-min", "5", "--k-max", "2"], None,
                     id="universal-empty-k-range"),
        pytest.param(["experiment", "compression", "--k-min", "8", "--k-max", "4"], None,
                     id="compression-empty-k-range"),
        pytest.param(["experiment", "prediction", "--k-min", "5", "--k-max", "3"], None,
                     id="prediction-empty-k-range"),
        pytest.param(["experiment", "universal", "--grid", "er-spectrum", "--trials", "0"],
                     None, id="er-spectrum-zero-trials"),
        pytest.param(["experiment", "universal"], "[]", id="config-list"),
        pytest.param(["gen-graph", "--er", "--n", "30", "--p", "0.2", "--seed", "-1"], None,
                     id="gen-graph-negative-seed"),
        pytest.param(["experiment", "interpolation", "--seed", "-1"], None,
                     id="interpolation-negative-seed"),
        pytest.param(["experiment", "interpolation"], '{"seed": -1}',
                     id="config-negative-seed"),
        pytest.param(["experiment", "interpolation"], '{"trials": 2.5}',
                     id="config-fractional-trials"),
        pytest.param(["gen-graph", "--er", "--n", "30", "--p", "0.2"], '{"directed": 1}',
                     id="config-switch-not-boolean"),
        pytest.param(["experiment", "interpolation"], '{"seed": null}',
                     id="config-null-value"),
    ])
    def test_exits_with_parse_code(self, tmp_path, capsys, argv, config):
        out = tmp_path / "out"
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ["-o", str(out)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, problem", [
        pytest.param(["experiment", "universal", "--config", "{tmp}/bad.json"],
                     "invalid config JSON", id="config-invalid-json"),
        pytest.param(["design", "--method", "fir", "--k", "2", "--grid", "graph-spectrum",
                      "--response", "allpass"], "--grid graph-spectrum requires --graph",
                     id="spectrum-grid-without-graph"),
        pytest.param(["design", "--method", "fir", "--k", "2", "--grid", "uniform-real",
                      "--response", "highpass:1.0"], "unknown response spec 'highpass:1.0'",
                     id="unknown-response"),
        pytest.param(["apply", "--filter", "{tmp}/iir.json", "--graph", "{graph}",
                      "--input", "{tmp}/x.csv"], "unknown filter type 'iir'",
                     id="unknown-filter-type"),
        pytest.param(["gen-graph", "--er", "--n", "30"], "--er requires --n and --p",
                     id="er-without-p"),
        pytest.param(["gen-graph", "--knn", "4"], "--knn requires --coords",
                     id="knn-without-coords"),
        pytest.param(["gen-graph"], "choose one of --er, --knn, --edges",
                     id="gen-graph-without-source"),
        pytest.param(["design", "--method", "fir", "--grid", "uniform-real",
                      "--response", "allpass"], "--method fir requires --k",
                     id="fir-without-k"),
        pytest.param(["design", "--method", "iterative", "--p", "2", "--grid",
                      "uniform-real", "--response", "allpass"],
                     "give --budget or both --p and --q", id="arma-without-orders"),
    ])
    def test_error_line_names_the_problem(self, tmp_path, capsys, er_graph_file, argv,
                                          problem):
        (tmp_path / "bad.json").write_text("{")
        (tmp_path / "iir.json").write_text('{"type": "iir", "a": [1.0]}')
        write_signal(tmp_path / "x.csv", np.ones(24))
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path, graph=er_graph_file) for arg in argv]
        assert run(argv + ["-o", str(out)]) == cli.EXIT_PARSE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and problem in line
        assert not out.exists()

    def test_config_value_outside_choices(self, tmp_path, capsys, er_graph_file):
        # a config value meets its flag's choices, as the flag's text would
        (tmp_path / "f.json").write_text(ARMA_LOWPASS)
        write_signal(tmp_path / "x.csv", np.ones(24))
        (tmp_path / "cfg.json").write_text('{"solver": "lu"}')
        out = tmp_path / "y.csv"
        code = run(["apply", "--config", str(tmp_path / "cfg.json"), "--filter",
                    str(tmp_path / "f.json"), "--graph", str(er_graph_file),
                    "--input", str(tmp_path / "x.csv"), "-o", str(out)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: argument --solver: invalid choice")
        assert not out.exists()


def test_import_leaves_experiments_unloaded(tmp_path, er_graph_file):
    # importing the CLI and running `apply --solver cg` load neither the
    # experiments module nor any scipy module: ARMA and FIR, on a Laplacian
    # and on a directed adjacency (normal-equations CG); nor does `design
    # --response lowpass:` on a uniform grid and on a graph spectrum
    points = np.random.default_rng(1).random((20, 2)).tolist()
    coords = tmp_path / "c.csv"
    rows = "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(points))
    coords.write_text("id,x,y\n" + rows)
    knn = tmp_path / "knn.json"
    assert run(["gen-graph", "--knn", "4", "--coords", str(coords), "-o", str(knn)]) == 0
    (tmp_path / "arma.json").write_text('{"type": "arma", "a": [1.0, 0.3], "b": [0.5, 0.2]}')
    (tmp_path / "fir.json").write_text('{"type": "fir", "g": [0.5, 0.3, 0.1]}')
    applies = []
    for graph, shift, n in ((er_graph_file, "laplacian", 24), (knn, "adjacency", 20)):
        write_signal(tmp_path / f"x{n}.csv", np.linspace(-1.0, 1.0, n))
        for filt in ("arma", "fir"):
            applies.append(["apply", "--solver", "cg", "--shift", shift, "--graph", str(graph),
                            "--filter", str(tmp_path / f"{filt}.json"),
                            "--input", str(tmp_path / f"x{n}.csv"),
                            "--trace", str(tmp_path / f"{shift}-{filt}.trace.csv"),
                            "-o", str(tmp_path / f"{shift}-{filt}.csv")])
    designs = [["design", "--method", "fir", "--k", "4", "--grid", "uniform-real",
                "--response", "lowpass:1.0", "-o", str(tmp_path / "uniform.json")],
               ["design", "--method", "iterative", "--budget", "3", "--grid", "graph-spectrum",
                "--graph", str(er_graph_file), "--response", "lowpass:1.0",
                "-o", str(tmp_path / "spectrum.json")]]
    code = ("import sys, graphfilt.cli as cli; "
            f"codes = [cli.main(argv) for argv in {applies + designs!r}]; "
            "print(codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'graphfilt.experiments'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"
    assert all((tmp_path / f"{s}-{f}.csv").exists() for s in ("laplacian", "adjacency")
               for f in ("arma", "fir"))


class TestAtomicWriter:
    def test_failed_write_leaves_no_temp_file_and_the_old_output(self, tmp_path):
        out = tmp_path / "y.csv"
        out.write_text("old\n")

        def write(tmp):
            Path(tmp).write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_writer(str(out), write)
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["y.csv"]


class TestErrorCodeMapping:
    def test_instability_maps_to_dedicated_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise InstabilityError("unstable")

        monkeypatch.setattr(cli, "run_method", boom)
        code = run(["design", "--method", "prony-ls", "--grid", "uniform-real",
                    "--grid-size", "10", "--response", "allpass",
                    "--p", "1", "--q", "1", "-o", str(tmp_path / "f.json")])
        assert code == cli.EXIT_INSTABILITY

    def test_divergence_maps_to_dedicated_code(self, tmp_path, er_graph_file,
                                               monkeypatch):
        def boom(*args, **kwargs):
            raise DivergenceError("diverged")

        monkeypatch.setattr(cli, "arma_apply_cg", boom)
        filt = tmp_path / "f.json"
        filt.write_text('{"type": "arma", "a": [1.0], "b": [1.0]}')
        xin = tmp_path / "x.csv"
        write_signal(xin, np.ones(24))
        code = run(["apply", "--filter", str(filt), "--graph", str(er_graph_file),
                    "--input", str(xin), "--solver", "cg",
                    "-o", str(tmp_path / "y.csv")])
        assert code == cli.EXIT_DIVERGENCE


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": 0.3, "seed": 7}')
        from_config = tmp_path / "a.json"
        explicit = tmp_path / "b.json"
        assert run(["gen-graph", "--config", str(cfg), "--er", "--n", "24",
                    "-o", str(from_config)]) == 0
        assert run(["gen-graph", "--er", "--n", "24", "--p", "0.3", "--seed", "7",
                    "-o", str(explicit)]) == 0
        assert from_config.read_bytes() == explicit.read_bytes()
        override = tmp_path / "c.json"
        assert run(["gen-graph", "--config", str(cfg), "--er", "--n", "24",
                    "--seed", "8", "-o", str(override)]) == 0
        assert override.read_bytes() != explicit.read_bytes()

    def test_config_supplies_a_required_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "g.json"
        cfg.write_text(json.dumps({"output": str(out), "p": 0.3}))
        assert run(["gen-graph", "--config", str(cfg), "--er", "--n", "10"]) == 0
        assert json.loads(out.read_text())["n"] == 10

    def test_required_flag_missing_from_both_still_exits(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": 0.3}')
        assert run(["gen-graph", "--config", str(cfg), "--er", "--n", "10"]) == cli.EXIT_PARSE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "-o/--output" in line

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nonsense": 1}')
        code = run(["gen-graph", "--config", str(cfg), "--er", "--n", "10",
                    "--p", "0.5", "-o", str(tmp_path / "g.json")])
        assert code == cli.EXIT_PARSE
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        pytest.param('{"grid_si": 30}', "config keys that set no flag", id="abbreviated-key"),
        pytest.param('{"budget": false}', "config keys that set no flag",
                     id="false-for-a-value"),
        pytest.param('{"response": ["lowpass:1.0"]}', "config key 'response' takes a string",
                     id="list-value"),
    ])
    def test_config_key_without_its_setting_rejected(self, tmp_path, capsys, config,
                                                     message):
        (tmp_path / "cfg.json").write_text(config)
        out = tmp_path / "f.json"
        code = run(["design", "--config", str(tmp_path / "cfg.json"), "--method", "iterative",
                    "--grid", "uniform-real", "--budget", "3", "--response", "lowpass:1.0",
                    "-o", str(out)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and config.split('"')[1] in err
        assert not out.exists()

    def test_config_switches_and_values_parse_as_flags(self, tmp_path):
        # true is the bare switch and false leaves it off; a value is parsed
        # by its flag, here a negative-looking string that is no option
        args = ["design", "--method", "iterative", "--grid", "uniform-real",
                "--grid-size", "30", "--budget", "3"]
        explicit = tmp_path / "a.json"
        assert run(args + ["--le-budget", "--response", "lowpass:0.5",
                           "-o", str(explicit), "--report", str(tmp_path / "a.rep")]) == 0
        cfg = tmp_path / "cfg.json"
        for switch, flags in ((True, []), (False, ["--le-budget"])):
            out = tmp_path / f"{switch}.json"
            cfg.write_text(json.dumps({"le_budget": switch, "response": "lowpass:0.5",
                                       "report": str(tmp_path / f"{switch}.rep")}))
            assert run(args + ["--config", str(cfg), *flags, "-o", str(out)]) == 0
            assert out.read_bytes() == explicit.read_bytes()
            assert json.loads((tmp_path / f"{switch}.rep").read_text())["config"][
                "le_budget"] is True
        cfg.write_text('{"seed": -1}')
        code = run(["gen-graph", "--config", str(cfg), "--er", "--n", "10", "--p", "0.5",
                    "-o", str(tmp_path / "g.json")])
        assert code == cli.EXIT_PARSE

    def test_leftover_token_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run(["gen-graph", "--er", "--n", "10", "--p", "0.5", "extra", "-o", str(out)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: extra")
        assert not out.exists()


class TestExperimentCommand:
    def test_universal_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["experiment", "universal", "--grid", "uniform-real",
                    "--grid-size", "30", "--k-min", "2", "--k-max", "4",
                    "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "K", "P", "Q", "method",
                           "rnmse_mean", "rnmse_std", "seed"]
        assert len(rows) > 4

    def test_interpolation_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["experiment", "interpolation", "--trials", "2",
                    "-o", str(out)]) == 0
        assert out.exists()

    def test_interpolation_redraws_until_every_component_is_observed(self, tmp_path):
        # at seed 24 a 10% draw leaves a component of the k-NN graph unobserved
        out = tmp_path / "report.csv"
        assert run(["experiment", "interpolation", "--trials", "50", "--seed", "24",
                    "-o", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(np.isfinite(float(r["rnmse_mean"])) for r in rows)

    def test_prediction_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["experiment", "prediction", "--trials", "1",
                    "--k-min", "3", "--k-max", "3", "-o", str(out)]) == 0
        assert out.exists()

    def test_compression_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["experiment", "compression", "--trials", "1",
                    "--k-min", "4", "--k-max", "4", "-o", str(out)]) == 0
        assert out.exists()

    def test_compression_at_seed_12(self, tmp_path):
        # the search's K = 8 winner had a denominator of 5.5e-13 at a grid
        # point, and the study exited 4 with "denominator vanishes"
        out = tmp_path / "report.csv"
        assert run(["experiment", "compression", "--k-min", "4", "--k-max", "8",
                    "--k-step", "4", "--trials", "4", "--seed", "12", "-o", str(out)]) == 0
        assert out.exists()


# a negative zero, the smallest subnormal, a float repr writes with an
# exponent, and one it writes with a trailing .0
EDGE_FLOATS = (-0.0, 5e-324, 1e16, 3.0)


def csv_writer_bytes(header, values) -> bytes:
    """What csv.writer writes for the header and the rows [i, repr(v)]."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for i, v in enumerate(values):
        writer.writerow([i, repr(v)])
    return buf.getvalue().encode()


class TestWriters:
    """The output writers write csv.writer's bytes, and read back exactly."""

    def test_signal_column(self, tmp_path):
        path = tmp_path / "y.csv"
        values = np.array(EDGE_FLOATS)
        cli._write_signal_column(str(path), values)
        assert path.read_bytes() == csv_writer_bytes(["node_id", "value"], EDGE_FLOATS)
        assert read_id_table(path, ("node_id", "value"))[:, 0].tobytes() == values.tobytes()

    def test_cg_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace_to_csv(CgTrace(residual_norms=list(EDGE_FLOATS)), path)
        assert path.read_bytes() == csv_writer_bytes(["iter", "residual_norm"], EDGE_FLOATS)
        back = read_id_table(path, ("iter", "residual_norm"))[:, 0]
        assert back.tobytes() == np.array(EDGE_FLOATS).tobytes()
