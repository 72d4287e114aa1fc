import csv

import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    CgConfig,
    CgTrace,
    DivergenceError,
    ParameterError,
    arma_apply_cg,
    arma_apply_direct,
    build_er_graph,
    build_knn_directed,
    cg_solve,
    normalize,
    trace_to_csv,
)
from graphfilt import fir, graphs
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN

from conftest import random_stable_arma


def er_op(n=100, p=0.1, seed=7):
    return normalize(build_er_graph(n, p, seed), NORMALIZED_LAPLACIAN)


class TestConfig:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ParameterError):
            CgConfig(epsilon=0.0)

    def test_iteration_floor(self):
        with pytest.raises(ParameterError):
            CgConfig(max_iterations=0)


class TestArmaApplyCg:
    def test_identity_converges_in_one_iteration(self):
        op = er_op(20, 0.3, 1)
        x = np.arange(20.0)
        y, trace = arma_apply_cg(ArmaFilter(a=[1.0], b=[1.0]), op, x, CgConfig())
        assert trace.iterations <= 1
        assert np.allclose(y, x, atol=1e-12)
        assert trace.shift_applications == 0  # no AR, no MA shifts

    def test_default_tolerance_tracks_direct_solve(self):
        op = er_op()
        rng = np.random.default_rng(3)
        a, b = random_stable_arma(rng, 2, 2)
        filt = ArmaFilter(a=a, b=b)
        x = rng.standard_normal(100)
        direct = arma_apply_direct(filt, op, x)
        y, _ = arma_apply_cg(filt, op, x, CgConfig(epsilon=1e-3, max_iterations=200))
        assert np.linalg.norm(y - direct) <= 1e-2 * np.linalg.norm(direct)

    def test_tight_tolerance_matches_direct_solve(self):
        op = er_op()
        rng = np.random.default_rng(4)
        a, b = random_stable_arma(rng, 3, 2)
        filt = ArmaFilter(a=a, b=b)
        x = rng.standard_normal(100)
        direct = arma_apply_direct(filt, op, x)
        y, trace = arma_apply_cg(filt, op, x, CgConfig(epsilon=1e-10, max_iterations=500))
        assert trace.converged
        assert np.linalg.norm(y - direct) <= 1e-6 * np.linalg.norm(direct)

    def test_residual_history_shape_and_decrease(self):
        op = er_op(60, 0.15, 2)
        rng = np.random.default_rng(5)
        a, b = random_stable_arma(rng, 2, 1)
        x = rng.standard_normal(60)
        _, trace = arma_apply_cg(
            ArmaFilter(a=a, b=b), op, x, CgConfig(epsilon=1e-8, max_iterations=100)
        )
        res = trace.residual_norms
        assert len(res) == trace.iterations + 1
        assert all(b_ < a_ for a_, b_ in zip(res, res[1:]))

    def test_exact_convergence_within_n_iterations(self):
        op = er_op(50, 0.2, 8)
        rng = np.random.default_rng(6)
        a, b = random_stable_arma(rng, 2, 2)
        x = rng.standard_normal(50)
        _, trace = arma_apply_cg(
            ArmaFilter(a=a, b=b), op, x, CgConfig(epsilon=1e-14, max_iterations=50)
        )
        assert trace.residual_norms[-1] <= 1e-8 * trace.residual_norms[0]

    def test_shift_count_symmetric(self):
        op = er_op(40, 0.2, 9)
        rng = np.random.default_rng(7)
        a, b = random_stable_arma(rng, 3, 2)
        x = rng.standard_normal(40)
        _, trace = arma_apply_cg(
            ArmaFilter(a=a, b=b), op, x, CgConfig(epsilon=1e-6, max_iterations=60)
        )
        ar, ma = 3, 2
        assert trace.shift_applications == ma + ar + ar * trace.iterations
        assert not trace.normal_equations

    def test_shift_count_normal_equations_doubles_ar_term(self):
        rng = np.random.default_rng(10)
        op = normalize(build_knn_directed(rng.random((25, 2)) * 3, 4), NORMALIZED_ADJACENCY)
        a, b = random_stable_arma(rng, 2, 3)
        x = rng.standard_normal(25)
        _, trace = arma_apply_cg(
            ArmaFilter(a=a, b=b), op, x, CgConfig(epsilon=1e-8, max_iterations=100)
        )
        ar, ma = 2, 3
        assert trace.normal_equations
        assert trace.shift_applications == ma + 2 * ar + 2 * ar * trace.iterations

    @pytest.mark.parametrize("symmetric", [True, False], ids=["laplacian", "knn-adjacency"])
    def test_shift_calls_equal_trace_count(self, monkeypatch, symmetric):
        # every shift the kernel makes is one call of the graphs functions it
        # looks up, and the trace counts exactly those calls
        rng = np.random.default_rng(12)
        if symmetric:
            op = er_op(40, 0.2, 9)
        else:
            op = normalize(build_knn_directed(rng.random((30, 2)) * 3, 4),
                           NORMALIZED_ADJACENCY)
        calls = {"shift_apply": 0, "shift_apply_transpose": 0}
        for name in calls:
            def counting(op, x, name=name, original=getattr(fir, name)):
                calls[name] += 1
                return original(op, x)

            monkeypatch.setattr(fir, name, counting)
        ar, ma = 3, 2
        a, b = random_stable_arma(rng, ar, ma)
        _, trace = arma_apply_cg(
            ArmaFilter(a=a, b=b), op, rng.standard_normal(op.n),
            CgConfig(epsilon=1e-8, max_iterations=100),
        )
        assert trace.normal_equations is not symmetric
        products = trace.iterations + 1
        transposed = 0 if symmetric else ar * products
        assert calls["shift_apply_transpose"] == transposed
        assert calls["shift_apply"] == ma + ar * products
        assert sum(calls.values()) == trace.shift_applications
        assert trace.shift_applications == ma + ar * products * (1 if symmetric else 2)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["laplacian", "knn-adjacency"])
    def test_scipy_switch_mid_solve_changes_no_bit(self, tmp_path, monkeypatch, symmetric):
        # the solve that switches from the numpy kernels to scipy's after 10
        # products writes the bytes of the solve that never switches
        rng = np.random.default_rng(13)
        graph = (build_er_graph(80, 0.1, 4) if symmetric
                 else build_knn_directed(rng.random((60, 2)) * 3, 5))
        kind = NORMALIZED_LAPLACIAN if symmetric else NORMALIZED_ADJACENCY
        a, b = random_stable_arma(rng, 3, 2)
        x = rng.standard_normal(graph.n)
        cfg = CgConfig(epsilon=1e-10, max_iterations=80)
        outputs = []
        for switch in (None, 10):
            op = normalize(graph, kind)
            if switch is not None:
                monkeypatch.setattr(graphs, "_SCIPY_AFTER_ARC_VISITS", switch * op.nnz)
            y, trace = arma_apply_cg(ArmaFilter(a=a, b=b), op, x, cfg)
            # the scipy view is built exactly when the switch is crossed
            assert ("matrix" in vars(op)) == (switch is not None)
            assert trace.shift_applications > 2 * 10
            trace_to_csv(trace, tmp_path / "trace.csv")
            outputs.append((y.tobytes(), (tmp_path / "trace.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_normal_equations_match_direct_solve(self):
        rng = np.random.default_rng(11)
        op = normalize(build_knn_directed(rng.random((25, 2)) * 3, 4), NORMALIZED_ADJACENCY)
        a, b = random_stable_arma(rng, 2, 2)
        filt = ArmaFilter(a=a, b=b)
        x = rng.standard_normal(25)
        direct = arma_apply_direct(filt, op, x)
        y, trace = arma_apply_cg(filt, op, x, CgConfig(epsilon=1e-12, max_iterations=500))
        assert trace.normal_equations
        assert np.linalg.norm(y - direct) <= 1e-6 * np.linalg.norm(direct)

    def test_initial_guess_short_circuits(self):
        op = er_op(20, 0.3, 1)
        x = np.arange(20.0)
        cfg = CgConfig(epsilon=1e-3, max_iterations=10, y0=x.copy())
        y, trace = arma_apply_cg(ArmaFilter(a=[1.0], b=[1.0]), op, x, cfg)
        assert trace.iterations == 0
        assert trace.converged
        assert np.array_equal(y, x)


class TestCgSolve:
    def test_divergence_detected_on_non_normal_operator(self):
        # strongly non-normal triangular operator; plain CG residual blows up
        n = 12
        matrix = np.eye(n) + np.triu(np.full((n, n), 2.0), 1)
        z = np.random.default_rng(0).standard_normal(n)
        with pytest.raises(DivergenceError) as err:
            cg_solve(lambda v: matrix @ v, z, CgConfig(epsilon=1e-8, max_iterations=60))
        assert isinstance(err.value.trace, CgTrace)
        assert len(err.value.trace.residual_norms) >= 5

    def test_zero_rhs_returns_zero(self):
        y, trace = cg_solve(lambda v: 2 * v, np.zeros(5), CgConfig())
        assert trace.converged
        assert np.array_equal(y, np.zeros(5))


def test_trace_csv(tmp_path):
    op = er_op(30, 0.2, 3)
    rng = np.random.default_rng(1)
    a, b = random_stable_arma(rng, 2, 1)
    x = rng.standard_normal(30)
    _, trace = arma_apply_cg(
        ArmaFilter(a=a, b=b), op, x, CgConfig(epsilon=1e-6, max_iterations=50)
    )
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "residual_norm"]
    assert len(rows) == len(trace.residual_norms) + 1
    assert float(rows[1][1]) == trace.residual_norms[0]
