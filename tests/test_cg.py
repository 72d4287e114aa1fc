import csv

import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    CgConfig,
    CgTrace,
    DimensionError,
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
        # the solve that switches from the numpy kernels to scipy's after
        # about 10 products writes the bytes of the solve that never switches
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
                monkeypatch.setattr(graphs, "_SCIPY_AFTER_ARC_VISITS",
                                    switch * op._row_layout.charge)
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


def columnwise(ops):
    """A block operator whose column j is ops[j] applied to that column
    alone, on a contiguous copy, so a column of a block solve sees the
    products its solo solve sees."""
    def apply(block):
        return np.stack([op(np.ascontiguousarray(block[:, j])) for j, op in enumerate(ops)],
                        axis=1)
    return apply


def assert_solo_bits(ops, rhs, cfg):
    """Each column of a block solve equals its solo solve bit for bit."""
    y, traces = cg_solve(columnwise(ops), rhs, cfg)
    assert y.shape == rhs.shape and len(traces) == rhs.shape[1]
    for j, op in enumerate(ops):
        solo_y, solo = cg_solve(op, rhs[:, j].copy(), cfg)
        assert np.array_equal(y[:, j], solo_y)
        assert (traces[j].iterations, traces[j].converged) == (solo.iterations, solo.converged)
        assert traces[j].residual_norms == solo.residual_norms
    return traces


class TestBlockCgSolve:
    """A block of right sides: each column runs its own recursion and gets
    the bits of its solo solve; a column that stops is frozen."""

    n = 12

    def diagonal(self, values):
        values = np.asarray(values, dtype=float)
        return lambda v: values * v

    def test_columns_stop_at_their_own_iterations(self):
        rng = np.random.default_rng(3)
        n = self.n
        ops = [
            self.diagonal(np.linspace(1.0, 2.0, n)),     # converges quickly
            self.diagonal(np.geomspace(1.0, 1e3, n)),    # needs more iterations
            self.diagonal(np.full(n, 4.0)),              # one iteration
            self.diagonal(np.linspace(1.0, 2.0, n)),     # zero right side
        ]
        rhs = rng.standard_normal((n, len(ops)))
        rhs[:, 3] = 0.0
        traces = assert_solo_bits(ops, rhs, CgConfig(epsilon=1e-8, max_iterations=50))
        iterations = [t.iterations for t in traces]
        assert len(set(iterations[:3])) == 3
        assert iterations[2] == 1 and iterations[3] == 0
        assert all(t.converged for t in traces)

    def test_iteration_cap_and_zero_curvature(self):
        n = self.n
        indefinite = np.ones(n)
        indefinite[1] = -1.0
        ops = [
            self.diagonal(np.geomspace(1.0, 1e4, n)),    # stopped by the cap
            self.diagonal(indefinite),                   # d^T P d = 0 at once
            self.diagonal(np.linspace(1.0, 2.0, n)),
        ]
        rhs = np.random.default_rng(4).standard_normal((n, len(ops)))
        rhs[:, 1] = 0.0
        rhs[:2, 1] = 1.0
        cfg = CgConfig(epsilon=1e-12, max_iterations=6)
        capped, flat, _ = assert_solo_bits(ops, rhs, cfg)
        assert capped.iterations == 6 and not capped.converged
        assert flat.iterations == 0 and not flat.converged

    def test_one_diverging_column_raises_with_its_trace(self):
        n = self.n
        matrix = np.eye(n) + np.triu(np.full((n, n), 2.0), 1)
        ops = [self.diagonal(np.linspace(1.0, 2.0, n)), lambda v: matrix @ v]
        rhs = np.random.default_rng(0).standard_normal((n, 2))
        cfg = CgConfig(epsilon=1e-8, max_iterations=60)
        with pytest.raises(DivergenceError) as solo:
            cg_solve(ops[1], rhs[:, 1].copy(), cfg)
        with pytest.raises(DivergenceError) as block:
            cg_solve(columnwise(ops), rhs, cfg)
        assert block.value.trace.residual_norms == solo.value.trace.residual_norms
        assert block.value.trace.iterations == solo.value.trace.iterations

    def test_shift_operator_block_matches_solo_solves(self):
        # the interpolation system with a mask per column: one block shift
        # product per iteration (scipy), 1-D products (numpy) alone
        op = er_op(40, 0.15, 5)
        rng = np.random.default_rng(6)
        masks = (rng.random((op.n, 5)) < 0.4).astype(float)
        masks[0] = 1.0
        rhs = masks * rng.standard_normal((op.n, 5))
        cfg = CgConfig(epsilon=1e-6, max_iterations=40)
        y, traces = cg_solve(lambda v: masks * v + 1.5 * graphs.shift_apply(op, v), rhs, cfg)
        for j in range(5):
            m = masks[:, j].copy()
            solo_y, solo = cg_solve(lambda v: m * v + 1.5 * graphs.shift_apply(op, v),
                                    rhs[:, j].copy(), cfg)
            assert np.array_equal(y[:, j], solo_y)
            assert traces[j].residual_norms == solo.residual_norms
            assert traces[j].converged == solo.converged

    def test_block_takes_no_shared_trace(self):
        with pytest.raises(DimensionError):
            cg_solve(lambda v: v, np.ones((3, 2)), CgConfig(), trace=CgTrace())


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
