import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    InstabilityError,
    CgConfig,
    Graph,
    ParameterError,
    SingularSystemError,
    eigendecompose,
    gft,
    igft,
    normalize,
    rnmse,
    spectrum_grid,
)
from graphfilt import experiments
from graphfilt.errors import CsvParseError
from graphfilt.experiments import (
    InterpolationTask,
    _backward_filter,
    _budget_candidates,
    _reconstruct_from_filter,
    compress,
    compress_fir,
    experiment_graphs,
    ideal_lowpass,
    interpolate,
    interpolation_matrix,
    interpolation_study,
    predict,
    prediction_study,
    quantize_residual,
    read_signal_csv,
    smooth_signal,
    universal_study,
)
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN
from graphfilt.spectral import complex_disc_grid, uniform_real_grid


def laplacian_op(n=32, seed=42):
    _, undirected = experiment_graphs(n=n, seed=seed)
    return normalize(undirected, NORMALIZED_LAPLACIAN)


def adjacency_op(n=32, seed=42):
    directed, _ = experiment_graphs(n=n, seed=seed)
    return normalize(directed, NORMALIZED_ADJACENCY)


class TestLowpass:
    def test_real_grid_threshold(self):
        grid = uniform_real_grid(5)  # 0, 0.5, 1, 1.5, 2
        assert np.array_equal(ideal_lowpass(grid, 1.0).real, [1, 1, 1, 0, 0])

    def test_disc_grid_distance_from_unit_point(self):
        grid = complex_disc_grid(30)
        h = ideal_lowpass(grid, 1.0)
        inside = np.abs(grid.lambdas - 1.0) <= 1.0
        assert np.array_equal(h.real.astype(bool), inside)


class TestSmoothSignal:
    def test_deterministic_and_normalized(self):
        op = laplacian_op()
        dec = eigendecompose(op)
        x1 = smooth_signal(dec, op.kind, np.random.default_rng(1))
        x2 = smooth_signal(dec, op.kind, np.random.default_rng(1))
        assert np.array_equal(x1, x2)
        assert np.linalg.norm(x1) == pytest.approx(np.sqrt(32))

    def test_mask_profile_concentrates_low_frequencies(self):
        op = laplacian_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(2), keep_frac=0.25)
        x_hat = gft(dec, x)
        order = np.argsort(dec.lambdas.real)
        low = np.linalg.norm(x_hat[order[:8]])
        high = np.linalg.norm(x_hat[order[16:]])
        assert low > 100 * high

    def test_decay_profile_is_broadband_and_real(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(3), profile="decay")
        assert np.all(np.isreal(x))
        x_hat = gft(dec, x)
        assert np.min(np.abs(x_hat)) > 0.0


class TestInterpolate:
    def test_all_known_tiny_prior_returns_observation(self):
        op = laplacian_op()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(32)
        task = InterpolationTask(mask=np.ones(32, dtype=bool), omega=1e-9)
        y, trace = interpolate(op, x, task, CgConfig(epsilon=1e-10, max_iterations=100))
        assert np.linalg.norm(y - x) <= 1e-6 * np.linalg.norm(x)

    def test_two_node_hand_inversion(self):
        g = Graph(n=2, edges=((0, 1, 1.0), (1, 0, 1.0)), directed=False)
        op = normalize(g, NORMALIZED_LAPLACIAN)
        task = InterpolationTask(mask=np.array([True, False]), omega=1.0)
        observed = np.array([3.0, 0.0])
        # (T + L) = [[2,-1],[-1,1]], inverse [[1,1],[1,2]] -> solution [3, 3]
        y, _ = interpolate(op, observed, task, CgConfig(epsilon=1e-12, max_iterations=50))
        assert np.allclose(y, [3.0, 3.0], atol=1e-9)
        direct = np.linalg.solve(interpolation_matrix(op, task), observed)
        assert np.allclose(y, direct, atol=1e-9)

    def test_system_matrix_positive_definite_with_observed_components(self):
        op = laplacian_op()
        rng = np.random.default_rng(5)
        mask = np.zeros(32, dtype=bool)
        mask[rng.permutation(32)[:4]] = True
        task = InterpolationTask(mask=mask, omega=1.0)
        eigs = np.linalg.eigvalsh(interpolation_matrix(op, task))
        assert eigs.min() > 0.0

    def test_unobserved_component_rejected(self):
        edges = (
            (0, 1, 1.0), (1, 0, 1.0),
            (2, 3, 1.0), (3, 2, 1.0),
        )
        op = normalize(Graph(n=4, edges=edges, directed=False), NORMALIZED_LAPLACIAN)
        task = InterpolationTask(mask=np.array([True, False, False, False]), omega=1.0)
        with pytest.raises(SingularSystemError):
            interpolate(op, np.ones(4), task, CgConfig())

    def test_study_rejects_too_few_known_nodes_for_the_components(self):
        # the seed-24 geometric graph has more than one component, so a
        # single known node can never observe all of them
        with pytest.raises(SingularSystemError):
            interpolation_study(known_fracs=(0.01,), trials=1, seed=24)

    def test_cg_close_to_exact_inverse(self):
        op = laplacian_op()
        dec = eigendecompose(op)
        rng = np.random.default_rng(6)
        x = smooth_signal(dec, op.kind, rng)
        mask = np.zeros(32, dtype=bool)
        mask[rng.permutation(32)[:16]] = True
        task = InterpolationTask(mask=mask, omega=1.0)
        observed = np.where(mask, x, 0.0)
        y, _ = interpolate(op, observed, task, CgConfig(epsilon=1e-5, max_iterations=200))
        direct = np.linalg.solve(interpolation_matrix(op, task), observed)
        assert np.linalg.norm(y - direct) <= 1e-3 * np.linalg.norm(direct)

    def test_requires_laplacian_kind(self):
        op = adjacency_op()
        task = InterpolationTask(mask=np.ones(32, dtype=bool), omega=1.0)
        with pytest.raises(ParameterError):
            interpolate(op, np.ones(32), task, CgConfig())


class TestQuantizer:
    def test_hand_example(self):
        q = quantize_residual(np.array([1.53, -0.27]), 8)
        assert q.integer_bits == 1
        assert q.step == 2.0**-6
        assert q.values[0] == pytest.approx(98 * 2.0**-6)
        assert q.values[1] == pytest.approx(-17 * 2.0**-6)

    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(-1.5, 1.5, 100)
        q = quantize_residual(r, 9)
        assert np.max(np.abs(q.values - r)) <= q.step / 2 + 1e-15

    def test_zero_residual_guard(self):
        q = quantize_residual(np.zeros(5), 6)
        assert q.integer_bits == 0
        assert np.array_equal(q.values, np.zeros(5))

    def test_clamps_at_largest_representable(self):
        q = quantize_residual(np.array([2.0, -2.0]), 4)
        limit = 2.0**1 - q.step
        assert np.array_equal(q.values, [limit, -limit])

    def test_minimum_bits(self):
        with pytest.raises(ParameterError):
            quantize_residual(np.ones(3), 2)


class TestPrediction:
    def test_reconstruction_error_non_increasing_in_bits_for_fixed_filter(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(8), profile="decay")
        filt = ArmaFilter(a=[1.0, -0.4], b=[0.0, 0.5, 0.05])
        errs = []
        for bits in (4, 6, 8, 12):
            x_tilde, _, _ = _reconstruct_from_filter(filt, op, x, bits)
            errs.append(rnmse(x_tilde, x))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_backward_filter_inverts_forward_residual(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(9), profile="decay")
        filt = ArmaFilter(a=[1.0, -0.4], b=[0.0, 0.5, 0.05])
        from graphfilt.arma import arma_apply_direct

        residual = x - arma_apply_direct(filt, op, x)
        back = _backward_filter(filt)
        assert back.a[0] == 1.0
        recovered = arma_apply_direct(back, op, residual)
        assert np.linalg.norm(recovered - x) <= 1e-8 * np.linalg.norm(x)

    def test_exact_prediction_edge_case_degenerates(self):
        # mode at frequency 1 of the 2-path adjacency with a filter whose
        # response is exactly 1 there: the residual vanishes, the quantizer
        # passes zeros, and the backward system is singular
        from graphfilt.arma import arma_apply_direct

        g = Graph(n=2, edges=((0, 1, 1.0), (1, 0, 1.0)), directed=False)
        op = normalize(g, NORMALIZED_ADJACENCY)
        x = np.array([1.0, 1.0])
        filt = ArmaFilter(a=[1.0, 0.5], b=[0.0, 1.5])
        residual = x - arma_apply_direct(filt, op, x)
        assert np.max(np.abs(residual)) <= 1e-12
        quantized = quantize_residual(residual, 8)
        assert np.array_equal(quantized.values, np.zeros(2))
        with pytest.raises(SingularSystemError):
            arma_apply_direct(_backward_filter(filt), op, quantized.values)

    def test_predict_pipeline_chooses_finite_iterate(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(10), profile="decay")
        result = predict(op, x, 2, 2, 16)
        assert result.filter.b[0] == 0.0
        assert result.rnmse <= 1e-2
        assert result.quantized.total_bits == 16

    def test_study_rows_decrease_in_bits(self):
        report = prediction_study(k_values=(3,), bit_values=(3, 7), trials=3, seed=5)
        by_bits = {r.method: r.mean for r in report.rows}
        assert by_bits["arma-b7"] < by_bits["arma-b3"]


class TestCompression:
    def test_realizable_spectrum_recovered_exactly(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        grid = spectrum_grid(dec)
        target = ArmaFilter(a=[1.0, 0.3], b=[0.8, -0.2])
        from graphfilt.arma import arma_response

        x = igft(dec, arma_response(target, grid)).real
        result = compress(op, x, 2, le_budget=False)
        assert result.rnmse <= 1e-8

    def test_arma_beats_fir_benchmark(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(11))
        arma_err = compress(op, x, 8).rnmse
        _, _, fir_err = compress_fir(op, x, 8)
        assert arma_err < fir_err


class TestBudgetCandidates:
    @pytest.mark.parametrize(
        "error, propagates",
        [(TypeError("defect"), True), (InstabilityError("diverged"), False)],
    )
    def test_only_design_failures_are_skipped(self, monkeypatch, error, propagates):
        def failing(problem, tau):
            raise error

        monkeypatch.setattr(experiments, "iterative_design", failing)
        grid = uniform_real_grid(40)
        h = ideal_lowpass(grid, 1.0)
        if propagates:
            with pytest.raises(type(error)):
                _budget_candidates(grid, h, 2, 3)
        else:
            tags = [tag for tag, _ in _budget_candidates(grid, h, 2, 3)]
            assert tags == ["prony-ls"]


class TestUniversalStudy:
    def test_uniform_real_rows(self):
        report = universal_study(
            "uniform-real", 40, (2, 4), methods=("fir", "prony-projection")
        )
        assert len(report.rows) == 4
        fir_rows = {r.k: r.mean for r in report.rows if r.method == "fir"}
        assert fir_rows[4] <= fir_rows[2] + 1e-12

    def test_disc_grid_arma_methods_perform_similarly(self):
        # on the directed universal task the three rational methods land
        # within a factor of two of each other
        study = universal_study(
            "complex-disc", 100, (8, 12),
            methods=("prony-ls", "prony-projection", "iterative"),
        )
        by_k = {}
        for r in study.rows:
            by_k.setdefault(r.k, []).append(r.mean)
        for k, vals in by_k.items():
            assert max(vals) <= 2.0 * min(vals)

    def test_er_spectrum_fir_is_highest_and_flat(self):
        # averaged ER realizations: the polynomial fit stays the worst
        # method beyond order 5 and barely improves with the order
        report = universal_study("er-spectrum", 100, (6, 10), er_trials=5, seed=1)
        means = {(r.k, r.method): r.mean for r in report.rows}
        for k in (6, 10):
            fir = means[(k, "fir")]
            assert fir >= means[(k, "iterative")]
            assert fir >= means[(k, "prony-projection")]
            assert fir >= means[(k, "prony-ls")]
        assert means[(10, "fir")] >= 0.5 * means[(6, "fir")]

    def test_report_csv_deterministic(self, tmp_path):
        report = universal_study("uniform-real", 30, (2, 3), methods=("fir",))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report.to_csv(p1)
        universal_study("uniform-real", 30, (2, 3), methods=("fir",)).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "experiment,K,P,Q,method,rnmse_mean,rnmse_std,seed"


class TestSignalCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text(
            "node_id,timestamp,value\n"
            "0,2014-01-01T00,1.5\n1,2014-01-01T00,2.5\n"
            "0,2014-01-01T01,3.5\n1,2014-01-01T01,4.5\n"
        )
        stamps, matrix = read_signal_csv(path)
        assert stamps == ["2014-01-01T00", "2014-01-01T01"]
        assert np.array_equal(matrix, [[1.5, 2.5], [3.5, 4.5]])

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("node_id,timestamp,value\n0,t0,1.0\n1,t1,2.0\n")
        with pytest.raises(CsvParseError):
            read_signal_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("a,b,c\n0,t0,1.0\n")
        with pytest.raises(CsvParseError) as err:
            read_signal_csv(path)
        assert err.value.line == 1
