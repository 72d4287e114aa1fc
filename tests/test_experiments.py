import warnings
from dataclasses import replace

import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    InstabilityError,
    CgConfig,
    ParameterError,
    SingularSystemError,
    eigendecompose,
    gft,
    igft,
    normalize,
    rnmse,
    spectrum_grid,
)
from graphfilt import design, experiments
from graphfilt.design import ideal_lowpass
from graphfilt.experiments import (
    InterpolationTask,
    _budget_candidates,
    compress,
    compress_fir,
    compression_study,
    experiment_graphs,
    interpolate,
    interpolation_study,
    predict,
    prediction_study,
    quantize_residual,
    smooth_signal,
    universal_study,
)
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN
from graphfilt.spectral import complex_disc_grid, uniform_real_grid

from conftest import (
    backward_filter,
    graph_from_rows,
    interpolation_matrix,
    reference_compression_study,
    reference_interpolation_study,
    reference_prediction_study,
    reference_universal_study,
)


def laplacian_op():
    _, undirected = experiment_graphs()
    return normalize(undirected, NORMALIZED_LAPLACIAN)


def adjacency_op():
    directed, _ = experiment_graphs()
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
        x = smooth_signal(dec, op.kind, np.random.default_rng(2))
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
        g = graph_from_rows(2, ((0, 1, 1.0), (1, 0, 1.0)), directed=False)
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
        op = normalize(graph_from_rows(4, edges, directed=False), NORMALIZED_LAPLACIAN)
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

    @pytest.mark.parametrize("bad, match", [
        (np.inf, "peak inf is not finite"),      # was OverflowError from math.ceil
        (-np.inf, "peak inf is not finite"),
        (np.nan, "peak nan is not finite"),      # was integer_bits 0, silently
        (1.5 * 2.0**1023, "beyond the quantizer's range"),  # was OverflowError from 2.0**1024
        (np.finfo(float).max, "beyond the quantizer's range"),
    ])
    def test_residual_without_a_format_rejected(self, bad, match):
        with pytest.raises(ParameterError, match=match):
            quantize_residual(np.array([0.5, bad, -1.0]), 8)

    def test_rows_without_a_format_quantize_to_zeros(self):
        residuals = np.array([[0.5, np.nan, -1.0], [0.5, 0.25, -1.0], [np.inf, 0.0, 1.0]])
        values, formats = experiments._quantize_rows(residuals, 8)
        assert [isinstance(f, ParameterError) for f in formats] == [True, False, True]
        assert np.array_equal(values[[0, 2]], np.zeros((2, 3)))
        q = quantize_residual(residuals[1], 8)
        assert np.array_equal(values[1], q.values) and formats[1] == (q.integer_bits, q.step)

    def test_largest_format_below_the_limit(self):
        q = quantize_residual(np.array([2.0**1022, -3.0]), 16)
        assert q.integer_bits == 1022
        assert q.values[0] == 2.0**1022 - q.step


class TestPrediction:
    def test_reconstruction_error_non_increasing_in_bits_for_fixed_filter(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(8), profile="decay")
        filt = ArmaFilter(a=[1.0, -0.4], b=[0.0, 0.5, 0.05])
        from graphfilt.arma import arma_apply_direct

        residual = x - arma_apply_direct(filt, op, x)
        errs = []
        for bits in (4, 6, 8, 12):
            quantized = quantize_residual(residual, bits)
            x_tilde = arma_apply_direct(backward_filter(filt), op, quantized.values)
            errs.append(rnmse(x_tilde, x))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_backward_filter_inverts_forward_residual(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(9), profile="decay")
        filt = ArmaFilter(a=[1.0, -0.4], b=[0.0, 0.5, 0.05])
        from graphfilt.arma import arma_apply_direct

        residual = x - arma_apply_direct(filt, op, x)
        back = backward_filter(filt)
        assert back.a[0] == 1.0
        recovered = arma_apply_direct(back, op, residual)
        assert np.linalg.norm(recovered - x) <= 1e-8 * np.linalg.norm(x)

    def test_exact_prediction_edge_case_degenerates(self):
        # mode at frequency 1 of the 2-path adjacency with a filter whose
        # response is exactly 1 there: the residual vanishes, the quantizer
        # passes zeros, and the backward system is singular
        from graphfilt.arma import arma_apply_direct

        g = graph_from_rows(2, ((0, 1, 1.0), (1, 0, 1.0)), directed=False)
        op = normalize(g, NORMALIZED_ADJACENCY)
        x = np.array([1.0, 1.0])
        filt = ArmaFilter(a=[1.0, 0.5], b=[0.0, 1.5])
        residual = x - arma_apply_direct(filt, op, x)
        assert np.max(np.abs(residual)) <= 1e-12
        quantized = quantize_residual(residual, 8)
        assert np.array_equal(quantized.values, np.zeros(2))
        with pytest.raises(SingularSystemError):
            arma_apply_direct(backward_filter(filt), op, quantized.values)

    def test_predict_pipeline_chooses_finite_iterate(self):
        op = adjacency_op()
        dec = eigendecompose(op)
        x = smooth_signal(dec, op.kind, np.random.default_rng(10), profile="decay")
        result = predict(op, x, 2, 2, 16)
        assert result.filter.b[0] == 0.0
        assert result.rnmse <= 1e-2
        assert result.quantized.total_bits == 16

    def test_bit_budget_below_three_rejected_before_designing(self, monkeypatch):
        # it used to surface as "no design iterate produced a solvable
        # backward filter", after a design whose every iterate was skipped
        def no_design(problem, tau):
            raise AssertionError("designed for an invalid bit budget")

        monkeypatch.setattr(experiments, "iterative_design", no_design)
        op = adjacency_op()
        with pytest.raises(ParameterError, match="bit budget of at least 3 bits, got 2"):
            predict(op, np.ones(op.n), 1, 2, 2)
        with pytest.raises(ParameterError, match="bit budget of at least 3 bits, got 1"):
            prediction_study(k_values=(3,), bit_values=(3, 1), trials=1)

    def test_bit_budget_above_1024_rejected_before_designing(self, monkeypatch):
        # beyond 1024 bits r / step overflowed: at 1026 bits 0.5 came back as
        # 1.0, and from 1076 bits every value was NaN, with only a warning
        residual = np.array([0.5, -0.25, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(quantize_residual(residual, 1024).values, residual)
        for bits in (1025, 1100):
            with pytest.raises(ParameterError, match=f"at most 1024 bits, got {bits}"):
                quantize_residual(residual, bits)

        def no_design(problem, tau):
            raise AssertionError("designed for an invalid bit budget")

        monkeypatch.setattr(experiments, "iterative_design", no_design)
        monkeypatch.setattr(experiments, "_iterative_designs", no_design)
        with pytest.raises(ParameterError, match="at most 1024 bits, got 1025"):
            prediction_study(k_values=(3,), bit_values=(3, 1025), trials=1)

    def test_candidates_without_a_quantized_residual_are_skipped(self):
        predictor = experiments._Predictor(adjacency_op())
        x = smooth_signal(predictor.dec, NORMALIZED_ADJACENCY, np.random.default_rng(11),
                          profile="decay")
        (cands,) = predictor.candidates([(x, 1, 2)])
        (want,) = predictor.best([cands], [7])[0]
        i = int(np.flatnonzero(cands.index == want.iterate_index)[0])
        for bad in (np.inf, np.nan, 1.5 * 2.0**1023):
            residual = cands.residual.copy()
            residual[i, 3] = bad
            (got,) = predictor.best([replace(cands, residual=residual)], [7])[0]
            (rest,) = predictor.best([without_rows(cands, [i])], [7])[0]
            assert got.iterate_index != want.iterate_index
            assert_same_prediction(got, rest)
        poisoned = replace(cands, residual=np.full(cands.residual.shape, np.nan))
        with pytest.raises(SingularSystemError, match="no design iterate"):
            predictor.best([poisoned], [7])

    def test_singular_backward_system_leaves_the_others_bits(self):
        # one singular a(S) makes the stacked solve raise; the systems are
        # then solved one by one, and every other candidate keeps its bits
        predictor = experiments._Predictor(adjacency_op())
        rng = np.random.default_rng(12)
        xs = [smooth_signal(predictor.dec, NORMALIZED_ADJACENCY, rng, profile="decay")
              for _ in range(2)]
        cands = predictor.candidates([(xs[0], 1, 2), (xs[1], 2, 2)])
        want = predictor.best([without_rows(cands[0], [0]), cands[1]], [3, 16])
        back = cands[0].back.copy()
        back[0] = 0.0
        got = predictor.best([replace(cands[0], back=back), cands[1]], [3, 16])
        for got_job, want_job in zip(got, want):
            for g, w in zip(got_job, want_job):
                assert_same_prediction(g, w)

    def test_solve_each_marks_singular_systems(self):
        rng = np.random.default_rng(13)
        matrices = rng.standard_normal((4, 6, 6))
        matrices[2] = 0.0
        z = rng.standard_normal((4, 3, 6))
        y, solved = experiments._DirectSolver.solve_each(matrices[:, None], z)
        assert solved.tolist() == [[True] * 3, [True] * 3, [False] * 3, [True] * 3]
        assert np.isnan(y[2]).all()
        for c in (0, 1, 3):
            for b in range(3):
                assert np.array_equal(y[c, b], np.linalg.solve(matrices[c], z[c, b]))

    def test_study_runs_in_bounded_batches(self, monkeypatch):
        # room for 25 a(S) per stack: one job (at most 21 iterates) per
        # batch, each with its own pass loop and stacked solves, and the
        # same rows
        want = prediction_study(k_values=(3, 4), bit_values=(3, 16), trials=3, seed=5)
        n = adjacency_op().n
        monkeypatch.setattr(experiments, "_PREDICT_STACK_FLOATS", 25 * n * n)
        sizes = []
        solve_each = experiments._DirectSolver.solve_each

        def recording(ar_matrices, z):
            sizes.append(len(ar_matrices))
            return solve_each(ar_matrices, z)

        monkeypatch.setattr(experiments._DirectSolver, "solve_each", staticmethod(recording))
        got = prediction_study(k_values=(3, 4), bit_values=(3, 16), trials=3, seed=5)
        assert got == want
        assert len(sizes) == 12 and max(sizes) <= 21

    def test_each_prediction_solves_in_stacks_of_its_own(self, monkeypatch):
        # at the default batch size the six (K, trial) share one pass loop,
        # but each solves its forward and its backward systems on its own
        want = prediction_study(k_values=(3, 4), bit_values=(3, 16), trials=3, seed=5)
        sizes = []
        solve_each = experiments._DirectSolver.solve_each

        def recording(ar_matrices, z):
            sizes.append(len(ar_matrices))
            return solve_each(ar_matrices, z)

        monkeypatch.setattr(experiments._DirectSolver, "solve_each", staticmethod(recording))
        got = prediction_study(k_values=(3, 4), bit_values=(3, 16), trials=3, seed=5)
        assert got == want
        assert len(sizes) == 12 and max(sizes) <= experiments._PREDICT_TAU + 1

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

    def test_fir_benchmark_needs_order_plus_one_frequencies(self):
        # the fit runs through fir_design, which rejects an underdetermined
        # order as every other FIR fit does
        op = adjacency_op()
        x = smooth_signal(eigendecompose(op), op.kind, np.random.default_rng(11))
        assert compress_fir(op, x, op.n - 1)[0].order == op.n - 1
        with pytest.raises(ParameterError, match=f"need at least {op.n + 1} grid points"):
            compress_fir(op, x, op.n)


    def test_study_skips_a_winner_whose_denominator_vanishes(self):
        # at seed 12 the K = 8 search picked (8, 0) with rnmse 0.0087, whose
        # |a(lambda)| is 5.5e-13 at a grid point: the search scored it
        # finite, and arma_response then refused it
        report = compression_study(k_values=(4, 8), trials=4, seed=12)
        assert all(np.isfinite(row.values).all() for row in report.rows)

    def test_study_runs_one_pass_loop(self, monkeypatch):
        # the benchmark's compression op: K = 4, 8 over 4 trials at seed 4242.
        # Searched one target and one P + Q group at a time, it ran 36 pass
        # loops of 383 iterations in all and validated each target once per
        # split, 180 times. The split-passes are the systems given to the
        # stacked _solve_a0: 1715 when a split that trailed its group's
        # leader left 20 passes after its best. Retiring a split depends on
        # its error history, so this count moves with the rounding of the
        # passes and with which iterates score inf: (8, 0) of every target
        # has iterates whose denominator vanishes at a grid point
        counts = {"loops": 0, "split_passes": 0, "validations": 0}
        iterate, solve = design._iterate, design._solve_a0
        validate = design.validate_conjugate_pairs

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def systems(lhs, rhs, problems):
            counts["split_passes"] += len(problems)
            return solve(lhs, rhs, problems)

        monkeypatch.setattr(design, "_iterate", counted("loops", iterate))
        monkeypatch.setattr(design, "_solve_a0", systems)
        monkeypatch.setattr(design, "validate_conjugate_pairs",
                            counted("validations", validate))
        compression_study(k_values=(4, 8), trials=4, seed=4242)
        assert counts == {"loops": 1, "split_passes": 1636, "validations": 4}


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



def without_rows(cands, rows):
    """A candidate set with some rows left out."""
    keep = np.setdiff1d(np.arange(len(cands.index)), rows)
    return replace(cands, index=cands.index[keep], a=cands.a[keep],
                   residual=cands.residual[keep], back=cands.back[keep])


def assert_same_prediction(got, want):
    assert got.iterate_index == want.iterate_index
    assert got.rnmse == want.rnmse
    assert np.array_equal(got.reconstructed, want.reconstructed)
    assert np.array_equal(got.quantized.values, want.quantized.values)
    assert (got.quantized.integer_bits, got.quantized.step) == (
        want.quantized.integer_bits, want.quantized.step)


def csv_text(report, path):
    report.to_csv(path)
    return path.read_text()


class TestStudiesMatchReferenceLoops:
    """Each study computes its shared work once; its CSV must be the one the
    per-call loops in conftest write."""

    def test_prediction(self, tmp_path):
        args = ((3, 4), (3, 7, 16), 2, 5)
        got = prediction_study(*args)
        assert csv_text(got, tmp_path / "a.csv") == csv_text(
            reference_prediction_study(*args), tmp_path / "b.csv")

    @pytest.mark.parametrize("k_values", [(2, 5), (6, 2, 4), (4, 2, 4), ()])
    def test_compression(self, tmp_path, k_values):
        # the K list may be unsorted or repeat a value
        got = compression_study(k_values=k_values, trials=2, seed=3)
        want = reference_compression_study(k_values, 2, 3)
        assert csv_text(got, tmp_path / "a.csv") == csv_text(want, tmp_path / "b.csv")

    @pytest.mark.parametrize("grid_kind, n_points, k_values, methods", [
        ("uniform-real", 40, (2, 5, 2), ("fir", "prony-ls", "prony-projection", "iterative")),
        ("complex-disc", 36, (3, 4), ("iterative", "prony-projection")),
        ("complex-disc", 36, (4,), ("prony-projection", "fir")),
        ("er-spectrum", 0, (3,), ("prony-ls", "iterative", "fir")),
    ])
    def test_universal(self, tmp_path, grid_kind, n_points, k_values, methods):
        got = universal_study(grid_kind, n_points, k_values, methods, er_trials=2, seed=4)
        want = reference_universal_study(grid_kind, n_points, k_values, methods, 2, 4)
        assert csv_text(got, tmp_path / "a.csv") == csv_text(want, tmp_path / "b.csv")

    def test_interpolation(self, tmp_path):
        got = interpolation_study(known_fracs=(0.1, 0.5), trials=3, seed=6)
        want = reference_interpolation_study((0.1, 0.5), 3, 6)
        assert csv_text(got, tmp_path / "a.csv") == csv_text(want, tmp_path / "b.csv")


@pytest.mark.parametrize("study, kwargs", [
    (interpolation_study, dict(known_fracs=(0.1, 0.5), trials=3)),
    (compression_study, dict(k_values=(2,), trials=3)),
    (prediction_study, dict(k_values=(3,), bit_values=(3,), trials=3)),
])
def test_studies_rank_the_frequencies_once(monkeypatch, study, kwargs):
    calls = []
    order = experiments.order_frequencies

    def counted(dec, op_kind):
        calls.append(op_kind)
        return order(dec, op_kind)

    monkeypatch.setattr(experiments, "order_frequencies", counted)
    study(**kwargs)
    assert len(calls) == 1
