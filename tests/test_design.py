import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    ConjugateSymmetryError,
    DesignProblem,
    ParameterError,
    best_order_search,
    build_er_graph,
    complex_disc_grid,
    eigendecompose,
    iterative_design,
    modified_error,
    normalize,
    prony_ls,
    prony_projection,
    spectrum_grid,
    true_error,
    uniform_real_grid,
)
from graphfilt import design
from graphfilt.arma import StabilityReport
from graphfilt.design import order_candidates, run_method
from graphfilt.experiments import ideal_lowpass
from graphfilt.graphs import NORMALIZED_LAPLACIAN

from conftest import (
    random_pair_symmetric,
    random_stable_arma,
    reference_iterative_design,
)


def rational_response(grid, a, b):
    psi_a = grid.lambdas[:, None] ** np.arange(len(a))[None, :]
    psi_b = grid.lambdas[:, None] ** np.arange(len(b))[None, :]
    return (psi_b @ b) / (psi_a @ a)


def lowpass_problem(ar, ma, n=100):
    grid = uniform_real_grid(n)
    return DesignProblem(
        grid=grid, h_hat=ideal_lowpass(grid, 1.0), ar_order=ar, ma_order=ma
    )


class TestPronyLs:
    def test_exact_rational_recovery(self):
        grid = uniform_real_grid(100)
        h = 1.0 / (1.0 + grid.lambdas)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=1, ma_order=0)
        report = prony_ls(problem)
        assert np.allclose(report.filter.a, [1.0, 1.0], atol=1e-8)
        assert np.allclose(report.filter.b, [1.0], atol=1e-8)
        assert report.rnmse_true <= 1e-10

    def test_constant_response_zero_orders(self):
        grid = uniform_real_grid(10)
        problem = DesignProblem(
            grid=grid, h_hat=2.5 * np.ones(10, dtype=complex), ar_order=0, ma_order=0
        )
        report = prony_ls(problem)
        assert report.filter.b == pytest.approx([2.5])

    def test_matches_normal_equations_oracle(self):
        # independent constrained solve: eliminate a0 into the right-hand
        # side and solve the normal equations explicitly
        rng = np.random.default_rng(21)
        for trial in range(12):
            n = int(rng.integers(8, 16))
            grid = uniform_real_grid(n)
            h = random_pair_symmetric(grid, rng)
            p, q = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            if p + q + 1 > n:
                continue
            psi_p = grid.lambdas[:, None] ** np.arange(p + 1)[None, :]
            psi_q = grid.lambdas[:, None] ** np.arange(q + 1)[None, :]
            block = psi_p * h[:, None]
            lhs = np.hstack([block[:, 1:], -psi_q])
            theta = np.linalg.solve(
                lhs.conj().T @ lhs, -(lhs.conj().T @ block[:, 0])
            ).real
            problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
            report = prony_ls(problem)
            got = np.concatenate([report.filter.a[1:], report.filter.b])
            assert np.linalg.norm(got - theta) <= 1e-6 * max(np.linalg.norm(theta), 1.0)

    def test_stability_report_attached(self):
        report = prony_ls(lowpass_problem(2, 3))
        assert isinstance(report.stability, StabilityReport)


class TestPronyProjection:
    def test_exact_rational_recovery(self):
        grid = uniform_real_grid(100)
        rng = np.random.default_rng(2)
        a, b = random_stable_arma(rng, 2, 2)
        h = rational_response(grid, a, b)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=2, ma_order=2)
        report = prony_projection(problem)
        assert report.rnmse_true <= 1e-10

    def test_beats_prony_ls_on_er_spectrum_small_orders(self):
        op = normalize(build_er_graph(100, 0.1, 7), NORMALIZED_LAPLACIAN)
        grid = spectrum_grid(eigendecompose(op))
        h = ideal_lowpass(grid, 1.0)
        for p, q in [(1, 2), (2, 2), (2, 3)]:
            problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
            assert prony_projection(problem).rnmse_true < prony_ls(problem).rnmse_true

    def test_rank_one_projection_hand_case(self):
        # ma_order = 0: the projector is I minus the all-ones projector;
        # recompute the 3-point solution by hand
        grid = uniform_real_grid(3)
        h = np.array([1.0, 0.5, 0.25], dtype=complex)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=1, ma_order=0)
        report = prony_projection(problem)
        projector = np.eye(3) - np.ones((3, 3)) / 3.0
        block = projector @ (grid.lambdas[:, None] ** np.arange(2) * h[:, None])
        a1 = np.linalg.lstsq(block[:, 1:], -block[:, 0], rcond=None)[0].real
        assert report.filter.a[1] == pytest.approx(a1[0], rel=1e-10)

    def test_projector_properties(self):
        # the construction used by the projection step: idempotent,
        # self-adjoint, annihilates the numerator range
        grid = complex_disc_grid(20)
        psi = grid.lambdas[:, None] ** np.arange(4)[None, :]
        projector = np.eye(20) - psi @ np.linalg.pinv(psi)
        assert np.linalg.norm(projector @ psi) <= 1e-10
        assert np.linalg.norm(projector @ projector - projector) <= 1e-10
        assert np.linalg.norm(projector - projector.conj().T) <= 1e-10


class TestIterative:
    def test_fixed_point_at_truth(self):
        grid = uniform_real_grid(60)
        rng = np.random.default_rng(3)
        a, b = random_stable_arma(rng, 2, 1)
        h = rational_response(grid, a, b)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=2, ma_order=1)
        report = iterative_design(problem, init=ArmaFilter(a=a, b=b), tau=10)
        assert report.converged
        assert report.iterations <= 2
        assert report.rnmse_true <= 1e-10

    def test_first_iteration_with_unit_gamma_reproduces_prony_ls(self):
        # Identity initialization makes the denominator response constant,
        # so the first pass solves the same system as the modified-error fit.
        problem = lowpass_problem(3, 4)
        ls = prony_ls(problem)
        init = ArmaFilter(a=[1.0, 0.0, 0.0, 0.0], b=np.zeros(5))
        report = iterative_design(problem, init=init, tau=1)
        first = report.iterate_filters[1]
        assert np.linalg.norm(first.a - ls.filter.a) <= 1e-8
        assert np.linalg.norm(first.b - ls.filter.b) <= 1e-8

    def test_best_iterate_never_worse_than_init(self):
        rng = np.random.default_rng(9)
        grid = uniform_real_grid(50)
        for _ in range(5):
            h = random_pair_symmetric(grid, rng)
            p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
            init_report = prony_projection(problem)
            report = iterative_design(problem, init=init_report.filter, tau=20)
            assert report.rnmse_true <= init_report.rnmse_true + 1e-15
            assert report.error_history[0] == pytest.approx(
                init_report.rnmse_true, rel=1e-12
            )

    def test_non_monotone_history_best_beats_init(self):
        # ARMA(14, 9) on the universal low-pass task: the error history is
        # not monotone but an early iterate wins
        problem = lowpass_problem(14, 9)
        report = iterative_design(problem, tau=30)
        hist = np.array(report.error_history)
        assert np.any(np.diff(hist) > 0)
        assert report.rnmse_true < hist[0]
        assert report.rnmse_true == pytest.approx(np.min(hist), rel=1e-12)

    def test_history_length_matches_iterations(self):
        problem = lowpass_problem(2, 3)
        report = iterative_design(problem, tau=7)
        assert len(report.error_history) == report.iterations + 1

    def test_order_mismatch_rejected(self):
        problem = lowpass_problem(2, 3)
        with pytest.raises(ParameterError):
            iterative_design(problem, init=ArmaFilter(a=[1.0], b=[1.0]))


class TestIterativeReference:
    """The pass loop against the naive complex loop kept in conftest."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("b0_zero", [False, True])
    def test_complex_grid_reports_identical(self, weighted, b0_zero):
        grid = complex_disc_grid(100)
        h = ideal_lowpass(grid, 1.0)
        weights = np.linspace(0.5, 2.0, grid.n) if weighted else None
        for p, q in [(1, 2), (3, 5), (6, 7), (9, 10)]:
            problem = DesignProblem(
                grid=grid, h_hat=h, ar_order=p, ma_order=q, weights=weights,
                constrain_b0_zero=b0_zero,
            )
            new = iterative_design(problem)
            ref = reference_iterative_design(problem)
            assert np.array_equal(new.filter.a, ref.filter.a)
            assert np.array_equal(new.filter.b, ref.filter.b)
            assert np.array_equal(new.error_history, ref.error_history)
            assert len(new.iterate_filters) == len(ref.iterate_filters)
            for x, y in zip(new.iterate_filters, ref.iterate_filters):
                assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
            assert new.warnings == ref.warnings
            assert new.iterations == ref.iterations
            assert new.imag_residue == ref.imag_residue
            assert new.imag_residue > 0.0  # the solve ran in complex arithmetic

    def test_real_grid_order_search_matches(self, monkeypatch):
        # real arithmetic rounds differently, so the errors agree to a
        # tolerance and the chosen orders exactly
        grid = uniform_real_grid(100)
        h = ideal_lowpass(grid, 1.0)
        new = [best_order_search(grid, h, k, "iterative") for k in range(5, 14)]
        monkeypatch.setattr(
            design, "iterative_design",
            lambda problem, tau, delta_c: reference_iterative_design(problem, tau, delta_c),
        )
        for k, rep in zip(range(5, 14), new):
            ref = best_order_search(grid, h, k, "iterative")
            assert (rep.filter.ar_order, rep.filter.ma_order) == (
                ref.filter.ar_order, ref.filter.ma_order
            )
            assert rep.rnmse_true == pytest.approx(ref.rnmse_true, rel=1e-6)

    @pytest.mark.parametrize("method", ["prony-ls", "prony-projection", "iterative"])
    def test_real_grids_have_no_imaginary_residue(self, method):
        er = spectrum_grid(eigendecompose(
            normalize(build_er_graph(40, 0.2, 5), NORMALIZED_LAPLACIAN)
        ))
        for grid in (uniform_real_grid(60), er):
            problem = DesignProblem(
                grid=grid, h_hat=ideal_lowpass(grid, 1.0), ar_order=3, ma_order=4
            )
            assert run_method(method, problem).imag_residue == 0.0


class TestErrors:
    def test_exact_fit_gives_zero_errors(self):
        grid = uniform_real_grid(40)
        rng = np.random.default_rng(12)
        a, b = random_stable_arma(rng, 2, 2)
        filt = ArmaFilter(a=a, b=b)
        h = rational_response(grid, a, b)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=2, ma_order=2)
        assert true_error(filt, problem) <= 1e-12
        assert modified_error(filt, problem) <= 1e-12

    def test_trivial_denominator_makes_errors_coincide(self):
        grid = uniform_real_grid(40)
        rng = np.random.default_rng(13)
        h = random_pair_symmetric(grid, rng)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=0, ma_order=3)
        filt = ArmaFilter(a=[1.0], b=rng.standard_normal(4))
        assert true_error(filt, problem) == pytest.approx(
            modified_error(filt, problem), rel=1e-12
        )

    def test_errors_differ_in_general(self):
        grid = uniform_real_grid(40)
        rng = np.random.default_rng(14)
        h = random_pair_symmetric(grid, rng)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=2, ma_order=2)
        a, b = random_stable_arma(rng, 2, 2)
        filt = ArmaFilter(a=a, b=b)
        assert true_error(filt, problem) != pytest.approx(
            modified_error(filt, problem), rel=1e-6
        )

    def test_amplitude_only_resolution(self):
        disc = complex_disc_grid(20)
        real_h = np.ones(20, dtype=complex)
        auto_on = DesignProblem(grid=disc, h_hat=real_h, ar_order=1, ma_order=1)
        assert auto_on.use_amplitude_error
        forced_off = DesignProblem(
            grid=disc, h_hat=real_h, ar_order=1, ma_order=1, amplitude_only=False
        )
        assert not forced_off.use_amplitude_error
        real_grid_problem = DesignProblem(
            grid=uniform_real_grid(20), h_hat=np.ones(20, dtype=complex),
            ar_order=1, ma_order=1,
        )
        assert not real_grid_problem.use_amplitude_error


class TestRealness:
    @pytest.mark.parametrize("method", ["prony-ls", "prony-projection", "iterative"])
    def test_disc_grid_designs_are_real(self, method):
        rng = np.random.default_rng(31)
        grid = complex_disc_grid(36)
        for _ in range(10):
            h = random_pair_symmetric(grid, rng)
            p, q = int(rng.integers(1, 5)), int(rng.integers(0, 6))
            problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
            report = run_method(method, problem)
            assert report.imag_residue <= 1e-8


class TestWeightsAndConstraints:
    def test_uniform_weights_do_not_change_solution(self):
        grid = uniform_real_grid(30)
        rng = np.random.default_rng(15)
        h = random_pair_symmetric(grid, rng)
        base = prony_ls(DesignProblem(grid=grid, h_hat=h, ar_order=2, ma_order=2))
        scaled = prony_ls(
            DesignProblem(
                grid=grid, h_hat=h, ar_order=2, ma_order=2,
                weights=2.0 * np.ones(30),
            )
        )
        assert np.allclose(base.filter.a, scaled.filter.a, atol=1e-10)
        assert np.allclose(base.filter.b, scaled.filter.b, atol=1e-10)

    def test_zero_weight_removes_a_frequency(self):
        grid = uniform_real_grid(21)
        h = 1.0 / (1.0 + grid.lambdas)
        h[10] = 50.0  # corrupted point
        weights = np.ones(21)
        weights[10] = 0.0
        problem = DesignProblem(
            grid=grid, h_hat=h, ar_order=1, ma_order=0, weights=weights
        )
        report = prony_ls(problem)
        assert np.allclose(report.filter.a, [1.0, 1.0], atol=1e-8)

    def test_b0_constraint_pins_first_numerator_coefficient(self):
        grid = uniform_real_grid(30)
        problem = DesignProblem(
            grid=grid, h_hat=np.ones(30, dtype=complex), ar_order=1, ma_order=2,
            weights=np.linspace(1, 2, 30), constrain_b0_zero=True,
        )
        for method in ("prony-ls", "prony-projection", "iterative"):
            report = run_method(method, problem)
            assert report.filter.b[0] == 0.0

    def test_validation_rejects_bad_problems(self):
        grid = uniform_real_grid(5)
        with pytest.raises(ParameterError):
            DesignProblem(grid=grid, h_hat=np.ones(5), ar_order=3, ma_order=2)
        with pytest.raises(ParameterError):
            DesignProblem(
                grid=grid, h_hat=np.ones(5), ar_order=1, ma_order=1,
                weights=-np.ones(5),
            )
        disc = complex_disc_grid(10)
        bad = np.ones(10, dtype=complex)
        bad[np.flatnonzero(disc.pair != np.arange(10))[0]] = 1j
        with pytest.raises(ConjugateSymmetryError):
            DesignProblem(grid=disc, h_hat=bad, ar_order=1, ma_order=1)


class TestOrderSearch:
    def test_budget_one_candidates(self):
        assert order_candidates(1, le_budget=False) == [(0, 1), (1, 0)]

    def test_le_budget_includes_smaller_totals(self):
        cands = order_candidates(2, le_budget=True)
        assert (0, 0) in cands and (1, 0) in cands and (0, 2) in cands

    def test_search_returns_best_and_is_monotone_in_budget(self):
        grid = uniform_real_grid(40)
        h = ideal_lowpass(grid, 1.0)
        errs = [
            best_order_search(grid, h, k, "prony-projection", le_budget=True).rnmse_true
            for k in (2, 4, 6, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("le_budget, budget", [(False, 9), (True, 10)])
    def test_one_method_run_per_feasible_candidate(self, monkeypatch, le_budget, budget):
        grid = uniform_real_grid(10)
        h = ideal_lowpass(grid, 1.0)
        calls = []

        def counting(method, problem, **kwargs):
            calls.append((problem.ar_order, problem.ma_order))
            return run_method(method, problem, **kwargs)

        monkeypatch.setattr(design, "run_method", counting)
        best_order_search(grid, h, budget, "iterative", le_budget=le_budget)
        feasible = [
            (p, q) for p, q in order_candidates(budget, le_budget) if p + q + 1 <= grid.n
        ]
        assert calls == feasible

    def test_thread_env_gives_same_result(self, monkeypatch):
        grid = uniform_real_grid(40)
        h = ideal_lowpass(grid, 1.0)
        seq = best_order_search(grid, h, 6, "iterative")
        monkeypatch.setenv("GRAPHFILT_THREADS", "4")
        par = best_order_search(grid, h, 6, "iterative")
        assert par.rnmse_true == seq.rnmse_true
        assert np.array_equal(par.filter.a, seq.filter.a)
        assert np.array_equal(par.filter.b, seq.filter.b)
