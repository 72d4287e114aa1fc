import json
from functools import partial

import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    ConjugateSymmetryError,
    DesignProblem,
    InstabilityError,
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
from graphfilt.arma import StabilityReport, arma_response
from graphfilt.design import ideal_lowpass, order_candidates, run_method
from graphfilt.graphs import NORMALIZED_LAPLACIAN

from conftest import (
    pair_symmetric_weights,
    random_pair_symmetric,
    random_stable_arma,
    reference_a0_solve,
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
        # _Basis.project, which the projection step uses: idempotent,
        # self-adjoint, annihilates the numerator range
        grid = complex_disc_grid(20)
        problem = DesignProblem(grid=grid, h_hat=ideal_lowpass(grid, 1.0), ar_order=1,
                                ma_order=3)
        basis = design._basis(problem, 2, 4)
        psi = basis.target.weight_vector[:, None] * basis.psi_b
        psi = np.vstack([psi.real, psi.imag])
        x, y = np.random.default_rng(4).standard_normal((2, len(psi), 3))
        px = basis.project(x)
        assert np.linalg.norm(basis.project(psi)) <= 1e-10
        assert np.linalg.norm(basis.project(px) - px) <= 1e-10
        assert np.linalg.norm(px.T @ y - x.T @ basis.project(y)) <= 1e-10


def dense_projection(basis, block, rcond=1e-12):
    """(I - R pinv(R)) block with the dense N x N projector, R the weighted
    numerator columns of the basis, [Re; Im] rows for a complex target."""
    r = basis.target.weight_vector[:, None] * basis.psi_b
    if np.iscomplexobj(r):
        r = np.vstack([r.real, r.imag])
    return (np.eye(len(r)) - r @ np.linalg.pinv(r, rcond=rcond)) @ block, r


class TestNumeratorProjection:
    """_Basis.project removes the numerator's range through an orthonormal
    basis of it instead of the dense projector I - R pinv(R). The dense
    product R pinv(R) carries errors of about eps * cond(R), so the two agree
    to 1e-12 where R is well conditioned (cond(R) below about 1e3 here)."""

    @pytest.mark.parametrize("make_grid, p, q, weighted, b0_zero", [
        (uniform_real_grid, 3, 4, False, False),
        (uniform_real_grid, 2, 4, True, True),
        (complex_disc_grid, 3, 4, False, False),
        (complex_disc_grid, 5, 6, True, True),
    ])
    def test_matches_the_dense_projector(self, make_grid, p, q, weighted, b0_zero):
        grid = make_grid(100)
        weights = np.linspace(0.5, 2.0, grid.n) if weighted else None
        problem = DesignProblem(grid=grid, h_hat=ideal_lowpass(grid, 1.0), ar_order=p,
                                ma_order=q, weights=weights, constrain_b0_zero=b0_zero)
        basis = design._basis(problem, p + 1, q + 1)
        h = basis.target.h
        block = basis.target.weight_vector[:, None] * (basis.psi_p * h[:, None])
        if np.iscomplexobj(block):
            block = np.vstack([block.real, block.imag])
        got = basis.project(block)
        want, r = dense_projection(basis, block)
        assert r.shape[1] == q + 1 - int(b0_zero)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rank_deficient_numerator_cut_at_the_lstsq_cutoff(self):
        # 20 monomials on [0, 2] have numerical rank 16 at rcond 1e-12. The
        # kept subspace is then fixed only to about eps * s_max / (s_16 - s_17)
        # (the Davis-Kahan bound), so the dense projector, whose product
        # R pinv(R) loses the same digits, is compared within that bound
        problem = lowpass_problem(2, 19)
        basis = design._basis(problem, 3, 20)
        block = basis.psi_p * basis.target.h[:, None]
        got = basis.project(block)
        want, r = dense_projection(basis, block)
        rank = np.linalg.lstsq(r, np.ones(len(r)), rcond=1e-12)[2]
        assert rank == 16 and basis.columns.ranges[20].shape == (100, 16)
        s = np.linalg.svd(r, compute_uv=False)
        bound = np.finfo(float).eps * s[0] / (s[rank - 1] - s[rank])
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
        assert np.linalg.norm(basis.project(got) - got) <= 1e-12 * np.linalg.norm(got)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sq_norms_of_a_row_do_not_depend_on_its_stack(self, dtype):
        rng = np.random.default_rng(18)
        for m, n in [(1, 7), (3, 50), (12, 100), (40, 64)]:
            rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-6, 6, (m, 1))
            if dtype is complex:
                rows = rows + 1j * rng.standard_normal((m, n))
            selected = np.ones(m, dtype=bool)
            stacked = design._sq_norms(rows, selected)
            for i in range(m):
                alone = design._sq_norms(rows[i:i + 1].copy(), selected[:1])
                assert alone[0] == stacked[i]
            selected[0] = False
            assert design._sq_norms(rows, selected)[0] == np.inf


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
    """The pass loop against the naive complex loop kept in conftest, which
    solves on the full grid in complex arithmetic and truncates imaginary
    parts. With pair-symmetric weights the complex minimizers are real, so
    the two designs agree to rounding."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("b0_zero", [False, True])
    def test_complex_grid_reports_match(self, weighted, b0_zero):
        grid = complex_disc_grid(100)
        self.assert_matches_reference(grid, ideal_lowpass(grid, 1.0), weighted, b0_zero)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_complex_target_reports_match(self, weighted):
        # a real low-pass target is scored on magnitudes; a complex one on
        # the complex error
        grid = complex_disc_grid(100)
        h = random_pair_symmetric(grid, np.random.default_rng(8))
        self.assert_matches_reference(grid, h, weighted, False)

    @staticmethod
    def assert_matches_reference(grid, h, weighted, b0_zero):
        weights = pair_symmetric_weights(grid) if weighted else None
        for p, q in [(1, 2), (3, 5), (6, 7), (9, 10)]:
            problem = DesignProblem(
                grid=grid, h_hat=h, ar_order=p, ma_order=q, weights=weights,
                constrain_b0_zero=b0_zero,
            )
            new = iterative_design(problem)
            ref = reference_iterative_design(problem)
            assert new.rnmse_true == pytest.approx(ref.rnmse_true, rel=1e-9, abs=0)
            assert new.imag_residue == 0.0

    def test_real_grid_order_search_matches(self):
        # real arithmetic rounds differently, so the errors agree to a
        # tolerance and the chosen orders exactly; every split of the
        # reference search stops as the search stops it
        grid = uniform_real_grid(100)
        h = ideal_lowpass(grid, 1.0)
        for k in range(5, 14):
            rep = best_order_search(grid, h, k, "iterative")
            refs = []
            for p, q in order_candidates(k, le_budget=False):
                problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
                try:
                    refs.append(reference_iterative_design(problem,
                                                           patience=design._PATIENCE))
                except InstabilityError:
                    continue
            ref = min(refs, key=ranking)
            assert (rep.filter.ar_order, rep.filter.ma_order) == (
                ref.filter.ar_order, ref.filter.ma_order
            )
            assert rep.rnmse_true == pytest.approx(ref.rnmse_true, rel=1e-6)

    def test_complex_grid_order_search_matches(self):
        # the search winners of the real solves are the complex loop's,
        # with each split of the reference search stopped as the search
        # stops it
        grid = complex_disc_grid(100)
        h = ideal_lowpass(grid, 1.0)
        for k in (5, 9, 13):
            rep = best_order_search(grid, h, k, "iterative")
            refs = []
            for p, q in order_candidates(k, le_budget=False):
                problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
                try:
                    refs.append(reference_iterative_design(problem,
                                                           patience=design._PATIENCE))
                except InstabilityError:
                    continue
            ref = min(refs, key=ranking)
            assert (rep.filter.ar_order, rep.filter.ma_order) == (
                ref.filter.ar_order, ref.filter.ma_order
            )
            assert rep.rnmse_true == pytest.approx(ref.rnmse_true, rel=1e-9, abs=0)

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


class TestAsymmetricWeights:
    """Weights that differ between the members of a conjugate pair: the
    complex least-squares minimizer is then not real, and truncating its
    imaginary part (up to 7.4 at (9, 10) here) is not the real-constrained
    minimizer. Each pass must solve the real-constrained least squares."""

    @pytest.mark.parametrize("b0_zero", [False, True])
    def test_every_pass_is_the_full_grid_real_least_squares(self, b0_zero):
        grid = complex_disc_grid(100)
        h = ideal_lowpass(grid, 1.0)
        for p, q in [(1, 2), (3, 5), (6, 7), (9, 10)]:
            problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q,
                                    weights=np.linspace(0.5, 2, 100),
                                    constrain_b0_zero=b0_zero)
            report = iterative_design(problem)
            assert report.imag_residue == 0.0
            filters = report.iterate_filters
            assert len(filters) > 1
            for prev, cur in zip(filters, filters[1:]):
                a, b = reference_a0_solve(problem, prev.a)
                want = np.concatenate([a, b])
                got = np.concatenate([cur.a, cur.b])
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


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

    def test_pole_on_the_grid_scores_inf(self):
        grid = uniform_real_grid(41)  # holds lambda = 1, the root of 1 - lambda
        h = ideal_lowpass(grid, 1.0)
        for p, q in ((1, 0), (1, 2)):
            problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
            assert true_error(ArmaFilter(a=[1.0, -1.0], b=np.ones(q + 1)), problem) == np.inf

    def test_vanishing_denominator_scores_inf(self):
        # b = a, so the response b(lambda)/a(lambda) is 1 (to rounding),
        # but |a(1)| = 5e-13 is where arma_response refuses the filter
        grid = uniform_real_grid(41)
        problem = DesignProblem(grid=grid, h_hat=ideal_lowpass(grid, 1.0),
                                ar_order=1, ma_order=1)
        for gap, vanishes in ((5e-13, True), (2e-12, False)):
            a = [1.0, gap - 1.0]
            filt = ArmaFilter(a=a, b=a)
            assert (true_error(filt, problem) == np.inf) is vanishes
            if vanishes:
                with pytest.raises(InstabilityError, match="denominator vanishes"):
                    arma_response(filt, grid)
            else:
                assert arma_response(filt, grid) == pytest.approx(np.ones(grid.n))

    def test_amplitude_only_resolution(self):
        disc = complex_disc_grid(20)
        real_h = np.ones(20, dtype=complex)
        auto_on = DesignProblem(grid=disc, h_hat=real_h, ar_order=1, ma_order=1)
        assert auto_on.use_amplitude_error
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
    def test_every_feasible_split_designed_once_in_order(
        self, monkeypatch, le_budget, budget
    ):
        grid = uniform_real_grid(10)
        h = ideal_lowpass(grid, 1.0)
        designed = []
        iterate = design._iterate

        def recording(runs, tau, patience=None):
            designed.extend((r.problem.ar_order, r.problem.ma_order) for r in runs)
            return iterate(runs, tau, patience)

        monkeypatch.setattr(design, "_iterate", recording)
        best_order_search(grid, h, budget, "iterative", le_budget=le_budget)
        feasible = [
            (p, q) for p, q in order_candidates(budget, le_budget) if p + q + 1 <= grid.n
        ]
        assert designed == feasible


def ranking(report):
    return report.rnmse_true, report.filter.ar_order, report.filter.ma_order


def assert_same_report(got, want):
    """Every field of two design reports, bit for bit."""
    for x, y in [(got.filter, want.filter), *zip(got.iterate_filters, want.iterate_filters)]:
        assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
    assert len(got.iterate_filters) == len(want.iterate_filters)
    assert got.error_history == want.error_history
    for field in ("rnmse_true", "rnmse_modified", "iterations", "converged", "stability",
                  "method", "imag_residue", "warnings"):
        assert getattr(got, field) == getattr(want, field), field


def retired_runs(runs, full):
    """The runs of one pass loop that left before iterative_design ends
    their split alone (full: its reports by split).

    Asserts that every run's history is a prefix of its split's full
    history, and that a run that left early did so unconverged, exactly
    _PATIENCE passes after its best error.
    """
    retired = []
    for run in runs:
        if run.error is not None:
            continue
        history = full[design._orders(run.problem)].error_history
        last = len(run.history) - 1
        assert tuple(run.history) == history[:last + 1]
        if last == len(history) - 1:
            continue
        assert not run.converged
        assert last - int(np.argmin(run.history)) == design._PATIENCE
        retired.append(run)
    return retired


def failing_solve(monkeypatch, fails):
    """Make the stacked solve raise LinAlgError for the systems whose problem
    fails(problem) picks, called once per system and pass: their matrices
    turn NaN, which LAPACK rejects, and the other systems of the stack are
    solved as before."""
    solve = design._solve_a0

    def failing(lhs, rhs, problems):
        bad = [fails(problem) for problem in problems]
        if any(bad):
            lhs = lhs.copy()
            lhs[np.array(bad)] = np.nan
        return solve(lhs, rhs, problems)

    monkeypatch.setattr(design, "_solve_a0", failing)


def counted_systems(monkeypatch, counts, key="split_passes"):
    """Count the systems the stacked solve is given into counts[key]."""
    solve = design._solve_a0

    def counting(lhs, rhs, problems):
        counts[key] += len(problems)
        return solve(lhs, rhs, problems)

    monkeypatch.setattr(design, "_solve_a0", counting)


def solo_design(problem, patience=design._PATIENCE, tau=50):
    """The report of a problem's pass loop run alone from its prony_projection
    design: as an order search stops it, or with patience None as
    iterative_design runs it."""
    run = design._Run.start(problem, None)
    design._iterate([run], tau, patience)
    if run.error is not None:
        raise run.error
    return design._iterative_report(run)


def solo_reports(grid, h, cands, patience=design._PATIENCE):
    """solo_design of each split; failing splits left out."""
    reports = {}
    for p, q in cands:
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
        try:
            reports[p, q] = solo_design(problem, patience)
        except InstabilityError:
            continue
    return reports


# _solve_a0 calls of the iterative budget-19 search on each 100-point grid.
# Without retiring splits, the search made 952 and 920; retiring a split that
# trailed its P + Q group's leader 20 passes after its best, 449 and 426.
# Retiring depends on each split's error history, so these counts move with
# the rounding of the passes.
_BUDGET_19_PASSES = {"uniform-real": 192, "complex-disc": 171}


class TestLockstepSearch:
    """The order search runs the passes of all its splits together, and each
    split leaves once _PATIENCE passes have gone by without a new best error.
    Each split must get the bits its pass loop gets alone under that
    patience: a prefix of the bits iterative_design gives it."""

    @pytest.mark.parametrize("le_budget", [False, True])
    @pytest.mark.parametrize("budget", [5, 9])
    @pytest.mark.parametrize("make_grid", [uniform_real_grid, complex_disc_grid])
    def test_search_returns_best_solo_report(self, make_grid, budget, le_budget):
        grid = make_grid(100)
        h = ideal_lowpass(grid, 1.0)
        solo = solo_reports(grid, h, order_candidates(budget, le_budget))
        got = best_order_search(grid, h, budget, "iterative", le_budget=le_budget)
        assert_same_report(got, min(solo.values(), key=ranking))

    def test_failing_candidate_leaves_the_others_unchanged(self, monkeypatch):
        grid = complex_disc_grid(60)
        h = ideal_lowpass(grid, 1.0)
        cands = order_candidates(5, le_budget=False)
        solo = solo_reports(grid, h, cands)
        full = solo_reports(grid, h, cands, patience=None)
        passes = []

        def fails(problem):
            if problem.ar_order == 2:
                passes.append(1)
                return len(passes) == 3
            return False

        failing_solve(monkeypatch, fails)
        runs = [
            design._Run.start(
                DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q), None
            )
            for p, q in cands
        ]
        design._iterate(runs, 50, design._PATIENCE)
        failed = runs[2]
        assert isinstance(failed.error, np.linalg.LinAlgError)
        assert len(failed.history) == 3
        assert all(run.error is None for run in runs if run is not failed)
        assert retired_runs(runs, full)
        others = [rep for (p, _), rep in solo.items() if p != 2]
        winner = min(others, key=ranking)
        assert_same_report(
            design._iterative_report(runs[winner.filter.ar_order]), winner
        )

        passes.clear()
        assert_same_report(best_order_search(grid, h, 5, "iterative"), winner)
        passes.clear()
        with pytest.raises(np.linalg.LinAlgError):
            iterative_design(DesignProblem(grid=grid, h_hat=h, ar_order=2, ma_order=3))

    @pytest.mark.parametrize("make_grid, budget, le_budget", [
        (uniform_real_grid, 19, False),
        (complex_disc_grid, 13, False),
        (uniform_real_grid, 9, True),
    ])
    def test_retired_splits_leave_the_winner_unchanged(
        self, monkeypatch, make_grid, budget, le_budget
    ):
        grid = make_grid(100)
        h = ideal_lowpass(grid, 1.0)
        solo = solo_reports(grid, h, order_candidates(budget, le_budget))
        full = solo_reports(grid, h, order_candidates(budget, le_budget), patience=None)
        loops = recorded_loops(monkeypatch, design._iterate)
        got = best_order_search(grid, h, budget, "iterative", le_budget=le_budget)
        assert_same_report(got, min(solo.values(), key=ranking))
        assert sum(len(retired_runs(runs, full)) for runs in loops) > 0

    def test_iterative_design_alone_runs_every_pass(self):
        # (16, 3) never converges and its best iterate is its initialization;
        # in the budget-19 search it leaves the pass loop after _PATIENCE passes
        grid = uniform_real_grid(100)
        problem = DesignProblem(grid=grid, h_hat=ideal_lowpass(grid, 1.0),
                                ar_order=16, ma_order=3)
        report = iterative_design(problem)
        assert not report.converged
        assert report.iterations == 50 and len(report.error_history) == 51
        assert int(np.argmin(report.error_history)) + design._PATIENCE < 50

    @pytest.mark.parametrize("make_grid", [uniform_real_grid, complex_disc_grid])
    def test_budget_19_search_pass_count(self, monkeypatch, make_grid):
        counts = {"split_passes": 0}
        counted_systems(monkeypatch, counts)
        grid = make_grid(100)
        best_order_search(grid, ideal_lowpass(grid, 1.0), 19, "iterative")
        assert counts["split_passes"] == _BUDGET_19_PASSES[grid.kind]

    def test_le_budget_search_runs_one_pass_loop(self, monkeypatch):
        # the benchmark's --le-budget search: budget 9 on the 100-point
        # uniform grid. One loop per P + Q group made 10 loops of 358
        # iterations in all. Retiring a split that trailed its group's
        # leader 20 passes after its best made 1176 split-passes
        counts = {"loops": 0, "iterations": 0, "split_passes": 0}
        iterate, fill = design._iterate, design._A0Systems.fill

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        # a loop fills its stacked systems once per iteration
        monkeypatch.setattr(design, "_iterate", counting("loops", iterate))
        monkeypatch.setattr(design._A0Systems, "fill", counting("iterations", fill))
        counted_systems(monkeypatch, counts)
        grid = uniform_real_grid(100)
        best_order_search(grid, ideal_lowpass(grid, 1.0), 9, "iterative", le_budget=True)
        assert counts == {"loops": 1, "iterations": 50, "split_passes": 526}

    def test_failing_initialization_skips_only_that_split(self, monkeypatch):
        grid = uniform_real_grid(100)
        h = ideal_lowpass(grid, 1.0)
        solo = solo_reports(grid, h, order_candidates(9, le_budget=False))
        best = min(solo.values(), key=ranking)
        fit = design._projection_fit

        def failing(problem, basis):
            if problem.ar_order == best.filter.ar_order:
                raise InstabilityError("denominator vanishes")
            return fit(problem, basis)

        monkeypatch.setattr(design, "_projection_fit", failing)
        others = [rep for (p, _), rep in solo.items() if p != best.filter.ar_order]
        got = best_order_search(grid, h, 9, "iterative")
        assert_same_report(got, min(others, key=ranking))


def directed_spectrum_target():
    """Spectrum grid of the studies' directed k-NN graph and a smooth signal's
    GFT on it: the compression study's search."""
    from graphfilt.experiments import experiment_graphs, smooth_signal
    from graphfilt.graphs import NORMALIZED_ADJACENCY
    from graphfilt.spectral import gft

    directed, _ = experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    x = smooth_signal(dec, op.kind, np.random.default_rng(3))
    return spectrum_grid(dec), gft(dec, x)


def fails_at_third_pass(passes, problem):
    """Whether the solve of a (2, 3) problem is at its third pass, counted
    per problem object in passes."""
    if design._orders(problem) != (2, 3):
        return False
    count = passes.setdefault(id(problem), [problem, 0])
    count[1] += 1
    return count[1] == 3


def lowpass_target(make_grid, n):
    def target():
        grid = make_grid(n)
        return grid, ideal_lowpass(grid, 1.0)
    return target


TARGETS = {
    "uniform-real": lowpass_target(uniform_real_grid, 40),
    "complex-disc": lowpass_target(complex_disc_grid, 40),
    "directed-spectrum": directed_spectrum_target,
}


class TestSearchTable:
    """order_search_table designs each split once for all its budgets and
    methods; every entry must be best_order_search's report, bit for bit."""

    def test_empty_stack_gives_no_tables(self):
        # the compression study with no trials searches a (0, N) stack
        grid = uniform_real_grid(10)
        assert design.order_search_table(grid, np.zeros((0, 10)), [3], design.METHODS) == []

    @pytest.mark.parametrize("target", TARGETS)
    def test_one_le_budget_search_answers_every_smaller_budget(self, target):
        grid, h = TARGETS[target]()
        budgets = [6, 0, 3, 6, 5, 1]  # unsorted, with a repeat
        table = design.order_search_table(grid, h, budgets, ["iterative"], le_budget=True,
                                          tau=12)
        assert sorted(table) == [("iterative", k) for k in sorted(set(budgets))]
        for k in budgets:
            want = best_order_search(grid, h, k, "iterative", le_budget=True, tau=12)
            assert_same_report(table["iterative", k], want)

    def test_split_whose_solve_raises_mid_group(self, monkeypatch):
        # (2, 3) fails at its third pass in every search and drops out of
        # the candidates of budgets 5 and 6; the other splits of its group
        # keep their bits
        grid, h = TARGETS["directed-spectrum"]()
        passes = {}
        failing_solve(monkeypatch, partial(fails_at_third_pass, passes))
        table = design.order_search_table(grid, h, range(7), ["iterative"], le_budget=True,
                                          tau=12)
        for k in range(7):
            want = best_order_search(grid, h, k, "iterative", le_budget=True, tau=12)
            assert_same_report(table["iterative", k], want)
        # one run of the split in the table, one in each search at 5 and 6
        assert [count for _, count in passes.values()] == [3, 3, 3]

    @pytest.mark.parametrize("target", ["uniform-real", "complex-disc"])
    @pytest.mark.parametrize("le_budget", [False, True])
    def test_methods_share_the_iterative_initializations(self, target, le_budget):
        grid, h = TARGETS[target]()
        # at budget 8 on the 40-point uniform grid, ranking by the best of
        # iterates 0 and 1 instead of iterate 0 would pick another split
        budgets = [2, 5, 8]
        table = design.order_search_table(grid, h, budgets, design.METHODS, le_budget)
        for k in budgets:
            for method in design.METHODS:
                want = best_order_search(grid, h, k, method, le_budget=le_budget)
                assert_same_report(table[method, k], want)

    def test_projection_design_kept_when_the_passes_fail(self, monkeypatch):
        # the prony-projection winner's iterative run raises at its second
        # pass: it leaves the iterative candidates, not the prony-projection ones
        grid, h = TARGETS["complex-disc"]()
        want = best_order_search(grid, h, 5, "prony-projection")
        split = (want.filter.ar_order, want.filter.ma_order)
        failing_solve(monkeypatch, lambda problem: design._orders(problem) == split)
        table = design.order_search_table(grid, h, [5], ["prony-projection", "iterative"])
        assert_same_report(table["prony-projection", 5], want)
        got = table["iterative", 5]
        assert (got.filter.ar_order, got.filter.ma_order) != split
        assert_same_report(got, best_order_search(grid, h, 5, "iterative"))

    @pytest.mark.parametrize("make_grid", [uniform_real_grid, complex_disc_grid])
    def test_projection_table_runs_no_pass_loop(self, monkeypatch, make_grid):
        # prony-projection designs are the runs' initializations, whether or
        # not the table also asks for iterative
        grid = make_grid(40)
        targets = np.array([ideal_lowpass(grid, c) for c in (0.5, 1.0, 1.5)])
        budgets = [2, 5, 8]
        every = design.order_search_table(grid, targets, budgets, design.METHODS, True)

        def no_loop(*args):
            raise AssertionError("a prony-projection table ran the pass loop")

        monkeypatch.setattr(design, "_iterate", no_loop)
        got = design.order_search_table(grid, targets, budgets, ["prony-projection"], True)
        for table, full, h in zip(got, every, targets):
            assert list(table) == [("prony-projection", k) for k in budgets]
            for key, rep in table.items():
                problem = DesignProblem(grid=grid, h_hat=h, ar_order=rep.filter.ar_order,
                                        ma_order=rep.filter.ma_order)
                assert_same_report(rep, prony_projection(problem))
                assert_same_report(rep, full[key])

    @pytest.mark.parametrize("method", ["prony-ls", "prony-projection"])
    def test_search_with_no_finite_design_fails(self, monkeypatch, method):
        # a design that scores inf (a response not finite on the grid) is no
        # candidate, so a search whose every split scores inf fails
        grid, h = TARGETS["uniform-real"]()
        monkeypatch.setattr(design._Basis, "score", lambda self, a, b: np.inf)
        with pytest.raises(InstabilityError, match="every order candidate failed"):
            best_order_search(grid, h, 3, method)

    @pytest.mark.parametrize("method", ["prony-ls", "prony-projection"])
    @pytest.mark.parametrize("target", TARGETS)
    def test_one_shot_searches_report_the_best_solo_design(self, method, target):
        # the search scores every split and builds a report for the winner
        # only; it must be the report the method gives that split alone
        grid, h = TARGETS[target]()
        for k in (3, 6):
            solo = []
            for p, q in order_candidates(k, le_budget=False):
                problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
                solo.append(run_method(method, problem))
            got = best_order_search(grid, h, k, method)
            assert_same_report(got, min(solo, key=ranking))

    def test_unknown_method_rejected(self):
        grid, h = TARGETS["uniform-real"]()
        with pytest.raises(ParameterError, match="unknown design method"):
            design.order_search_table(grid, h, [3], ["iterative", "newton"])


def spectrum_targets(trials):
    """The compression study's search targets: the directed k-NN graph's
    spectrum grid and the GFTs of trials smooth signals, one row each."""
    from graphfilt.experiments import experiment_graphs, smooth_signal
    from graphfilt.graphs import NORMALIZED_ADJACENCY
    from graphfilt.spectral import gft

    directed, _ = experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    rng = np.random.default_rng(3)
    signals = [smooth_signal(dec, op.kind, rng) for _ in range(trials)]
    return spectrum_grid(dec), np.array([gft(dec, x) for x in signals])


def assert_same_table(got, want):
    """Two search tables, bit for bit: each entry's report JSON, iterates
    and history."""
    assert list(got) == list(want)
    for key, rep in got.items():
        other = want[key]
        assert (json.dumps(design.report_record(rep), sort_keys=True)
                == json.dumps(design.report_record(other), sort_keys=True)), key
        assert np.array_equal(rep.error_history, other.error_history)
        assert len(rep.iterate_filters) == len(other.iterate_filters)
        for x, y in zip(rep.iterate_filters, other.iterate_filters):
            assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)


def assert_same_run(got, want):
    """Two runs of one problem, bit for bit."""
    assert np.array_equal(got.history, want.history)
    assert len(got.iterates) == len(want.iterates)
    for (a, b), (c, d) in zip(got.iterates, want.iterates):
        assert np.array_equal(a, c) and np.array_equal(b, d)
    assert (got.converged, got.warnings, repr(got.error)) == (
        want.converged, want.warnings, repr(want.error))


def iterate_alone(runs, tau, patience=None, iterate=design._iterate):
    """The pass loop run on each run by itself; iterate is bound to the
    unpatched design._iterate, so a test may route design._iterate here."""
    for run in runs:
        iterate([run], tau, patience)


def recorded_loops(monkeypatch, loop):
    """Route design._iterate through loop and keep the runs of each call."""
    calls = []

    def recording(runs, tau, patience=None):
        calls.append(runs)
        return loop(runs, tau, patience)

    monkeypatch.setattr(design, "_iterate", recording)
    return calls


def left_early(run, tau):
    """Whether a run was retired: it left unconverged, without a solve
    error or a non-finite system, before its last pass."""
    return (run.error is None and not run.converged and len(run.history) - 1 < tau
            and "non-finite-iterate" not in run.warnings)


class TestFusedPassLoop:
    """order_search_table runs every split and target of a table in one pass
    loop. Each table must equal, bit for bit, the table built with every run
    iterated alone (iterate_alone), and the table of each target searched
    alone."""

    def tables(self, monkeypatch, grid, targets, *args, **kwargs):
        """Check the fused tables against the tables of lone runs and each
        target's own table; return the fused call's runs."""
        with monkeypatch.context() as m:
            fused = recorded_loops(m, design._iterate)
            got = design.order_search_table(grid, targets, *args, **kwargs)
        with monkeypatch.context() as m:
            recorded_loops(m, iterate_alone)
            want = design.order_search_table(grid, targets, *args, **kwargs)
        alone = [design.order_search_table(grid, h, *args, **kwargs) for h in targets]
        assert len(got) == len(want) == len(alone) == len(targets)
        for g, w, a in zip(got, want, alone):
            assert_same_table(g, w)
            assert_same_table(g, a)
        return fused

    @pytest.mark.parametrize("tau", [12, 50])
    def test_several_targets_le_budget(self, monkeypatch, tau):
        grid, targets = spectrum_targets(3)
        fused = self.tables(monkeypatch, grid, targets, [4, 8], ["iterative"],
                            le_budget=True, tau=tau)
        assert len(fused) == 1 and len(fused[0]) == 3 * 45

    @pytest.mark.parametrize("make_grid", [uniform_real_grid, complex_disc_grid])
    def test_all_methods_in_one_table(self, monkeypatch, make_grid):
        grid = make_grid(40)
        targets = np.array([ideal_lowpass(grid, c) for c in (0.5, 1.0, 1.5)])
        fused = self.tables(monkeypatch, grid, targets, [2, 5, 8], design.METHODS)
        assert len(fused) == 1

    def test_failing_split_next_to_healthy_groups(self, monkeypatch):
        # (2, 3) of every target fails at its third pass, in the fused loop
        # and alone alike
        grid, targets = spectrum_targets(2)
        passes = {}
        failing_solve(monkeypatch, partial(fails_at_third_pass, passes))
        (runs,) = self.tables(monkeypatch, grid, targets, range(7), ["iterative"],
                              le_budget=True, tau=12)
        failed = [run for run in runs if run.error is not None]
        assert [(run.target_index, *design._orders(run.problem)) for run in failed] == [
            (0, 2, 3), (1, 2, 3)]
        assert all(len(run.history) == 3 for run in failed)
        # fused, lone runs and lone targets: one run of the split per target each
        assert [count for _, count in passes.values()] == [3] * 6

    def test_retired_splits_in_two_groups(self, monkeypatch):
        grid = uniform_real_grid(100)
        targets = np.array([ideal_lowpass(grid, c) for c in (1.0, 0.8)])
        (runs,) = self.tables(monkeypatch, grid, targets, [13, 19], ["iterative"])
        retired = {(run.target_index, sum(design._orders(run.problem)))
                   for run in runs if left_early(run, 50)}
        assert {total for _, total in retired} == {13, 19}
        assert {t for t, _ in retired} == {0, 1}

    @pytest.mark.parametrize("make_grid, imag", [
        (uniform_real_grid, 1e-12),  # real and complex arithmetic
        (complex_disc_grid, 0.0),  # scored on magnitudes and not
    ])
    def test_targets_of_two_modes_are_refused(self, monkeypatch, make_grid, imag):
        # a stack that mixes modes raises before any design runs
        grid = make_grid(40)
        h = ideal_lowpass(grid, 1.0)
        other = h + 1j * imag if imag else random_pair_symmetric(grid, np.random.default_rng(1))

        def no_design(*args, **kwargs):
            raise AssertionError("designed for a stack of two modes")

        for name in ("_ls_fit", "_projection_fit", "_iterate"):
            monkeypatch.setattr(design, name, no_design)
        with pytest.raises(ParameterError, match="targets of a search table"):
            design.order_search_table(grid, np.array([h, other, h]), [5], design.METHODS,
                                      le_budget=True)

    def test_constrain_b0_zero(self):
        # the prediction study's problem shape: weights and a pinned b0, here
        # with the weights shared and one target per trial. One loop over
        # every target, one loop per target and each run alone must agree
        grid, targets = spectrum_targets(3)
        weights = np.abs(targets[0])

        def runs():
            out = []
            for t, h in enumerate(targets):
                for p, q in order_candidates(5, le_budget=True):
                    problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q,
                                            weights=weights, constrain_b0_zero=True)
                    try:
                        out.append(design._Run.start(problem, None, target_index=t))
                    except InstabilityError:
                        continue
            return out

        got, per_target, alone = runs(), runs(), runs()
        design._iterate(got, 30, design._PATIENCE)
        for t in range(len(targets)):
            design._iterate([run for run in per_target if run.target_index == t], 30,
                            design._PATIENCE)
        iterate_alone(alone, 30, design._PATIENCE)
        assert len(got) == len(per_target) == len(alone)
        for g, p, a in zip(got, per_target, alone):
            assert_same_run(g, a)
            assert_same_run(p, a)
        assert any(left_early(run, 30) for run in got)


class TestStallRule:
    """A split of an order search leaves its pass loop once _PATIENCE passes
    have gone by without a new best true error. The rule reads the split's
    own history only, so a loop of any mix of splits gives each the same
    iterates, history, warnings and stop pass as its loop alone."""

    @staticmethod
    def mixed_runs():
        """Runs of four targets on one complex-disc grid with shared weights:
        two scored on magnitudes and two on the complex error, each at every
        split of budget <= 7 with b0 free and pinned."""
        grid = complex_disc_grid(60)
        rng = np.random.default_rng(5)
        targets = [ideal_lowpass(grid, 1.0), random_pair_symmetric(grid, rng),
                   ideal_lowpass(grid, 0.6), random_pair_symmetric(grid, rng)]
        runs = []
        for t, h in enumerate(targets):
            for b0_zero in (False, True):
                for p, q in order_candidates(7, le_budget=True):
                    problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q,
                                            weights=pair_symmetric_weights(grid),
                                            constrain_b0_zero=b0_zero)
                    try:
                        runs.append(design._Run.start(problem, None, target_index=t))
                    except InstabilityError:
                        continue
        return runs

    def test_each_run_of_a_mixed_loop_runs_as_alone(self):
        fused, alone = self.mixed_runs(), self.mixed_runs()
        modes = {run.basis.target.mode for run in fused}
        assert len(modes) == 2
        for mode in modes:  # one loop per mode, as in a search table
            design._iterate([run for run in fused if run.basis.target.mode == mode], 50,
                            design._PATIENCE)
        for got, run in zip(fused, alone):
            design._iterate([run], 50, design._PATIENCE)
            assert_same_run(got, run)
        stops = {len(run.history) - 1 for run in fused if left_early(run, 50)}
        assert len(stops) > 1

    def test_table_of_mixed_targets_equals_the_table_of_lone_splits(self, monkeypatch):
        # targets of one mode: a stack that mixes modes is refused
        grid = complex_disc_grid(60)
        rng = np.random.default_rng(6)
        targets = np.array([random_pair_symmetric(grid, rng) for _ in range(3)])
        args = grid, targets, [5, 9], design.METHODS, True
        got = design.order_search_table(*args)
        iterate = design._iterate

        def one_at_a_time(runs, tau, patience=None):
            for run in runs:
                iterate([run], tau, patience)

        monkeypatch.setattr(design, "_iterate", one_at_a_time)
        for g, w in zip(got, design.order_search_table(*args)):
            assert_same_table(g, w)

    def test_complex_disc_budget_9_winner(self):
        # the one search winner the stall rule moves: alone, (4, 5) has its
        # best at pass 2 and its next gain at pass 16. In the search it
        # leaves at pass 10, and (2, 7) wins, 2.4% above (4, 5)'s best
        grid = complex_disc_grid(100)
        h = ideal_lowpass(grid, 1.0)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=4, ma_order=5)
        full = iterative_design(problem).error_history
        gains = [i for i in range(1, len(full)) if full[i] < min(full[:i])]
        assert gains[:2] == [2, 16]
        stalled = solo_design(problem)
        assert stalled.iterations == 2 + design._PATIENCE and not stalled.converged
        assert stalled.error_history == full[:stalled.iterations + 1]

        got = best_order_search(grid, h, 9, "iterative")
        assert design._orders(got.filter) == (2, 7)
        assert_same_report(got, solo_design(problem._at_orders(2, 7)))
        assert got.rnmse_true == pytest.approx(0.38813, abs=5e-6)
        assert min(full) == pytest.approx(0.37903, abs=5e-6)
        assert got.rnmse_true <= 1.025 * min(full)


class TestRunsWithTheirOwnWeights:
    """Runs whose problems weigh the grid differently share one pass loop:
    _Target.rows stacks their weights as rows, as it stacks the targets, and
    each run gets what its loop alone gives it. These are the prediction
    study's designs (h = 1, b0 pinned, weights |x_hat| of each signal), plus
    a compression target without weights."""

    @staticmethod
    def problems():
        grid, spectra = spectrum_targets(3)
        ones = np.ones(grid.n, dtype=complex)
        cases = [(ones, np.abs(x_hat)) for x_hat in spectra] + [(spectra[0], None)]
        return [
            DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q, weights=w,
                          constrain_b0_zero=True)
            for h, w in cases
            for p, q in [(1, 2), (2, 2), (3, 3)]
        ]

    @pytest.mark.parametrize("patience", [None, design._PATIENCE])
    def test_each_run_gets_its_lone_loop(self, patience):
        fused = [design._Run.start(problem, None) for problem in self.problems()]
        alone = [design._Run.start(problem, None) for problem in self.problems()]
        design._iterate(fused, 20, patience)
        iterate_alone(alone, 20, patience)
        for got, want in zip(fused, alone):
            assert_same_run(got, want)
        # runs leave the loop at different passes, so the stacked weights
        # are cut down with the other rows
        assert len({len(run.history) for run in fused}) > 1

    def test_weights_are_stacked_only_when_they_differ(self):
        unweighted = [design._Target.of(lowpass_problem(2, 3)),
                      design._Target.of(lowpass_problem(2, 3)._at_orders(1, 1))]
        assert design._Target.rows(unweighted).weights is None
        problems = self.problems()
        rows = design._Target.rows([design._Target.of(p) for p in problems])
        assert rows.weights.shape == rows.h.shape
        # a complex target holds pair weights even when its problem has none
        assert np.array_equal(rows.weights[-1], design._Target.of(problems[-1]).weights)

    def test_iterative_designs_equal_iterative_design(self):
        problems = self.problems()
        fused = design._iterative_designs([(problem, None) for problem in problems], 20)
        for got, problem in zip(fused, problems):
            assert_same_report(got, iterative_design(problem, tau=20))


class TestPassLoopSafetyNets:
    """The pass loop's guards: a denominator value of exactly zero, a
    reciprocal denominator that overflows, and a failed prony-ls solve. Each
    touches its own run or split only; every other run of the same loop
    keeps the bits it gets alone."""

    @staticmethod
    def runs():
        problem = lowpass_problem(1, 2)
        healthy = [design._Run.start(problem._at_orders(p, q), None)
                   for p, q in [(1, 1), (1, 2), (2, 2), (2, 3)]]
        # a(lambda) = 1 - lambda / 2 is exactly zero at the grid point 2
        bad = design._Run.start(problem, ArmaFilter(a=[1.0, -0.5], b=[0.5, 0.2, 0.1]))
        return healthy[:2] + [bad] + healthy[2:]

    def fused_runs(self):
        """The runs of one pass loop, each checked against its loop alone."""
        fused, alone = self.runs(), self.runs()
        design._iterate(fused, 20)
        iterate_alone(alone, 20)
        for got, want in zip(fused, alone):
            assert_same_run(got, want)
        return fused

    def test_zero_denominator_is_regularized_on_its_run_alone(self, monkeypatch):
        # with rho = 0 the denominator value at the grid point 2 is exactly 0
        monkeypatch.setattr(design, "_RHO", 0.0)
        runs = self.fused_runs()
        assert ["denominator-regularized" in run.warnings for run in runs] == [
            False, False, True, False, False]
        assert runs[2].history[0] == np.inf and np.isfinite(runs[2].best)

    def test_overflowing_reciprocal_ends_its_run_alone(self, monkeypatch):
        # rho = 1e-310 * max|a(lambda)| = 1e-310 turns that zero subnormal, and
        # its reciprocal overflows, so the run's first system is not finite
        monkeypatch.setattr(design, "_RHO", 1e-310)
        runs = self.fused_runs()
        assert ["non-finite-iterate" in run.warnings for run in runs] == [
            False, False, True, False, False]
        assert runs[2].history == [np.inf] and len(runs[2].iterates) == 1
        assert all(len(run.history) > 1 for i, run in enumerate(runs) if i != 2)

    def test_failed_prony_ls_solve_drops_its_split_alone(self, monkeypatch):
        grid = uniform_real_grid(100)
        h = ideal_lowpass(grid, 1.0)
        lone = {pq: prony_ls(DesignProblem(grid=grid, h_hat=h, ar_order=pq[0], ma_order=pq[1]))
                for pq in order_candidates(5, le_budget=False)}
        winner = design._orders(best_order_search(grid, h, 5, "prony-ls").filter)
        failing_solve(monkeypatch, lambda problem: design._orders(problem) == winner)
        with pytest.raises(np.linalg.LinAlgError):
            prony_ls(DesignProblem(grid=grid, h_hat=h, ar_order=winner[0],
                                   ma_order=winner[1]))
        del lone[winner]
        _, want = min(lone.items(), key=lambda item: (item[1].rnmse_true, *item[0]))
        assert_same_report(best_order_search(grid, h, 5, "prony-ls"), want)
