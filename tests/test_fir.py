import numpy as np
import pytest

from graphfilt import (
    ConjugateSymmetryError,
    FirFilter,
    ParameterError,
    build_er_graph,
    complex_disc_grid,
    eigendecompose,
    fir_apply,
    fir_design,
    fir_from_json,
    fir_response,
    fir_to_json,
    gft,
    igft,
    normalize,
    poly_apply,
    uniform_real_grid,
    vandermonde,
)
from graphfilt.design import ideal_lowpass
from graphfilt.graphs import (
    NORMALIZED_ADJACENCY,
    NORMALIZED_LAPLACIAN,
    build_knn_directed,
)

from graphfilt.fir import _LSTSQ_RCOND, _solve_real_lstsq_stack

from conftest import random_pair_symmetric


class TestVandermonde:
    def test_three_point_two_columns(self):
        grid = uniform_real_grid(3)
        psi = vandermonde(grid.lambdas, 2)
        assert np.allclose(psi.real, [[1, 0], [1, 1], [1, 2]])
        assert np.all(psi.imag == 0)

    def test_single_column_is_ones(self):
        grid = uniform_real_grid(5)
        assert np.allclose(vandermonde(grid.lambdas, 1), np.ones((5, 1)))

    def test_condition_grows_with_columns(self):
        grid = uniform_real_grid(100)
        conds = [np.linalg.cond(vandermonde(grid.lambdas, c)) for c in range(2, 18)]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(conds, conds[1:]))


class TestFirDesign:
    def test_allpass_gives_delta(self):
        grid = uniform_real_grid(20)
        design = fir_design(grid, np.ones(20, dtype=complex), 4)
        expected = np.zeros(5)
        expected[0] = 1.0
        assert np.allclose(design.filter.g, expected, atol=1e-10)
        assert design.rnmse <= 1e-12

    def test_exact_linear_response(self):
        grid = uniform_real_grid(25)
        h = 3.0 - 2.0 * grid.lambdas
        design = fir_design(grid, h, 1)
        assert np.allclose(design.filter.g, [3.0, -2.0], atol=1e-10)
        assert design.rnmse <= 1e-10

    def test_conjugate_symmetry_violation_rejected(self):
        grid = complex_disc_grid(20)
        h = np.ones(20, dtype=complex)
        h[np.flatnonzero(grid.pair != np.arange(20))[0]] += 1j
        with pytest.raises(ConjugateSymmetryError):
            fir_design(grid, h, 3)

    def test_lowpass_error_plateaus_near_one_tenth(self):
        # FIR error stays around 1e-1 and barely improves with order on
        # the universal grid
        grid = uniform_real_grid(100)
        h = ideal_lowpass(grid, 1.0)
        errs = {k: fir_design(grid, h, k).rnmse for k in (2, 8, 16, 24, 30)}
        assert errs[2] > errs[30]
        for k in (8, 16, 24, 30):
            assert 0.05 <= errs[k] <= 0.3

    def test_rnmse_non_increasing_in_order(self):
        grid = uniform_real_grid(60)
        h = ideal_lowpass(grid, 1.0)
        errs = [fir_design(grid, h, k).rnmse for k in range(1, 16)]
        assert all(b <= a + 1e-9 * a for a, b in zip(errs, errs[1:]))

    def test_matches_normal_equations_oracle(self):
        # independent brute-force solve of (Psi^H Psi) g = Psi^H h
        rng = np.random.default_rng(8)
        for n, k in [(8, 2), (15, 3), (12, 6), (20, 5)]:
            grid = complex_disc_grid(n) if n % 2 == 0 else uniform_real_grid(n)
            h = random_pair_symmetric(grid, rng)
            psi = grid.lambdas[:, None] ** np.arange(k + 1)[None, :]
            oracle = np.linalg.solve(psi.conj().T @ psi, psi.conj().T @ h).real
            design = fir_design(grid, h, k)
            assert np.linalg.norm(design.filter.g - oracle) <= 1e-6 * max(
                np.linalg.norm(oracle), 1.0
            )

    def test_real_coefficients_on_disc_grids(self):
        rng = np.random.default_rng(13)
        grid = complex_disc_grid(40)
        for _ in range(20):
            h = random_pair_symmetric(grid, rng)
            design = fir_design(grid, h, int(rng.integers(1, 9)))
            assert design.imag_residue == 0.0

    def test_rank_deficient_fit_warns(self):
        # at K = 48 the monomial columns on [0, 2] fall below the lstsq
        # cutoff and the fitted response is about 0
        grid = uniform_real_grid(100)
        h = ideal_lowpass(grid, 1.0)
        deficient = fir_design(grid, h, 48)
        assert deficient.warnings == ("rank-deficient",)
        assert deficient.rnmse > 0.9
        assert fir_design(grid, h, 8).warnings == ()


def stacked_systems(rng, n, k, count):
    """count random n x k systems, as a C-ordered stack and as the
    column-major views the pass loop hands over; system 1 has a repeated
    column and system 2 a zero column."""
    a = rng.standard_normal((count, n, k))
    if k > 1:
        a[1, :, -1] = a[1, :, 0]
    a[2, :, k // 2] = 0.0
    return a, np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)


class TestStackedSolve:
    """_solve_real_lstsq_stack solves a stack of systems in one LAPACK call;
    each system must get the bits np.linalg.lstsq gives it alone."""

    @pytest.mark.parametrize("n", [32, 64, 100])
    def test_each_system_gets_the_lstsq_bits(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, 21):
            rhs = rng.standard_normal((4, n))
            for a in stacked_systems(rng, n, k, 4):
                found = _solve_real_lstsq_stack(a, rhs)
                for i, (theta, rank) in enumerate(found):
                    want, _, want_rank, _ = np.linalg.lstsq(a[i], rhs[i], rcond=_LSTSQ_RCOND)
                    assert np.array_equal(theta, want)
                    assert rank == want_rank
                ranks = [rank for _, rank in found]
                assert ranks[0] == ranks[3] == k
                assert ranks[2] == k - 1
                assert k == 1 or ranks[1] == k - 1

    def test_complex_systems_solve_as_real_and_imaginary_rows(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 30, 6)) + 1j * rng.standard_normal((3, 30, 6))
        rhs = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
        for (theta, rank), m, r in zip(_solve_real_lstsq_stack(a, rhs), a, rhs):
            want, _, want_rank, _ = np.linalg.lstsq(
                np.vstack([m.real, m.imag]), np.concatenate([r.real, r.imag]),
                rcond=_LSTSQ_RCOND)
            assert theta.dtype == np.float64
            assert np.array_equal(theta, want) and rank == want_rank

    def test_failing_system_fails_alone(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 20, 4))
        rhs = rng.standard_normal((3, 20))
        a[1, 3, 2] = np.nan  # LAPACK rejects it: the SVD does not converge
        found = _solve_real_lstsq_stack(a, rhs)
        assert isinstance(found[1], np.linalg.LinAlgError)
        for i in (0, 2):
            want = np.linalg.lstsq(a[i], rhs[i], rcond=_LSTSQ_RCOND)[0]
            assert np.array_equal(found[i][0], want)

    def test_systems_without_unknowns(self):
        found = _solve_real_lstsq_stack(np.zeros((2, 5, 0)), np.ones((2, 5)))
        assert [(theta.shape, rank) for theta, rank in found] == [((0,), 0)] * 2


class TestFirResponse:
    def test_constant_filter(self):
        grid = uniform_real_grid(7)
        assert np.allclose(fir_response(FirFilter(g=[1.0]), grid), np.ones(7))

    def test_identity_coefficient_returns_frequencies(self):
        grid = uniform_real_grid(7)
        assert np.allclose(fir_response(FirFilter(g=[0.0, 1.0]), grid), grid.lambdas)

    def test_hand_value_at_half(self):
        grid = uniform_real_grid(9)  # includes lambda = 0.5
        resp = fir_response(FirFilter(g=[3.0, -2.0]), grid)
        idx = np.argmin(np.abs(grid.lambdas - 0.5))
        assert resp[idx] == pytest.approx(2.0, abs=1e-12)


class TestFirApply:
    def test_identity_filter(self):
        op = normalize(build_er_graph(10, 0.5, 0), NORMALIZED_LAPLACIAN)
        x = np.arange(10.0)
        assert np.allclose(fir_apply(FirFilter(g=[1.0, 0.0]), op, x), x)

    def test_single_shift(self):
        op = normalize(build_er_graph(10, 0.5, 0), NORMALIZED_LAPLACIAN)
        x = np.arange(10.0)
        assert np.allclose(fir_apply(FirFilter(g=[0.0, 1.0]), op, x), op.dense() @ x)

    def test_matches_spectral_oracle(self):
        op = normalize(build_er_graph(50, 0.2, 1), NORMALIZED_LAPLACIAN)
        dec = eigendecompose(op)
        rng = np.random.default_rng(4)
        g = rng.standard_normal(6)
        x = rng.standard_normal(50)
        response = np.polyval(g[::-1], dec.lambdas)
        oracle = igft(dec, response * gft(dec, x)).real
        y = fir_apply(FirFilter(g=g), op, x)
        assert np.linalg.norm(y - oracle) <= 1e-8 * np.linalg.norm(oracle)


class TestPolyApply:
    @pytest.fixture(params=["er-laplacian", "knn-adjacency"])
    def op(self, request):
        if request.param == "er-laplacian":
            return normalize(build_er_graph(60, 0.1, 3), NORMALIZED_LAPLACIAN)
        coords = np.random.default_rng(5).random((40, 2)) * 3
        return normalize(build_knn_directed(coords, 5), NORMALIZED_ADJACENCY)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_block_equals_column_by_column(self, op, transpose):
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(5)
        x = rng.standard_normal((op.n, 4))
        block = poly_apply(coeffs, op, x, transpose)
        columns = [poly_apply(coeffs, op, x[:, j], transpose) for j in range(4)]
        assert np.array_equal(block, np.column_stack(columns))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_identity_gives_matrix_polynomial(self, op, transpose):
        coeffs = np.random.default_rng(7).standard_normal(5)
        s = op.dense().T if transpose else op.dense()
        expected = sum(c * np.linalg.matrix_power(s, k) for k, c in enumerate(coeffs))
        got = poly_apply(coeffs, op, np.eye(op.n), transpose)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_json_round_trip():
    filt = FirFilter(g=[1.0, -0.5, 0.25])
    assert np.array_equal(fir_from_json(fir_to_json(filt)).g, filt.g)


def test_bad_json_type_rejected():
    with pytest.raises(ParameterError):
        fir_from_json('{"type": "arma", "g": [1]}')
