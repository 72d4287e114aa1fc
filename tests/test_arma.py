import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    InstabilityError,
    ParameterError,
    SingularSystemError,
    arma_apply_direct,
    arma_from_json,
    arma_response,
    arma_to_json,
    build_er_graph,
    check_stability,
    eigendecompose,
    gft,
    igft,
    normalize,
    uniform_real_grid,
)
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN

from conftest import graph_from_rows, random_stable_arma


def two_path(kind):
    g = graph_from_rows(2, ((0, 1, 1.0), (1, 0, 1.0)), directed=False)
    return normalize(g, kind)


class TestResponse:
    def test_matching_polynomials_give_allpass(self):
        grid = uniform_real_grid(11)
        filt = ArmaFilter(a=[1.0, 0.5], b=[1.0, 0.5])
        assert np.allclose(arma_response(filt, grid), np.ones(11), atol=1e-14)

    def test_trivial_denominator_degenerates_to_fir(self):
        grid = uniform_real_grid(11)
        b = np.array([0.3, -0.7, 0.2])
        filt = ArmaFilter(a=[1.0], b=b)
        psi = grid.lambdas[:, None] ** np.arange(3)[None, :]
        assert np.allclose(arma_response(filt, grid), psi @ b)

    def test_hand_value(self):
        grid = uniform_real_grid(3)  # contains lambda = 1
        filt = ArmaFilter(a=[1.0, 1.0], b=[1.0])
        resp = arma_response(filt, grid)
        assert resp[1] == pytest.approx(0.5, abs=1e-14)

    def test_scale_ambiguity_of_raw_polynomials(self):
        # responses of (a, b) and (c a, c b) agree exactly; checked on raw
        # polynomial ratios because the filter type pins a0 = 1
        grid = uniform_real_grid(17)
        rng = np.random.default_rng(0)
        a, b = random_stable_arma(rng, 2, 2)
        psi_a = grid.lambdas[:, None] ** np.arange(len(a))[None, :]
        psi_b = grid.lambdas[:, None] ** np.arange(len(b))[None, :]
        base = (psi_b @ b) / (psi_a @ a)
        for c in (2.0, -3.0, 0.5):
            scaled = (psi_b @ (c * b)) / (psi_a @ (c * a))
            assert np.max(np.abs(scaled - base)) <= 1e-12

    def test_vanishing_denominator_raises_with_index(self):
        grid = uniform_real_grid(3)
        filt = ArmaFilter(a=[1.0, -1.0], b=[1.0])
        with pytest.raises(InstabilityError) as err:
            arma_response(filt, grid)
        assert err.value.offending == [1]


class TestStability:
    def test_constant_denominator_always_stable(self):
        grid = uniform_real_grid(50)
        report = check_stability(ArmaFilter(a=[1.0, 0.0], b=[1.0]), grid)
        assert report.stable
        assert report.min_denominator_magnitude == pytest.approx(1.0)

    def test_root_on_grid_flagged(self):
        grid = uniform_real_grid(3)
        report = check_stability(ArmaFilter(a=[1.0, -1.0], b=[1.0]), grid)
        assert not report.stable
        assert report.offending == (1,)


class TestApplyDirect:
    def test_identity(self):
        op = two_path(NORMALIZED_LAPLACIAN)
        x = np.array([2.0, -1.0])
        y = arma_apply_direct(ArmaFilter(a=[1.0], b=[1.0]), op, x)
        assert np.allclose(y, x)

    def test_pure_shift(self):
        op = two_path(NORMALIZED_LAPLACIAN)
        x = np.array([2.0, -1.0])
        y = arma_apply_direct(ArmaFilter(a=[1.0, 0.0], b=[0.0, 1.0]), op, x)
        assert np.allclose(y, op.dense() @ x)

    def test_matches_spectral_oracle(self):
        op = normalize(build_er_graph(30, 0.2, 6), NORMALIZED_LAPLACIAN)
        dec = eigendecompose(op)
        rng = np.random.default_rng(6)
        a, b = random_stable_arma(rng, 2, 2)
        filt = ArmaFilter(a=a, b=b)
        x = rng.standard_normal(30)
        response = np.polyval(b[::-1], dec.lambdas) / np.polyval(a[::-1], dec.lambdas)
        oracle = igft(dec, response * gft(dec, x)).real
        y = arma_apply_direct(filt, op, x)
        assert np.linalg.norm(y - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_gft_consistency(self):
        op = normalize(build_er_graph(30, 0.2, 6), NORMALIZED_LAPLACIAN)
        dec = eigendecompose(op)
        rng = np.random.default_rng(7)
        a, b = random_stable_arma(rng, 3, 1)
        filt = ArmaFilter(a=a, b=b)
        x = rng.standard_normal(30)
        y_hat = gft(dec, arma_apply_direct(filt, op, x))
        response = np.polyval(b[::-1], dec.lambdas) / np.polyval(a[::-1], dec.lambdas)
        assert np.linalg.norm(y_hat - response * gft(dec, x)) <= 1e-8

    def test_singular_system_rejected(self):
        # normalized adjacency of the 2-path has eigenvalue 1, so I - S is singular
        op = two_path(NORMALIZED_ADJACENCY)
        with pytest.raises(SingularSystemError):
            arma_apply_direct(ArmaFilter(a=[1.0, -1.0], b=[1.0]), op, np.ones(2))

    def test_size_cap_for_direct_path(self):
        import scipy.sparse as sp

        from graphfilt.graphs import custom_operator

        op = custom_operator(sp.eye(2001, format="csr"))
        with pytest.raises(ParameterError):
            arma_apply_direct(ArmaFilter(a=[1.0], b=[1.0]), op, np.zeros(2001))

    def test_size_cap_checked_before_the_identity_is_built(self, monkeypatch):
        import scipy.sparse as sp

        from graphfilt.graphs import custom_operator

        op = custom_operator(sp.eye(2001, format="csr"))

        def no_eye(*args, **kwargs):
            raise AssertionError("dense identity built past the cap")

        monkeypatch.setattr(np, "eye", no_eye)
        with pytest.raises(ParameterError, match="capped at n=2000"):
            arma_apply_direct(ArmaFilter(a=[1.0, 0.5], b=[1.0]), op, np.zeros(2001))


class TestFilterType:
    def test_a0_must_be_one(self):
        with pytest.raises(ParameterError):
            ArmaFilter(a=[2.0, 1.0], b=[1.0])

    def test_json_round_trip(self):
        filt = ArmaFilter(a=[1.0, 0.25], b=[0.5, -0.5])
        loaded = arma_from_json(arma_to_json(filt))
        assert np.array_equal(loaded.a, filt.a)
        assert np.array_equal(loaded.b, filt.b)

    def test_json_validates_leading_coefficient(self):
        with pytest.raises(ParameterError):
            arma_from_json('{"type": "arma", "a": [2.0, 1.0], "b": [1.0]}')
