import csv

import numpy as np
import pytest

from graphfilt import (
    ConjugateSymmetryError,
    DimensionError,
    Graph,
    ParameterError,
    build_er_graph,
    build_knn_directed,
    complex_disc_grid,
    custom_operator,
    eigendecompose,
    gft,
    grid_to_csv,
    igft,
    normalize,
    order_frequencies,
    spectrum_grid,
    uniform_real_grid,
)
from graphfilt.errors import NonDiagonalizableError
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN
from graphfilt.spectral import (
    FrequencyGrid,
    pair_conjugates,
    validate_conjugate_pairs,
)


def two_path_laplacian():
    g = Graph(n=2, edges=((0, 1, 1.0), (1, 0, 1.0)), directed=False)
    return normalize(g, NORMALIZED_LAPLACIAN)


def directed_cycle(n=3):
    edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    g = Graph(n=n, edges=edges, directed=True)
    return normalize(g, NORMALIZED_ADJACENCY)


class TestEigendecompose:
    def test_two_path_hand_values(self):
        dec = eigendecompose(two_path_laplacian())
        assert np.allclose(sorted(dec.lambdas.real), [0.0, 2.0], atol=1e-12)
        assert np.all(dec.lambdas.imag == 0.0)
        # modes proportional to [1,1]/sqrt(2) and [1,-1]/sqrt(2)
        low = dec.modes[:, np.argmin(dec.lambdas.real)]
        high = dec.modes[:, np.argmax(dec.lambdas.real)]
        assert np.allclose(np.abs(low), 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(np.abs(high), 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(dec.inv_modes, dec.modes.T)

    def test_diagonal_operator(self):
        dec = eigendecompose(custom_operator(np.diag([0.5, -0.25])))
        assert sorted(dec.lambdas.real) == [-0.25, 0.5]
        # eigenvector matrix is a signed permutation of the identity
        assert np.allclose(np.abs(dec.modes), np.abs(dec.modes).round())

    def test_directed_cycle_cube_roots_of_unity(self):
        dec = eigendecompose(directed_cycle(3))
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        got = sorted(dec.lambdas, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        want = sorted(expected, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.allclose(got, want, atol=1e-10)

    def test_reconstruction_holds_on_random_graph(self):
        rng = np.random.default_rng(1)
        op = normalize(build_knn_directed(rng.random((20, 2)) * 3, 4), NORMALIZED_ADJACENCY)
        dec = eigendecompose(op)
        s = op.dense()
        recon = (dec.modes * dec.lambdas) @ dec.inv_modes
        assert np.linalg.norm(s - recon.real) / np.linalg.norm(s) <= 1e-8

    def test_defective_operator_rejected(self):
        # a Jordan block is not diagonalizable
        with pytest.raises(NonDiagonalizableError):
            eigendecompose(custom_operator(np.array([[1.0, 1.0], [0.0, 1.0]])))


class TestGft:
    def test_mode_maps_to_unit_vector(self):
        dec = eigendecompose(two_path_laplacian())
        x = dec.modes[:, 1].real
        x_hat = gft(dec, x)
        expected = np.zeros(2)
        expected[1] = 1.0
        assert np.allclose(x_hat, expected, atol=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        op = normalize(build_er_graph(120, 0.1, 3), NORMALIZED_LAPLACIAN)
        dec = eigendecompose(op)
        x = rng.standard_normal(120)
        back = igft(dec, gft(dec, x))
        assert np.linalg.norm(back.real - x) <= 1e-8 * np.linalg.norm(x)

    def test_round_trip_identity_directed_larger(self):
        # non-orthogonal eigenbasis path at a few hundred nodes
        rng = np.random.default_rng(6)
        op = normalize(build_knn_directed(rng.random((300, 2)) * 6, 5), NORMALIZED_ADJACENCY)
        dec = eigendecompose(op)
        x = rng.standard_normal(300)
        back = igft(dec, gft(dec, x))
        assert np.linalg.norm(back.real - x) <= 1e-8 * np.linalg.norm(x)

    def test_zero_maps_to_zero(self):
        dec = eigendecompose(two_path_laplacian())
        assert np.array_equal(gft(dec, np.zeros(2)), np.zeros(2))

    def test_property1_pairing_on_cycle(self):
        dec = eigendecompose(directed_cycle(3))
        grid = spectrum_grid(dec)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x_hat = gft(dec, rng.standard_normal(3))
            validate_conjugate_pairs(x_hat, grid, rtol=1e-9)

    def test_dimension_mismatch(self):
        dec = eigendecompose(two_path_laplacian())
        with pytest.raises(DimensionError):
            gft(dec, np.ones(3))

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({3: 3.0 + 0.5j, 4: 5.0}, "value at real frequency 3 has imaginary part 5.000e-01"),
            ({1: 2.0 + 1.5j, 3: 3.0 + 0.5j}, "values at pair (1,2) are not conjugate"),
        ],
    )
    def test_conjugate_violation_reports_first_offender(self, broken, message):
        grid = FrequencyGrid(
            lambdas=np.array([1.0, 1j, -1j, 2.0, 1 + 1j, 1 - 1j]),
            kind="graph-spectrum",
            pair=np.array([0, 2, 1, 3, 5, 4]),
        )
        values = np.array([1.0, 2 + 1j, 2 - 1j, 3.0, 4 + 2j, 4 - 2j])
        validate_conjugate_pairs(values, grid)
        for i, v in broken.items():
            values[i] = v
        with pytest.raises(ConjugateSymmetryError) as info:
            validate_conjugate_pairs(values, grid)
        assert str(info.value) == message


class TestPairing:
    def test_pairing_is_involution(self):
        rng = np.random.default_rng(2)
        op = normalize(build_knn_directed(rng.random((24, 2)) * 3, 5), NORMALIZED_ADJACENCY)
        grid = spectrum_grid(eigendecompose(op))
        assert np.array_equal(grid.pair[grid.pair], np.arange(grid.n))

    def test_near_real_truncated(self):
        pair, lam = pair_conjugates(np.array([1.0 + 1e-12j, 2.0]))
        assert np.array_equal(pair, [0, 1])
        assert lam[0].imag == 0.0

    def test_unmatched_complex_rejected(self):
        with pytest.raises(ConjugateSymmetryError):
            pair_conjugates(np.array([1.0 + 0.5j, 2.0]))


class TestOrdering:
    def test_laplacian_ascending(self):
        # the symmetric eigensolver already sorts, so scramble by hand
        from graphfilt.spectral import SpectralDecomposition

        scrambled = SpectralDecomposition(
            lambdas=np.array([2.0, 0.0, 1.0], dtype=complex),
            modes=np.eye(3, dtype=complex),
            inv_modes=np.eye(3, dtype=complex),
            symmetric=True,
        )
        assert list(order_frequencies(scrambled, NORMALIZED_LAPLACIAN)) == [1, 2, 0]

    def test_adjacency_ranks_unit_frequency_first(self):
        dec = eigendecompose(directed_cycle(3))
        order = order_frequencies(dec, NORMALIZED_ADJACENCY)
        first = dec.lambdas[order[0]]
        assert first == pytest.approx(1.0 + 0j, abs=1e-9)
        # remaining conjugate pair is adjacent
        rest = dec.lambdas[order[1:]]
        assert rest[0] == pytest.approx(np.conj(rest[1]), abs=1e-9)

    def test_total_variation_oracle_on_cycle(self):
        # TV = |1 - lambda| * ||u||_1 with unit-norm modes; all cycle modes
        # have equal l1 norm so the ordering follows |1 - lambda|
        dec = eigendecompose(directed_cycle(5))
        order = order_frequencies(dec, NORMALIZED_ADJACENCY)
        tv = np.abs(1 - dec.lambdas)
        assert np.all(np.diff(tv[order]) >= -1e-12)


class TestGrids:
    def test_uniform_three_points(self):
        assert np.allclose(uniform_real_grid(3).lambdas.real, [0.0, 1.0, 2.0])

    def test_uniform_two_points(self):
        assert np.allclose(uniform_real_grid(2).lambdas.real, [0.0, 2.0])

    def test_uniform_hundred_point_spacing(self):
        grid = uniform_real_grid(100)
        lam = grid.lambdas.real
        assert lam[0] == 0.0 and lam[-1] == 2.0
        assert np.allclose(np.diff(lam), 2.0 / 99.0)
        assert grid.all_real

    def test_uniform_needs_two_points(self):
        with pytest.raises(ParameterError):
            uniform_real_grid(1)

    @pytest.mark.parametrize("n", [4, 5, 7, 10, 25, 100, 101])
    def test_disc_grid_structure(self, n):
        grid = complex_disc_grid(n)
        lam = grid.lambdas
        assert len(lam) == n
        assert np.max(np.abs(lam)) <= 1.0 + 1e-12
        # closed under conjugation via the recorded pairing
        assert np.array_equal(grid.pair[grid.pair], np.arange(n))
        for i, j in enumerate(grid.pair):
            assert lam[j] == pytest.approx(np.conj(lam[i]), abs=1e-15)

    def test_disc_grid_dense_near_boundary(self):
        lam = complex_disc_grid(100).lambdas
        outer = np.sum(np.abs(lam) > 0.75)
        inner = np.sum(np.abs(lam) <= 0.25)
        assert outer > 3 * inner

    def test_disc_grid_too_small(self):
        with pytest.raises(ParameterError):
            complex_disc_grid(3)

    def test_grid_invariant_enforced(self):
        with pytest.raises(ConjugateSymmetryError):
            FrequencyGrid(
                lambdas=np.array([1.0 + 1j, 2.0]),
                kind="graph-spectrum",
                pair=np.array([0, 1]),
            )

    def test_csv_export(self, tmp_path):
        grid = complex_disc_grid(10)
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["re", "im", "is_real", "pair_index"]
        assert len(rows) == 11
        for i, row in enumerate(rows[1:]):
            assert float(row[0]) == grid.lambdas[i].real
            assert int(row[3]) == grid.pair[i]
