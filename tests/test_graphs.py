import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from graphfilt import (
    DegenerateDistanceError,
    DimensionError,
    Graph,
    ParameterError,
    ZeroDegreeError,
    ZeroNormError,
    build_er_graph,
    build_knn_directed,
    custom_operator,
    graph_from_json,
    graph_to_json,
    normalize,
    read_coords_csv,
    read_edge_csv,
    shift_apply,
    symmetrize_max,
)
from graphfilt import graphs
from graphfilt.errors import CsvParseError
from graphfilt.graphs import (
    NORMALIZED_ADJACENCY,
    NORMALIZED_LAPLACIAN,
    is_symmetric,
    read_id_table,
    shift_apply_transpose,
)

from conftest import (
    arc_rows,
    dense_adjacency,
    dense_normalized_laplacian,
    graph_from_rows,
    loop_knn_rows,
    power_iteration_radius,
    triu_er_edges,
)


def two_path():
    return graph_from_rows(2, ((0, 1, 1.0), (1, 0, 1.0)), directed=False)


def directed_knn(n, k, seed):
    return build_knn_directed(np.random.default_rng(seed).random((n, 2)) * 3, k=k)


def weighted_er(n, p, seed):
    g = build_er_graph(n, p, seed)
    weights = np.random.default_rng(seed).random((n, n))
    w = weights[np.minimum(g.src, g.dst), np.maximum(g.src, g.dst)]
    return Graph(n, g.src, g.dst, w, directed=False)


class TestErdosRenyi:
    def test_zero_probability_gives_no_edges(self):
        assert build_er_graph(4, 0.0, 1).src.size == 0

    def test_unit_probability_gives_complete_graph(self):
        g = build_er_graph(4, 1.0, 1)
        assert g.src.size == 12  # 6 undirected edges, both orientations

    def test_edge_count_within_three_sigma(self):
        # binomial count oracle: mean p*C(100,2) = 495, sigma = sqrt(495*0.9)
        g = build_er_graph(100, 0.1, 7)
        undirected = g.src.size // 2
        mean, sigma = 495.0, math.sqrt(495.0 * 0.9)
        assert abs(undirected - mean) <= 3 * sigma

    @pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (30, 0.2, 3), (257, 0.05, 7)])
    def test_row_draws_match_one_draw_over_the_triangle(self, n, p, seed):
        assert arc_rows(build_er_graph(n, p, seed)) == triu_er_edges(n, p, seed)

    def test_deterministic_given_seed(self):
        assert arc_rows(build_er_graph(50, 0.3, 9)) == arc_rows(build_er_graph(50, 0.3, 9))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ParameterError):
            build_er_graph(4, 1.5, 0)
        with pytest.raises(ParameterError):
            build_er_graph(1, 0.5, 0)


class TestKnn:
    def test_collinear_hand_weight(self):
        # nodes at x = 0, 1, 2 with k=1: node 0 links to node 1 and the
        # weight is exp(-1)/sqrt(exp(-1)*exp(-1)) = 1
        g = build_knn_directed([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], k=1)
        weights = {(i, j): w for i, j, w in arc_rows(g)}
        assert (0, 1) in weights
        assert weights[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        # node 1 ties between 0 and 2; lower index wins
        assert (1, 0) in weights and (1, 2) not in weights

    def test_out_degree_equals_k(self):
        rng = np.random.default_rng(0)
        g = build_knn_directed(rng.random((32, 2)), k=6)
        out = np.zeros(32, dtype=int)
        for i, _, _ in arc_rows(g):
            out[i] += 1
        assert np.all(out == 6)

    def test_equal_distances_at_kth_neighbor_go_to_lower_index(self):
        # integer lattice, node x * 3 + y: squared distances are exact
        # integers, so equal distances tie exactly and straddle the k-th
        # neighbor of most nodes
        coords = [(x, y) for x in range(4) for y in range(3)]
        for k in (1, 2, 3, 5):
            g = build_knn_directed(np.array(coords, dtype=float), k=k)
            for i, (xi, yi) in enumerate(coords):
                ranked = sorted((j for j in range(len(coords)) if j != i),
                                key=lambda j: ((coords[j][0] - xi) ** 2
                                               + (coords[j][1] - yi) ** 2, j))
                assert set(g.dst[g.src == i].tolist()) == set(ranked[:k])
        g = build_knn_directed(np.array(coords, dtype=float), k=2)
        # the centre node 4 has four neighbors at distance 1: 1, 3, 5, 7;
        # node 1 has three (0, 2, 4), and node 3 has three (0, 4, 6)
        assert [sorted(g.dst[g.src == i].tolist()) for i in (4, 1, 3)] == [
            [1, 3], [0, 2], [0, 4]]

    @pytest.mark.parametrize("n, k", [(600, 8), (150, 1)])
    def test_bit_identical_to_per_node_loop(self, n, k):
        coords = np.random.default_rng(n).random((n, 2)) * 3 * np.sqrt(n / 32)
        assert arc_rows(build_knn_directed(coords, k)) == loop_knn_rows(coords, k)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(DegenerateDistanceError):
            build_knn_directed([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)], k=1)

    def test_mutual_neighbors_get_symmetric_weights(self):
        # the weight formula is symmetric in its endpoints, so mutually
        # nearest nodes carry equal weights in both directions
        g = build_knn_directed([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)], k=1)
        w = {(i, j): wt for i, j, wt in arc_rows(g)}
        assert w[(0, 1)] == pytest.approx(w[(1, 0)], rel=1e-12)

    def test_symmetrized_adjacency_is_symmetric(self):
        rng = np.random.default_rng(3)
        g = symmetrize_max(build_knn_directed(rng.random((20, 2)) * 3, k=4))
        a = dense_adjacency(g)
        assert np.array_equal(a, a.T)

    def test_symmetrize_keeps_one_arc_per_self_loop(self):
        g = symmetrize_max(Graph(3, [0, 0, 2], [0, 1, 1], [1.5, 2.0, 0.5], directed=True))
        assert arc_rows(g) == ((0, 0, 1.5), (0, 1, 2.0), (1, 0, 2.0), (1, 2, 0.5), (2, 1, 0.5))
        assert dense_adjacency(g)[0, 0] == 1.5


class TestNormalize:
    def test_two_path_laplacian_hand_values(self):
        op = normalize(two_path(), NORMALIZED_LAPLACIAN)
        assert np.allclose(op.dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        eig = np.linalg.eigvalsh(op.dense())
        assert np.allclose(sorted(eig), [0.0, 2.0], atol=1e-12)

    def test_nilpotent_adjacency_falls_back_to_row_sum(self):
        g = graph_from_rows(2, ((0, 1, 3.0),), directed=True)
        op = normalize(g, NORMALIZED_ADJACENCY)
        assert op.norm_fallback
        assert op.spectral_norm == pytest.approx(3.0)
        assert op.dense()[0, 1] == pytest.approx(1.0)

    def test_zero_graph_rejected(self):
        g = graph_from_rows(2, (), directed=False)
        with pytest.raises(ZeroNormError):
            normalize(g, NORMALIZED_ADJACENCY)

    def test_er_laplacian_spectrum_within_bounds(self, er_laplacian):
        op, dec = er_laplacian
        lam = dec.lambdas.real
        assert lam.min() >= -1e-9
        assert lam.max() <= 2.0 + 1e-9

    def test_adjacency_radius_is_one_by_power_iteration(self):
        g = build_er_graph(60, 0.2, 5)
        op = normalize(g, NORMALIZED_ADJACENCY)
        assert power_iteration_radius(op.dense()) == pytest.approx(1.0, abs=1e-9)

    def test_laplacian_requires_undirected(self):
        g = graph_from_rows(2, ((0, 1, 1.0),), directed=True)
        with pytest.raises(ParameterError):
            normalize(g, NORMALIZED_LAPLACIAN)

    def test_isolated_node_rejected_for_laplacian(self):
        g = graph_from_rows(3, ((0, 1, 1.0), (1, 0, 1.0)), directed=False)
        with pytest.raises(ZeroDegreeError):
            normalize(g, NORMALIZED_LAPLACIAN)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_er_graph(300, 0.05, 1), id="unit-er"),
        pytest.param(two_path, id="two-node"),
    ])
    def test_sparse_laplacian_bit_identical_to_dense(self, make):
        # integer degrees are exact in any summation order
        g = make()
        s, ref = normalize(g, NORMALIZED_LAPLACIAN).matrix, dense_normalized_laplacian(g)
        assert np.array_equal(s.indptr, ref.indptr)
        assert np.array_equal(s.indices, ref.indices)
        assert np.array_equal(s.data, ref.data)
        assert (s != s.T).nnz == 0

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: weighted_er(300, 0.05, 1), id="weighted-er"),
        pytest.param(lambda: symmetrize_max(build_knn_directed(
            np.random.default_rng(3).random((200, 2)) * 3, k=6)), id="knn-symmetrized"),
    ])
    def test_weighted_laplacian_within_ulps_of_dense(self, make):
        # the sparse and dense degree sums may round in a different order
        g = make()
        s, ref = normalize(g, NORMALIZED_LAPLACIAN).matrix, dense_normalized_laplacian(g)
        assert np.array_equal(s.indptr, ref.indptr)
        assert np.array_equal(s.indices, ref.indices)
        assert np.all(np.abs(s.data - ref.data) <= 8 * np.spacing(np.abs(ref.data)))
        assert (s != s.T).nnz == 0

    def test_laplacian_never_densifies(self, monkeypatch):
        g = build_er_graph(500, 0.02, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("normalize built a dense matrix")

        for cls in (sp.csr_array, sp.csc_array, sp.coo_array, sp.dia_array):
            monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        op = normalize(g, NORMALIZED_LAPLACIAN)
        assert op.matrix.nnz == g.src.size + g.n

    def test_laplacian_symmetric_to_machine_tolerance(self):
        g = build_er_graph(40, 0.3, 11)
        op = normalize(g, NORMALIZED_LAPLACIAN)
        assert is_symmetric(op)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_er_graph(40, 0.3, 11), id="unit-er"),
        pytest.param(lambda: weighted_er(60, 0.2, 4), id="weighted-er"),
        pytest.param(lambda: Graph(4, [0, 1, 1, 2, 2, 3, 3], [1, 0, 1, 3, 2, 2, 3],
                                   [0.5, 0.5, 2.0, 1.5, 0.25, 1.5, 3.0], directed=False),
                     id="self-loops"),
    ])
    def test_laplacian_carries_its_symmetry_gap(self, make):
        # normalize builds S exactly symmetric and says so: is_symmetric
        # reads the gap its own computation would give
        op = normalize(make(), NORMALIZED_LAPLACIAN)
        assert "_symmetry_gap" in vars(op)
        assert op._symmetry_gap[0] == 0.0
        assert op._symmetry_gap == type(op)._symmetry_gap.func(op)


class TestShiftApply:
    def test_identity_operator(self):
        op = custom_operator(np.eye(5))
        x = np.arange(5.0)
        assert np.array_equal(shift_apply(op, x), x)

    def test_laplacian_null_space_constant_vector(self):
        op = normalize(two_path(), NORMALIZED_LAPLACIAN)
        assert np.allclose(shift_apply(op, [1.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_laplacian_top_eigenvector(self):
        op = normalize(two_path(), NORMALIZED_LAPLACIAN)
        assert np.allclose(shift_apply(op, [1.0, -1.0]), [2.0, -2.0], atol=1e-14)

    def test_matches_dense_product(self):
        g = build_er_graph(150, 0.1, 2)
        op = normalize(g, NORMALIZED_LAPLACIAN)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(150)
        dense = op.dense() @ x
        sparse = shift_apply(op, x)
        assert np.linalg.norm(sparse - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_length_mismatch_rejected(self):
        op = custom_operator(np.eye(3))
        with pytest.raises(DimensionError):
            shift_apply(op, np.ones(4))


def sparse_pattern_operator():
    """6 x 6: row 0 holds every entry, row 2 only a self-loop, rows 1 and 4
    are empty, and columns 1 and 4 hold only row 0's entries."""
    m = np.zeros((6, 6))
    m[0] = [0.5, -1.25, 2.0, 3.5, -0.75, 1.5]
    m[2, 2] = 4.0
    m[3, [0, 3, 5]] = [1.0, -2.0, 0.25]
    m[5, [2, 3]] = [-3.0, 0.125]
    return custom_operator(m)


class TestProductKernels:
    """The jagged-diagonal kernels for one signal give the bits of scipy's
    csr_matvec, and of csc_matvec for S^T."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: normalize(build_er_graph(300, 0.05, 1), NORMALIZED_LAPLACIAN),
                     id="unit-er-laplacian"),
        pytest.param(lambda: normalize(weighted_er(300, 0.05, 1), NORMALIZED_LAPLACIAN),
                     id="weighted-er-laplacian"),
        # weighted and directed
        pytest.param(lambda: normalize(directed_knn(200, 6, 3), NORMALIZED_ADJACENCY),
                     id="knn-adjacency"),
        # node 3 has an in-arc but no out-arc: row 3 is empty
        pytest.param(lambda: normalize(graph_from_rows(
            4, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 1.5)), directed=True),
            NORMALIZED_ADJACENCY), id="empty-row"),
        pytest.param(sparse_pattern_operator, id="empty-rows-and-columns-full-row-self-loop"),
        # row 0 stores column 2 twice and its columns out of order, as a
        # non-canonical scipy CSR matrix may
        pytest.param(lambda: custom_operator(sp.csr_array(
            (np.array([1e16, 1.0, 3.0, -1e16, 2.0, 0.5]), np.array([2, 0, 1, 2, 0, 1]),
             np.array([0, 4, 4, 6])), shape=(3, 3))), id="duplicate-and-unsorted-entries"),
        pytest.param(lambda: custom_operator([[0.5]]), id="n-1"),
        pytest.param(lambda: custom_operator([[0.0]]), id="n-1-empty"),
        pytest.param(lambda: custom_operator(np.zeros((3, 3))), id="no-entries"),
    ])
    def test_bit_identical_to_scipy(self, make):
        op = make()
        x = np.random.default_rng(0).standard_normal(op.n)
        y, yt = shift_apply(op, x), shift_apply_transpose(op, x)
        assert "matrix" not in vars(op), "the products ran on scipy"
        assert y.tobytes() == (op.matrix @ x).tobytes()
        assert yt.tobytes() == (op.matrix.T @ x).tobytes()

    @pytest.mark.parametrize("x", [
        pytest.param([-0.0, -0.0, -0.0, -0.0, -0.0, -0.0], id="negative-zeros"),
        pytest.param([1.0, -0.0, 0.5, 0.0, -0.0, 0.0], id="mixed-zeros"),
        pytest.param([4.0, 1.0, -0.5, 0.5, -8.0, 1e-300], id="cancelling"),
    ])
    def test_rows_start_from_positive_zero(self, x):
        # the terms of a row or column that all are -0.0 sum to +0.0 from the
        # +0.0 start csr_matvec gives every row
        op = sparse_pattern_operator()
        x = np.array(x)
        y, yt = shift_apply(op, x), shift_apply_transpose(op, x)
        assert "matrix" not in vars(op)
        assert y.tobytes() == (op.matrix @ x).tobytes()
        assert yt.tobytes() == (op.matrix.T @ x).tobytes()
        if not np.any(x):
            assert not np.signbit(y).any() and not np.signbit(yt).any()

    def test_layouts_built_once_and_never_for_blocks(self, monkeypatch):
        built = []
        of = graphs._Jagged.of
        monkeypatch.setattr(graphs._Jagged, "of",
                            classmethod(lambda cls, *a: built.append(1) or of(*a)))
        op = normalize(directed_knn(60, 5, 2), NORMALIZED_ADJACENCY)
        block = np.random.default_rng(1).standard_normal((op.n, 3))
        assert shift_apply(op, block).shape == shift_apply_transpose(op, block).shape
        shift_apply(op, block[:, 0] + 1j)
        assert built == []
        for column in block.T:
            shift_apply(op, column)
        assert len(built) == 1
        for column in block.T:
            shift_apply_transpose(op, column)
        assert len(built) == 2
        assert {"_row_layout", "_column_layout"} <= set(vars(op))

    def test_products_are_charged_their_arcs_and_slots(self):
        # a star's hub row takes one slot per entry: its slots are charged,
        # so its products switch to scipy long before its arcs alone would
        n = 50
        spokes = np.arange(1, n)
        star = Graph(n, np.r_[np.zeros(n - 1), spokes], np.r_[spokes, np.zeros(n - 1)],
                     np.ones(2 * (n - 1)), directed=False)
        op = normalize(star, NORMALIZED_LAPLACIAN)
        shift_apply(op, np.ones(n))
        assert len(op._row_layout.slots) == n
        assert op._visits == op.nnz + graphs._SLOT_ARC_VISITS * n


class TestSymmetry:
    def test_asymmetry_reports_first_offending_pair(self):
        # A[1,0] = 2 has no mirror; the first offending (i, j) in row-major
        # order is the unstored (0, 1)
        with pytest.raises(ParameterError, match=r"A\[0,1\]=0.0 but A\[1,0\]=2.0"):
            graph_from_rows(3, ((1, 0, 2.0), (1, 2, 1.0), (2, 1, 1.0)), directed=False)

    @pytest.mark.parametrize("entries, tol, expected", [
        pytest.param([[0.0, 1.0], [1.0, 0.0]], 0.0, True, id="exact"),
        pytest.param([[0.0, 1.0], [1.0 + 1e-13, 0.0]], 1e-12, True, id="within-tol"),
        pytest.param([[0.0, 1.0], [1.0 + 1e-13, 0.0]], 1e-14, False, id="outside-tol"),
        pytest.param([[0.0, 1e-13], [0.0, 0.0]], 1e-12, True, id="one-sided-small"),
        pytest.param([[0.0, 1e-3], [0.0, 0.0]], 1e-12, False, id="one-sided-large"),
        pytest.param([[0.0, 4.0], [4.0 + 1e-12, 0.0]], 1e-12, True, id="scaled-by-max"),
    ])
    def test_is_symmetric_tolerance(self, entries, tol, expected):
        assert is_symmetric(custom_operator(np.array(entries)), tol) is expected


class TestGraphValidation:
    def test_missing_reverse_edge_rejected(self):
        with pytest.raises(ParameterError):
            graph_from_rows(2, ((0, 1, 1.0),), directed=False)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ParameterError):
            graph_from_rows(2, ((0, 5, 1.0),), directed=True)

    def test_fractional_index_rejected(self):
        with pytest.raises(ParameterError):
            graph_from_rows(3, ((0, 1.5, 1.0),), directed=True)

    def test_symmetry_checked_on_summed_adjacency(self):
        # repeated arcs add up: two unit arcs 0 -> 1 mirror one arc 1 -> 0 of
        # weight 2, while arcs of weights 1 and 2 do not
        g = graph_from_rows(2, ((0, 1, 1.0), (0, 1, 1.0), (1, 0, 2.0)), directed=False)
        assert dense_adjacency(g).tolist() == [[0.0, 2.0], [2.0, 0.0]]
        with pytest.raises(ParameterError):
            graph_from_rows(2, ((0, 1, 1.0), (0, 1, 2.0), (1, 0, 2.0)), directed=False)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ParameterError):
            graph_from_rows(2, ((0, 1, float("nan")),), directed=True)


class TestFileFormats:
    def test_json_round_trip_and_determinism(self):
        g = build_er_graph(20, 0.3, 4)
        text = graph_to_json(g)
        loaded = graph_from_json(text)
        assert loaded.n == g.n and loaded.directed == g.directed
        assert set(arc_rows(loaded)) == set(arc_rows(g))
        assert graph_to_json(build_er_graph(20, 0.3, 4)) == text

    @pytest.mark.parametrize("n, directed", [
        pytest.param(2, "false", id="directed-string"),
        pytest.param(2, 0, id="directed-number"),
        pytest.param(2.9, False, id="fractional-n"),
        pytest.param(2.0, False, id="float-n"),
        pytest.param(True, False, id="bool-n"),
        pytest.param("2", False, id="string-n"),
    ])
    def test_json_fields_must_have_json_types(self, n, directed):
        text = json.dumps({"n": n, "directed": directed, "edges": []})
        with pytest.raises(CsvParseError):
            graph_from_json(text)

    @pytest.mark.parametrize("edges", [
        pytest.param([["0", "1", "2.5"], ["1", "0", "2.5"]], id="string-fields"),
        pytest.param([[0, 1, "2.5"], [1, 0, 2.5]], id="string-weight"),
        pytest.param([[0, 1, None], [1, 0, 1.0]], id="null-weight"),
        pytest.param([[0, 1, 1.0], [1, 0]], id="ragged-rows"),
        pytest.param([0, 1, 1.0], id="flat-row"),
    ])
    def test_json_edge_fields_must_be_numbers(self, edges):
        text = json.dumps({"n": 2, "directed": False, "edges": edges})
        with pytest.raises(CsvParseError):
            graph_from_json(text)

    FIELDS = "every edge needs 3 fields"
    NUMBERS = "edge fields must be JSON numbers"

    @pytest.mark.parametrize("edges, outcome", [
        # a row that nests its fields one level deeper is no edge, though its
        # fields flattened would make one
        pytest.param([[[0], [1], [2]]], FIELDS, id="nested-row"),
        pytest.param([[[0], [1], [2]], [[1], [0], [2]]], FIELDS, id="nested-rows"),
        pytest.param([[[0, 1, 2], [1, 0, 2], [0, 1, 2]]], FIELDS, id="row-of-rows"),
        pytest.param([[0, 1, [2]], [1, 0, 2]], FIELDS, id="list-field"),
        pytest.param(["012", "102"], FIELDS, id="string-rows"),
        pytest.param([[0, 1, 2.0], "102"], FIELDS, id="string-row-among-rows"),
        pytest.param([{"s": 0, "t": 1, "w": 2}], FIELDS, id="object-row"),
        pytest.param([[0, 1, 2.0, 3.0], [1, 0, 2.0, 3.0]], FIELDS, id="four-fields"),
        pytest.param({}, FIELDS, id="edges-object"),
        pytest.param(None, FIELDS, id="edges-null"),
        pytest.param("012", FIELDS, id="edges-string"),
        pytest.param(3, FIELDS, id="edges-number"),
        pytest.param([[0, 1, "x"], [1, 0]], FIELDS, id="string-field-and-short-row"),
        pytest.param([[0, 1, "x"], [1, 0, 1.0]], NUMBERS, id="string-field"),
        pytest.param([[0, None, 1.0], [1, 0, 1.0]], NUMBERS, id="null-index"),
        pytest.param([[None, None, None]], NUMBERS, id="all-null"),
        pytest.param([[0, 1, {}], [1, 0, 1.0]], NUMBERS, id="object-field"),
        pytest.param([[False, True, True], [True, False, True]], NUMBERS, id="all-bool"),
        pytest.param([[0, 1, True], [1, 0, 1.0]], ((0, 1, 1.0), (1, 0, 1.0)),
                     id="bool-weight"),
        pytest.param([[0, True, 2], [True, 0, 2]], ((0, 1, 2.0), (1, 0, 2.0)),
                     id="bool-index"),
        pytest.param([[0.0, 1.0, 2], [1, 0, 2]], ((0, 1, 2.0), (1, 0, 2.0)),
                     id="integral-float-index"),
        pytest.param([], (), id="no-edges"),
    ])
    def test_json_edge_table(self, edges, outcome):
        text = json.dumps({"n": 2, "directed": False, "edges": edges})
        if isinstance(outcome, str):
            with pytest.raises(CsvParseError, match=f"^invalid graph JSON: {outcome}"):
                graph_from_json(text)
        else:
            assert arc_rows(graph_from_json(text)) == outcome

    def test_edge_csv_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,2.5\n1,2,1.0\n")
        g = read_edge_csv(path, directed=False)
        a = dense_adjacency(g)
        assert a[0, 1] == 2.5 and a[1, 0] == 2.5
        assert a[1, 2] == 1.0 and a[2, 1] == 1.0

    def test_edge_csv_one_based(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n1,2,1.0\n")
        g = read_edge_csv(path, directed=True, one_based=True)
        assert arc_rows(g) == ((0, 1, 1.0),)

    def test_edge_csv_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b,c\n0,1,1.0\n")
        with pytest.raises(CsvParseError) as err:
            read_edge_csv(path, directed=True)
        assert err.value.line == 1

    def test_edge_csv_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\nx,2,1.0\n")
        with pytest.raises(CsvParseError) as err:
            read_edge_csv(path, directed=True)
        assert err.value.line == 3

    def test_coords_csv(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("id,x,y\n1,0.0,0.0\n0,1.0,2.0\n")
        coords = read_coords_csv(path)
        assert np.array_equal(coords, [[1.0, 2.0], [0.0, 0.0]])

    def test_coords_csv_gap_rejected(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("id,x,y\n0,0.0,0.0\n2,1.0,2.0\n")
        with pytest.raises(CsvParseError):
            read_coords_csv(path)


class TestIdTable:
    """read_id_table's results, and its errors with their line numbers."""

    @staticmethod
    def read(tmp_path, body, one_based=False):
        path = tmp_path / "table.csv"
        path.write_text("node_id,value\n" + body)
        return read_id_table(path, ("node_id", "value"), one_based)

    @pytest.mark.parametrize("body, one_based, values", [
        pytest.param("1,2.0\n0,1.0\n", False, [1.0, 2.0], id="any-row-order"),
        pytest.param("0,1.0\n\n1,2.0\n\n", False, [1.0, 2.0], id="blank-lines"),
        pytest.param("2,6.0\n1,5.0\n", True, [5.0, 6.0], id="one-based"),
        pytest.param(" 0 , 1.5 \n1,-2\n", False, [1.5, -2.0], id="padded-fields"),
    ])
    def test_reads_in_id_order(self, tmp_path, body, one_based, values):
        table = self.read(tmp_path, body, one_based)
        assert table.dtype == float and table.shape == (len(values), 1)
        assert table[:, 0].tolist() == values

    @pytest.mark.parametrize("body, one_based, message, line", [
        pytest.param("0,1.0\n1,2.0\n0,3.0\n", False, "duplicate node_id 0", 4,
                     id="duplicate-id"),
        pytest.param("1,5.0\n1,6.0\n", True, "duplicate node_id 0", 3,
                     id="duplicate-id-one-based"),
        pytest.param("0,1.0\n0,2.0\n1\n", False, "duplicate node_id 0", 3,
                     id="duplicate-before-short-row"),
        pytest.param("0\n0,1.0\n0,1.0\n", False, "expected 2 fields, got 1", 2,
                     id="short-row-before-duplicate"),
        pytest.param("0,1.0,2.0\n1,2.0\n", False, "expected 2 fields, got 3", 2,
                     id="long-row"),
        pytest.param("0,1.0\n\n\n1,2.0,3.0\n", False, "expected 2 fields, got 3", 5,
                     id="blank-lines-count"),
        pytest.param("0,1.0\n1,inf\n", False, "non-finite value in 1,inf", 3,
                     id="infinite"),
        pytest.param("0,nan\n1,x\n", False, "non-finite value in 0,nan", 2,
                     id="nan-before-bad-number"),
        pytest.param("0,1.0\n\n1,x\n", False, "could not convert string to float: 'x'", 4,
                     id="bad-number"),
        pytest.param("x,1.0\n", False, "invalid literal for int() with base 10: 'x'", 2,
                     id="bad-id"),
        pytest.param("0,1.0\n1.0,2.0\n", False,
                     "invalid literal for int() with base 10: '1.0'", 3, id="float-id"),
        pytest.param("0,1.0\n2,2.0\n", False, "ids must cover 0..1 exactly", None,
                     id="missing-id"),
        pytest.param("0,5.0\n1,6.0\n", True, "ids must cover 0..1 exactly", None,
                     id="zero-id-one-based"),
        pytest.param("", False, "node_id,value table is empty", None, id="empty"),
        pytest.param("\n\n", False, "node_id,value table is empty", None, id="only-blank"),
    ])
    def test_errors_name_the_first_bad_line(self, tmp_path, body, one_based, message, line):
        with pytest.raises(CsvParseError) as err:
            self.read(tmp_path, body, one_based)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    def test_header_checked_first(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("id,value\n0,1.0\n")
        with pytest.raises(CsvParseError) as err:
            read_id_table(path, ("node_id", "value"))
        assert err.value.line == 1
