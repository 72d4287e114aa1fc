"""Shared test helpers: independent oracles and random problem generators."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from graphfilt import (
    Graph,
    build_er_graph,
    complex_disc_grid,
    design,
    eigendecompose,
    experiments,
    fir_design,
    gft,
    normalize,
    spectrum_grid,
    uniform_real_grid,
)
from graphfilt.arma import ArmaFilter, arma_apply_direct, check_stability
from graphfilt.errors import InstabilityError, ParameterError, SingularSystemError
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN


def power_iteration_radius(matrix, iterations=2000, seed=0):
    """Spectral-radius estimate by power iteration; independent of eigvals."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        radius = norm
        v = w / norm
    return radius


def graph_from_rows(n, rows, directed):
    """Graph from (source, target, weight) rows."""
    src, dst, w = np.array(rows, dtype=float).reshape(-1, 3).T
    return Graph(n, src, dst, w, directed)


def arc_rows(graph):
    """(source, target, weight) tuples of a graph's arcs, in stored order."""
    return tuple(zip(graph.src.tolist(), graph.dst.tolist(), graph.w.tolist()))


def dense_adjacency(graph):
    """Dense A with A[i, j] = summed weight of the arcs i -> j."""
    a = sp.coo_array((graph.w, (graph.src, graph.dst)), shape=(graph.n, graph.n))
    return a.toarray()


def dense_normalized_laplacian(graph):
    """Dense D^{-1/2} (D - A) D^{-1/2}, symmetrized as normalize does.

    The sparse normalize must match it bit for bit on integer weights, where
    every degree is an exact sum, and to a few ulp on other weights, where
    the dense and sparse row sums may round in a different order.
    """
    a = dense_adjacency(graph)
    deg = np.sum(a, axis=1)
    dinv = 1.0 / np.sqrt(deg)
    lap = np.diag(deg) - a
    s = (dinv[:, None] * lap) * dinv[None, :]
    return sp.csr_array((s + s.T) / 2.0)


def interpolation_matrix(op, task):
    """Dense mask-plus-scaled-Laplacian system matrix (the exact inverse path)."""
    return np.diag(task.mask.astype(float)) + task.omega * op.dense()


def triu_er_edges(n, p, seed):
    """Erdos-Renyi edge tuples drawn over the whole upper triangle at once."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    linked = rng.random(len(iu)) < p
    edges = []
    for i, j in zip(iu[linked], ju[linked]):
        edges += [(int(i), int(j), 1.0), (int(j), int(i), 1.0)]
    return tuple(edges)


def loop_knn_rows(coords, k):
    """Directed k-NN (source, target, weight) rows built node by node: the
    reference for build_knn_directed, which must give the same bits."""
    pts = np.asarray(coords, dtype=float)
    n = len(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    neighbors = []
    for i in range(n):
        order = np.lexsort((np.arange(n), dist[i]))
        neighbors.append([int(j) for j in order if j != i][:k])
    sums = [np.sum(np.exp(-dist[i, neighbors[i]] ** 2)) for i in range(n)]
    return tuple((i, j, math.exp(-dist[i, j] ** 2) / math.sqrt(sums[i] * sums[j]))
                 for i in range(n) for j in neighbors[i])


def random_pair_symmetric(grid, rng, scale=1.0):
    """Random desired response respecting the grid's conjugate pairing."""
    h = np.zeros(grid.n, dtype=complex)
    done = np.zeros(grid.n, dtype=bool)
    for i in range(grid.n):
        if done[i]:
            continue
        j = int(grid.pair[i])
        if i == j:
            h[i] = scale * rng.standard_normal()
        else:
            v = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            h[i], h[j] = v, np.conj(v)
            done[j] = True
        done[i] = True
    return h


def random_stable_arma(rng, ar_order, ma_order):
    """Random real (a, b) whose denominator has no roots in [0, 2].

    Denominator is a product of factors (1 + c lambda) with |c| < 1/3, so
    every root satisfies |root| >= 3.
    """
    a = np.array([1.0])
    for _ in range(ar_order):
        a = np.convolve(a, [1.0, rng.uniform(-0.33, 0.33)])
    b = rng.uniform(-1.0, 1.0, ma_order + 1)
    return a, b


@pytest.fixture(scope="session")
def er_laplacian():
    """ER(100, 0.1) normalized Laplacian and its decomposition, shared."""
    graph = build_er_graph(100, 0.1, 7)
    op = normalize(graph, NORMALIZED_LAPLACIAN)
    return op, eigendecompose(op)


def pair_symmetric_weights(grid):
    """Weights from 0.5 to 2 along the grid, averaged over each conjugate
    pair so that both members of a pair weigh the same."""
    w = np.linspace(0.5, 2.0, grid.n)
    return (w + w[grid.pair]) / 2.0


def real_lstsq(matrix, rhs):
    """Least squares over real unknowns of a complex system, solved directly
    as the real system [Re A; Im A] theta = [Re b; Im b]: (theta, rank)."""
    stacked = np.vstack([matrix.real, matrix.imag])
    theta, _, rank, _ = np.linalg.lstsq(stacked, np.concatenate([rhs.real, rhs.imag]),
                                        rcond=1e-12)
    return theta, rank


def reference_a0_solve(problem, a_prev):
    """The pass of the iterative design that follows the denominator a_prev,
    on the full grid: the real-constrained least squares of the weighted
    a0 = 1 system, solved directly over [Re; Im]. Returns (a, b)."""
    lam, h, w = problem.grid.lambdas, problem.h_hat, problem.weight_vector
    p, q = problem.ar_order, problem.ma_order
    psi_p = lam[:, None] ** np.arange(p + 1)[None, :]
    psi_b = lam[:, None] ** np.arange(int(problem.constrain_b0_zero), q + 1)[None, :]
    alpha = psi_p @ a_prev
    gamma = 1.0 / (alpha + 1e-8 * np.max(np.abs(alpha)))
    lhs = w[:, None] * np.hstack([(gamma * h)[:, None] * psi_p[:, 1:],
                                  -gamma[:, None] * psi_b])
    theta, _ = real_lstsq(lhs, -w * gamma * h)
    b = theta[p:]
    if problem.constrain_b0_zero:
        b = np.concatenate([[0.0], b])
    return np.concatenate([[1.0], theta[:p]]), b


def reference_projection_init(problem):
    """The prony_projection design in complex arithmetic on the full grid,
    with the imaginary parts of the solves truncated: the initialization of
    reference_iterative_design."""
    w = problem.weight_vector
    h = problem.h_hat
    psi_p = problem.grid.lambdas[:, None] ** np.arange(problem.ar_order + 1)[None, :]
    psi_b = problem.grid.lambdas[:, None] ** np.arange(problem.ma_order + 1)[None, :]
    if problem.constrain_b0_zero:
        psi_b = psi_b[:, 1:]
    weighted_b = w[:, None] * psi_b
    projector = np.eye(problem.grid.n) - weighted_b @ np.linalg.pinv(weighted_b, rcond=1e-12)
    block_a = projector @ (w[:, None] * (psi_p * h[:, None]))
    theta = np.linalg.lstsq(block_a[:, 1:], -block_a[:, 0], rcond=1e-12)[0]
    a = np.concatenate([[1.0], theta.real])
    alpha = psi_p @ a
    if np.any(np.abs(alpha) <= 1e-12 * max(float(np.max(np.abs(alpha))), 1e-30)):
        alpha = alpha + 1e-8 * float(np.max(np.abs(alpha)))
    b_lhs = w[:, None] * (psi_b / alpha[:, None])
    if b_lhs.shape[1]:
        b = np.linalg.lstsq(b_lhs, w * h, rcond=1e-12)[0].real
    else:
        b = np.zeros(0)
    if problem.constrain_b0_zero:
        b = np.concatenate([[0.0], b])
    return ArmaFilter(a=a, b=b)


def reference_iterative_design(problem, tau=50, patience=None):
    """The iterative design pass loop in complex arithmetic on the full grid,
    evaluated naively, with the imaginary parts of the solves truncated.

    Every pass rebuilds the response for the true error and again for the
    error vector, multiplies by explicit unit weights and stacks the system
    with hstack. This is how the design ran before it solved over real
    coefficients on one frequency per conjugate pair; with pair-symmetric
    weights the two agree to rounding. Given a patience, the loop also
    stops, unconverged, once that many passes have gone by without a new
    best true error, as an order search's split does.
    """
    init = reference_projection_init(problem)
    w = problem.weight_vector
    h = problem.h_hat
    psi_p = problem.grid.lambdas[:, None] ** np.arange(problem.ar_order + 1)[None, :]
    psi_q = problem.grid.lambdas[:, None] ** np.arange(problem.ma_order + 1)[None, :]

    def response(a, b):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (psi_q @ b) / (psi_p @ a)

    def true_rnmse(a, b):
        with np.errstate(invalid="ignore", over="ignore"):
            resp = response(a, b)
            if not np.all(np.isfinite(resp.real)) or not np.all(np.isfinite(resp.imag)):
                return float("inf")
            if problem.use_amplitude_error:
                err = w * (np.abs(h) - np.abs(resp))
            else:
                err = w * (h - resp)
            val = np.linalg.norm(err) / np.linalg.norm(w * h)
        return float(val) if np.isfinite(val) else float("inf")

    def error_vector(a, b):
        resp = response(a, b)
        with np.errstate(invalid="ignore"):
            return w * (h - resp)

    def solve(block_a, block_b):
        if problem.constrain_b0_zero:
            block_b = block_b[:, 1:]
        lhs = w[:, None] * np.hstack([block_a[:, 1:], -block_b])
        rhs = w * -block_a[:, 0]
        if lhs.shape[1] == 0:
            return np.array([1.0]), np.zeros(int(problem.constrain_b0_zero)), 0.0, False
        theta, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=1e-12)
        residue = float(np.max(np.abs(theta.imag)))
        theta = theta.real
        a = np.concatenate([[1.0], theta[:problem.ar_order]])
        b = theta[problem.ar_order:]
        if problem.constrain_b0_zero:
            b = np.concatenate([[0.0], b])
        return a, b, residue, rank < lhs.shape[1]

    a, b = init.a, init.b
    iterates = [(a, b)]
    history = [true_rnmse(a, b)]
    err_prev = error_vector(a, b)
    max_residue, converged, warnings = 0.0, False, set()
    for _ in range(tau):
        alpha = psi_p @ a
        rho = 1e-8 * float(np.max(np.abs(alpha)))
        denom = alpha + rho
        bad = np.abs(denom) == 0.0
        if np.any(bad):
            denom = np.where(bad, max(rho, 1e-30), denom)
            warnings.add("denominator-regularized")
        gamma = 1.0 / denom
        block_a = gamma[:, None] * psi_p * h[:, None]
        block_b = gamma[:, None] * psi_q
        if not (np.all(np.isfinite(block_a)) and np.all(np.isfinite(block_b))):
            warnings.add("non-finite-iterate")
            break
        a, b, residue, deficient = solve(block_a, block_b)
        if deficient:
            warnings.add("rank-deficient")
        max_residue = max(max_residue, residue)
        iterates.append((a, b))
        history.append(true_rnmse(a, b))
        err_new = error_vector(a, b)
        finite = np.all(np.isfinite(err_new.real)) and np.all(np.isfinite(err_new.imag))
        delta = float(np.linalg.norm(err_new - err_prev)) if finite else float("inf")
        err_prev = err_new
        if delta < 1e-10:
            converged = True
            break
        if patience is not None and len(history) - 1 - int(np.argmin(history)) >= patience:
            break

    if not any(np.isfinite(e) for e in history):
        raise InstabilityError("every iterate produced an unstable filter")
    best = int(np.argmin([e if np.isfinite(e) else np.inf for e in history]))
    filt = ArmaFilter(a=iterates[best][0], b=iterates[best][1])
    return design.DesignReport(
        filter=filt,
        rnmse_true=history[best],
        rnmse_modified=design.modified_error(filt, problem),
        iterations=len(history) - 1,
        error_history=tuple(history),
        converged=converged,
        stability=check_stability(filt, problem.grid),
        method=design.ITERATIVE,
        imag_residue=max_residue,
        warnings=tuple(sorted(warnings)),
        iterate_filters=tuple(ArmaFilter(a=ai, b=bi) for ai, bi in iterates),
    )


# ---------------------------------------------------------------------------
# Study loops that share no work: every row from the per-call public
# functions, as the studies ran before they computed shared work once. A
# study must write the same CSV text.
# ---------------------------------------------------------------------------


def backward_filter(filt):
    """The filter applying (I - g(S))^{-1}: denominator a - b, numerator a."""
    return ArmaFilter(a=experiments._backward_coefficients(filt.a, filt.b), b=filt.a.copy())


def reference_predict_rnmse(op, x, ar_order, ma_order, bits):
    """predict(...).rnmse with a fresh eigendecomposition and design, and
    arma_apply_direct for every forward and backward application."""
    dec = eigendecompose(op)
    grid = spectrum_grid(dec)
    problem = design.DesignProblem(
        grid=grid, h_hat=np.ones(grid.n, dtype=complex), ar_order=ar_order,
        ma_order=ma_order, weights=np.abs(gft(dec, x)),
        constrain_b0_zero=True,
    )
    best = None
    report = design.iterative_design(problem, tau=experiments._PREDICT_TAU)
    for filt in report.iterate_filters:
        try:
            residual = x - arma_apply_direct(filt, op, x)
            quantized = experiments.quantize_residual(residual, bits)
            back = backward_filter(filt)
            x_tilde = arma_apply_direct(back, op, quantized.values)
        except (SingularSystemError, ParameterError):
            continue
        err = design.rnmse(x_tilde, x)
        if math.isfinite(err) and (best is None or err < best):
            best = err
    if best is None:
        raise SingularSystemError("no design iterate produced a solvable backward filter")
    return best


def _row(experiment, k, p, q, method, values, seed):
    return experiments.ReportRow(experiment=experiment, k=k, ar_order=p, ma_order=q,
                                 method=method, values=tuple(values), seed=seed)


def reference_prediction_study(k_values, bit_values, trials, seed):
    """prediction_study with one predict per (K, bit budget, trial)."""
    directed, _ = experiments.experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    rng = np.random.default_rng(seed)
    signals = [experiments.smooth_signal(dec, op.kind, rng, profile="decay")
               for _ in range(trials)]
    rows = []
    for k in k_values:
        p, q = k // 2, k - k // 2
        for bits in bit_values:
            errs = [reference_predict_rnmse(op, x, p, q, bits) for x in signals]
            rows.append(_row("prediction-directed", k, p, q, f"arma-b{bits}", errs, seed))
    return experiments.ExperimentReport(rows=tuple(rows))


def reference_compression_study(k_values, trials, seed):
    """compression_study with one compress and one compress_fir per (K, trial)."""
    directed, _ = experiments.experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    rng = np.random.default_rng(seed)
    signals = [experiments.smooth_signal(dec, op.kind, rng) for _ in range(trials)]
    rows = []
    for k in k_values:
        arma = [experiments.compress(op, x, k).rnmse for x in signals]
        fir = [experiments.compress_fir(op, x, k)[2] for x in signals]
        rows.append(_row("compression", k, -1, -1, "arma", arma, seed))
        rows.append(_row("compression", k, 0, k, "fir", fir, seed))
    return experiments.ExperimentReport(rows=tuple(rows))


def reference_universal_study(grid_kind, n_points, k_values, methods, er_trials, seed):
    """universal_study with one best_order_search per (K, method, grid)."""
    if grid_kind == "er-spectrum":
        grids = [
            spectrum_grid(eigendecompose(normalize(
                build_er_graph(experiments._ER_NODES, experiments._ER_P, seed + t),
                NORMALIZED_LAPLACIAN,
            )))
            for t in range(er_trials)
        ]
        experiment = grid_kind
    else:
        make = {"uniform-real": uniform_real_grid, "complex-disc": complex_disc_grid}[grid_kind]
        grids = [make(n_points)]
        experiment = f"universal-{grid_kind}"
    rows = []
    for k in k_values:
        for method in methods:
            fits = []
            for grid in grids:
                h = design.ideal_lowpass(grid, experiments._CUTOFF)
                if method == "fir":
                    fits.append((fir_design(grid, h, k).rnmse, k, 0))
                else:
                    rep = design.best_order_search(grid, h, k, method)
                    fits.append((rep.rnmse_true, rep.filter.ar_order, rep.filter.ma_order))
            p, q = (-1, -1) if len(grids) > 1 else fits[0][1:]
            rows.append(_row(experiment, k, p, q, method, [f[0] for f in fits], seed))
    return experiments.ExperimentReport(rows=tuple(rows))


def reference_interpolation_study(known_fracs, trials, seed):
    """interpolation_study with the public interpolate, which checks the
    connected components on every call."""
    n = experiments._GRAPH_NODES
    _, undirected = experiments.experiment_graphs(seed=seed)
    op = normalize(undirected, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    n_comp, labels = csgraph.connected_components(op.matrix, directed=False)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(experiments._NOISE_VARIANCE)
    rows = []
    for omega in experiments._OMEGAS:
        per_frac = {frac: [] for frac in known_fracs}
        for _ in range(trials):
            x = experiments.smooth_signal(dec, op.kind, rng)
            noisy = x + rng.normal(0.0, sigma, n)
            for frac in known_fracs:
                count = max(1, round(frac * n))
                known = rng.permutation(n)[:count]
                while np.unique(labels[known]).size < n_comp:
                    known = rng.permutation(n)[:count]
                mask = np.zeros(n, dtype=bool)
                mask[known] = True
                task = experiments.InterpolationTask(mask=mask, omega=omega)
                observed = np.where(mask, noisy, 0.0)
                x_tilde, _ = experiments.interpolate(
                    op, observed, task, experiments._INTERPOLATION_CG)
                per_frac[frac].append(design.rnmse(x_tilde, x))
        for frac in known_fracs:
            rows.append(_row("interpolation", round(100 * frac), 0, 0,
                             f"arma-cg-omega-{omega:g}", per_frac[frac], seed))
    return experiments.ExperimentReport(rows=tuple(rows))
