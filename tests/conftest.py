"""Shared test helpers: independent oracles and random problem generators."""

import numpy as np
import pytest
import scipy.sparse as sp

from graphfilt import build_er_graph, design, eigendecompose, normalize
from graphfilt.arma import ArmaFilter, check_stability
from graphfilt.errors import InstabilityError
from graphfilt.graphs import NORMALIZED_LAPLACIAN


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


def dense_normalized_laplacian(graph):
    """Dense D^{-1/2} (D - A) D^{-1/2}: the sparse normalize must match it bit for bit."""
    a = graph.adjacency().toarray()
    deg = np.sum(a, axis=1)
    dinv = 1.0 / np.sqrt(deg)
    lap = np.diag(deg) - a
    s = (dinv[:, None] * lap) * dinv[None, :]
    return sp.csr_array((s + s.T) / 2.0)


def triu_er_edges(n, p, seed):
    """Erdos-Renyi edge tuples drawn over the whole upper triangle at once."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    linked = rng.random(len(iu)) < p
    edges = []
    for i, j in zip(iu[linked], ju[linked]):
        edges += [(int(i), int(j), 1.0), (int(j), int(i), 1.0)]
    return tuple(edges)


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


def reference_iterative_design(problem, tau=50, delta_c=1e-10):
    """The iterative design pass loop in complex arithmetic, evaluated naively.

    Every pass rebuilds the response for the true error and again for the
    error vector, multiplies by explicit unit weights and stacks the system
    with hstack. The optimized loop must match it exactly on complex grids.
    """
    init = design.prony_projection(problem).filter
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
        rho = problem.rho if problem.rho is not None else 1e-8 * float(np.max(np.abs(alpha)))
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
        if delta < delta_c:
            converged = True
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
