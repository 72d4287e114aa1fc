"""Shared test helpers: independent oracles and random problem generators."""

import numpy as np
import pytest
import scipy.sparse as sp

from graphfilt import build_er_graph, eigendecompose, normalize
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
