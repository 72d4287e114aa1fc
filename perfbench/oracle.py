"""Inputs and reference answers that the benchmark owns.

Everything here is built from the seed and the edge list with numpy and
scipy alone, never through graphfilt, so a bug in the program cannot also
hide in the reference it is checked against.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import polynomial as npoly
from scipy.spatial import cKDTree

# An op's recomputed CG residual may exceed the solver tolerance by this
# factor before it counts as a miss: the solver tracks its residual by
# recurrence, and the reference shift differs from the program's in rounding.
RESIDUAL_SLACK = 2.0
# FIR outputs are exact up to rounding amplified by the monomial basis.
FIR_RELERR_TOL = 1e-6


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def er_edges(n: int, p: float, rng: np.random.Generator):
    """Undirected Erdos-Renyi arcs (both orientations), unit weights.

    Redraws until no node is isolated: the normalized Laplacian is undefined
    on an isolated node, so such a draw is not a valid input.
    """
    iu, ju = np.triu_indices(n, k=1)
    while True:
        linked = rng.random(iu.size) < p
        i, j = iu[linked], ju[linked]
        if np.unique(np.concatenate([i, j])).size == n:
            break
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    return src, dst, np.ones(src.size)


def knn_edges(coords: np.ndarray, k: int):
    """Directed Gaussian k-NN arcs, weights exp(-d^2)/sqrt(s_i s_j).

    s_i is the sum of exp(-d^2) over node i's k nearest neighbours, the
    weighting graphfilt documents for its k-NN graphs.
    """
    dist, idx = cKDTree(coords).query(coords, k + 1)
    dist, idx = dist[:, 1:], idx[:, 1:]
    kernel = np.exp(-(dist**2))
    sums = kernel.sum(axis=1)
    src = np.repeat(np.arange(len(coords)), k)
    dst = idx.ravel()
    w = kernel.ravel() / np.sqrt(sums[src] * sums[dst])
    return src, dst, w


def knn_coords(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform coordinates in a box of side 3*sqrt(n/32) (density of n=32, side 3)."""
    return rng.random((n, 2)) * 3.0 * np.sqrt(n / 32.0)


def graph_json(n: int, directed: bool, src, dst, w) -> str:
    order = np.lexsort((dst, src))
    edges = [[int(src[e]), int(dst[e]), float(w[e])] for e in order]
    return json.dumps({"n": n, "directed": directed, "edges": edges},
                      separators=(",", ":"))


def signal_csv(x) -> str:
    lines = ["node_id,value"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(x))
    return "\n".join(lines) + "\n"


def read_signal_csv(path, n: int) -> np.ndarray:
    """Parse a node_id,value CSV; raise ValueError unless ids are 0..n-1."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n, 2) or not np.array_equal(data[:, 0], np.arange(n)):
        raise ValueError(f"{path}: expected node ids 0..{n - 1}")
    return data[:, 1]


# ---------------------------------------------------------------------------
# Shift operators
# ---------------------------------------------------------------------------

def adjacency(n: int, src, dst, w) -> sp.csr_array:
    return sp.csr_array((w, (src, dst)), shape=(n, n))


def laplacian(n: int, src, dst, w) -> sp.csr_array:
    """I - D^-1/2 A D^-1/2, built sparse."""
    a = adjacency(n, src, dst, w)
    dinv = sp.diags_array(1.0 / np.sqrt(a.sum(axis=1)))
    return sp.csr_array(sp.eye_array(n) - dinv @ a @ dinv)


def normalized_adjacency(n: int, src, dst, w) -> sp.csr_array:
    """A / rho(A), rho from ARPACK's largest-magnitude eigenvalue."""
    a = adjacency(n, src, dst, w)
    rho = abs(spla.eigs(a, k=1, which="LM", v0=np.ones(n),
                        return_eigenvectors=False)[0])
    return sp.csr_array(a / rho)


def poly_apply(coeffs, s, x, transpose: bool = False) -> np.ndarray:
    """sum_k c_k S^k x by Horner's rule (S^T when transpose)."""
    m = s.T if transpose else s
    y = coeffs[-1] * x
    for c in coeffs[-2::-1]:
        y = m @ y + c * x
    return y


# ---------------------------------------------------------------------------
# Exact filter references
# ---------------------------------------------------------------------------

class SymmetricReference:
    """Exact filtering on a symmetric shift through its eigendecomposition."""

    def __init__(self, s):
        self.s = s
        self.lam, self.u = np.linalg.eigh(s.toarray())

    def arma(self, a, b, x):
        h = npoly.polyval(self.lam, b) / npoly.polyval(self.lam, a)
        return self.u @ (h * (self.u.T @ x))


class LuReference:
    """Exact ARMA filtering by an LU factorization of sum_p a_p S^p.

    The matrix is assembled by Horner's rule from sparse products; at the
    orders the banks use, powers of S fill in, so it is held dense.
    """

    def __init__(self, s):
        self.s = s
        self._lu = {}

    def factor(self, a):
        key = tuple(a)
        if key not in self._lu:
            n = self.s.shape[0]
            m = np.zeros((n, n))
            for c in a[::-1]:
                m = self.s @ m
                m[np.diag_indices(n)] += c
            self._lu[key] = sla.lu_factor(m)
        return self._lu[key]

    def arma(self, a, b, x):
        return sla.lu_solve(self.factor(a), poly_apply(b, self.s, x))


def reference_output(ref, filt: dict, x) -> np.ndarray:
    if filt["type"] == "fir":
        return poly_apply(np.asarray(filt["g"]), ref.s, x)
    return ref.arma(np.asarray(filt["a"]), np.asarray(filt["b"]), x)


def cg_residual(filt: dict, s, x, y, symmetric: bool) -> float:
    """Relative residual of the system CG solves, recomputed from scratch.

    Symmetric shifts: ||z - P y|| / ||z|| with z = b(S) x and P = a(S).
    Otherwise the normal equations: ||P^T (z - P y)|| / ||P^T z||.
    """
    a, b = np.asarray(filt["a"]), np.asarray(filt["b"])
    z = poly_apply(b, s, x)
    r = z - poly_apply(a, s, y)
    if symmetric:
        return float(np.linalg.norm(r) / np.linalg.norm(z))
    return float(np.linalg.norm(poly_apply(a, s, r, transpose=True))
                 / np.linalg.norm(poly_apply(a, s, z, transpose=True)))


def relerr(y, ref) -> float:
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# Design references
# ---------------------------------------------------------------------------

def real_if_close(lam) -> np.ndarray:
    """Eigenvalues with imaginary parts below 1e-7 max(|lambda|, 1) set to
    zero, the tolerance graphfilt pairs conjugates with. A spectrum that ends
    up all real is a real design grid, and the low-pass rule depends on that."""
    lam = np.asarray(lam, dtype=complex)
    tol = 1e-7 * max(float(np.max(np.abs(lam))), 1.0)
    return np.where(np.abs(lam.imag) <= tol, lam.real + 0j, lam)


def ideal_lowpass(lam, cutoff: float) -> np.ndarray:
    """Ideal low-pass target: lambda <= cutoff on real grids, |lambda - 1| <=
    cutoff on complex ones."""
    lam = np.asarray(lam, dtype=complex)
    if np.all(lam.imag == 0.0):
        return (lam.real <= cutoff).astype(float)
    return (np.abs(lam - 1.0) <= cutoff).astype(float)


def filter_response(filt: dict, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=complex)
    if filt["type"] == "fir":
        return npoly.polyval(lam, filt["g"])
    return npoly.polyval(lam, filt["b"]) / npoly.polyval(lam, filt["a"])


def design_rnmse(filt: dict, lam, target, amplitude_only: bool) -> float:
    """True-error RNMSE of a designed filter on its design grid.

    amplitude_only compares magnitudes, graphfilt's scoring of real targets
    on complex-disc grids.
    """
    resp = filter_response(filt, lam)
    err = np.abs(target) - np.abs(resp) if amplitude_only else target - resp
    return float(np.linalg.norm(err) / np.linalg.norm(target))
