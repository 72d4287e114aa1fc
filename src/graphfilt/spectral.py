"""Spectral decompositions, the graph Fourier transform, and frequency grids.

Real shift operators have eigenvalues that are either real or arranged in
complex conjugate pairs; the pairing is tracked explicitly because every
real-coefficient guarantee downstream rests on it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConjugateSymmetryError,
    DimensionError,
    NonDiagonalizableError,
    ParameterError,
)
from .graphs import NORMALIZED_LAPLACIAN, ShiftOperator, is_symmetric

GRAPH_SPECTRUM = "graph-spectrum"
UNIFORM_REAL = "uniform-real"
COMPLEX_DISC = "complex-disc"

_RECONSTRUCTION_TOL = 1e-6


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition S = U diag(lambdas) U^{-1} of a shift operator.

    modes holds the eigenvectors as columns; inv_modes is U^{-1} (the
    transpose for symmetric operators). Arrays are complex128 even when the
    operator is symmetric, in which case their imaginary parts are zero.
    """

    lambdas: np.ndarray
    modes: np.ndarray
    inv_modes: np.ndarray
    symmetric: bool

    @property
    def n(self) -> int:
        return len(self.lambdas)


def eigendecompose(op: ShiftOperator) -> SpectralDecomposition:
    """Eigendecompose a shift operator, verifying it is diagonalizable.

    Diagonalizability is checked post hoc through the reconstruction
    residual ||S - U diag(lambda) U^{-1}||_F / ||S||_F.
    """
    s = op.dense()
    sym = is_symmetric(op)
    if sym:
        lam, u = np.linalg.eigh(s)
        lam = lam.astype(complex)
        u = u.astype(complex)
        uinv = u.T.copy()
    else:
        lam, u = np.linalg.eig(s)
        try:
            uinv = np.linalg.inv(u)
        except np.linalg.LinAlgError as exc:
            raise NonDiagonalizableError("eigenvector matrix is singular") from exc
    recon = (u * lam) @ uinv
    denom = max(np.linalg.norm(s), 1e-300)
    residual = np.linalg.norm(s - recon) / denom
    if residual > _RECONSTRUCTION_TOL:
        raise NonDiagonalizableError(
            f"reconstruction residual {residual:.3e} exceeds {_RECONSTRUCTION_TOL:.0e}"
        )
    return SpectralDecomposition(lambdas=lam, modes=u, inv_modes=uinv, symmetric=sym)


def gft(dec: SpectralDecomposition, x) -> np.ndarray:
    """Graph Fourier transform: U^{-1} x."""
    x = np.asarray(x)
    if x.shape != (dec.n,):
        raise DimensionError(f"signal length {x.shape} does not match n={dec.n}")
    return dec.inv_modes @ x


def igft(dec: SpectralDecomposition, x_hat) -> np.ndarray:
    """Inverse graph Fourier transform: U x_hat."""
    x_hat = np.asarray(x_hat)
    if x_hat.shape != (dec.n,):
        raise DimensionError(f"spectrum length {x_hat.shape} does not match n={dec.n}")
    return dec.modes @ x_hat


def pair_conjugates(lambdas: np.ndarray, tol: float | None = None):
    """Pair eigenvalues with their conjugates.

    Returns (pair, adjusted) where pair[i] is the index of i's conjugate
    partner (i itself for real eigenvalues) and adjusted is the input with
    unmatched near-real values truncated to real. Greedy nearest-conjugate
    matching; tolerance defaults to 1e-7 * max|lambda|.
    """
    lam = np.asarray(lambdas, dtype=complex).copy()
    n = len(lam)
    scale = float(np.max(np.abs(lam))) if n else 0.0
    if tol is None:
        tol = 1e-7 * max(scale, 1.0)
    pair = np.full(n, -1, dtype=int)
    for i in range(n):
        if pair[i] >= 0:
            continue
        if abs(lam[i].imag) <= tol:
            lam[i] = complex(lam[i].real, 0.0)
            pair[i] = i
            continue
        target = np.conj(lam[i])
        best, best_dist = -1, np.inf
        for j in range(n):
            if j == i or pair[j] >= 0:
                continue
            d = abs(lam[j] - target)
            if d < best_dist:
                best, best_dist = j, d
        if best < 0 or best_dist > tol:
            raise ConjugateSymmetryError(
                f"eigenvalue {lam[i]} has no conjugate partner within {tol:.3e}"
            )
        pair[i] = best
        pair[best] = i
    return pair, lam


@dataclass(frozen=True)
class FrequencyGrid:
    """Conjugate-closed set of design frequencies.

    pair[i] gives the index of the conjugate partner of frequency i
    (i itself when the frequency is real).
    """

    lambdas: np.ndarray
    kind: str
    pair: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=complex)
        pair = np.asarray(self.pair, dtype=int)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "pair", pair)
        if lam.shape != pair.shape:
            raise DimensionError("pairing must have one entry per frequency")
        scale = max(float(np.max(np.abs(lam))) if lam.size else 0.0, 1.0)
        for i, j in enumerate(pair):
            if pair[j] != i:
                raise ConjugateSymmetryError(f"pairing is not an involution at {i}")
            if abs(lam[j] - np.conj(lam[i])) > 1e-12 * scale:
                raise ConjugateSymmetryError(f"frequencies {i},{j} are not conjugates")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def real_indices(self) -> np.ndarray:
        return np.flatnonzero(self.pair == np.arange(self.n))

    @property
    def all_real(self) -> bool:
        return bool(np.all(self.lambdas.imag == 0.0))


def spectrum_grid(dec: SpectralDecomposition) -> FrequencyGrid:
    """Frequency grid holding a decomposition's actual eigenvalues."""
    pair, lam = pair_conjugates(dec.lambdas)
    return FrequencyGrid(lambdas=lam, kind=GRAPH_SPECTRUM, pair=pair)


def uniform_real_grid(n: int) -> FrequencyGrid:
    """n uniformly spaced points covering [0, 2], endpoints included."""
    if n < 2:
        raise ParameterError(f"uniform grid needs at least 2 points, got {n}")
    lam = 2.0 * np.arange(n) / (n - 1)
    return FrequencyGrid(
        lambdas=lam.astype(complex), kind=UNIFORM_REAL, pair=np.arange(n)
    )


def complex_disc_grid(n: int) -> FrequencyGrid:
    """Conjugate-closed covering of the unit disc with exactly n points.

    Concentric rings of radii j/R carry point budgets proportional to their
    radii; each ring samples phases uniformly in [0, pi] (endpoints give the
    two real-axis points, counted once) and mirrors the interior phases into
    conjugate pairs. Odd n adds the origin.
    """
    if n < 4:
        raise ParameterError(f"disc grid needs at least 4 points, got {n}")
    rings = max(2, round(math.sqrt(n)))
    weight = rings * (rings + 1) / 2.0
    phases = [max(2, round(n * j / weight / 2.0) + 1) for j in range(1, rings + 1)]
    total = sum(2 * m - 2 for m in phases)
    target = n if n % 2 == 0 else n - 1
    while total < target:
        phases[-1] += 1
        total += 2
    idx = 0
    while total > target:
        if phases[idx] > 2:
            phases[idx] -= 1
            total -= 2
        else:
            idx += 1
            if idx >= rings:
                raise ParameterError(f"disc grid cannot cover 2 rings with {n} points")

    pts, pair = [], []
    for j, m in enumerate(phases, start=1):
        radius = j / rings
        for t in range(m):
            theta = math.pi * t / (m - 1)
            if t == 0 or t == m - 1:
                pts.append(complex(radius * math.cos(theta), 0.0))
                pair.append(len(pts) - 1)
            else:
                z = radius * complex(math.cos(theta), math.sin(theta))
                k = len(pts)
                pts.extend([z, z.conjugate()])
                pair.extend([k + 1, k])
    if n % 2 == 1:
        pts.append(0j)
        pair.append(len(pts) - 1)
    return FrequencyGrid(
        lambdas=np.array(pts), kind=COMPLEX_DISC, pair=np.array(pair, dtype=int)
    )


def order_frequencies(dec: SpectralDecomposition, op_kind: str) -> np.ndarray:
    """Permutation ordering graph frequencies from low to high.

    Laplacian frequencies sort ascending by value. Adjacency (and custom)
    frequencies sort ascending by the total variation of their unit-norm
    modes, |1 - lambda/|lambda_max|| * ||u||_1, which ranks frequencies near
    the point (1, 0) first. Conjugate pairs stay adjacent.
    """
    lam = dec.lambdas
    if op_kind == NORMALIZED_LAPLACIAN:
        return np.argsort(lam.real, kind="stable")
    lam_max = float(np.max(np.abs(lam)))
    if lam_max == 0.0:
        return np.arange(dec.n)
    norms = np.linalg.norm(dec.modes, axis=0)
    l1 = np.sum(np.abs(dec.modes / norms), axis=0)
    tv = np.abs(1.0 - lam / lam_max) * l1
    pair, _ = pair_conjugates(lam)
    # Give both members of a pair the same key so they sort adjacently.
    group = np.minimum(np.arange(dec.n), pair)
    tv_shared = tv.copy()
    for i in range(dec.n):
        tv_shared[i] = tv[group[i]]
    order = sorted(range(dec.n), key=lambda i: (tv_shared[i], group[i], i))
    return np.array(order, dtype=int)


def validate_conjugate_pairs(values, grid: FrequencyGrid, rtol: float = 1e-8) -> None:
    """Check that values satisfy the grid's conjugate-pair structure.

    Real frequencies must carry real values; paired frequencies must carry
    conjugate values. Raises ConjugateSymmetryError otherwise.
    """
    v = np.asarray(values, dtype=complex)
    if v.shape != (grid.n,):
        raise DimensionError(f"values length {v.shape} does not match grid n={grid.n}")
    scale = max(float(np.max(np.abs(v))) if v.size else 0.0, 1.0)
    tol = rtol * scale
    pair = grid.pair
    real = pair == np.arange(grid.n)
    bad = np.where(real, np.abs(v.imag) > tol, np.abs(v[pair] - np.conj(v)) > tol)
    if not np.any(bad):
        return
    i = int(np.argmax(bad))
    if real[i]:
        raise ConjugateSymmetryError(
            f"value at real frequency {i} has imaginary part {v[i].imag:.3e}"
        )
    raise ConjugateSymmetryError(f"values at pair ({i},{int(pair[i])}) are not conjugate")


def grid_to_csv(grid: FrequencyGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "is_real", "pair_index"])
        for i, lam in enumerate(grid.lambdas):
            writer.writerow(
                [repr(float(lam.real)), repr(float(lam.imag)),
                 int(grid.pair[i] == i), int(grid.pair[i])]
            )
