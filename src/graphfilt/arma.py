"""ARMA graph filter representation, stability checking, and direct application.

An ARMA filter applies (sum a_p S^p)^{-1} (sum b_q S^q); the direct solver
here is the dense-factorization reference that the conjugate-gradient path
is validated against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    DimensionError,
    InstabilityError,
    ParameterError,
    SingularSystemError,
)
from .fir import _poly_sum, _shift_powers, filter_payload, poly_apply, vandermonde
from .graphs import ShiftOperator
from .spectral import FrequencyGrid

_DIRECT_SOLVE_MAX_N = 2000
# |a(lambda)| at or below this on a grid point marks a filter unstable
_STABILITY_THRESHOLD = 1e-8
# |a(lambda)| at or below this on a grid point leaves the response undefined
_VANISHING_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class ArmaFilter:
    """Rational filter coefficients: denominator a (a0 = 1) and numerator b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.ndim != 1 or a.size == 0 or b.ndim != 1 or b.size == 0:
            raise ParameterError("coefficient vectors must be non-empty")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ParameterError("coefficients must be finite")
        if a[0] != 1.0:
            raise ParameterError(f"first AR coefficient must be 1, got {a[0]}")

    @property
    def ar_order(self) -> int:
        return len(self.a) - 1

    @property
    def ma_order(self) -> int:
        return len(self.b) - 1


@dataclass(frozen=True)
class StabilityReport:
    min_denominator_magnitude: float
    stable: bool
    offending: tuple


def _denominator(filt: ArmaFilter, grid: FrequencyGrid) -> np.ndarray:
    return vandermonde(grid.lambdas, len(filt.a)) @ filt.a


def arma_response(filt: ArmaFilter, grid: FrequencyGrid) -> np.ndarray:
    """Frequency response (sum b_q lambda^q) / (sum a_p lambda^p)."""
    denom = _denominator(filt, grid)
    bad = np.flatnonzero(np.abs(denom) <= _VANISHING_DENOMINATOR)
    if bad.size:
        raise InstabilityError(
            f"denominator vanishes at grid index {int(bad[0])}",
            offending=[int(i) for i in bad],
        )
    return (vandermonde(grid.lambdas, len(filt.b)) @ filt.b) / denom


def check_stability(filt: ArmaFilter, grid: FrequencyGrid) -> StabilityReport:
    """Post-design check that the denominator stays away from zero on the grid."""
    mags = np.abs(_denominator(filt, grid))
    offending = tuple(int(i) for i in np.flatnonzero(mags <= _STABILITY_THRESHOLD))
    return StabilityReport(
        min_denominator_magnitude=float(np.min(mags)),
        stable=not offending,
        offending=offending,
    )


def arma_apply_direct(filt: ArmaFilter, op: ShiftOperator, x) -> np.ndarray:
    """Exact ARMA application: pre-filter with the numerator, then solve.

    Builds sum a_p S^p by applying the shift polynomial to the identity,
    O(P E n), keeping only the running power and the partial sum, and solves
    it with a partial-pivoting dense factorization; the desk-scale reference
    oracle for the conjugate-gradient path (n capped at 2000).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (op.n,):
        raise DimensionError(f"signal length {x.shape} does not match n={op.n}")
    _check_direct_size(op)
    ar = _poly_sum(filt.a, _shift_powers(op, np.eye(op.n)))
    try:
        return np.linalg.solve(ar, poly_apply(filt.b, op, x))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("AR polynomial matrix is singular") from exc


def _check_direct_size(op: ShiftOperator) -> None:
    if op.n > _DIRECT_SOLVE_MAX_N:
        raise ParameterError(
            f"direct solve capped at n={_DIRECT_SOLVE_MAX_N}; use the CG path"
        )


class _DirectSolver:
    """The prediction study's dense solves a(S) y = b(S) x on one operator.

    Every a(S) is summed from the powers S^k I, computed on first need and
    kept, so that experiments._Predictor's many filters share them, with the
    products and order of poly_apply on the identity: the stacked forms take
    one coefficient row per filter and give each filter its own call's bits.
    """

    def __init__(self, op: ShiftOperator):
        _check_direct_size(op)
        self.op = op
        self._powers = []
        self._more = _shift_powers(op, np.eye(op.n))

    def ar_matrix(self, a) -> np.ndarray:
        """The (C, n, n) stack of sum a_p S^p for coefficient rows a, (C, P + 1)."""
        self._powers += islice(self._more, max(a.shape[1] - len(self._powers), 0))
        return _poly_sum(a.T[..., None, None], self._powers)

    def numerators(self, b, x) -> np.ndarray:
        """b(S) x for each coefficient row of b, shape (C, Q + 1): x is one
        signal of shape (n,), or one signal per row, shape (C, n). Row c gets
        the bits of poly_apply(b[c], op, its signal); the rows come back as
        a (C, n) stack."""
        if x.ndim == 1:
            return _poly_sum(b.T[:, :, None], _shift_powers(self.op, x))
        return _poly_sum(b.T[:, None, :], _shift_powers(self.op, x.T)).T

    @staticmethod
    def solve_each(ar_matrices, z):
        """Solve ar_matrices[..., :, :] y = z[..., :] for every system of a
        stack, the two broadcast over their leading axes, in one stacked
        np.linalg.solve with the right sides as (..., n, 1), which gives each
        system the bits np.linalg.solve gives it alone. Returns (y, solved):
        a singular system's solution is NaN and solved False there. When the
        stacked call raises, the systems are solved one by one to find them.
        """
        try:
            y = np.linalg.solve(ar_matrices, z[..., None])[..., 0]
            return y, np.ones(y.shape[:-1], dtype=bool)
        except np.linalg.LinAlgError:
            pass
        matrices = np.broadcast_to(ar_matrices, z.shape[:-1] + ar_matrices.shape[-2:])
        y = np.full(z.shape, np.nan)
        solved = np.zeros(z.shape[:-1], dtype=bool)
        for i in np.ndindex(solved.shape):
            try:
                y[i] = np.linalg.solve(matrices[i], z[i][:, None])[:, 0]
            except np.linalg.LinAlgError:
                continue
            solved[i] = True
        return y, solved


def arma_to_json(filt: ArmaFilter) -> str:
    return json.dumps(
        {"type": "arma", "a": [float(v) for v in filt.a], "b": [float(v) for v in filt.b]}
    )


def arma_from_json(text: str) -> ArmaFilter:
    payload = filter_payload(text, "arma", ("a", "b"))
    return ArmaFilter(a=payload["a"], b=payload["b"])
