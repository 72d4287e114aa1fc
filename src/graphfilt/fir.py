"""FIR graph filter design by least squares on a frequency grid, and the
monomial basis every filter in the package is built on.

The design solves g = pinv(Psi) h for the Vandermonde matrix Psi of the
grid frequencies; conjugate-pair symmetry of the desired response makes the
solution real-valued up to floating-point residue.

`vandermonde` (a polynomial on a frequency grid) and `poly_apply` (a
polynomial in the shift applied to signals) are the only places that know
the basis: every FIR and ARMA response, design system and application goes
through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, DimensionError, NumericalFailureError, ParameterError
from .graphs import ShiftOperator, shift_apply, shift_apply_transpose
from .spectral import FrequencyGrid, validate_conjugate_pairs

_LSTSQ_RCOND = 1e-12
_IMAG_TRUNCATE_TOL = 1e-6


@dataclass(frozen=True)
class FirFilter:
    """Polynomial filter coefficients g0..gK applied as sum g_k S^k."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.ndim != 1 or g.size == 0:
            raise ParameterError("coefficients must be a non-empty vector")
        if not np.all(np.isfinite(g)):
            raise ParameterError("coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.g) - 1


@dataclass(frozen=True)
class FirDesign:
    filter: FirFilter
    rnmse: float
    imag_residue: float
    condition_estimate: float


def vandermonde(lambdas: np.ndarray, cols: int) -> np.ndarray:
    """N x cols matrix of ascending frequency powers, [psi]_{n,k} = lambda_n^k.

    The dtype follows lambdas, so real frequencies give a float64 matrix.
    """
    return lambdas[:, None] ** np.arange(cols)[None, :]


def poly_apply(coeffs, op: ShiftOperator, x, transpose: bool = False) -> np.ndarray:
    """sum c_k S^k x (S^T with transpose) for x of shape (n,) or (n, m).

    Costs len(coeffs) - 1 shift applications; each column of a block gets
    exactly the values it would get on its own.
    """
    return _poly_sum(coeffs, _shift_powers(op, x, transpose))


def _shift_powers(op: ShiftOperator, x, transpose: bool = False):
    """x, S x, S^2 x, ... (S^T with transpose), one shift application a step."""
    shift = shift_apply_transpose if transpose else shift_apply
    while True:
        yield x
        x = shift(op, x)


def _poly_sum(coeffs, powers) -> np.ndarray:
    """sum c_k powers[k], term by term: the products and accumulation order of
    poly_apply, so powers computed once give each polynomial poly_apply's bits."""
    terms = zip(coeffs, powers)
    c, p = next(terms)
    out = c * p
    for c, p in terms:
        out = out + c * p
    return out


def _solve_real_lstsq(matrix, rhs):
    """Least squares whose minimizer is real: the package's one lstsq call.

    Complex systems are real under pair symmetry up to a residue, which is
    truncated. Returns (solution, max imaginary residue before truncation,
    rank); a system with no columns gives an empty solution of rank 0.
    """
    if matrix.shape[1] == 0:
        return np.zeros(0), 0.0, 0
    theta, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=_LSTSQ_RCOND)
    if theta.dtype.kind == "c":
        return theta.real, float(abs(theta.imag).max()), int(rank)
    return theta, 0.0, int(rank)


def fir_design(
    grid: FrequencyGrid,
    h_hat,
    order: int,
) -> FirDesign:
    """Fit FIR coefficients to a desired response by least squares.

    The response must satisfy the grid's conjugate-pair symmetry; the
    resulting coefficients are real up to numerical residue, which is
    truncated when below tolerance and rejected above it.
    """
    if order < 0:
        raise ParameterError(f"order must be non-negative, got {order}")
    h = np.asarray(h_hat, dtype=complex)
    validate_conjugate_pairs(h, grid)
    if grid.n < order + 1:
        raise ParameterError(f"need at least {order + 1} grid points, got {grid.n}")
    psi = vandermonde(grid.lambdas, order + 1)
    g, residue, _ = _solve_real_lstsq(psi, h)
    if residue > _IMAG_TRUNCATE_TOL:
        raise NumericalFailureError(
            f"imaginary residue {residue:.3e} exceeds {_IMAG_TRUNCATE_TOL:.0e}"
        )
    filt = FirFilter(g=g)
    fitted = psi @ filt.g
    rnmse = float(np.linalg.norm(h - fitted) / np.linalg.norm(h)) if np.any(h) else float(
        np.linalg.norm(fitted)
    )
    return FirDesign(
        filter=filt,
        rnmse=rnmse,
        imag_residue=residue,
        condition_estimate=float(np.linalg.cond(psi)),
    )


def fir_response(filt: FirFilter, grid: FrequencyGrid) -> np.ndarray:
    """Frequency response sum g_k lambda^k at every grid point."""
    return vandermonde(grid.lambdas, len(filt.g)) @ filt.g


def fir_apply(filt: FirFilter, op: ShiftOperator, x) -> np.ndarray:
    """Apply sum g_k S^k to a signal via nested shifts, O(K E)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.n,):
        raise DimensionError(f"signal length {x.shape} does not match n={op.n}")
    return poly_apply(filt.g, op, x)


def fir_to_json(filt: FirFilter) -> str:
    return json.dumps({"type": "fir", "g": [float(v) for v in filt.g]})


def filter_payload(text: str, kind: str | None = None, keys=()) -> dict:
    """Decode a filter JSON object and turn its coefficient lists into arrays.

    Checks the "type" field when kind is given; every name in keys must hold
    a list of numbers, returned as a float array.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CsvParseError(f"invalid filter JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParameterError("filter JSON must be an object")
    if kind is not None and payload.get("type") != kind:
        raise ParameterError(f"expected filter type {kind!r}, got {payload.get('type')!r}")
    for key in keys:
        if key not in payload:
            raise ParameterError(f"filter JSON lacks coefficients {key!r}")
        try:
            payload[key] = np.asarray(payload[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"coefficients {key!r} are not numbers: {exc}") from exc
    return payload


def fir_from_json(text: str) -> FirFilter:
    return FirFilter(g=filter_payload(text, "fir", ("g",))["g"])
