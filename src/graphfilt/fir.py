"""FIR graph filter design by least squares on a frequency grid, and the
monomial basis every filter in the package is built on.

The design solves min ||Psi g - h|| over real coefficients g for the
Vandermonde matrix Psi of the grid frequencies, in real arithmetic:
`_solve_real_lstsq` turns a complex system into the real system
[Re Psi; Im Psi] g = [Re h; Im h], so no imaginary part is ever truncated.

`vandermonde` (a polynomial on a frequency grid) and `poly_apply` (a
polynomial in the shift applied to signals) are the only places that know
the basis: every FIR and ARMA response, design system and application goes
through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import CsvParseError, DimensionError, ParameterError
from .graphs import ShiftOperator, shift_apply, shift_apply_transpose
from .spectral import FrequencyGrid, validate_conjugate_pairs

_LSTSQ_RCOND = 1e-12


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
    """A FIR fit. imag_residue is always 0.0: the coefficients are solved
    over the reals. warnings holds "rank-deficient" when the least-squares
    rank falls below the order + 1 coefficients, which leaves some of them
    at the minimum-norm value instead of fitting the response."""

    filter: FirFilter
    rnmse: float
    imag_residue: float
    condition_estimate: float
    warnings: tuple = ()


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


def _raise_lstsq_error(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


# one np.linalg.lstsq call per system gives the same bits but took the benchmark's
# compression_study 84-105 ms against 59-67 ms (seed 24, one BLAS thread, 2-core
# Xeon, numpy 2.4; medians of 5 calls, four alternating rounds)
def _gelsd(matrices, rhs):
    """LAPACK gelsd over a stack of real systems of one shape, in one call of
    the gufunc that np.linalg.lstsq wraps, called as numpy 2's lstsq calls
    it: each system gets the bits np.linalg.lstsq(matrix, rhs,
    rcond=_LSTSQ_RCOND) gives it alone. Raises LinAlgError when the SVD of
    any system fails. Returns (solutions, ranks).
    """
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        theta, _, rank, _ = _umath_linalg.lstsq(matrices, rhs[..., None], _LSTSQ_RCOND,
                                                signature="ddd->ddid")
    return theta[..., 0], rank


def _real_rows(x, axis=0):
    """[Re x; Im x] along axis for a complex array; a real array as it is."""
    if x.dtype.kind != "c":
        return x
    return np.concatenate((x.real, x.imag), axis=axis)


def _solve_real_lstsq_stack(matrices, rhs) -> list:
    """Least squares over real unknowns for a stack of systems of one shape.

    A complex stack, whose right sides must be complex too, is solved as the
    real systems [Re A; Im A] theta = [Re b; Im b], which is exact: the
    complex residual's squared norm is the sum of its real and imaginary
    parts' squared norms. Spectrum grids at compression-scale orders are so
    ill conditioned that a complex solve carries spurious imaginary parts,
    which the real formulation never creates. The systems are solved in one
    LAPACK call. Returns one (solution, rank) per system, or the LinAlgError
    its solve raised; a system with no columns gives an empty solution of
    rank 0.
    """
    if matrices.dtype.kind == "c":
        # stacked along the rows of each system's transpose, which leaves
        # every system in column-major order, as LAPACK reads it
        matrices = _real_rows(matrices.swapaxes(-1, -2), -1).swapaxes(-1, -2)
        rhs = _real_rows(rhs, -1)
    if matrices.shape[-1] == 0:
        return [(np.zeros(0), 0)] * len(matrices)
    try:
        theta, rank = _gelsd(matrices, rhs)
    except LinAlgError:  # solve one by one to find the systems that fail
        out = []
        for a, b in zip(matrices, rhs):
            try:
                theta, rank = _gelsd(a[None], b[None])
            except LinAlgError as exc:
                out.append(exc)
            else:
                out.append((theta[0].copy(), int(rank[0])))
        return out
    # a fresh array per solution, as np.linalg.lstsq returns
    return [(t.copy(), r) for t, r in zip(theta, rank.tolist())]


def _solve_real_lstsq(matrix, rhs):
    """_solve_real_lstsq_stack for one system: (solution, rank), raising
    LinAlgError when its SVD fails."""
    found = _solve_real_lstsq_stack(matrix[None], rhs[None])[0]
    if isinstance(found, LinAlgError):
        raise found
    return found


def fir_design(
    grid: FrequencyGrid,
    h_hat,
    order: int,
) -> FirDesign:
    """Fit FIR coefficients to a desired response by least squares over the
    reals.

    The response must satisfy the grid's conjugate-pair symmetry. A fit
    whose least-squares rank is below order + 1 carries the
    "rank-deficient" warning.
    """
    if order < 0:
        raise ParameterError(f"order must be non-negative, got {order}")
    h = np.asarray(h_hat, dtype=complex)
    validate_conjugate_pairs(h, grid)
    if grid.n < order + 1:
        raise ParameterError(f"need at least {order + 1} grid points, got {grid.n}")
    psi = vandermonde(grid.lambdas, order + 1)
    g, rank = _solve_real_lstsq(psi, h)
    filt = FirFilter(g=g)
    fitted = psi @ filt.g
    rnmse = float(np.linalg.norm(h - fitted) / np.linalg.norm(h)) if np.any(h) else float(
        np.linalg.norm(fitted)
    )
    return FirDesign(
        filter=filt,
        rnmse=rnmse,
        imag_residue=0.0,
        condition_estimate=float(np.linalg.cond(psi)),
        warnings=("rank-deficient",) if rank < order + 1 else (),
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
