"""ARMA graph filter design: Prony least squares, Prony projection, and the
iterative true-error minimizer, plus exhaustive order search.

All three methods solve their least-squares systems in real arithmetic when
the grid frequencies and the desired response are exactly real (uniform-real
grids, spectra of symmetric shifts), and in complex arithmetic otherwise
(disc grids, directed spectra). The complex minimizers are real-valued
whenever the desired response respects the grid's conjugate-pair symmetry;
their imaginary residue is recorded and truncated.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arma import ArmaFilter, StabilityReport, check_stability
from .errors import InstabilityError, ParameterError
from .spectral import COMPLEX_DISC, FrequencyGrid, validate_conjugate_pairs

_LSTSQ_RCOND = 1e-12

PRONY_LS = "prony-ls"
PRONY_PROJECTION = "prony-projection"
ITERATIVE = "iterative"
METHODS = (PRONY_LS, PRONY_PROJECTION, ITERATIVE)


def rnmse(estimate, reference) -> float:
    """Root normalized mean square error ||estimate - reference|| / ||reference||."""
    est = np.asarray(estimate)
    ref = np.asarray(reference)
    return float(np.linalg.norm(est - ref) / np.linalg.norm(ref))


def report_to_json(report) -> str:
    """Serialize a DesignReport (without the iterate history) to JSON."""
    return json.dumps(
        {
            "method": report.method,
            "a": [float(v) for v in report.filter.a],
            "b": [float(v) for v in report.filter.b],
            "rnmse_true": report.rnmse_true,
            "rnmse_modified": report.rnmse_modified,
            "iterations": report.iterations,
            "error_history": list(report.error_history),
            "converged": report.converged,
            "stable": report.stability.stable,
            "min_denominator_magnitude": report.stability.min_denominator_magnitude,
            "imag_residue": report.imag_residue,
            "warnings": list(report.warnings),
        },
        sort_keys=True,
    )


@dataclass(frozen=True)
class DesignProblem:
    """A desired frequency response with weights, orders, and constraints.

    weights multiply the error elementwise (all ones by default); rho is the
    denominator regularizer (None picks 1e-8 * max|alpha| adaptively);
    amplitude_only=None resolves to True on complex-disc grids with a real
    desired response, matching how complex-valued responses are scored.
    """

    grid: FrequencyGrid
    h_hat: np.ndarray
    ar_order: int
    ma_order: int
    weights: np.ndarray | None = None
    constrain_b0_zero: bool = False
    rho: float | None = None
    amplitude_only: bool | None = None

    def __post_init__(self):
        h = np.asarray(self.h_hat, dtype=complex)
        object.__setattr__(self, "h_hat", h)
        if self.ar_order < 0 or self.ma_order < 0:
            raise ParameterError("orders must be non-negative")
        if self.grid.n < self.ar_order + self.ma_order + 1:
            raise ParameterError(
                f"need at least {self.ar_order + self.ma_order + 1} grid points, "
                f"got {self.grid.n}"
            )
        validate_conjugate_pairs(h, self.grid)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.grid.n,):
                raise ParameterError("weights length must match the grid")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ParameterError("weights must be finite and non-negative")
            object.__setattr__(self, "weights", w)

    @property
    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.grid.n)
        return self.weights

    @property
    def use_amplitude_error(self) -> bool:
        if self.amplitude_only is not None:
            return self.amplitude_only
        return self.grid.kind == COMPLEX_DISC and bool(np.all(self.h_hat.imag == 0.0))


@dataclass(frozen=True)
class DesignReport:
    """Design outcome: the filter plus error metrics and iteration history.

    iterate_filters keeps every iterate of the iterative method (index 0 is
    the initialization) so applications can reselect by their own metric.
    imag_residue is the largest imaginary part truncated from a solved
    coefficient vector. It is exactly 0.0 when the grid frequencies and the
    desired response are real, because those designs solve in real arithmetic;
    on complex grids it measures how far the solve strayed from real
    coefficients.
    """

    filter: ArmaFilter
    rnmse_true: float
    rnmse_modified: float
    iterations: int
    error_history: tuple
    converged: bool
    stability: StabilityReport
    method: str
    imag_residue: float
    warnings: tuple = ()
    iterate_filters: tuple = ()


def _powers(lambdas: np.ndarray, cols: int) -> np.ndarray:
    return lambdas[:, None] ** np.arange(cols)[None, :]


@dataclass(frozen=True)
class _Basis:
    """Vandermonde columns, target and error scale of one design, built once.

    The arrays are float64 when the grid frequencies and the target are
    exactly real, so every solve and product built on them runs in real
    arithmetic; otherwise they are complex128.
    """

    psi_p: np.ndarray
    psi_q: np.ndarray
    psi_b: np.ndarray  # the numerator columns left free: psi_q, less b0 when pinned
    h: np.ndarray
    weights: np.ndarray | None
    h_norm: float
    abs_h: np.ndarray | None  # |h| when the error is scored on magnitudes

    def score(self, alpha, beta):
        """True RNMSE of the response beta/alpha, and its weighted error vector.

        The RNMSE is inf when the response or the error norm is not finite;
        the error vector w * (h - beta/alpha) may then hold non-finite entries.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resp = beta / alpha
            err = self.h - resp
            if self.weights is not None:
                err *= self.weights
            if not np.isfinite(resp).all():
                return float("inf"), err
            if self.abs_h is None:
                dev = err
            else:
                dev = self.abs_h - np.abs(resp)
                if self.weights is not None:
                    dev *= self.weights
            val = np.linalg.norm(dev) / self.h_norm
        return (float(val) if np.isfinite(val) else float("inf")), err


def _basis(problem: DesignProblem, ar_cols: int, ma_cols: int) -> _Basis:
    lam, h = problem.grid.lambdas, problem.h_hat
    if problem.grid.all_real and not np.any(h.imag):
        lam, h = lam.real, h.real.copy()
    w = problem.weights
    psi_q = _powers(lam, ma_cols)
    return _Basis(
        psi_p=_powers(lam, ar_cols),
        psi_q=psi_q,
        psi_b=psi_q[:, 1:] if problem.constrain_b0_zero else psi_q,
        h=h,
        weights=w,
        h_norm=float(np.linalg.norm(h if w is None else w * h)),
        abs_h=np.abs(h) if problem.use_amplitude_error else None,
    )


def true_error(filt: ArmaFilter, problem: DesignProblem) -> float:
    """RNMSE of the true design error h - b(lambda)/a(lambda)."""
    basis = _basis(problem, len(filt.a), len(filt.b))
    return basis.score(basis.psi_p @ filt.a, basis.psi_q @ filt.b)[0]


def modified_error(filt: ArmaFilter, problem: DesignProblem) -> float:
    """RNMSE of the denominator-multiplied (Prony) error h*a(lambda) - b(lambda)."""
    psi_p = _powers(problem.grid.lambdas, len(filt.a))
    psi_q = _powers(problem.grid.lambdas, len(filt.b))
    w = problem.weight_vector
    err = w * (problem.h_hat * (psi_p @ filt.a) - psi_q @ filt.b)
    return float(np.linalg.norm(err) / np.linalg.norm(w * problem.h_hat))


def _a0_buffers(basis: _Basis):
    """Empty lhs and rhs for the a0 = 1 system of a basis."""
    n, ar = basis.psi_p.shape[0], basis.psi_p.shape[1] - 1
    lhs = np.empty((n, ar + basis.psi_b.shape[1]), dtype=basis.h.dtype)
    return lhs, np.empty(n, dtype=basis.h.dtype)


def _fill_a0_system(lhs, rhs, gamma, basis: _Basis) -> None:
    """Write [G diag(h) Psi_P[:, 1:] | -G Psi_b] into lhs and -G h into rhs.

    G = diag(gamma). The unknowns are theta = [a_1..a_P; b], with a0 = 1
    moved to the right side.
    """
    ar = basis.psi_p.shape[1] - 1
    np.multiply(gamma[:, None], basis.psi_p[:, 1:], out=lhs[:, :ar])
    lhs[:, :ar] *= basis.h[:, None]
    np.multiply(gamma[:, None], basis.psi_b, out=lhs[:, ar:])
    np.negative(lhs[:, ar:], out=lhs[:, ar:])
    np.multiply(gamma, basis.h, out=rhs)
    np.negative(rhs, out=rhs)


def _solve_a0_constrained(lhs, rhs, weights, ar_order, b0_zero):
    """Weighted least squares over a system filled by _fill_a0_system.

    weights (None for all ones) scale lhs and rhs in place. Returns
    (a, b, imag residue before truncation, rank_deficient).
    """
    if weights is not None:
        lhs *= weights[:, None]
        rhs *= weights
    if lhs.shape[1] == 0:
        return np.array([1.0]), np.zeros(1 if b0_zero else 0), 0.0, False
    theta, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=_LSTSQ_RCOND)
    residue = float(np.max(np.abs(theta.imag)))
    theta = theta.real
    a = np.concatenate([[1.0], theta[:ar_order]])
    b_tail = theta[ar_order:]
    b = np.concatenate([[0.0], b_tail]) if b0_zero else b_tail
    return a, b, residue, rank < lhs.shape[1]


def _make_report(a, b, problem, basis, method, residue, warnings,
                 iterations=0, history=None, converged=True, iterates=()):
    filt = ArmaFilter(a=a, b=b)
    err_true = basis.score(basis.psi_p @ a, basis.psi_q @ b)[0]
    return DesignReport(
        filter=filt,
        rnmse_true=err_true,
        rnmse_modified=modified_error(filt, problem),
        iterations=iterations,
        error_history=tuple(history) if history is not None else (err_true,),
        converged=converged,
        stability=check_stability(filt, problem.grid),
        method=method,
        imag_residue=residue,
        warnings=tuple(warnings),
        iterate_filters=tuple(iterates),
    )


def prony_ls(problem: DesignProblem) -> DesignReport:
    """Minimize the modified error ||h * a(lambda) - b(lambda)|| with a0 = 1."""
    basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
    lhs, rhs = _a0_buffers(basis)
    _fill_a0_system(lhs, rhs, np.ones(problem.grid.n), basis)
    a, b, residue, deficient = _solve_a0_constrained(
        lhs, rhs, problem.weights, problem.ar_order, problem.constrain_b0_zero
    )
    warnings = ("rank-deficient",) if deficient else ()
    return _make_report(a, b, problem, basis, PRONY_LS, residue, warnings)


def prony_projection(problem: DesignProblem) -> DesignReport:
    """Two-step design: project out the numerator, then refit it on the true error.

    Step 1 solves for a on the orthogonal complement of the (weighted)
    numerator Vandermonde range; step 2 solves the true-error least squares
    for b with the denominator frozen.
    """
    w = problem.weight_vector
    basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
    psi_p, psi_b, h = basis.psi_p, basis.psi_b, basis.h

    weighted_b = w[:, None] * psi_b
    projector = np.eye(problem.grid.n) - weighted_b @ np.linalg.pinv(
        weighted_b, rcond=_LSTSQ_RCOND
    )
    block_a = projector @ (w[:, None] * (psi_p * h[:, None]))
    if block_a.shape[1] == 1:
        a = np.array([1.0])
        residue_a, deficient = 0.0, False
    else:
        theta, _, rank, _ = np.linalg.lstsq(
            block_a[:, 1:], -block_a[:, 0], rcond=_LSTSQ_RCOND
        )
        residue_a = float(np.max(np.abs(theta.imag))) if theta.size else 0.0
        a = np.concatenate([[1.0], theta.real])
        deficient = rank < block_a.shape[1] - 1

    warnings = ["rank-deficient"] if deficient else []
    alpha = psi_p @ a
    tiny = np.abs(alpha) <= 1e-12 * max(float(np.max(np.abs(alpha))), 1e-30)
    if np.any(tiny):
        rho = problem.rho if problem.rho is not None else 1e-8 * float(np.max(np.abs(alpha)))
        alpha = alpha + rho
        warnings.append("denominator-regularized")
    gamma = 1.0 / alpha
    b_lhs = w[:, None] * (gamma[:, None] * psi_b)
    b_sol, _, _, _ = np.linalg.lstsq(b_lhs, w * h, rcond=_LSTSQ_RCOND)
    residue_b = float(np.max(np.abs(b_sol.imag))) if b_sol.size else 0.0
    b_tail = b_sol.real
    b = np.concatenate([[0.0], b_tail]) if problem.constrain_b0_zero else b_tail
    return _make_report(
        a, b, problem, basis, PRONY_PROJECTION,
        max(residue_a, residue_b), warnings,
    )


def iterative_design(
    problem: DesignProblem,
    init: ArmaFilter | None = None,
    tau: int = 50,
    delta_c: float = 1e-10,
) -> DesignReport:
    """Minimize the true error by re-weighting with the reciprocal denominator.

    Each pass freezes gamma = 1/(alpha + rho), solves the linearized least
    squares with a0 = 1, and tracks the true error. Iterations stop when the
    l2 change of the error vector drops below delta_c or after tau passes;
    the reported filter is the best-error iterate over the whole history,
    with the initialization as iterate 0.

    A pass costs one least-squares solve and one evaluation of alpha = Psi_P a
    and beta = Psi_Q b, which serves the true error, the stopping test and
    the next pass's weights.
    """
    if tau < 1:
        raise ParameterError(f"need at least one iteration, got {tau}")
    if init is None:
        init = prony_projection(problem).filter
    if init.ar_order != problem.ar_order or init.ma_order != problem.ma_order:
        raise ParameterError(
            f"init orders ({init.ar_order},{init.ma_order}) do not match problem "
            f"({problem.ar_order},{problem.ma_order})"
        )
    basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
    psi_p, psi_q = basis.psi_p, basis.psi_q
    lhs, rhs = _a0_buffers(basis)

    a, b = init.a, init.b
    alpha = psi_p @ a
    err_true, err_prev = basis.score(alpha, psi_q @ b)
    iterates = [(a, b)]
    history = [err_true]
    max_residue = 0.0
    converged = False
    warnings = set()

    for _ in range(tau):
        rho = problem.rho if problem.rho is not None else 1e-8 * float(np.max(np.abs(alpha)))
        denom = alpha + rho
        bad = denom == 0.0
        if np.any(bad):
            denom = np.where(bad, max(rho, 1e-30), denom)
            warnings.add("denominator-regularized")
        _fill_a0_system(lhs, rhs, 1.0 / denom, basis)
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            warnings.add("non-finite-iterate")
            break
        a, b, residue, deficient = _solve_a0_constrained(
            lhs, rhs, basis.weights, problem.ar_order, problem.constrain_b0_zero
        )
        if deficient:
            warnings.add("rank-deficient")
        max_residue = max(max_residue, residue)
        iterates.append((a, b))
        alpha = psi_p @ a
        err_true, err_new = basis.score(alpha, psi_q @ b)
        history.append(err_true)
        finite = np.isfinite(err_new).all()
        delta = float(np.linalg.norm(err_new - err_prev)) if finite else float("inf")
        err_prev = err_new
        if delta < delta_c:
            converged = True
            break

    finite_hist = [e for e in history if np.isfinite(e)]
    if not finite_hist:
        raise InstabilityError(
            "every iterate produced an unstable filter", history=tuple(history)
        )
    best = int(np.argmin([e if np.isfinite(e) else np.inf for e in history]))
    a_best, b_best = iterates[best]
    return _make_report(
        a_best, b_best, problem, basis, ITERATIVE, max_residue,
        sorted(warnings),
        iterations=len(history) - 1,
        history=history,
        converged=converged,
        iterates=[ArmaFilter(a=ai, b=bi) for ai, bi in iterates],
    )


def run_method(method: str, problem: DesignProblem, tau: int = 50,
               delta_c: float = 1e-10) -> DesignReport:
    if method == PRONY_LS:
        return prony_ls(problem)
    if method == PRONY_PROJECTION:
        return prony_projection(problem)
    if method == ITERATIVE:
        return iterative_design(problem, tau=tau, delta_c=delta_c)
    raise ParameterError(f"unknown design method {method!r}")


def order_candidates(budget: int, le_budget: bool) -> list:
    """(ar, ma) pairs with ar+ma == budget, or every ar+ma <= budget."""
    if budget < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    if le_budget:
        return [(p, k - p) for k in range(budget + 1) for p in range(k + 1)]
    return [(p, budget - p) for p in range(budget + 1)]


def _worker_count() -> int:
    raw = os.environ.get("GRAPHFILT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def best_order_search(
    grid: FrequencyGrid,
    h_hat,
    budget: int,
    method: str,
    le_budget: bool = False,
    weights=None,
    constrain_b0_zero: bool = False,
    rho: float | None = None,
    amplitude_only: bool | None = None,
    tau: int = 50,
    delta_c: float = 1e-10,
) -> DesignReport:
    """Design at every (ar, ma) split of the budget and keep the best.

    Ties break toward smaller AR order, then smaller MA order, so the
    reduction is deterministic regardless of evaluation order. Candidates
    whose design fails are skipped.
    """
    cands = [
        (p, q)
        for p, q in order_candidates(budget, le_budget)
        if p + q + 1 <= grid.n
    ]
    if not cands:
        raise ParameterError(f"no feasible orders for budget {budget} on {grid.n} points")

    def attempt(orders):
        p, q = orders
        try:
            problem = DesignProblem(
                grid=grid, h_hat=h_hat, ar_order=p, ma_order=q, weights=weights,
                constrain_b0_zero=constrain_b0_zero, rho=rho,
                amplitude_only=amplitude_only,
            )
            return run_method(method, problem, tau=tau, delta_c=delta_c)
        except (InstabilityError, np.linalg.LinAlgError):
            return None

    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(attempt, cands))
    else:
        reports = [attempt(c) for c in cands]

    scored = [
        (rep.rnmse_true, rep.filter.ar_order, rep.filter.ma_order, rep)
        for rep in reports
        if rep is not None and np.isfinite(rep.rnmse_true)
    ]
    if not scored:
        raise InstabilityError(f"every order candidate failed for budget {budget}")
    scored.sort(key=lambda t: t[:3])
    return scored[0][3]
