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
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .arma import ArmaFilter, StabilityReport, check_stability
from .errors import InstabilityError, ParameterError
from .fir import _LSTSQ_RCOND, _solve_real_lstsq, vandermonde
from .spectral import COMPLEX_DISC, FrequencyGrid, validate_conjugate_pairs

PRONY_LS = "prony-ls"
PRONY_PROJECTION = "prony-projection"
ITERATIVE = "iterative"
METHODS = (PRONY_LS, PRONY_PROJECTION, ITERATIVE)

# denominator regularizer, relative to max|a(lambda)|
_RHO = 1e-8
# stop the iterative design once the error vector moves less than this
_DELTA_C = 1e-10


def rnmse(estimate, reference) -> float:
    """Root normalized mean square error ||estimate - reference|| / ||reference||."""
    est = np.asarray(estimate)
    ref = np.asarray(reference)
    return float(np.linalg.norm(est - ref) / np.linalg.norm(ref))


def ideal_lowpass(grid, cutoff: float = 1.0) -> np.ndarray:
    """Ideal low-pass response on a grid.

    Real grids threshold the frequency value; complex grids pass every
    frequency within `cutoff` of the point (1, 0).
    """
    if math.isnan(cutoff):  # every comparison with NaN is false: an all-stop target
        raise ParameterError("lowpass cutoff is NaN")
    if grid.all_real:
        return (grid.lambdas.real <= cutoff).astype(complex)
    return (np.abs(grid.lambdas - 1.0) <= cutoff).astype(complex)


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

    weights multiply the error elementwise (all ones by default). On
    complex-disc grids with a real desired response the error is scored on
    magnitudes, matching how complex-valued responses are scored.
    """

    grid: FrequencyGrid
    h_hat: np.ndarray
    ar_order: int
    ma_order: int
    weights: np.ndarray | None = None
    constrain_b0_zero: bool = False

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

    def scores(self, alpha, beta):
        """True RNMSEs of the responses beta/alpha, and their weighted error vectors.

        alpha and beta stack the denominator and numerator values of several
        responses as rows. A row's RNMSE is inf when its response or error
        norm is not finite; its error vector w * (h - beta/alpha) may then
        hold non-finite entries.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resp = beta / alpha
            err = self.h - resp
            if self.weights is not None:
                err *= self.weights
            finite = np.isfinite(resp).all(axis=1)
            if self.abs_h is None:
                dev = err
            else:
                dev = self.abs_h - np.abs(resp)
                if self.weights is not None:
                    dev *= self.weights
            vals = np.sqrt(_sq_norms(dev, finite)) / self.h_norm
        vals[~np.isfinite(vals)] = np.inf
        return vals, err

    def score(self, a, b) -> float:
        """True RNMSE of the filter with coefficients a and b."""
        return float(self.scores((self.psi_p @ a)[None], (self.psi_q @ b)[None])[0][0])


def _sq_norms(rows, selected) -> np.ndarray:
    """Squared l2 norm of each selected row, inf for the others.

    Each is the dot product, or the sum of the real and imaginary parts'
    dot products, that np.linalg.norm takes of one vector, so a row gets
    the same bits in any stack.
    """
    out = np.full(len(rows), np.inf)
    picked = np.flatnonzero(selected).tolist()
    if np.iscomplexobj(rows):
        re, im = rows.real, rows.imag
        for i in picked:
            out[i] = re[i].dot(re[i]) + im[i].dot(im[i])
    else:
        for i in picked:
            out[i] = rows[i].dot(rows[i])
    return out


def _basis(problem: DesignProblem, ar_cols: int, ma_cols: int) -> _Basis:
    lam, h = problem.grid.lambdas, problem.h_hat
    if problem.grid.all_real and not np.any(h.imag):
        lam, h = lam.real, h.real.copy()
    w = problem.weights
    psi_q = vandermonde(lam, ma_cols)
    return _Basis(
        psi_p=vandermonde(lam, ar_cols),
        psi_q=psi_q,
        psi_b=psi_q[:, 1:] if problem.constrain_b0_zero else psi_q,
        h=h,
        weights=w,
        h_norm=float(np.linalg.norm(h if w is None else w * h)),
        abs_h=np.abs(h) if problem.use_amplitude_error else None,
    )


def true_error(filt: ArmaFilter, problem: DesignProblem) -> float:
    """RNMSE of the true design error h - b(lambda)/a(lambda)."""
    return _basis(problem, len(filt.a), len(filt.b)).score(filt.a, filt.b)


def modified_error(filt: ArmaFilter, problem: DesignProblem) -> float:
    """RNMSE of the denominator-multiplied (Prony) error h*a(lambda) - b(lambda)."""
    psi_p = vandermonde(problem.grid.lambdas, len(filt.a))
    psi_q = vandermonde(problem.grid.lambdas, len(filt.b))
    w = problem.weight_vector
    err = w * (problem.h_hat * (psi_p @ filt.a) - psi_q @ filt.b)
    return float(np.linalg.norm(err) / np.linalg.norm(w * problem.h_hat))


@dataclass(frozen=True)
class _A0Systems:
    """The a0 = 1 least-squares systems of problems that share P + Q.

    The unknowns are theta = [a_1..a_P; b], with a0 = 1 moved to the right
    side. Systems are stored transposed, so that every elementwise pass runs
    along the grid: template[c] holds [Psi_P[:, 1:] | Psi_b].T of problem c
    and a_rows[c] marks its Psi_P rows. The problems share the target and
    the weights, so one basis scores them all.
    """

    template: np.ndarray
    a_rows: np.ndarray
    basis: _Basis

    @classmethod
    def build(cls, bases):
        lead = bases[0]
        ar = [bs.psi_p.shape[1] - 1 for bs in bases]
        template = np.empty((len(bases), ar[0] + lead.psi_b.shape[1], len(lead.h)),
                            dtype=lead.h.dtype)
        for t, p, bs in zip(template, ar, bases):
            t[:p] = bs.psi_p[:, 1:].T
            t[p:] = bs.psi_b.T
        a_rows = np.arange(template.shape[1]) < np.array(ar)[:, None]
        return cls(template, a_rows[:, :, None], lead)

    def fill(self, lhs, rhs, gamma) -> None:
        """Write [G diag(h) Psi_P[:, 1:] | -G Psi_b].T into lhs[c] and -G h into rhs[c].

        G = diag(gamma[c]). Each entry is (gamma * psi) * h or -(gamma * psi),
        the same operations in the same order for every problem of the stack.
        """
        h = self.basis.h
        np.multiply(gamma[:, None, :], self.template, out=lhs)
        np.multiply(lhs, h, out=lhs, where=self.a_rows)
        np.negative(lhs, out=lhs, where=~self.a_rows)
        np.multiply(gamma, h, out=rhs)
        np.negative(rhs, out=rhs)

    def weigh(self, lhs, rhs) -> None:
        """Scale the filled systems by the weights (None for all ones)."""
        w = self.basis.weights
        if w is not None:
            lhs *= w
            rhs *= w

    def keep(self, rows):
        return _A0Systems(self.template[rows], self.a_rows[rows], self.basis)


def _solve_a0(lhs, rhs, problem: DesignProblem):
    """Least squares over one filled and weighted a0 = 1 system.

    Returns (a, b, imag residue before truncation, rank_deficient).
    """
    theta, residue, rank = _solve_real_lstsq(lhs, rhs)
    a = np.concatenate([[1.0], theta[:problem.ar_order]])
    b_tail = theta[problem.ar_order:]
    b = np.concatenate([[0.0], b_tail]) if problem.constrain_b0_zero else b_tail
    return a, b, residue, rank < lhs.shape[1]


def _make_report(a, b, problem, basis, method, residue, warnings,
                 iterations=0, history=None, converged=True, iterates=()):
    filt = ArmaFilter(a=a, b=b)
    err_true = basis.score(a, b)
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
    systems = _A0Systems.build([basis])
    lhs = np.empty_like(systems.template)
    rhs = np.empty((1, problem.grid.n), dtype=basis.h.dtype)
    systems.fill(lhs, rhs, np.ones((1, problem.grid.n)))
    systems.weigh(lhs, rhs)
    a, b, residue, deficient = _solve_a0(lhs[0].T, rhs[0], problem)
    warnings = ("rank-deficient",) if deficient else ()
    return _make_report(a, b, problem, basis, PRONY_LS, residue, warnings)


def prony_projection(problem: DesignProblem) -> DesignReport:
    """Two-step design: project out the numerator, then refit it on the true error.

    Step 1 solves for a on the orthogonal complement of the (weighted)
    numerator Vandermonde range; step 2 solves the true-error least squares
    for b with the denominator frozen.
    """
    basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
    a, b, residue, warnings = _projection_fit(problem, basis)
    return _make_report(a, b, problem, basis, PRONY_PROJECTION, residue, warnings)


def _projection_fit(problem: DesignProblem, basis: _Basis):
    """The coefficients of prony_projection: (a, b, imag residue, warnings)."""
    w = problem.weight_vector
    psi_p, psi_b, h = basis.psi_p, basis.psi_b, basis.h

    weighted_b = w[:, None] * psi_b
    projector = np.eye(problem.grid.n) - weighted_b @ np.linalg.pinv(
        weighted_b, rcond=_LSTSQ_RCOND
    )
    block_a = projector @ (w[:, None] * (psi_p * h[:, None]))
    theta, residue_a, rank = _solve_real_lstsq(block_a[:, 1:], -block_a[:, 0])
    a = np.concatenate([[1.0], theta])
    warnings = ["rank-deficient"] if rank < block_a.shape[1] - 1 else []
    alpha = psi_p @ a
    tiny = np.abs(alpha) <= 1e-12 * max(float(np.max(np.abs(alpha))), 1e-30)
    if np.any(tiny):
        alpha = alpha + _RHO * float(np.max(np.abs(alpha)))
        warnings.append("denominator-regularized")
    gamma = 1.0 / alpha
    b_lhs = w[:, None] * (gamma[:, None] * psi_b)
    b_tail, residue_b, _ = _solve_real_lstsq(b_lhs, w * h)
    b = np.concatenate([[0.0], b_tail]) if problem.constrain_b0_zero else b_tail
    return a, b, max(residue_a, residue_b), warnings


@dataclass
class _Run:
    """One problem's passes: its iterates, the initialization first, and
    their true errors."""

    problem: DesignProblem
    basis: _Basis
    iterates: list
    history: list
    max_residue: float
    converged: bool
    warnings: set
    error: np.linalg.LinAlgError | None  # raised by a solve; ends the run

    @classmethod
    def start(cls, problem: DesignProblem, init: ArmaFilter | None):
        """A run from init, or from the prony_projection design."""
        basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
        if init is None:
            init = ArmaFilter(*_projection_fit(problem, basis)[:2])
        return cls(problem, basis, [(init.a, init.b)], [], 0.0, False, set(), None)


def _iterate(runs, tau: int) -> None:
    """Run the passes of iterative_design for several runs in lockstep.

    The runs' problems share grid, target, weights, b0 pin and P + Q. A run
    leaves the loop when the l2 change of its error vector drops below
    _DELTA_C, when its system goes non-finite, when its solve raises
    LinAlgError (kept in run.error), or after tau passes.

    The weights, the system fill, the finite checks and the score run once
    per pass, on stacked arrays with one row per live run. The least-squares
    solve, the products alpha = Psi_P a and beta = Psi_Q b and the norms'
    dot products run per run, so each run gets the bits it would get alone.
    """
    if tau < 1:
        raise ParameterError(f"need at least one iteration, got {tau}")
    systems = _A0Systems.build([run.basis for run in runs])
    alpha = np.stack([run.basis.psi_p @ run.iterates[0][0] for run in runs])
    beta = np.stack([run.basis.psi_q @ run.iterates[0][1] for run in runs])
    err_true, err_prev = systems.basis.scores(alpha, beta)
    for run, e in zip(runs, err_true.tolist()):
        run.history.append(e)
    lhs, rhs = np.empty_like(systems.template), np.empty_like(alpha)
    live = runs  # the runs still iterating, one per row of the stacks

    for _ in range(tau):
        n = len(live)
        rho = _RHO * np.abs(alpha).max(axis=1)
        denom = alpha + rho[:, None]
        zero = denom == 0.0
        if zero.any():
            for i in zero.any(axis=1).nonzero()[0]:
                denom[i] = np.where(zero[i], max(rho[i], 1e-30), denom[i])
                live[i].warnings.add("denominator-regularized")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            systems.fill(lhs[:n], rhs[:n], np.divide(1.0, denom, out=denom))
        going = (np.isfinite(lhs[:n].view(np.float64)).all(axis=(1, 2))
                 & np.isfinite(rhs[:n].view(np.float64)).all(axis=1)).tolist()
        systems.weigh(lhs[:n], rhs[:n])
        for i, run in enumerate(live):
            if not going[i]:
                run.warnings.add("non-finite-iterate")
                continue
            try:
                a, b, residue, deficient = _solve_a0(lhs[i].T, rhs[i], run.problem)
            except np.linalg.LinAlgError as exc:
                run.error = exc
                going[i] = False
                continue
            if deficient:
                run.warnings.add("rank-deficient")
            run.max_residue = max(run.max_residue, residue)
            run.iterates.append((a, b))
            np.matmul(run.basis.psi_p, a, out=alpha[i])
            np.matmul(run.basis.psi_q, b, out=beta[i])
        err_true, err_new = systems.basis.scores(alpha, beta)
        finite = np.isfinite(err_new.view(np.float64)).all(axis=1)
        with np.errstate(invalid="ignore"):
            delta = np.sqrt(_sq_norms(err_new - err_prev, finite))
        for i, (e, d) in enumerate(zip(err_true.tolist(), delta.tolist())):
            if going[i]:
                live[i].history.append(e)
                if d < _DELTA_C:
                    live[i].converged = True
                    going[i] = False
        if not all(going):
            live = [run for run, g in zip(live, going) if g]
            if not live:
                break
            systems = systems.keep(going)
            alpha, beta, err_new = alpha[going], beta[going], err_new[going]
        err_prev = err_new


def _iterative_report(run: _Run) -> DesignReport:
    """The report of a run: its best-error iterate, with the whole history."""
    if not np.isfinite(run.history).any():
        raise InstabilityError(
            "every iterate produced an unstable filter", history=tuple(run.history)
        )
    a, b = run.iterates[int(np.argmin(run.history))]
    return _make_report(
        a, b, run.problem, run.basis, ITERATIVE, run.max_residue,
        sorted(run.warnings),
        iterations=len(run.history) - 1,
        history=run.history,
        converged=run.converged,
        iterates=[ArmaFilter(a=ai, b=bi) for ai, bi in run.iterates],
    )


def iterative_design(
    problem: DesignProblem,
    init: ArmaFilter | None = None,
    tau: int = 50,
) -> DesignReport:
    """Minimize the true error by re-weighting with the reciprocal denominator.

    Each pass freezes gamma = 1/(alpha + rho) with rho = _RHO * max|alpha|,
    solves the linearized least squares with a0 = 1, and tracks the true
    error. Iterations stop when the l2 change of the error vector drops
    below _DELTA_C or after tau passes; the reported filter is the
    best-error iterate over the whole history, with the initialization
    (the prony_projection design by default) as iterate 0.

    A pass costs one least-squares solve and one evaluation of alpha = Psi_P a
    and beta = Psi_Q b, which serves the true error, the stopping test and
    the next pass's weights.
    """
    if init is not None and (
        init.ar_order != problem.ar_order or init.ma_order != problem.ma_order
    ):
        raise ParameterError(
            f"init orders ({init.ar_order},{init.ma_order}) do not match problem "
            f"({problem.ar_order},{problem.ma_order})"
        )
    run = _Run.start(problem, init)
    _iterate([run], tau)
    if run.error is not None:
        raise run.error
    return _iterative_report(run)


def run_method(method: str, problem: DesignProblem, tau: int = 50) -> DesignReport:
    if method == PRONY_LS:
        return prony_ls(problem)
    if method == PRONY_PROJECTION:
        return prony_projection(problem)
    if method == ITERATIVE:
        return iterative_design(problem, tau=tau)
    raise ParameterError(f"unknown design method {method!r}")


def order_candidates(budget: int, le_budget: bool) -> list:
    """(ar, ma) pairs with ar+ma == budget, or every ar+ma <= budget."""
    if budget < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    if le_budget:
        return [(p, k - p) for k in range(budget + 1) for p in range(k + 1)]
    return [(p, budget - p) for p in range(budget + 1)]


def best_order_search(
    grid: FrequencyGrid,
    h_hat,
    budget: int,
    method: str,
    le_budget: bool = False,
    tau: int = 50,
) -> DesignReport:
    """Design at every (ar, ma) split of the budget and keep the best.

    Ties break toward smaller AR order, then smaller MA order, so the
    reduction is deterministic regardless of evaluation order. Candidates
    whose design fails are skipped. The iterative method runs the passes of
    all splits with the same ar + ma in lockstep, and reports only the winner.
    """
    cands = [
        (p, q)
        for p, q in order_candidates(budget, le_budget)
        if p + q + 1 <= grid.n
    ]
    if not cands:
        raise ParameterError(f"no feasible orders for budget {budget} on {grid.n} points")

    scored = []
    if method == ITERATIVE:
        for _, group in groupby(cands, key=sum):
            runs = []
            for p, q in group:
                problem = DesignProblem(grid=grid, h_hat=h_hat, ar_order=p, ma_order=q)
                try:
                    runs.append(_Run.start(problem, None))
                except (InstabilityError, np.linalg.LinAlgError):
                    continue
            if runs:
                _iterate(runs, tau)
            scored += [
                (min(run.history), run.problem.ar_order, run.problem.ma_order, run)
                for run in runs
                if run.error is None
            ]
    else:
        for p, q in cands:
            problem = DesignProblem(grid=grid, h_hat=h_hat, ar_order=p, ma_order=q)
            try:
                rep = run_method(method, problem, tau=tau)
            except (InstabilityError, np.linalg.LinAlgError):
                continue
            scored.append((rep.rnmse_true, p, q, rep))
    scored = [t for t in scored if np.isfinite(t[0])]
    if not scored:
        raise InstabilityError(f"every order candidate failed for budget {budget}")
    best = min(scored, key=lambda t: t[:3])[3]
    return _iterative_report(best) if method == ITERATIVE else best
