"""ARMA graph filter design: Prony least squares, Prony projection, and the
iterative true-error minimizer, plus exhaustive order search.

Every least-squares solve runs over real coefficients in real arithmetic.
When the grid frequencies and the desired response are exactly real
(uniform-real grids, spectra of symmetric shifts) the systems are real.
Otherwise (disc grids, directed spectra) the design keeps one frequency per
conjugate pair, weighted by sqrt(w_i^2 + w_j^2) for a pair (i, j): a filter
with real coefficients has conjugate errors at the two, so this is the same
weighted error for any non-negative weights. Each complex system is then
solved as the real system [Re A; Im A] over the real unknowns, so nothing is
left to truncate and DesignReport.imag_residue is always 0.0.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arma import _VANISHING_DENOMINATOR, ArmaFilter, StabilityReport, check_stability
from .errors import InstabilityError, ParameterError
from .fir import _LSTSQ_RCOND, _real_rows, _solve_real_lstsq, _solve_real_lstsq_stack, vandermonde
from .spectral import COMPLEX_DISC, FrequencyGrid, validate_conjugate_pairs

PRONY_LS = "prony-ls"
PRONY_PROJECTION = "prony-projection"
ITERATIVE = "iterative"
METHODS = (PRONY_LS, PRONY_PROJECTION, ITERATIVE)

# denominator regularizer, relative to max|a(lambda)|
_RHO = 1e-8
# stop the iterative design once the error vector moves less than this
_DELTA_C = 1e-10
# passes without a new best error after which an order search's split leaves
# the pass loop
_PATIENCE = 8


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


def report_record(report) -> dict:
    """A DesignReport (without the iterate history) as a JSON-ready dict."""
    return {
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
    }


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
        self._check_orders()
        validate_conjugate_pairs(h, self.grid)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.grid.n,):
                raise ParameterError("weights length must match the grid")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ParameterError("weights must be finite and non-negative")
            object.__setattr__(self, "weights", w)

    def _check_orders(self) -> None:
        if self.ar_order < 0 or self.ma_order < 0:
            raise ParameterError("orders must be non-negative")
        if self.grid.n < self.ar_order + self.ma_order + 1:
            raise ParameterError(
                f"need at least {self.ar_order + self.ma_order + 1} grid points, "
                f"got {self.grid.n}"
            )

    def _at_orders(self, ar_order: int, ma_order: int) -> DesignProblem:
        """This problem at other orders. The target and the weights, checked
        when this problem was built, are not checked again."""
        problem = copy.copy(self)
        object.__setattr__(problem, "ar_order", ar_order)
        object.__setattr__(problem, "ma_order", ma_order)
        problem._check_orders()
        return problem

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
    imag_residue is always 0.0: every solve runs over real coefficients in
    real arithmetic, so no imaginary part is ever truncated.
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
class _Target:
    """A design target as the solves see it, built once per target and
    shared by the bases of all the splits designed for it.

    lam and h are float64 when the grid frequencies and the target are
    exactly real, so every product built on them runs in real arithmetic.
    Otherwise they are complex128, and on a grid with conjugate pairs they
    hold one frequency per pair (the indices i <= pair[i]), with weights
    that count the pair's partner too: sqrt(w_i^2 + w_j^2) for a pair (i, j)
    and w_i for a real frequency. For real coefficients the error at j is
    the conjugate of the error at i, so every weighted norm, and with it
    every least-squares solve and score, is the full grid's. In a pass loop,
    h, h_norm, abs_h and weights stack the targets of the loop's runs, one
    row each (_Target.rows).
    """

    lam: np.ndarray
    h: np.ndarray
    weights: np.ndarray | None  # (N,), or (runs, N) in a stack
    h_norm: float | np.ndarray  # ||w * h||
    abs_h: np.ndarray | None  # |h| when the error is scored on magnitudes

    @classmethod
    def of(cls, problem: DesignProblem) -> _Target:
        grid, h, w = problem.grid, problem.h_hat, problem.weights
        lam = grid.lambdas
        if grid.all_real:
            if not np.any(h.imag):
                lam, h = lam.real, h.real.copy()
        else:
            paired = grid.pair != np.arange(grid.n)
            sq = np.ones(grid.n) if w is None else w * w
            sq[paired] += sq[grid.pair[paired]]
            keep = np.arange(grid.n) <= grid.pair
            lam, h, w = lam[keep], h[keep], np.sqrt(sq[keep])
        return cls(lam, h, w, float(np.linalg.norm(h if w is None else w * h)),
                   np.abs(h) if problem.use_amplitude_error else None)

    @property
    def weight_vector(self) -> np.ndarray:
        return np.ones(len(self.lam)) if self.weights is None else self.weights

    @property
    def mode(self):
        """What targets must share to be solved and scored in one stack:
        the arithmetic and whether errors are scored on magnitudes."""
        return self.h.dtype, self.abs_h is None

    @classmethod
    def rows(cls, targets) -> _Target:
        """The targets of several runs, one row each. They must share the
        grid and the mode. The weights are None when no target has any, and
        stacked as rows like h otherwise, a run without weights getting a
        row of ones, which multiplies to the same bits as no weights."""
        weights = None
        if any(t.weights is not None for t in targets):
            weights = np.stack([t.weight_vector for t in targets])
        abs_h = None if targets[0].abs_h is None else np.stack([t.abs_h for t in targets])
        return cls(targets[0].lam, np.stack([t.h for t in targets]), weights,
                   np.array([t.h_norm for t in targets]), abs_h)

    def keep(self, rows) -> _Target:
        return _Target(self.lam, *(None if x is None else x[rows]
                                   for x in (self.h, self.weights, self.h_norm, self.abs_h)))

    def scores(self, alpha, beta):
        """True RNMSEs of the responses beta/alpha, and their weighted error vectors.

        alpha and beta stack the denominator and numerator values of several
        responses as rows. A row's RNMSE is inf when its response or error
        norm is not finite, or when |alpha| is at most _VANISHING_DENOMINATOR
        at a grid point, where arma_response refuses the filter; its error
        vector w * (h - beta/alpha) may then hold non-finite entries.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            resp = beta / alpha
            err = self.h - resp
            if self.weights is not None:
                err *= self.weights
            finite = (np.abs(alpha) > _VANISHING_DENOMINATOR).all(axis=1)
            finite &= np.isfinite(resp).all(axis=1)
            if self.abs_h is None:
                dev = err
            else:
                dev = self.abs_h - np.abs(resp)
                if self.weights is not None:
                    dev *= self.weights
            vals = np.sqrt(_sq_norms(dev, finite)) / self.h_norm
        vals[~np.isfinite(vals)] = np.inf
        return vals, err


class _Columns:
    """Vandermonde columns and numerator range bases on one grid, built once
    for every design of a search table that shares the arithmetic, the
    weights and the b0 pin."""

    def __init__(self, lam):
        self.lam = lam
        self.powers = {}  # Vandermonde matrices by column count
        self.ranges = {}  # orthonormal bases of range(R) by column count of psi_b

    def vandermonde(self, cols: int) -> np.ndarray:
        found = self.powers.get(cols)
        if found is None:
            found = self.powers[cols] = vandermonde(self.lam, cols)
        return found


@dataclass(frozen=True)
class _Basis:
    """Vandermonde columns and target of one design."""

    psi_p: np.ndarray
    psi_q: np.ndarray
    psi_b: np.ndarray  # the numerator columns left free: psi_q, less b0 when pinned
    target: _Target
    columns: _Columns

    @property
    def unknowns(self) -> int:
        """Columns of the a0 = 1 system: a_1..a_P and the free numerator."""
        return self.psi_p.shape[1] - 1 + self.psi_b.shape[1]

    def score(self, a, b) -> float:
        """True RNMSE of the filter with coefficients a and b."""
        return float(self.target.scores((self.psi_p @ a)[None], (self.psi_q @ b)[None])[0][0])

    def project(self, block) -> np.ndarray:
        """(I - R R^+) block as block - U (U^T block), for R = W Psi_b with
        W = diag(target weights), or [Re W Psi_b; Im W Psi_b] on a complex
        target. U holds R's left singular vectors whose singular values exceed
        _LSTSQ_RCOND times the largest, the cutoff of R^+ in lstsq."""
        cols = self.psi_b.shape[1]
        u = self.columns.ranges.get(cols)
        if u is None:
            r = _real_rows(self.target.weight_vector[:, None] * self.psi_b)
            u, s, _ = np.linalg.svd(r, full_matrices=False)
            u = self.columns.ranges[cols] = u[:, s > _LSTSQ_RCOND * s.max(initial=0.0)]
        return block - u @ (u.T @ block)


def _sq_norms(rows, selected) -> np.ndarray:
    """Squared l2 norm of each selected row, inf for the others: one dot
    product per row of the float64 view, so a row gets the same bits in any
    stack (a complex row's real and imaginary parts interleave in the view)."""
    flat = rows.view(np.float64)
    out = np.vecdot(flat, flat)
    out[~selected] = np.inf
    return out


def _basis(problem: DesignProblem, ar_cols: int, ma_cols: int, columns=None,
           target=None) -> _Basis:
    if target is None:
        target = _Target.of(problem)
    if columns is None:
        columns = _Columns(target.lam)
    psi_q = columns.vandermonde(ma_cols)
    return _Basis(
        psi_p=columns.vandermonde(ar_cols),
        psi_q=psi_q,
        psi_b=psi_q[:, 1:] if problem.constrain_b0_zero else psi_q,
        target=target,
        columns=columns,
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
    """The a0 = 1 least-squares systems of problems on one grid.

    The unknowns are theta = [a_1..a_P; b], with a0 = 1 moved to the right
    side. Systems are stored transposed, so that every elementwise pass runs
    along the grid, and padded to the most unknowns of the stack:
    template[c, :k] holds [diag(h) Psi_P[:, 1:] | -Psi_b].T of problem c with
    k unknowns and target h, and zero rows follow. A solve reads the first k
    rows only. The problems share the mode of their targets; target holds
    their targets (and weights), one row each.
    """

    template: np.ndarray
    target: _Target

    @classmethod
    def build(cls, bases):
        unknowns = [bs.unknowns for bs in bases]
        target = _Target.rows([bs.target for bs in bases])
        template = np.zeros((len(bases), max(unknowns), len(target.lam)),
                            dtype=target.h.dtype)
        for t, k, bs in zip(template, unknowns, bases):
            p = bs.psi_p.shape[1] - 1
            np.multiply(bs.psi_p[:, 1:].T, bs.target.h, out=t[:p])
            np.negative(bs.psi_b.T, out=t[p:k])
        return cls(template, target)

    def fill(self, lhs, rhs, gamma) -> None:
        """Write [G diag(h) Psi_P[:, 1:] | -G Psi_b].T into lhs[c] and -G h into rhs[c].

        G = diag(gamma[c]). A zero row of the padding turns non-finite only
        where gamma is, and then so does the right side.
        """
        np.multiply(gamma[:, None, :], self.template, out=lhs)
        np.negative(np.multiply(gamma, self.target.h, out=rhs), out=rhs)

    def weigh(self, lhs, rhs) -> None:
        """Scale the filled systems by the weights (None for all ones)."""
        w = self.target.weights
        if w is not None:
            lhs *= w[:, None, :]
            rhs *= w

    def finite(self, lhs, rhs) -> list:
        """Whether each filled system is finite."""
        lhs, rhs = lhs.view(np.float64), rhs.view(np.float64)
        if np.isfinite(lhs).all() and np.isfinite(rhs).all():
            return [True] * len(lhs)
        return (np.isfinite(lhs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)).tolist()

    def keep(self, rows):
        return _A0Systems(self.template[rows], self.target.keep(rows))


_ONE, _ZERO = np.ones(1), np.zeros(1)


def _solve_a0(lhs, rhs, problems) -> list:
    """Least squares over a stack of filled and weighted a0 = 1 systems
    with one unknown count, one per problem, in one LAPACK call.

    Returns per system (a, b, rank_deficient), or the LinAlgError its solve
    raised.
    """
    out = []
    for found, problem in zip(_solve_real_lstsq_stack(lhs, rhs), problems):
        if isinstance(found, np.linalg.LinAlgError):
            out.append(found)
            continue
        theta, rank = found
        p = problem.ar_order
        a = np.concatenate((_ONE, theta[:p]))
        b = np.concatenate((_ZERO, theta[p:])) if problem.constrain_b0_zero else theta[p:]
        out.append((a, b, rank < lhs.shape[-1]))
    return out


def _make_report(filt, problem, basis, method, warnings,
                 iterations=0, history=None, converged=True, iterates=()):
    err_true = basis.score(filt.a, filt.b)
    return DesignReport(
        filter=filt,
        rnmse_true=err_true,
        rnmse_modified=modified_error(filt, problem),
        iterations=iterations,
        error_history=tuple(history) if history is not None else (err_true,),
        converged=converged,
        stability=check_stability(filt, problem.grid),
        method=method,
        imag_residue=0.0,
        warnings=tuple(warnings),
        iterate_filters=tuple(iterates),
    )


def prony_ls(problem: DesignProblem) -> DesignReport:
    """Minimize the modified error ||h * a(lambda) - b(lambda)|| with a0 = 1."""
    return _fit_report(PRONY_LS, _ls_fit, problem)


def prony_projection(problem: DesignProblem) -> DesignReport:
    """Two-step design: project out the numerator, then refit it on the true error.

    Step 1 solves for a on the orthogonal complement of the (weighted)
    numerator Vandermonde range; step 2 solves the true-error least squares
    for b with the denominator frozen.
    """
    return _fit_report(PRONY_PROJECTION, _projection_fit, problem)


def _fit_report(method: str, fit, problem: DesignProblem) -> DesignReport:
    basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
    a, b, warnings = fit(problem, basis)
    return _make_report(ArmaFilter(a=a, b=b), problem, basis, method, warnings)


def _ls_fit(problem: DesignProblem, basis: _Basis):
    """The coefficients of prony_ls: (a, b, warnings)."""
    systems = _A0Systems.build([basis])
    lhs, rhs = systems.template, -basis.target.h[None]
    systems.weigh(lhs, rhs)
    (found,) = _solve_a0(lhs.transpose(0, 2, 1), rhs, [problem])
    if isinstance(found, np.linalg.LinAlgError):
        raise found
    a, b, deficient = found
    return a, b, ["rank-deficient"] if deficient else []


def _projection_fit(problem: DesignProblem, basis: _Basis):
    """The coefficients of prony_projection: (a, b, warnings)."""
    w = basis.target.weight_vector
    psi_p, psi_b, h = basis.psi_p, basis.psi_b, basis.target.h

    block_a = basis.project(_real_rows(w[:, None] * (psi_p * h[:, None])))
    theta, rank = _solve_real_lstsq(block_a[:, 1:], -block_a[:, 0])
    a = np.concatenate([[1.0], theta])
    warnings = ["rank-deficient"] if rank < block_a.shape[1] - 1 else []
    alpha = psi_p @ a
    tiny = np.abs(alpha) <= 1e-12 * max(float(np.max(np.abs(alpha))), 1e-30)
    if np.any(tiny):
        alpha = alpha + _RHO * float(np.max(np.abs(alpha)))
        warnings.append("denominator-regularized")
    gamma = 1.0 / alpha
    b_lhs = w[:, None] * (gamma[:, None] * psi_b)
    b_tail, _ = _solve_real_lstsq(b_lhs, w * h)
    b = np.concatenate([[0.0], b_tail]) if problem.constrain_b0_zero else b_tail
    return a, b, warnings


@dataclass
class _Run:
    """One problem's passes: its iterates, the initialization first, and
    their true errors; best is the lowest error and best_pass its first index.
    target_index numbers the run's target within its search table."""

    problem: DesignProblem
    basis: _Basis
    iterates: list
    history: list
    converged: bool
    warnings: set
    error: np.linalg.LinAlgError | None  # raised by a solve; ends the run
    projection: list | None  # the warnings of a prony_projection init
    target_index: int = 0
    best: float = math.inf
    best_pass: int = 0

    @classmethod
    def start(cls, problem: DesignProblem, init: ArmaFilter | None, basis=None,
              target_index: int = 0):
        """A run from init, or from the prony_projection design."""
        if basis is None:
            basis = _basis(problem, problem.ar_order + 1, problem.ma_order + 1)
        projection = None
        if init is None:
            a, b, projection = _projection_fit(problem, basis)
            init = ArmaFilter(a=a, b=b)
        return cls(problem, basis, [(init.a, init.b)], [], False, set(), None,
                   projection, target_index)

    def record(self, error: float) -> None:
        """Append the true error of the latest iterate to the history."""
        if error < self.best:
            self.best, self.best_pass = error, len(self.history)
        self.history.append(error)


def _iterate(runs, tau: int, patience: int | None = None) -> None:
    """Run the passes of iterative_design for several runs in one pass loop.

    The runs' problems share the grid, and their targets the arithmetic and
    whether errors are scored on magnitudes (_Target.mode); targets, weights,
    orders and b0 pins may differ. A run leaves the loop when the
    l2 change of its error vector drops below _DELTA_C, when its system goes
    non-finite, when its solve raises LinAlgError (kept in run.error), or
    after tau passes. Given a patience, a run also leaves, unconverged, once
    that many passes have gone by since its best error. Every rule reads the
    run's own history only, so each run gets exactly what this loop gives it
    alone.

    The weights, the system fill, the finite checks, the scores and the
    error-vector changes run once per pass, on stacked arrays with one row
    per live run. The live runs that share an unknown count are solved in
    one LAPACK call (_solve_a0), which gives each system the bits it gets
    alone. The products alpha = Psi_P a and beta = Psi_Q b run per run, and
    the norms take one dot product per row (_sq_norms), so each run gets the
    bits it would get alone.
    """
    if tau < 1:
        raise ParameterError(f"need at least one iteration, got {tau}")
    stall = math.inf if patience is None else patience
    systems = _A0Systems.build([run.basis for run in runs])
    alpha = np.stack([run.basis.psi_p @ run.iterates[0][0] for run in runs])
    beta = np.stack([run.basis.psi_q @ run.iterates[0][1] for run in runs])
    lhs, rhs = np.empty_like(systems.template), np.empty_like(alpha)
    live = runs  # the runs still iterating, one per row of the stacks
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        err_true, err_prev = systems.target.scores(alpha, beta)
        for run, e in zip(runs, err_true.tolist()):
            run.record(e)
        for _ in range(tau):
            n = len(live)
            rho = _RHO * np.abs(alpha).max(axis=1)
            denom = alpha + rho[:, None]
            if not denom.all():  # a denominator value is exactly zero
                zero = denom == 0.0
                for i in zero.any(axis=1).nonzero()[0]:
                    denom[i] = np.where(zero[i], max(rho[i], 1e-30), denom[i])
                    live[i].warnings.add("denominator-regularized")
            systems.fill(lhs[:n], rhs[:n], np.divide(1.0, denom, out=denom))
            going = systems.finite(lhs[:n], rhs[:n])
            systems.weigh(lhs[:n], rhs[:n])
            by_unknowns = {}
            for i, run in enumerate(live):
                if going[i]:
                    by_unknowns.setdefault(run.basis.unknowns, []).append(i)
                else:
                    run.warnings.add("non-finite-iterate")
            for k, rows in by_unknowns.items():
                found = _solve_a0(lhs[rows, :k].transpose(0, 2, 1), rhs[rows],
                                  [live[i].problem for i in rows])
                for i, solved in zip(rows, found):
                    run = live[i]
                    if isinstance(solved, np.linalg.LinAlgError):
                        run.error = solved
                        going[i] = False
                        continue
                    a, b, deficient = solved
                    if deficient:
                        run.warnings.add("rank-deficient")
                    run.iterates.append((a, b))
                    np.matmul(run.basis.psi_p, a, out=alpha[i])
                    np.matmul(run.basis.psi_q, b, out=beta[i])
            err_true, err_new = systems.target.scores(alpha, beta)
            finite = np.isfinite(err_new.view(np.float64)).all(axis=1)
            delta = np.sqrt(_sq_norms(err_new - err_prev, finite))
            for i, (e, d) in enumerate(zip(err_true.tolist(), delta.tolist())):
                if going[i]:
                    run = live[i]
                    run.record(e)
                    if d < _DELTA_C:
                        run.converged = True
                        going[i] = False
                    elif len(run.history) - 1 - run.best_pass >= stall:
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
    if not math.isfinite(run.best):
        raise InstabilityError(
            "every iterate produced an unstable filter", history=tuple(run.history)
        )
    iterates = [ArmaFilter(a=a, b=b) for a, b in run.iterates]
    return _make_report(
        iterates[run.best_pass], run.problem, run.basis, ITERATIVE, sorted(run.warnings),
        iterations=len(run.history) - 1,
        history=run.history,
        converged=run.converged,
        iterates=iterates,
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
    return _iterative_designs([(problem, init)], tau)[0]


def _iterative_designs(starts, tau: int) -> list:
    """iterative_design(problem, init, tau) of each (problem, init) pair,
    with the passes of all in one pass loop. The problems share the grid and
    their targets' mode (_iterate); each report is the one its problem gets
    alone, and the first problem whose design fails raises what it raises
    alone."""
    runs = [_Run.start(problem, init) for problem, init in starts]
    _iterate(runs, tau)
    reports = []
    for run in runs:
        if run.error is not None:
            raise run.error
        reports.append(_iterative_report(run))
    return reports


def run_method(method: str, problem: DesignProblem) -> DesignReport:
    if method == PRONY_LS:
        return prony_ls(problem)
    if method == PRONY_PROJECTION:
        return prony_projection(problem)
    if method == ITERATIVE:
        return iterative_design(problem)
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
    all splits in one pass loop, stops a split, unconverged, once _PATIENCE
    passes have gone by without a new best error, and reports only the
    winner. Its report is iterative_design's with that stall rule, so it may
    read converged False after fewer than tau iterations.
    """
    return order_search_table(grid, h_hat, [budget], [method], le_budget, tau)[method, budget]


def order_search_table(
    grid: FrequencyGrid,
    h_hat,
    budgets,
    methods,
    le_budget: bool = False,
    tau: int = 50,
):
    """best_order_search at every budget and method, keyed (method, budget).

    h_hat is one target of shape (N,), which gives one table, or a stack of
    targets of shape (T, N), which gives a list of T tables; the targets of
    a stack must share one _Target.mode, or ParameterError is raised before
    any design runs. Each target is validated once, and each split of the
    budgets is designed once per method and target, whatever number of
    budgets it serves: one le_budget search at the largest budget answers
    every smaller one. _table_designs lists every design of every split, and
    each entry is the (error, ar, ma) minimum over the finite designs of its
    method whose ar + ma its budget allows, so it equals best_order_search's
    report: an iterative split stops on its own history alone (_iterate with
    _PATIENCE), which is the same in every search that holds it.
    """
    stacked = np.ndim(h_hat) == 2
    budgets = list(dict.fromkeys(budgets))
    sums = {}
    for k in budgets:
        sums[k] = {p + q for p, q in order_candidates(k, le_budget) if p + q + 1 <= grid.n}
        if not sums[k]:
            raise ParameterError(f"no feasible orders for budget {k} on {grid.n} points")
    for method in methods:
        if method not in METHODS:
            raise ParameterError(f"unknown design method {method!r}")
    problems = [DesignProblem(grid=grid, h_hat=h, ar_order=0, ma_order=0)
                for h in (h_hat if stacked else [h_hat])]
    totals = sorted(set().union(*sums.values()))
    splits = [(p, total - p) for total in totals for p in range(total + 1)]
    tables = []
    for designs in _table_designs(problems, splits, methods, tau):
        table = {}
        for k in budgets:
            for method in methods:
                found = [d for d in designs if d[3] == method and d[1] + d[2] in sums[k]
                         and math.isfinite(d[0])]
                if not found:
                    raise InstabilityError(f"every order candidate failed for budget {k}")
                table[method, k] = min(found, key=lambda d: d[:3])[4]()
        tables.append(table)
    return tables if stacked else tables[0]


def _table_designs(problems, splits, methods, tau: int) -> list:
    """Per target problem, one list of (true RNMSE, ar, ma, method, report
    maker) over every design of every split by every method; a split whose
    design fails leaves no entry for that method.

    The targets must share one _Target.mode. prony-ls is fitted split by
    split. prony-projection is the initialization of each split's _Run,
    scored with its history[0] when the iterative passes run, and the
    iterative runs of every split and target share one pass loop. The
    Vandermonde columns and the orthonormal bases of the numerator ranges
    that prony-projection projects out are built once for all targets.
    """
    targets = [_Target.of(problem) for problem in problems]
    if len({target.mode for target in targets}) > 1:
        raise ParameterError("the targets of a search table must all be real or all "
                             "complex, and all scored on magnitudes or none")
    columns = _Columns(targets[0].lam) if targets else None  # a (0, N) stack has none
    designs = [[] for _ in problems]
    runs = []
    for t, (problem, target) in enumerate(zip(problems, targets)):
        for p, q in splits:
            split = problem._at_orders(p, q)
            basis = _basis(split, p + 1, q + 1, columns, target)
            if PRONY_LS in methods:
                try:
                    a, b, warnings = _ls_fit(split, basis)
                except (InstabilityError, np.linalg.LinAlgError):
                    pass
                else:
                    designs[t].append((basis.score(a, b), p, q, PRONY_LS, partial(
                        _make_report, ArmaFilter(a=a, b=b), split, basis, PRONY_LS, warnings)))
            if ITERATIVE in methods or PRONY_PROJECTION in methods:
                try:
                    runs.append(_Run.start(split, None, basis, t))
                except (InstabilityError, np.linalg.LinAlgError):
                    continue
    if ITERATIVE in methods and runs:
        _iterate(runs, tau, _PATIENCE)
    for run in runs:
        found, orders = designs[run.target_index], _orders(run.problem)
        if ITERATIVE in methods and run.error is None:
            found.append((run.best, *orders, ITERATIVE, partial(_iterative_report, run)))
        if PRONY_PROJECTION in methods:
            init = ArmaFilter(*run.iterates[0])
            err = run.history[0] if run.history else run.basis.score(init.a, init.b)
            found.append((err, *orders, PRONY_PROJECTION, partial(
                _make_report, init, run.problem, run.basis, PRONY_PROJECTION, run.projection)))
    return designs


def _orders(problem: DesignProblem):
    return problem.ar_order, problem.ma_order
