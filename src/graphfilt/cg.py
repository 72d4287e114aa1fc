"""Matrix-free conjugate-gradient application of ARMA filters.

The solver runs the textbook CG recursion on P y = z without materializing
P: every P-product is a cascade of shift applications, so the cost model is
O((P T + Q) E) for T iterations. Non-symmetric operators are handled by an
automatic normal-equations fallback, recorded in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arma import ArmaFilter
from .errors import DimensionError, DivergenceError, ParameterError
from .fir import poly_apply
from .graphs import ShiftOperator, is_symmetric

_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_STREAK = 5


@dataclass(frozen=True)
class CgConfig:
    """Termination settings: relative residual tolerance and iteration cap."""

    epsilon: float = 1e-3
    max_iterations: int = 200
    y0: np.ndarray | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ParameterError(f"need at least one iteration, got {self.max_iterations}")


@dataclass
class CgTrace:
    """Solve diagnostics: residual-norm history and shift-application count."""

    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    shift_applications: int = 0
    normal_equations: bool = False
    converged: bool = False


def cg_solve(apply_op, rhs, cfg: CgConfig, trace: CgTrace | None = None, residual0=None):
    """Conjugate gradient on apply_op(y) = rhs.

    rhs of shape (n,) is one system, and the trace (trace when given, else a
    new one) comes back with y. rhs of shape (n, m) holds m systems in
    columns, apply_op maps an (n, m) block to an (n, m) block column by
    column, and a list of m traces comes back, one per column; trace must
    then be None. Each column runs its own recursion: its own step sizes,
    stop test, zero-curvature break and divergence streak. A column that has
    stopped is frozen and leaves the working arrays, which hold one system
    per contiguous row, so each dot product is one BLAS dot and the updates
    are elementwise: a column gets the y, iterations, residual history and
    converged flag of its system solved alone, given an apply_op that gives
    each column of a block the bits it gives that column alone.

    residual0, when given, is the precomputed initial residual (used by the
    normal-equations path, whose residual is cheaper to form directly).
    A column stops at the iteration cap, when its squared residual falls to
    epsilon^2 times its initial value, or when its curvature d^T P d is
    zero. Raises DivergenceError, with the trace of the first column at
    fault, when a residual norm stays a factor of 10 above its initial
    value for five consecutive iterations.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim == 1:
        traces = [CgTrace() if trace is None else trace]

        def apply_rows(v):
            return apply_op(v[0])[None]
    elif rhs.ndim == 2 and trace is None:
        traces = [CgTrace() for _ in range(rhs.shape[1])]

        def apply_rows(v):
            return np.ascontiguousarray(apply_op(v.T).T)
    else:
        raise DimensionError("need one right-hand side, or a block of them without a trace")
    y = np.zeros(rhs.shape) if cfg.y0 is None else np.asarray(cfg.y0, dtype=float)
    if y.shape != rhs.shape:
        raise DimensionError("initial guess length does not match right-hand side")
    # every array below holds one system per row: (m, n)
    y = np.array(y.T, order="C", ndmin=2)
    if residual0 is None:
        r = np.array(rhs.T, order="C", ndmin=2) - apply_rows(y)
    else:
        r = np.array(np.asarray(residual0, dtype=float).T, order="C", ndmin=2)
    d = r.copy()
    delta = np.vecdot(r, r)
    # per column, as Python floats: the stop and divergence thresholds, and
    # the last squared residual
    tolerance = (cfg.epsilon**2 * delta).tolist()
    blowup = ((_DIVERGENCE_FACTOR**2) * delta).tolist()
    last = delta.tolist()
    streak = [0] * len(traces)
    for t, delta_j in zip(traces, last):
        t.residual_norms.append(math.sqrt(delta_j))

    y_all, d_all = y, d  # all columns; y, r, d and delta hold the live ones
    live = list(range(len(traces)))
    keep = [j for j in live if last[j] > tolerance[j]]
    if len(keep) < len(live):
        live, (y, r, d, delta) = _freeze(y_all, live, keep, y, r, d, delta)
    i = 0
    while i < cfg.max_iterations and live:
        if d is d_all:
            p_d = apply_rows(d)
        else:
            d_all[live] = d
            p_d = apply_rows(d_all)[live]
        curvature = np.vecdot(d, p_d)
        if 0.0 in curvature.tolist():  # d^T P d = 0: those columns stop here
            live, (y, r, d, delta, p_d, curvature) = _freeze(
                y_all, live, np.flatnonzero(curvature).tolist(), y, r, d, delta, p_d, curvature)
            if not live:
                break
        omega = (delta / curvature)[:, None]
        y += omega * d
        r -= omega * p_d
        delta_next = np.vecdot(r, r)
        d *= (delta_next / delta)[:, None]
        d += r
        delta = delta_next
        i += 1
        keep = []
        for k, (j, delta_j) in enumerate(zip(live, delta.tolist())):
            t = traces[j]
            t.iterations = i
            t.residual_norms.append(math.sqrt(delta_j))
            last[j] = delta_j
            streak[j] = streak[j] + 1 if delta_j > blowup[j] else 0
            if streak[j] >= _DIVERGENCE_STREAK:
                raise DivergenceError(
                    f"residual stayed {_DIVERGENCE_FACTOR:.0f}x above initial for "
                    f"{_DIVERGENCE_STREAK} iterations",
                    trace=t,
                )
            if delta_j > tolerance[j]:
                keep.append(k)
        if len(keep) < len(live):
            live, (y, r, d, delta) = _freeze(y_all, live, keep, y, r, d, delta)
    if y is not y_all:
        y_all[live] = y
    for t, delta_j, tol in zip(traces, last, tolerance):
        t.converged = delta_j <= tol
    if rhs.ndim == 1:
        return y_all[0], traces[0]
    return np.ascontiguousarray(y_all.T), traces


def _freeze(y_all, live: list, keep: list, y, *arrays):
    """Stop the live columns whose positions are not in keep: their y goes
    into y_all, and the rest's column numbers and rows of y and arrays come
    back."""
    if y is not y_all:
        y_all[live] = y
    return [live[k] for k in keep], [y[keep]] + [a[keep] for a in arrays]


def arma_apply_cg(filt: ArmaFilter, op: ShiftOperator, x, cfg: CgConfig):
    """Apply an ARMA filter through Algorithm-1-style conjugate gradient.

    Computes z from the numerator matrix-free, then solves the AR system.
    If the shift operator is not symmetric the solver switches to the
    normal equations P^T P y = P^T z and notes it in the trace. Shift
    applications are counted exactly: the numerator costs ma_order, the
    initialization ar_order, and every iteration ar_order (both doubled in
    normal-equations mode).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (op.n,):
        raise DimensionError(f"signal length {x.shape} does not match n={op.n}")
    trace = CgTrace()

    def apply_p(v):
        trace.shift_applications += filt.ar_order
        return poly_apply(filt.a, op, v)

    def apply_pt(v):
        trace.shift_applications += filt.ar_order
        return poly_apply(filt.a, op, v, transpose=True)

    z = poly_apply(filt.b, op, x)
    trace.shift_applications += filt.ma_order

    if is_symmetric(op):
        y, trace = cg_solve(apply_p, z, cfg, trace)
    else:
        trace.normal_equations = True
        y0 = np.zeros_like(z) if cfg.y0 is None else np.asarray(cfg.y0, dtype=float)
        r0 = apply_pt(z - apply_p(y0))
        y, trace = cg_solve(
            lambda v: apply_pt(apply_p(v)), z, cfg, trace, residual0=r0
        )
    return y, trace


def trace_to_csv(trace: CgTrace, path) -> None:
    """Write the residual history as the bytes csv.writer writes for the rows
    [i, repr(r)] under the header `iter,residual_norm`."""
    text = "iter,residual_norm\r\n" + "".join(
        f"{i},{r!r}\r\n" for i, r in enumerate(trace.residual_norms))
    with open(path, "w", newline="") as fh:
        fh.write(text)
