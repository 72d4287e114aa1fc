"""Matrix-free conjugate-gradient application of ARMA filters.

The solver runs the textbook CG recursion on P y = z without materializing
P: every P-product is a cascade of shift applications, so the cost model is
O((P T + Q) E) for T iterations. Non-symmetric operators are handled by an
automatic normal-equations fallback, recorded in the trace.
"""

from __future__ import annotations

import csv
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

    residual0, when given, is the precomputed initial residual (used by the
    normal-equations path, whose residual is cheaper to form directly).
    Stops at the iteration cap or when the squared residual falls to
    epsilon^2 times its initial value. Raises DivergenceError when the
    residual norm stays a factor of 10 above its initial value for five
    consecutive iterations.
    """
    rhs = np.asarray(rhs, dtype=float)
    if trace is None:
        trace = CgTrace()
    y = np.zeros_like(rhs) if cfg.y0 is None else np.asarray(cfg.y0, dtype=float).copy()
    if y.shape != rhs.shape:
        raise DimensionError("initial guess length does not match right-hand side")

    r = (rhs - apply_op(y)) if residual0 is None else np.asarray(residual0, dtype=float)
    d = r.copy()
    delta0 = delta_new = float(r @ r)
    trace.residual_norms.append(float(np.sqrt(delta_new)))
    if delta0 == 0.0:
        trace.converged = True
        return y, trace

    streak = 0
    i = 0
    while i < cfg.max_iterations and delta_new > cfg.epsilon**2 * delta0:
        p_d = apply_op(d)
        curvature = float(d @ p_d)
        if curvature == 0.0:
            break
        omega = delta_new / curvature
        y = y + omega * d
        r = r - omega * p_d
        delta_old = delta_new
        delta_new = float(r @ r)
        d = r + (delta_new / delta_old) * d
        i += 1
        trace.iterations = i
        trace.residual_norms.append(float(np.sqrt(delta_new)))
        if delta_new > (_DIVERGENCE_FACTOR**2) * delta0:
            streak += 1
            if streak >= _DIVERGENCE_STREAK:
                raise DivergenceError(
                    f"residual stayed {_DIVERGENCE_FACTOR:.0f}x above initial for "
                    f"{_DIVERGENCE_STREAK} iterations",
                    trace=trace,
                )
        else:
            streak = 0
    trace.converged = delta_new <= cfg.epsilon**2 * delta0
    return y, trace


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual_norm"])
        for i, r in enumerate(trace.residual_norms):
            writer.writerow([i, repr(r)])
