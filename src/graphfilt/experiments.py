"""Experiment pipelines: interpolation, compression, prediction, and the
universal-design study, on seeded synthetic data.

Signals come from a seeded generator that shapes white noise with a low-pass
spectral profile. Each study runs at the fixed settings below; only the
sweep values, the trial count and the seed are parameters.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csgraph

from .arma import ArmaFilter, _DirectSolver, _denominator, arma_response
from .cg import CgConfig, cg_solve
from .design import (
    ITERATIVE,
    DesignProblem,
    DesignReport,
    _iterative_designs,
    best_order_search,
    ideal_lowpass,
    iterative_design,
    order_search_table,
    prony_ls,
    rnmse,
)
from .errors import (
    DimensionError,
    InstabilityError,
    ParameterError,
    SingularSystemError,
)
from .fir import fir_apply, fir_design, fir_response, poly_apply
from .graphs import (
    NORMALIZED_ADJACENCY,
    NORMALIZED_LAPLACIAN,
    ShiftOperator,
    build_er_graph,
    build_knn_directed,
    normalize,
    shift_apply,
    symmetrize_max,
)
from .spectral import (
    COMPLEX_DISC,
    UNIFORM_REAL,
    SpectralDecomposition,
    complex_disc_grid,
    eigendecompose,
    gft,
    igft,
    order_frequencies,
    spectrum_grid,
    uniform_real_grid,
)

# Synthetic signals: share of frequencies the "mask" profile keeps, and
# the rate and floor of the "decay" profile.
_KEEP_FRAC = 0.25
_DECAY = 4.0
_FLOOR = 0.02
# Geometric graphs: node count, k-NN degree, side of the coordinate box.
_GRAPH_NODES = 32
_GRAPH_NEIGHBORS = 6
_GRAPH_BOX = 3.0
# Iterative-design passes of one prediction and of one compression candidate.
_PREDICT_TAU = 20
# the predictions run in batches that share one pass loop, as many as hold
# 2^18 a(S) entries (2 MB) at _PREDICT_TAU + 1 each: 12 on the studies'
# 32-node graph; the pass loop and the held candidates grow with a batch
_PREDICT_STACK_FLOATS = 2**18
_COMPRESS_TAU = 12
# Low-pass cutoff and ER(n, p) graphs of the universal and budgeted-CG
# studies, and the budgeted-CG design grid size.
_CUTOFF = 1.0
_GRID_POINTS = 100
_ER_NODES = 100
_ER_P = 0.1
# Interpolation: prior weights, noise variance, CG settings.
_OMEGAS = (1.0, 2.0)
_NOISE_VARIANCE = 1e-2
_INTERPOLATION_CG = CgConfig(epsilon=1e-2, max_iterations=20)
# Budgeted CG study: shift budget, CG tolerance, largest AR order, count of
# seeded white inputs for selection and again for evaluation, seed.
_CG_BUDGET = 16
_CG_EPSILON = 1e-3
_CG_MAX_AR = 3
_CG_INPUTS = 10
_CG_SEED = 7


# ---------------------------------------------------------------------------
# Synthetic signals
# ---------------------------------------------------------------------------


def _shared_rank(dec: SpectralDecomposition, op_kind: str) -> np.ndarray:
    """Low-to-high frequency rank, shared across conjugate pairs."""
    from .spectral import pair_conjugates

    order = order_frequencies(dec, op_kind)
    rank = np.empty(dec.n, dtype=int)
    rank[order] = np.arange(dec.n)
    pair, _ = pair_conjugates(dec.lambdas)
    return np.minimum(rank, rank[pair])


def smooth_signal(
    dec: SpectralDecomposition,
    op_kind: str,
    rng: np.random.Generator,
    profile: str = "mask",
) -> np.ndarray:
    """White noise shaped by a low-pass spectral profile; unit RMS per node.

    profile="mask" keeps the lowest _KEEP_FRAC of the ordered frequencies
    (whole conjugate pairs); profile="decay" applies exp(-_DECAY * rank / n)
    with a broadband floor, which keeps residual-based pipelines away from
    exactly representable signals.
    """
    return _shaped_signal(dec, _shared_rank(dec, op_kind), rng, profile)


def _shaped_signal(dec: SpectralDecomposition, rank, rng, profile: str = "mask"):
    """smooth_signal with the frequency rank of dec computed once by the
    caller, for a study that draws many signals on one decomposition."""
    n = dec.n
    if profile == "mask":
        keep = max(1, round(_KEEP_FRAC * n))
        envelope = (rank < keep).astype(float)
    elif profile == "decay":
        envelope = np.maximum(np.exp(-_DECAY * rank / n), _FLOOR)
    else:
        raise ParameterError(f"unknown spectral profile {profile!r}")
    noise = rng.standard_normal(n)
    x = igft(dec, gft(dec, noise) * envelope)
    x = x.real
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ParameterError("spectral profile annihilated the signal")
    return x / norm * math.sqrt(n)


def experiment_graphs(seed: int = 42):
    """Seeded geometric graphs used across the application pipelines.

    Returns (directed kNN graph, its max-symmetrized undirected version);
    random coordinates are drawn uniformly in a box whose side keeps the
    Gaussian edge weights well spread.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((_GRAPH_NODES, 2)) * _GRAPH_BOX
    directed = build_knn_directed(coords, _GRAPH_NEIGHBORS)
    return directed, symmetrize_max(directed)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationTask:
    """Diagonal known-value mask plus the smoothness-prior weight."""

    mask: np.ndarray
    omega: float

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "mask", mask)
        if not np.any(mask):
            raise ParameterError("at least one entry must be known")
        if not self.omega > 0.0:
            raise ParameterError(f"prior weight must be positive, got {self.omega}")


def interpolate(
    op: ShiftOperator,
    x_observed,
    task: InterpolationTask,
    cg: CgConfig,
):
    """Reconstruct a partially observed smooth signal.

    Solves (T + omega L) x = T x' matrix-free with conjugate gradient. The
    system is symmetric positive definite as long as every connected
    component contains a known value, which is checked up front.
    """
    if op.kind != NORMALIZED_LAPLACIAN:
        raise ParameterError("interpolation expects a normalized-laplacian operator")
    x_observed = np.asarray(x_observed, dtype=float)
    if x_observed.shape != (op.n,):
        raise DimensionError(f"signal length {x_observed.shape} does not match n={op.n}")
    if task.mask.shape != (op.n,):
        raise DimensionError("mask length does not match the graph")

    n_comp, labels = csgraph.connected_components(op.matrix, directed=False)
    for comp in range(n_comp):
        if not np.any(task.mask[labels == comp]):
            raise SingularSystemError(f"component {comp} has no observed node")
    return _interpolation_solve(op, x_observed, task.mask, task.omega, cg)


def _interpolation_solve(op: ShiftOperator, x_observed, mask, omega: float, cg):
    """The CG solve of interpolate for masks that observe every component:
    one signal and its mask, or a block of signals in columns with a mask
    per column, solved in one cg_solve call."""
    mask = mask.astype(float)

    def apply_system(v):
        return mask * v + omega * shift_apply(op, v)

    return cg_solve(apply_system, mask * x_observed, cg)


# ---------------------------------------------------------------------------
# Residual quantization and prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizedResidual:
    """Fixed-budget quantization: 1 sign bit, b_int integer bits, rest fraction."""

    total_bits: int
    integer_bits: int
    step: float
    values: np.ndarray


def _check_bits(total_bits: int) -> None:
    # beyond 1024 bits, r / step overflows for a peak |r| that is a power of two
    if not 3 <= total_bits <= 1024:
        bound = "at least 3" if total_bits < 3 else "at most 1024"
        raise ParameterError(f"need a bit budget of {bound} bits, got {total_bits}")


# the largest integer part a format may have: 2.0**1024 overflows a float
_MAX_INTEGER_BITS = 1023


def quantize_residual(residual, total_bits: int) -> QuantizedResidual:
    """Quantize a residual with a total bit budget.

    One bit is spent on the sign, ceil(log2(max |r|)) on the integer part
    (never negative), and the remainder on the fraction; values round half
    to even and clamp at the largest representable magnitude. A residual
    with a non-finite entry, or whose peak magnitude is 2^1023 or more, has
    no such format and raises ParameterError.
    """
    _check_bits(total_bits)
    r = np.asarray(residual, dtype=float)
    values, formats = _quantize_rows(r.reshape(1, r.size), total_bits)
    if isinstance(formats[0], ParameterError):
        raise formats[0]
    integer_bits, step = formats[0]
    return QuantizedResidual(
        total_bits=total_bits, integer_bits=integer_bits, step=step,
        values=values.reshape(r.shape),
    )


def _quantize_rows(residuals, total_bits: int):
    """quantize_residual of each row of a (C, n) stack, with its bits:
    (values, formats), formats[c] holding row c's (integer_bits, step) or
    the ParameterError quantize_residual raises for it, in which case the
    row's values are zeros."""
    formats = []
    for peak in np.abs(residuals).max(axis=1, initial=0.0).tolist():
        if not math.isfinite(peak):
            formats.append(ParameterError(f"residual peak {peak} is not finite"))
        elif peak >= 2.0**_MAX_INTEGER_BITS:
            formats.append(ParameterError(
                f"residual peak {peak:.3e} is beyond the quantizer's range"))
        else:
            integer_bits = max(0, math.ceil(math.log2(peak))) if peak > 0.0 else 0
            formats.append((integer_bits, 2.0 ** (-(total_bits - integer_bits - 1))))
    scales = [(f[1], 2.0 ** f[0] - f[1]) if isinstance(f, tuple) else (1.0, 0.0)
              for f in formats]
    step, limit = np.reshape(scales, (-1, 2)).T[:, :, None]
    values = np.clip(np.round(residuals / step) * step, -limit, limit)
    values[[isinstance(f, ParameterError) for f in formats]] = 0.0
    return values, formats


def _row_rnmse(estimates, references) -> np.ndarray:
    """rnmse of each row of estimates against its row of references, the
    two broadcast together, with rnmse's bits: both norms take one BLAS dot
    per contiguous row, as np.linalg.norm does for one vector (a strided row
    would sum in another order). Non-finite values give non-finite errors
    without a warning."""
    references = np.ascontiguousarray(references)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.ascontiguousarray(estimates - references)
        return np.sqrt(np.vecdot(dev, dev)) / np.sqrt(np.vecdot(references, references))


@dataclass(frozen=True)
class PredictionResult:
    filter: ArmaFilter
    reconstructed: np.ndarray
    rnmse: float
    residual: np.ndarray
    quantized: QuantizedResidual
    iterate_index: int


def _backward_coefficients(a, b) -> np.ndarray:
    """a - b, padded to the longer of the two: the denominator of the
    backward filter (a - b, a), which applies (I - g(S))^{-1}, for one
    filter or for coefficient rows of several."""
    c = np.zeros(a.shape[:-1] + (max(a.shape[-1], b.shape[-1]),))
    c[..., : a.shape[-1]] += a
    c[..., : b.shape[-1]] -= b
    return c


def predict(
    op: ShiftOperator,
    x,
    ar_order: int,
    ma_order: int,
    bits: int,
) -> PredictionResult:
    """Linear prediction with residual quantization.

    Designs an all-pass filter weighted by the signal spectrum (first MA
    coefficient pinned to zero to rule out the identity), quantizes the
    vertex-domain residual, and reconstructs through the backward filter.
    The reported filter is the design iterate whose quantized reconstruction
    error is smallest: the true-error minimizer is degenerate for this
    problem, since inflating all coefficients drives the design error to
    zero while the backward filter blows up.
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=float)
    predictor = _Predictor(op)
    ((found,),) = predictor.best(predictor.candidates([(x, ar_order, ma_order)]), [bits])
    return found


@dataclass(frozen=True)
class _Candidates:
    """The design iterates of one prediction whose forward system solves,
    one row each: index holds their positions in iterates, a their
    denominators, residual x - a(S)^{-1} b(S) x, and back the coefficients
    a - b of the backward filters' denominators."""

    x: np.ndarray
    iterates: tuple
    index: np.ndarray
    a: np.ndarray
    residual: np.ndarray
    back: np.ndarray


class _Predictor:
    """What the predictions on one operator share: its spectrum, and the
    shift powers that every a(S) of the direct solves is summed from.

    The predictions asked of it share one pass loop; each then solves its
    forward systems in one stack and its backward systems, for every bit
    budget, in another, so every candidate gets the bits its own design,
    solves and quantization give it. results runs them over batches, so
    that memory stays bounded however many predictions there are."""

    def __init__(self, op: ShiftOperator):
        self.dec = eigendecompose(op)
        self.grid = spectrum_grid(self.dec)
        self.solver = _DirectSolver(op)

    def results(self, jobs, bit_values):
        """Yield best(candidates(...), bit_values) job by job, run over
        batches of the jobs that share one pass loop, as many as fit
        _PREDICT_STACK_FLOATS a(S) entries at _PREDICT_TAU + 1 each."""
        size = max(1, _PREDICT_STACK_FLOATS // ((_PREDICT_TAU + 1) * self.solver.op.n**2))
        for start in range(0, len(jobs), size):
            yield from self.best(self.candidates(jobs[start:start + size]), bit_values)

    def candidates(self, jobs) -> list:
        """The _Candidates of each (x, ar_order, ma_order) job. An iterate
        whose forward system is singular is left out."""
        problems = [
            DesignProblem(
                grid=self.grid,
                h_hat=np.ones(self.grid.n, dtype=complex),
                ar_order=ar_order,
                ma_order=ma_order,
                weights=np.abs(gft(self.dec, x)),
                constrain_b0_zero=True,
            )
            for x, ar_order, ma_order in jobs
        ]
        reports = _iterative_designs([(p, None) for p in problems], _PREDICT_TAU)
        out = []
        for (x, _, _), report in zip(jobs, reports):
            a = np.array([f.a for f in report.iterate_filters])
            b = np.array([f.b for f in report.iterate_filters])
            forward, solved = self.solver.solve_each(
                self.solver.ar_matrix(a), self.solver.numerators(b, x))
            keep = np.flatnonzero(solved)
            out.append(_Candidates(
                x=x, iterates=report.iterate_filters, index=keep, a=a[keep],
                residual=x - forward[keep], back=_backward_coefficients(a[keep], b[keep]),
            ))
        return out

    def best(self, candidates, bit_values) -> list:
        """Per _Candidates, per bit budget, the PredictionResult of the
        candidate whose quantized reconstruction is best: the first with the
        lowest finite RNMSE. A candidate whose residual cannot be quantized
        or whose backward system is singular is skipped; SingularSystemError
        when none is left."""
        if not bit_values:
            return [[] for _ in candidates]
        out = []
        for cands in candidates:
            found = [_quantize_rows(cands.residual, bits) for bits in bit_values]
            z = self.solver.numerators(np.tile(cands.a, (len(bit_values), 1)),
                                       np.concatenate([v for v, _ in found]))
            x_tilde, solved = self.solver.solve_each(
                self.solver.ar_matrix(cands.back)[:, None],
                z.reshape(len(bit_values), *cands.residual.shape).swapaxes(0, 1),
            )
            errs = _row_rnmse(x_tilde, cands.x)
            results = []
            for b, (bits, (values, formats)) in enumerate(zip(bit_values, found)):
                err = errs[:, b]
                usable = solved[:, b] & np.isfinite(err)
                usable &= [not isinstance(f, ParameterError) for f in formats]
                if not usable.any():
                    raise SingularSystemError(
                        "no design iterate produced a solvable backward filter")
                i = int(np.argmin(np.where(usable, err, np.inf)))
                integer_bits, step = formats[i]
                idx = int(cands.index[i])
                results.append(PredictionResult(
                    filter=cands.iterates[idx],
                    reconstructed=x_tilde[i, b].copy(),
                    rnmse=float(err[i]),
                    residual=cands.residual[i].copy(),
                    quantized=QuantizedResidual(
                        total_bits=bits, integer_bits=integer_bits, step=step,
                        values=values[i].copy(),
                    ),
                    iterate_index=idx,
                ))
            out.append(results)
        return out


# ---------------------------------------------------------------------------
# Compression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionResult:
    filter: ArmaFilter
    reconstructed: np.ndarray
    rnmse: float
    report: DesignReport


def compress(
    op: ShiftOperator,
    x,
    budget: int,
    le_budget: bool = True,
) -> CompressionResult:
    """Fit a rational filter to the signal spectrum and keep the coefficients.

    The GFT of the signal is the design target on the true spectrum grid;
    reconstruction evaluates the fitted response at the graph frequencies
    and transforms back. le_budget searches every split with ar+ma <= budget
    (nested candidate sets keep the error monotone in the budget).
    """
    x = np.asarray(x, dtype=float)
    dec = eigendecompose(op)
    grid = spectrum_grid(dec)
    report = best_order_search(
        grid, gft(dec, x), budget, ITERATIVE, le_budget=le_budget, tau=_COMPRESS_TAU
    )
    return _compression(dec, grid, x, report)


def _compression(dec, grid, x, report: DesignReport) -> CompressionResult:
    """Reconstruct x from the design that fits its spectrum."""
    x_tilde = igft(dec, arma_response(report.filter, grid)).real
    return CompressionResult(
        filter=report.filter,
        reconstructed=x_tilde,
        rnmse=rnmse(x_tilde, x),
        report=report,
    )


def compress_fir(op: ShiftOperator, x, order: int):
    """FIR benchmark for compression: fit the spectrum with a polynomial
    over real coefficients through fir_design, which needs order + 1 graph
    frequencies at least."""
    x = np.asarray(x, dtype=float)
    dec = eigendecompose(op)
    return _fir_compression(dec, spectrum_grid(dec), x, order)


def _fir_compression(dec, grid, x, order: int):
    filt = fir_design(grid, gft(dec, x), order).filter
    x_tilde = igft(dec, fir_response(filt, grid)).real
    return filt, x_tilde, rnmse(x_tilde, x)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    experiment: str
    k: int
    ar_order: int
    ma_order: int
    method: str
    values: tuple
    seed: int

    def __post_init__(self):
        if not self.values:
            raise ParameterError(f"{self.experiment} K={self.k}: no trials to average")

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["experiment", "K", "P", "Q", "method", "rnmse_mean", "rnmse_std", "seed"]
            )
            for row in sorted(
                self.rows, key=lambda r: (r.experiment, r.k, r.method, r.ar_order)
            ):
                writer.writerow(
                    [
                        row.experiment,
                        row.k,
                        row.ar_order,
                        row.ma_order,
                        row.method,
                        repr(row.mean),
                        repr(row.std),
                        row.seed,
                    ]
                )


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

_STUDY_METHODS = ("fir", "prony-ls", "prony-projection", "iterative")


def universal_study(
    grid_kind: str,
    n_points: int,
    k_values,
    methods=_STUDY_METHODS,
    er_trials: int = 20,
    seed: int = 0,
) -> ExperimentReport:
    """RNMSE-versus-order curves for the ideal low-pass design task.

    grid_kind selects the uniform real grid, the complex disc grid, or
    averaged Erdos-Renyi graph spectra ("er-spectrum"). ARMA methods search
    the (ar, ma) split of each budget; FIR uses the budget as its order.
    A single grid reports the chosen orders; averaged spectra report -1.
    """
    if grid_kind == UNIFORM_REAL:
        grids = [uniform_real_grid(n_points)]
    elif grid_kind == COMPLEX_DISC:
        grids = [complex_disc_grid(n_points)]
    elif grid_kind == "er-spectrum":
        grids = [
            spectrum_grid(eigendecompose(normalize(
                build_er_graph(_ER_NODES, _ER_P, seed + t), NORMALIZED_LAPLACIAN
            )))
            for t in range(er_trials)
        ]
    else:
        raise ParameterError(f"unknown study grid kind {grid_kind!r}")
    averaged = grid_kind == "er-spectrum"
    experiment = grid_kind if averaged else f"universal-{grid_kind}"
    arma_methods = [method for method in methods if method != "fir"]
    fits = []  # per grid: {(method, k): (rnmse, ar, ma)}
    for grid in grids:
        h = ideal_lowpass(grid, _CUTOFF)
        table = order_search_table(grid, h, k_values, arma_methods)
        fit = {key: (rep.rnmse_true, rep.filter.ar_order, rep.filter.ma_order)
               for key, rep in table.items()}
        if "fir" in methods:
            fit.update({("fir", k): (fir_design(grid, h, k).rnmse, k, 0) for k in k_values})
        fits.append(fit)
    rows = []
    for k in k_values:
        for method in methods:
            fits_k = [fit[method, k] for fit in fits]
            p, q = (-1, -1) if averaged else fits_k[0][1:]
            rows.append(
                ReportRow(
                    experiment=experiment, k=k, ar_order=p, ma_order=q, method=method,
                    values=tuple(err for err, _, _ in fits_k), seed=seed,
                )
            )
    return ExperimentReport(rows=tuple(rows))


@dataclass(frozen=True)
class BudgetedCgResult:
    """Implementation-budget comparison of CG-applied ARMA against FIR."""

    fir_rnmse: float
    arma_rnmse: float
    ar_order: int
    ma_order: int
    cg_iterations: int
    candidate: str


def budgeted_cg_study() -> BudgetedCgResult:
    """Match FIR(K) and CG-applied ARMA at the same shift budget K = _CG_BUDGET.

    Both filters are designed universally for the ideal low-pass response.
    The ARMA side may spend its budget on any (ar, ma) split with
    ar * T + ma <= K conjugate-gradient iterations; candidate coefficient
    sets come from both Prony methods and every iterate of the iterative
    design, selected on held-out white inputs, warm-started at z. The score
    is the RNMSE between the filter output and the ideally filtered input,
    averaged over seeded white signals on an ER(100, 0.1) Laplacian.
    """
    budget = _CG_BUDGET
    rng = np.random.default_rng(_CG_SEED)
    graph = build_er_graph(_ER_NODES, _ER_P, _CG_SEED)
    op = normalize(graph, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    h_graph = ideal_lowpass(spectrum_grid(dec), _CUTOFF).real

    xs_sel = [rng.standard_normal(_ER_NODES) for _ in range(_CG_INPUTS)]
    xs_eval = [rng.standard_normal(_ER_NODES) for _ in range(_CG_INPUTS)]

    def output_rnmse(y, x):
        target = h_graph * gft(dec, x).real
        return rnmse(gft(dec, y).real, target)

    grid = uniform_real_grid(_GRID_POINTS)
    h = ideal_lowpass(grid, _CUTOFF)

    fir = fir_design(grid, h, budget).filter
    fir_score = float(np.mean([output_rnmse(fir_apply(fir, op, x), x) for x in xs_eval]))

    def cg_score(filt: ArmaFilter, iterations: int, inputs) -> float:
        vals = []
        for x in inputs:
            z = poly_apply(filt.b, op, x)
            y, _ = cg_solve(
                lambda v, a=filt.a: poly_apply(a, op, v),
                z,
                CgConfig(epsilon=_CG_EPSILON, max_iterations=iterations, y0=z),
            )
            vals.append(output_rnmse(y, x))
        return float(np.mean(vals))

    def denominator_positive(filt: ArmaFilter) -> bool:
        # plain CG needs a positive-definite system, so the denominator must
        # be positive on the operator's spectrum; this checks it only at the
        # _GRID_POINTS design-grid points, not between them
        return bool(np.all(_denominator(filt, grid).real > 0.0))

    best = None
    for p in range(1, _CG_MAX_AR + 1):
        for q in range(0, budget - p + 1):
            iterations = (budget - q) // p
            for tag, filt in _budget_candidates(grid, h, p, q):
                if not denominator_positive(filt):
                    continue
                score = cg_score(filt, iterations, xs_sel)
                if not math.isfinite(score):
                    continue
                if best is None or score < best[0]:
                    best = (score, p, q, iterations, tag, filt)
    if best is None:
        raise ParameterError("no feasible ARMA candidate under the budget")
    _, p, q, iterations, tag, filt = best
    arma_score = cg_score(filt, iterations, xs_eval)
    return BudgetedCgResult(
        fir_rnmse=fir_score,
        arma_rnmse=arma_score,
        ar_order=p,
        ma_order=q,
        cg_iterations=iterations,
        candidate=tag,
    )


# What a design at a feasible order can raise when that order does not work
# out; anything else is a defect and propagates.
_DESIGN_ERRORS = (InstabilityError, ParameterError, np.linalg.LinAlgError)


def _budget_candidates(grid, h, ar_order, ma_order):
    out = []
    try:
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=ar_order, ma_order=ma_order)
    except ParameterError:
        return out
    try:
        out.append(("prony-ls", prony_ls(problem).filter))
    except _DESIGN_ERRORS:
        pass
    try:
        report = iterative_design(problem, tau=30)
        for i, filt in enumerate(report.iterate_filters):
            tag = "prony-projection" if i == 0 else f"iterative-{i}"
            out.append((tag, filt))
    except _DESIGN_ERRORS:
        pass
    return out


def interpolation_study(
    known_fracs=(0.1, 0.3, 0.9),
    trials: int = 50,
    seed: int = 3,
) -> ExperimentReport:
    """Reconstruction error versus known-value percentage on a geometric graph.

    Every trial shapes a fresh smooth signal, adds Gaussian noise, hides a
    random node subset, and solves the interpolation system with CG. The K
    column of the report carries the known percentage. All trials of one
    prior weight are drawn first and solved in one block CG call, with one
    column per (trial, known percentage).
    """
    n = _GRAPH_NODES
    _, undirected = experiment_graphs(seed=seed)
    op = normalize(undirected, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    rank = _shared_rank(dec, op.kind)
    n_comp, labels = csgraph.connected_components(op.matrix, directed=False)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(_NOISE_VARIANCE)
    rows = []
    for omega in _OMEGAS:
        signals, masks, observed = [], [], []
        for _ in range(trials):
            x = _shaped_signal(dec, rank, rng)
            noisy = x + rng.normal(0.0, sigma, n)
            for frac in known_fracs:
                count = max(1, round(frac * n))
                if count < n_comp:
                    raise SingularSystemError(
                        f"{count} known nodes cannot cover {n_comp} components"
                    )
                # a draw that leaves a component unobserved makes the
                # interpolation system singular: draw again (any draw
                # observes a connected graph)
                known = rng.permutation(n)[:count]
                while n_comp > 1 and np.unique(labels[known]).size < n_comp:
                    known = rng.permutation(n)[:count]
                mask = np.zeros(n, dtype=bool)
                mask[known] = True
                signals.append(x)
                masks.append(mask)
                observed.append(np.where(mask, noisy, 0.0))
        x_tilde, _ = _interpolation_solve(
            op, np.reshape(observed, (-1, n)).T, np.reshape(masks, (-1, n)).T, omega,
            _INTERPOLATION_CG,
        )
        errs = _row_rnmse(x_tilde.T, np.reshape(signals, (-1, n))).tolist()
        for f, frac in enumerate(known_fracs):
            rows.append(
                ReportRow(
                    experiment="interpolation",
                    k=round(100 * frac), ar_order=0, ma_order=0,
                    method=f"arma-cg-omega-{omega:g}",
                    values=tuple(errs[f::len(known_fracs)]), seed=seed,
                )
            )
    return ExperimentReport(rows=tuple(rows))


def compression_study(
    k_values=(4, 8, 16, 23),
    trials: int = 10,
    seed: int = 3,
) -> ExperimentReport:
    """ARMA-versus-FIR compression error on the directed geometric graph.

    One search table of le_budget searches at the largest K, with every
    trial's spectrum as a target, answers every K of every trial.
    """
    directed, _ = experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    grid = spectrum_grid(dec)
    rng = np.random.default_rng(seed)
    rank = _shared_rank(dec, op.kind)
    signals = [_shaped_signal(dec, rank, rng) for _ in range(trials)]
    # one row per trial; with no trials still a (0, N) stack, not one empty target
    spectra = np.array([gft(dec, x) for x in signals]).reshape(len(signals), grid.n)
    tables = order_search_table(
        grid, spectra, k_values, [ITERATIVE], le_budget=True, tau=_COMPRESS_TAU
    )
    arma_errs = [  # per trial: {k: rnmse}
        {k: _compression(dec, grid, x, rep).rnmse for (_, k), rep in table.items()}
        for x, table in zip(signals, tables)
    ]
    rows = []
    for k in k_values:
        fir_errs = [_fir_compression(dec, grid, x, k)[2] for x in signals]
        rows.append(
            ReportRow(
                experiment="compression", k=k, ar_order=-1, ma_order=-1,
                method="arma", values=tuple(errs[k] for errs in arma_errs), seed=seed,
            )
        )
        rows.append(
            ReportRow(
                experiment="compression", k=k, ar_order=0, ma_order=k,
                method="fir", values=tuple(fir_errs), seed=seed,
            )
        )
    return ExperimentReport(rows=tuple(rows))


def prediction_study(
    k_values=(3, 4, 6),
    bit_values=(3, 5, 7, 16),
    trials: int = 10,
    seed: int = 5,
) -> ExperimentReport:
    """Prediction-plus-quantization error on the directed geometric graph,
    over filter orders and bit budgets.

    Each (K, trial) designs once for every bit budget. The designs of a
    batch of (K, trial) share one pass loop (_Predictor), and each (K, trial)
    solves its forward systems in one stack and its backward systems in
    another, each a(S) stack holding its _PREDICT_TAU + 1 iterates; batches
    of bounded size keep memory from growing with the number of trials.
    """
    for bits in bit_values:
        _check_bits(bits)
    directed, _ = experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    predictor = _Predictor(op)
    rng = np.random.default_rng(seed)
    rank = _shared_rank(predictor.dec, op.kind)
    signals = [
        _shaped_signal(predictor.dec, rank, rng, profile="decay") for _ in range(trials)
    ]
    orders = [(k // 2, k - k // 2) for k in k_values]
    jobs = [(x, p, q) for p, q in orders for x in signals]
    # per job, one error per bit budget
    errors = ([r.rnmse for r in results] for results in predictor.results(jobs, bit_values))
    rows = []
    for k, (ar_order, ma_order) in zip(k_values, orders):
        per_trial = [next(errors) for _ in signals]
        for b, bits in enumerate(bit_values):
            rows.append(
                ReportRow(
                    experiment="prediction-directed", k=k,
                    ar_order=ar_order, ma_order=ma_order, method=f"arma-b{bits}",
                    values=tuple(errs[b] for errs in per_trial), seed=seed,
                )
            )
    return ExperimentReport(rows=tuple(rows))
