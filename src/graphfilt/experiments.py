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
from .fir import (
    FirFilter,
    _solve_real_lstsq,
    fir_apply,
    fir_design,
    fir_response,
    poly_apply,
    vandermonde,
)
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
    n = dec.n
    rank = _shared_rank(dec, op_kind)
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
    return _interpolation_solve(op, x_observed, task, cg)


def _interpolation_solve(op: ShiftOperator, x_observed, task: InterpolationTask, cg):
    """The CG solve of interpolate, for a task that observes every component."""
    mask = task.mask.astype(float)
    rhs = mask * x_observed

    def apply_system(v):
        return mask * v + task.omega * shift_apply(op, v)

    return cg_solve(apply_system, rhs, cg)


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
    if total_bits < 3:
        raise ParameterError(f"need a bit budget of at least 3 bits, got {total_bits}")


def quantize_residual(residual, total_bits: int) -> QuantizedResidual:
    """Quantize a residual with a total bit budget.

    One bit is spent on the sign, ceil(log2(max |r|)) on the integer part
    (never negative), and the remainder on the fraction; values round half
    to even and clamp at the largest representable magnitude.
    """
    _check_bits(total_bits)
    r = np.asarray(residual, dtype=float)
    peak = float(np.max(np.abs(r))) if r.size else 0.0
    integer_bits = max(0, math.ceil(math.log2(peak))) if peak > 0.0 else 0
    step = 2.0 ** (-(total_bits - integer_bits - 1))
    limit = 2.0**integer_bits - step
    values = np.clip(np.round(r / step) * step, -limit, limit)
    return QuantizedResidual(
        total_bits=total_bits, integer_bits=integer_bits, step=step, values=values
    )


@dataclass(frozen=True)
class PredictionResult:
    filter: ArmaFilter
    reconstructed: np.ndarray
    rnmse: float
    residual: np.ndarray
    quantized: QuantizedResidual
    iterate_index: int


def _backward_filter(filt: ArmaFilter) -> ArmaFilter:
    """Filter implementing (I - g(S))^{-1}: denominator a - b, numerator a."""
    m = max(len(filt.a), len(filt.b))
    c = np.zeros(m)
    c[: len(filt.a)] += filt.a
    c[: len(filt.b)] -= filt.b
    return ArmaFilter(a=c, b=filt.a.copy())


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
    return predictor.best(x, predictor.candidates(x, ar_order, ma_order), bits)


class _Predictor:
    """What the predictions on one operator share: its spectrum, and the
    shift powers that every a(S) of the direct solves is summed from."""

    def __init__(self, op: ShiftOperator):
        self.dec = eigendecompose(op)
        self.grid = spectrum_grid(self.dec)
        self.solver = _DirectSolver(op)

    def candidates(self, x, ar_order: int, ma_order: int) -> list:
        """Every design iterate with what each bit budget needs of it:
        (index, filter, residual, backward filter, backward a(S)).

        An iterate whose forward system is singular is left out.
        """
        problem = DesignProblem(
            grid=self.grid,
            h_hat=np.ones(self.grid.n, dtype=complex),
            ar_order=ar_order,
            ma_order=ma_order,
            weights=np.abs(gft(self.dec, x)),
            constrain_b0_zero=True,
        )
        report = iterative_design(problem, tau=_PREDICT_TAU)
        out = []
        for idx, filt in enumerate(report.iterate_filters):
            try:
                forward = self.solver.solve(self.solver.ar_matrix(filt.a), filt.b, x)
            except SingularSystemError:
                continue
            back = _backward_filter(filt)
            out.append((idx, filt, x - forward, back, self.solver.ar_matrix(back.a)))
        return out

    def best(self, x, candidates, bits: int) -> PredictionResult:
        """The candidate whose quantized reconstruction at bits is best."""
        best = None
        for idx, filt, residual, back, back_matrix in candidates:
            quantized = quantize_residual(residual, bits)
            try:
                x_tilde = self.solver.solve(back_matrix, back.b, quantized.values)
            except SingularSystemError:
                continue
            err = rnmse(x_tilde, x)
            if not math.isfinite(err):
                continue
            if best is None or err < best.rnmse:
                best = PredictionResult(
                    filter=filt,
                    reconstructed=x_tilde,
                    rnmse=err,
                    residual=residual,
                    quantized=quantized,
                    iterate_index=idx,
                )
        if best is None:
            raise SingularSystemError("no design iterate produced a solvable backward filter")
        return best


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
    over real coefficients."""
    x = np.asarray(x, dtype=float)
    dec = eigendecompose(op)
    return _fir_compression(dec, spectrum_grid(dec), x, order)


def _fir_compression(dec, grid, x, order: int):
    x_hat = gft(dec, x)
    g, _ = _solve_real_lstsq(vandermonde(grid.lambdas, order + 1), x_hat)
    filt = FirFilter(g=g)
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
            if iterations < 1:
                continue
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
    column of the report carries the known percentage.
    """
    n = _GRAPH_NODES
    _, undirected = experiment_graphs(seed=seed)
    op = normalize(undirected, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    n_comp, labels = csgraph.connected_components(op.matrix, directed=False)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(_NOISE_VARIANCE)
    rows = []
    for omega in _OMEGAS:
        per_frac = {frac: [] for frac in known_fracs}
        for _ in range(trials):
            x = smooth_signal(dec, op.kind, rng)
            noisy = x + rng.normal(0.0, sigma, n)
            for frac in known_fracs:
                count = max(1, round(frac * n))
                if count < n_comp:
                    raise SingularSystemError(
                        f"{count} known nodes cannot cover {n_comp} components"
                    )
                # a draw that leaves a component unobserved makes the
                # interpolation system singular: draw again
                known = rng.permutation(n)[:count]
                while np.unique(labels[known]).size < n_comp:
                    known = rng.permutation(n)[:count]
                mask = np.zeros(n, dtype=bool)
                mask[known] = True
                task = InterpolationTask(mask=mask, omega=omega)
                observed = np.where(mask, noisy, 0.0)
                x_tilde, _ = _interpolation_solve(op, observed, task, _INTERPOLATION_CG)
                per_frac[frac].append(rnmse(x_tilde, x))
        for frac in known_fracs:
            rows.append(
                ReportRow(
                    experiment="interpolation",
                    k=round(100 * frac), ar_order=0, ma_order=0,
                    method=f"arma-cg-omega-{omega:g}",
                    values=tuple(per_frac[frac]), seed=seed,
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
    signals = [smooth_signal(dec, op.kind, rng) for _ in range(trials)]
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

    Each (K, trial) designs once for every bit budget.
    """
    for bits in bit_values:
        _check_bits(bits)
    directed, _ = experiment_graphs()
    op = normalize(directed, NORMALIZED_ADJACENCY)
    predictor = _Predictor(op)
    rng = np.random.default_rng(seed)
    signals = [
        smooth_signal(predictor.dec, op.kind, rng, profile="decay") for _ in range(trials)
    ]
    rows = []
    for k in k_values:
        ar_order = k // 2
        ma_order = k - ar_order
        errs = [[] for _ in bit_values]
        for x in signals:
            candidates = predictor.candidates(x, ar_order, ma_order)
            for bits, errs_bits in zip(bit_values, errs):
                errs_bits.append(predictor.best(x, candidates, bits).rnmse)
        for bits, errs_bits in zip(bit_values, errs):
            rows.append(
                ReportRow(
                    experiment="prediction-directed", k=k,
                    ar_order=ar_order, ma_order=ma_order,
                    method=f"arma-b{bits}", values=tuple(errs_bits), seed=seed,
                )
            )
    return ExperimentReport(rows=tuple(rows))
