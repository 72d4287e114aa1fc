"""Experiment pipelines: interpolation, compression, prediction, and the
universal-design study, on seeded synthetic data.

Real measurement campaigns (one signal per timestamp) can be ingested from
CSV; continuous integration substitutes a seeded generator that shapes white
noise with a low-pass spectral profile.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.csgraph as csgraph

from .arma import ArmaFilter, arma_apply_direct, arma_response
from .cg import CgConfig, cg_solve
from .design import (
    ITERATIVE,
    DesignProblem,
    DesignReport,
    best_order_search,
    iterative_design,
    prony_ls,
    rnmse,
)
from .errors import (
    CsvParseError,
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


# ---------------------------------------------------------------------------
# Desired responses and synthetic signals
# ---------------------------------------------------------------------------

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
    keep_frac: float = 0.25,
    profile: str = "mask",
    decay: float = 4.0,
    floor: float = 0.02,
) -> np.ndarray:
    """White noise shaped by a low-pass spectral profile; unit RMS per node.

    profile="mask" keeps the lowest keep_frac of the ordered frequencies
    (whole conjugate pairs); profile="decay" applies exp(-decay * rank / n)
    with a broadband floor, which keeps residual-based pipelines away from
    exactly representable signals.
    """
    n = dec.n
    rank = _shared_rank(dec, op_kind)
    if profile == "mask":
        keep = max(1, round(keep_frac * n))
        envelope = (rank < keep).astype(float)
    elif profile == "decay":
        envelope = np.maximum(np.exp(-decay * rank / n), floor)
    else:
        raise ParameterError(f"unknown spectral profile {profile!r}")
    noise = rng.standard_normal(n)
    x = igft(dec, gft(dec, noise) * envelope)
    x = x.real
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ParameterError("spectral profile annihilated the signal")
    return x / norm * math.sqrt(n)


def experiment_graphs(n: int = 32, k: int = 6, seed: int = 42, box: float = 3.0):
    """Seeded geometric graphs used across the application pipelines.

    Returns (directed kNN graph, its max-symmetrized undirected version);
    random coordinates are drawn uniformly in a box whose side keeps the
    Gaussian edge weights well spread.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2)) * box
    directed = build_knn_directed(coords, k)
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


def quantize_residual(residual, total_bits: int) -> QuantizedResidual:
    """Quantize a residual with a total bit budget.

    One bit is spent on the sign, ceil(log2(max |r|)) on the integer part
    (never negative), and the remainder on the fraction; values round half
    to even and clamp at the largest representable magnitude.
    """
    if total_bits < 3:
        raise ParameterError(f"need at least 3 bits, got {total_bits}")
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


def _reconstruct_from_filter(filt: ArmaFilter, op: ShiftOperator, x, bits: int):
    forward = arma_apply_direct(filt, op, x)
    residual = x - forward
    quantized = quantize_residual(residual, bits)
    back = _backward_filter(filt)
    x_tilde = arma_apply_direct(back, op, quantized.values)
    return x_tilde, residual, quantized


def predict(
    op: ShiftOperator,
    x,
    ar_order: int,
    ma_order: int,
    bits: int,
    tau: int = 20,
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
    x = np.asarray(x, dtype=float)
    dec = eigendecompose(op)
    grid = spectrum_grid(dec)
    x_hat = gft(dec, x)
    problem = DesignProblem(
        grid=grid,
        h_hat=np.ones(grid.n, dtype=complex),
        ar_order=ar_order,
        ma_order=ma_order,
        weights=np.abs(x_hat),
        constrain_b0_zero=True,
    )
    report = iterative_design(problem, tau=tau)
    best = None
    for idx, cand in enumerate(report.iterate_filters):
        try:
            x_tilde, residual, quantized = _reconstruct_from_filter(cand, op, x, bits)
        except (SingularSystemError, ParameterError):
            continue
        err = rnmse(x_tilde, x)
        if not math.isfinite(err):
            continue
        if best is None or err < best[0]:
            best = (err, idx, cand, x_tilde, residual, quantized)
    if best is None:
        raise SingularSystemError("no design iterate produced a solvable backward filter")
    err, idx, cand, x_tilde, residual, quantized = best
    return PredictionResult(
        filter=cand,
        reconstructed=x_tilde,
        rnmse=err,
        residual=residual,
        quantized=quantized,
        iterate_index=idx,
    )


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
    method: str = ITERATIVE,
    le_budget: bool = True,
    tau: int = 12,
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
    x_hat = gft(dec, x)
    report = best_order_search(
        grid, x_hat, budget, method, le_budget=le_budget, tau=tau
    )
    response = arma_response(report.filter, grid)
    x_tilde = igft(dec, response).real
    return CompressionResult(
        filter=report.filter,
        reconstructed=x_tilde,
        rnmse=rnmse(x_tilde, x),
        report=report,
    )


def compress_fir(op: ShiftOperator, x, order: int):
    """FIR benchmark for compression: fit the spectrum with a polynomial.

    Solved over real coefficients directly (stacked real and imaginary
    parts): spectrum grids at compression-scale orders are so ill
    conditioned that the complex least-squares solution carries spurious
    imaginary noise, while the real-stacked formulation stays exact.
    """
    x = np.asarray(x, dtype=float)
    dec = eigendecompose(op)
    grid = spectrum_grid(dec)
    x_hat = gft(dec, x)
    psi = vandermonde(grid.lambdas, order + 1)
    stacked = np.vstack([psi.real, psi.imag])
    rhs = np.concatenate([x_hat.real, x_hat.imag])
    g, _, _ = _solve_real_lstsq(stacked, rhs)
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
    config: dict = field(default_factory=dict)

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


def read_signal_csv(path):
    """Read `node_id,timestamp,value` rows into (timestamps, signal matrix).

    Node ids must cover 0..n-1 for every timestamp; timestamps are returned
    sorted lexicographically.
    """
    cells = {}
    nodes = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["node_id", "timestamp", "value"]:
            raise CsvParseError("expected header 'node_id,timestamp,value'", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise CsvParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            try:
                node = int(row[0])
                value = float(row[2])
            except ValueError as exc:
                raise CsvParseError(str(exc), line=lineno) from exc
            stamp = row[1].strip()
            if (node, stamp) in cells:
                raise CsvParseError(f"duplicate cell ({node}, {stamp})", line=lineno)
            cells[(node, stamp)] = value
            nodes.add(node)
    if not cells:
        raise CsvParseError("signal table is empty")
    n = max(nodes) + 1
    if sorted(nodes) != list(range(n)):
        raise CsvParseError(f"node ids must cover 0..{n - 1}")
    stamps = sorted({stamp for _, stamp in cells})
    matrix = np.empty((len(stamps), n))
    for t, stamp in enumerate(stamps):
        for node in range(n):
            if (node, stamp) not in cells:
                raise CsvParseError(f"missing value for node {node} at {stamp}")
            matrix[t, node] = cells[(node, stamp)]
    return stamps, matrix


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

_STUDY_METHODS = ("fir", "prony-ls", "prony-projection", "iterative")


def _design_rnmse_on_grid(grid, h_hat, budget, method, le_budget):
    if method == "fir":
        return fir_design(grid, h_hat, budget).rnmse, budget, 0
    report = best_order_search(grid, h_hat, budget, method, le_budget=le_budget)
    return report.rnmse_true, report.filter.ar_order, report.filter.ma_order


def universal_study(
    grid_kind: str,
    n_points: int,
    k_values,
    methods=_STUDY_METHODS,
    cutoff: float = 1.0,
    er_trials: int = 20,
    er_n: int = 100,
    er_p: float = 0.1,
    seed: int = 0,
    le_budget: bool = False,
) -> ExperimentReport:
    """RNMSE-versus-order curves for the ideal low-pass design task.

    grid_kind selects the uniform real grid, the complex disc grid, or
    averaged Erdos-Renyi graph spectra ("er-spectrum"). ARMA methods search
    the (ar, ma) split of each budget; FIR uses the budget as its order.
    """
    rows = []
    if grid_kind in (UNIFORM_REAL, COMPLEX_DISC):
        grid = (
            uniform_real_grid(n_points)
            if grid_kind == UNIFORM_REAL
            else complex_disc_grid(n_points)
        )
        h = ideal_lowpass(grid, cutoff)
        for k in k_values:
            for method in methods:
                err, p, q = _design_rnmse_on_grid(grid, h, k, method, le_budget)
                rows.append(
                    ReportRow(
                        experiment=f"universal-{grid_kind}",
                        k=k, ar_order=p, ma_order=q, method=method,
                        values=(err,), seed=seed,
                    )
                )
    elif grid_kind == "er-spectrum":
        grids = []
        for t in range(er_trials):
            graph = build_er_graph(er_n, er_p, seed + t)
            op = normalize(graph, NORMALIZED_LAPLACIAN)
            grids.append(spectrum_grid(eigendecompose(op)))
        for k in k_values:
            for method in methods:
                errs = []
                for grid in grids:
                    h = ideal_lowpass(grid, cutoff)
                    err, p, q = _design_rnmse_on_grid(grid, h, k, method, le_budget)
                    errs.append(err)
                rows.append(
                    ReportRow(
                        experiment="er-spectrum",
                        k=k, ar_order=-1, ma_order=-1, method=method,
                        values=tuple(errs), seed=seed,
                    )
                )
    else:
        raise ParameterError(f"unknown study grid kind {grid_kind!r}")
    return ExperimentReport(
        rows=tuple(rows),
        config={
            "grid_kind": grid_kind, "n_points": n_points,
            "k_values": list(k_values), "methods": list(methods),
            "cutoff": cutoff, "seed": seed, "le_budget": le_budget,
        },
    )


@dataclass(frozen=True)
class BudgetedCgResult:
    """Implementation-budget comparison of CG-applied ARMA against FIR."""

    fir_rnmse: float
    arma_rnmse: float
    ar_order: int
    ma_order: int
    cg_iterations: int
    candidate: str


def budgeted_cg_study(
    budget: int = 16,
    n_points: int = 100,
    er_n: int = 100,
    er_p: float = 0.1,
    cutoff: float = 1.0,
    epsilon: float = 1e-3,
    seed: int = 7,
    selection_inputs: int = 10,
    eval_inputs: int = 10,
    max_ar: int = 3,
) -> BudgetedCgResult:
    """Match FIR(K) and CG-applied ARMA at the same shift budget.

    Both filters are designed universally for the ideal low-pass response.
    The ARMA side may spend its budget on any (ar, ma) split with
    ar * T + ma <= K conjugate-gradient iterations; candidate coefficient
    sets come from both Prony methods and every iterate of the iterative
    design, selected on held-out white inputs, warm-started at z. The score
    is the RNMSE between the filter output and the ideally filtered input,
    averaged over seeded white signals.
    """
    rng = np.random.default_rng(seed)
    graph = build_er_graph(er_n, er_p, seed)
    op = normalize(graph, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    h_graph = ideal_lowpass(spectrum_grid(dec), cutoff).real

    xs_sel = [rng.standard_normal(er_n) for _ in range(selection_inputs)]
    xs_eval = [rng.standard_normal(er_n) for _ in range(eval_inputs)]

    def output_rnmse(y, x):
        target = h_graph * gft(dec, x).real
        return rnmse(gft(dec, y).real, target)

    grid = uniform_real_grid(n_points)
    h = ideal_lowpass(grid, cutoff)

    fir = fir_design(grid, h, budget).filter
    fir_score = float(np.mean([output_rnmse(fir_apply(fir, op, x), x) for x in xs_eval]))

    def cg_score(filt: ArmaFilter, iterations: int, inputs) -> float:
        vals = []
        for x in inputs:
            z = poly_apply(filt.b, op, x)
            y, _ = cg_solve(
                lambda v, a=filt.a: poly_apply(a, op, v),
                z,
                CgConfig(epsilon=epsilon, max_iterations=iterations, y0=z),
            )
            vals.append(output_rnmse(y, x))
        return float(np.mean(vals))

    def denominator_positive(filt: ArmaFilter) -> bool:
        # plain CG needs a positive-definite system: the denominator
        # polynomial must stay positive over the operator's spectral range
        alpha = vandermonde(grid.lambdas, len(filt.a)) @ filt.a
        return bool(np.all(alpha.real > 0.0))

    best = None
    for p in range(1, max_ar + 1):
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
    omegas=(1.0, 2.0),
    known_fracs=(0.1, 0.3, 0.9),
    trials: int = 50,
    n: int = 32,
    noise_variance: float = 1e-2,
    cg_epsilon: float = 1e-2,
    cg_max_iterations: int = 20,
    seed: int = 3,
    keep_frac: float = 0.25,
) -> ExperimentReport:
    """Reconstruction error versus known-value percentage on a geometric graph.

    Every trial shapes a fresh smooth signal, adds Gaussian noise, hides a
    random node subset, and solves the interpolation system with CG. The K
    column of the report carries the known percentage.
    """
    _, undirected = experiment_graphs(n=n, seed=seed)
    op = normalize(undirected, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    n_comp, labels = csgraph.connected_components(op.matrix, directed=False)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(noise_variance)
    rows = []
    for omega in omegas:
        per_frac = {frac: [] for frac in known_fracs}
        for _ in range(trials):
            x = smooth_signal(dec, op.kind, rng, keep_frac=keep_frac)
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
                x_tilde, _ = interpolate(
                    op, observed, task,
                    CgConfig(epsilon=cg_epsilon, max_iterations=cg_max_iterations),
                )
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
    return ExperimentReport(
        rows=tuple(rows),
        config={
            "omegas": list(omegas), "known_fracs": list(known_fracs),
            "trials": trials, "n": n, "noise_variance": noise_variance,
            "cg_epsilon": cg_epsilon, "cg_max_iterations": cg_max_iterations,
            "seed": seed,
        },
    )


def compression_study(
    k_values=(4, 8, 16, 23),
    trials: int = 10,
    n: int = 32,
    seed: int = 3,
    method: str = ITERATIVE,
    keep_frac: float = 0.25,
) -> ExperimentReport:
    """ARMA-versus-FIR compression error on the directed geometric graph."""
    directed, _ = experiment_graphs(n=n, seed=42)
    op = normalize(directed, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    rng = np.random.default_rng(seed)
    signals = [smooth_signal(dec, op.kind, rng, keep_frac=keep_frac) for _ in range(trials)]
    rows = []
    for k in k_values:
        arma_errs = [compress(op, x, k, method=method).rnmse for x in signals]
        fir_errs = [compress_fir(op, x, k)[2] for x in signals]
        rows.append(
            ReportRow(
                experiment="compression", k=k, ar_order=-1, ma_order=-1,
                method="arma", values=tuple(arma_errs), seed=seed,
            )
        )
        rows.append(
            ReportRow(
                experiment="compression", k=k, ar_order=0, ma_order=k,
                method="fir", values=tuple(fir_errs), seed=seed,
            )
        )
    return ExperimentReport(
        rows=tuple(rows),
        config={
            "k_values": list(k_values), "trials": trials, "n": n,
            "seed": seed, "method": method,
        },
    )


def prediction_study(
    k_values=(3, 4, 6),
    bit_values=(3, 5, 7, 16),
    trials: int = 10,
    n: int = 32,
    seed: int = 5,
    directed: bool = True,
    decay: float = 4.0,
    floor: float = 0.02,
) -> ExperimentReport:
    """Prediction-plus-quantization error over filter orders and bit budgets."""
    directed_graph, undirected_graph = experiment_graphs(n=n, seed=42)
    graph = directed_graph if directed else undirected_graph
    op = normalize(graph, NORMALIZED_ADJACENCY)
    dec = eigendecompose(op)
    rng = np.random.default_rng(seed)
    signals = [
        smooth_signal(dec, op.kind, rng, profile="decay", decay=decay, floor=floor)
        for _ in range(trials)
    ]
    rows = []
    label = "directed" if directed else "undirected"
    for k in k_values:
        ar_order = k // 2
        ma_order = k - ar_order
        for bits in bit_values:
            errs = [predict(op, x, ar_order, ma_order, bits).rnmse for x in signals]
            rows.append(
                ReportRow(
                    experiment=f"prediction-{label}", k=k,
                    ar_order=ar_order, ma_order=ma_order,
                    method=f"arma-b{bits}", values=tuple(errs), seed=seed,
                )
            )
    return ExperimentReport(
        rows=tuple(rows),
        config={
            "k_values": list(k_values), "bit_values": list(bit_values),
            "trials": trials, "n": n, "seed": seed, "directed": directed,
            "decay": decay, "floor": floor,
        },
    )
