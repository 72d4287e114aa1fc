"""Command-line front end: graph generation, filter design, application, and
experiment sweeps with machine-readable outputs.

Every run resolves its configuration (JSON config file overridden by flags),
echoes it into the report, and writes outputs atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .arma import ArmaFilter, arma_apply_direct, arma_from_json, arma_to_json
from .cg import CgConfig, arma_apply_cg, trace_to_csv
from .design import (
    METHODS,
    DesignProblem,
    best_order_search,
    ideal_lowpass,
    report_record,
    run_method,
)
from .errors import (
    ConjugateSymmetryError,
    CsvParseError,
    DimensionError,
    DivergenceError,
    GraphFiltError,
    InstabilityError,
    ParameterError,
)
from .fir import filter_payload, fir_apply, fir_design, fir_from_json, fir_to_json
from .graphs import (
    NORMALIZED_ADJACENCY,
    NORMALIZED_LAPLACIAN,
    _csv_rows,
    build_er_graph,
    build_knn_directed,
    graph_from_json,
    graph_to_json,
    normalize,
    read_coords_csv,
    read_edge_csv,
    read_id_table,
)
from .spectral import (
    complex_disc_grid,
    eigenvalues,
    spectrum_grid,
    uniform_real_grid,
    validate_conjugate_pairs,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_INSTABILITY = 4
EXIT_DIVERGENCE = 5
EXIT_SYMMETRY = 6

# the exit code of each error a command may raise; the first match wins
_EXIT_CODES = (
    (ConjugateSymmetryError, EXIT_SYMMETRY),
    ((argparse.ArgumentError, CsvParseError, ParameterError), EXIT_PARSE),
    (DimensionError, EXIT_DIMENSION),
    (InstabilityError, EXIT_INSTABILITY),
    (DivergenceError, EXIT_DIVERGENCE),
    ((GraphFiltError, OSError), EXIT_ERROR),
)

_SHIFT_KINDS = {"adjacency": NORMALIZED_ADJACENCY, "laplacian": NORMALIZED_LAPLACIAN}


def _atomic_writer(path: str, write_fn) -> None:
    """Run write_fn against a temp path, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".graphfilt-")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises each command-line error as
    ArgumentError, which main reports as a parse error, where argparse
    would print usage and exit; every Python version takes this path."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    config = _Parser(add_help=False)
    config.add_argument("--config", help="JSON config file of flag values")
    return config


def _config_flags(argv) -> tuple:
    """The --config JSON file in argv as (values, command-line flags).

    A key names its flag with - for _: true becomes the bare switch, false
    nothing, and any other string or number --flag=value.
    """
    known, _ = _config_parser().parse_known_args(argv)
    if not known.config:
        return {}, []
    with open(known.config) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CsvParseError(f"invalid config JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CsvParseError("config JSON must be an object")
    flags = []
    for key, value in payload.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif not isinstance(value, (str, int, float)):
            raise ParameterError(f"config key {key!r} takes a string or a number, got {value!r}")
        elif value is not False:
            flags.append(f"{flag}={value}")
    return payload, flags


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _non_negative_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _write_signal_column(path, values):
    # the bytes csv.writer writes for the rows [i, repr(float(v))]
    text = "node_id,value\r\n" + "".join(
        f"{i},{v!r}\r\n" for i, v in enumerate(np.asarray(values, dtype=float).tolist()))
    _atomic_writer(path, lambda tmp: Path(tmp).write_text(text, newline=""))


def _resolve_grid(args):
    if args.grid == "uniform-real":
        return uniform_real_grid(args.grid_size)
    if args.grid == "complex-disc":
        return complex_disc_grid(args.grid_size)
    if not args.graph:  # graph-spectrum: the grid's choices allow no other
        raise ParameterError("--grid graph-spectrum requires --graph")
    return spectrum_grid(eigenvalues(_load_operator(args)))


def _resolve_response(spec: str, grid):
    if spec == "allpass":
        return np.ones(grid.n, dtype=complex)
    if spec.startswith("lowpass:"):
        try:
            cutoff = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"lowpass cutoff is not a number: {exc}") from exc
        return ideal_lowpass(grid, cutoff)
    if spec.startswith("file:"):
        rows = _csv_rows(spec.split(":", 1)[1], ("re", "im"), (float, float))
        h = np.array([complex(re, im) for _, (re, im) in rows])
        if len(h) != grid.n:
            raise DimensionError(f"response has {len(h)} rows, grid has {grid.n}")
        validate_conjugate_pairs(h, grid)
        return h
    raise ParameterError(f"unknown response spec {spec!r}")


def _load_operator(args):
    with open(args.graph) as fh:
        graph = graph_from_json(fh.read())
    return normalize(graph, _SHIFT_KINDS[args.shift])


def _load_filter(path):
    with open(path) as fh:
        text = fh.read()
    kind = filter_payload(text).get("type")
    if kind == "fir":
        return fir_from_json(text)
    if kind == "arma":
        return arma_from_json(text)
    raise ParameterError(f"unknown filter type {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_graph(args) -> int:
    if args.er:
        if args.n is None or args.p is None:
            raise ParameterError("--er requires --n and --p")
        graph = build_er_graph(args.n, args.p, args.seed)
    elif args.knn is not None:
        if not args.coords:
            raise ParameterError("--knn requires --coords")
        coords = read_coords_csv(args.coords, one_based=args.one_based)
        graph = build_knn_directed(coords, args.knn)
    elif args.edges:
        graph = read_edge_csv(args.edges, directed=args.directed, one_based=args.one_based)
    else:
        raise ParameterError("choose one of --er, --knn, --edges")
    text = graph_to_json(graph) + "\n"
    _atomic_writer(args.output, lambda tmp: Path(tmp).write_text(text))
    return EXIT_OK


def _cmd_design(args) -> int:
    grid = _resolve_grid(args)
    h = _resolve_response(args.response, grid)
    if args.method == "fir":
        if args.k is None:
            raise ParameterError("--method fir requires --k")
        design = fir_design(grid, h, args.k)
        if "rank-deficient" in design.warnings:
            _warn(f"FIR fit of order {args.k} is rank-deficient: some coefficients are "
                  f"not determined by the grid (condition estimate "
                  f"{design.condition_estimate:.3g})")
        text = fir_to_json(design.filter) + "\n"
        report = {
            "method": "fir", "order": args.k, "rnmse": design.rnmse,
            "imag_residue": design.imag_residue,
            "condition_estimate": design.condition_estimate,
            "warnings": list(design.warnings),
        }
    else:
        if args.budget is not None:
            rep = best_order_search(
                grid, h, args.budget, args.method, le_budget=args.le_budget
            )
        else:
            if args.p is None or args.q is None:
                raise ParameterError("give --budget or both --p and --q")
            problem = DesignProblem(
                grid=grid, h_hat=h, ar_order=args.p, ma_order=args.q
            )
            rep = run_method(args.method, problem)
        orders = rep.filter.ar_order, rep.filter.ma_order
        for warning in rep.warnings:
            _warn(f"{rep.method} design of orders {orders}: {warning}")
        text = arma_to_json(rep.filter) + "\n"
        report = {**report_record(rep), "ar_order": orders[0], "ma_order": orders[1]}
    _atomic_writer(args.output, lambda tmp: Path(tmp).write_text(text))
    if args.report:
        report["config"] = _echo_config(args)
        record = json.dumps(report, indent=2, sort_keys=True) + "\n"
        _atomic_writer(args.report, lambda tmp: Path(tmp).write_text(record))
    return EXIT_OK


def _cmd_apply(args) -> int:
    op = _load_operator(args)
    filt = _load_filter(args.filter)
    x = read_id_table(args.input, ("node_id", "value"))[:, 0]
    arma = isinstance(filt, ArmaFilter)
    if arma and args.solver == "cg":
        cfg = CgConfig(epsilon=args.cg_eps, max_iterations=args.cg_max_iter)
        y, trace = arma_apply_cg(filt, op, x, cfg)
        if not trace.converged:
            residual = trace.residual_norms[-1] / trace.residual_norms[0]
            _warn(f"CG did not converge in {trace.iterations} iterations: "
                  f"relative residual {residual:.3g}, epsilon {cfg.epsilon:g}")
        if args.trace:
            _atomic_writer(args.trace, lambda p: trace_to_csv(trace, p))
    else:
        if args.trace:
            _warn(f"no trace written to {args.trace}: only an ARMA filter under "
                  f"--solver cg has a CG trace")
        y = arma_apply_direct(filt, op, x) if arma else fir_apply(filt, op, x)
    _write_signal_column(args.output, y)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from . import experiments

    if args.k_step < 1:
        raise ParameterError(f"--k-step must be positive, got {args.k_step}")
    k_values = tuple(range(args.k_min, args.k_max + 1, args.k_step))
    if not k_values and args.kind != "interpolation":
        raise ParameterError(f"empty order range: --k-min {args.k_min} > --k-max {args.k_max}")
    if args.kind == "universal":
        report = experiments.universal_study(grid_kind=args.grid, n_points=args.grid_size,
                                             k_values=list(k_values), seed=args.seed,
                                             er_trials=args.trials)
    elif args.kind == "interpolation":
        report = experiments.interpolation_study(trials=args.trials, seed=args.seed)
    elif args.kind == "compression":
        report = experiments.compression_study(k_values=k_values, trials=args.trials,
                                               seed=args.seed)
    else:  # prediction: the kind's choices allow no other
        report = experiments.prediction_study(k_values=k_values, trials=args.trials,
                                              seed=args.seed)
    _atomic_writer(args.output, report.to_csv)
    return EXIT_OK


def _echo_config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphfilt", description="Design and apply ARMA/FIR graph filters.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(parents=[_config_parser()])

    g = sub.add_parser("gen-graph", help="generate or ingest a graph, write JSON",
                       **common)
    g.add_argument("--er", action="store_true", help="Erdos-Renyi random graph")
    g.add_argument("--n", type=int, help="node count for --er")
    g.add_argument("--p", type=float, help="link probability for --er")
    g.add_argument("--knn", type=int, help="directed k-nearest-neighbor graph")
    g.add_argument("--coords", help="coordinates CSV (id,x,y) for --knn")
    g.add_argument("--edges", help="edge-list CSV (src,dst,weight)")
    g.add_argument("--directed", action="store_true", help="edge list is directed")
    g.add_argument("--one-based", action="store_true", help="CSV indices start at 1")
    g.add_argument("--seed", type=_non_negative_int, default=0, help="RNG seed")
    g.add_argument("-o", "--output", required=True, help="output graph JSON path")
    g.set_defaults(func=_cmd_gen_graph)

    d = sub.add_parser("design", help="design a filter against a frequency grid", **common)
    d.add_argument("--method", required=True, choices=("fir",) + METHODS)
    d.add_argument("--grid", required=True,
                   choices=("uniform-real", "complex-disc", "graph-spectrum"))
    d.add_argument("--grid-size", type=int, default=100, help="grid point count")
    d.add_argument("--graph", help="graph JSON (for graph-spectrum grids)")
    d.add_argument("--shift", choices=sorted(_SHIFT_KINDS), default="laplacian")
    d.add_argument("--response", required=True,
                   help="lowpass:<cutoff> | allpass | file:<path>")
    d.add_argument("--k", type=int, help="FIR order")
    d.add_argument("--p", type=int, help="AR order")
    d.add_argument("--q", type=int, help="MA order")
    d.add_argument("--budget", type=int, help="total order budget for (P,Q) search")
    d.add_argument("--le-budget", action="store_true",
                   help="search all P+Q <= budget instead of P+Q == budget")
    d.add_argument("-o", "--output", required=True, help="output filter JSON path")
    d.add_argument("--report", help="optional design report JSON path")
    d.set_defaults(func=_cmd_design)

    a = sub.add_parser("apply", help="apply a filter file to a signal file", **common)
    a.add_argument("--filter", required=True, help="filter JSON path")
    a.add_argument("--graph", required=True, help="graph JSON path")
    a.add_argument("--shift", choices=sorted(_SHIFT_KINDS), default="laplacian")
    a.add_argument("--input", required=True, help="signal CSV (node_id,value)")
    a.add_argument("--solver", choices=("direct", "cg"), default="direct")
    a.add_argument("--cg-eps", type=float, default=1e-3)
    a.add_argument("--cg-max-iter", type=int, default=200)
    a.add_argument("--trace", help="optional CG trace CSV path")
    a.add_argument("-o", "--output", required=True, help="output signal CSV path")
    a.set_defaults(func=_cmd_apply)

    e = sub.add_parser("experiment", help="run a seeded experiment sweep", **common)
    e.add_argument("kind", choices=("universal", "interpolation", "compression", "prediction"))
    e.add_argument("--grid", default="uniform-real",
                   choices=("uniform-real", "complex-disc", "er-spectrum"))
    e.add_argument("--grid-size", type=int, default=100)
    e.add_argument("--k-min", type=int, default=2)
    e.add_argument("--k-max", type=int, default=16)
    e.add_argument("--k-step", type=int, default=2)
    e.add_argument("--trials", type=int, default=5)
    e.add_argument("--seed", type=_non_negative_int, default=0)
    e.add_argument("-o", "--output", required=True, help="output report CSV path")
    e.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        payload, flags = _config_flags(argv)
        # config flags go right after the command, so later flags win
        args, extra = build_parser().parse_known_args(argv[:1] + flags + argv[1:])
        # a key argparse took as an abbreviation names no setting either
        settings = vars(args)
        bad = [key for key, value in payload.items() if key not in settings
               or isinstance(value, bool) != isinstance(settings[key], bool)]
        if bad:
            raise ParameterError(f"config keys that set no flag, or give true or false "
                                 f"to a flag that takes a value: {bad}")
        if extra:
            raise ParameterError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (argparse.ArgumentError, GraphFiltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
