"""The four benchmark workloads: inputs, ops and output checks.

Each workload is a closed loop with one client: the runner calls ``run`` for
one op at a time, always for a whole ``cycle`` of op types, so the mix is
exact. ``setup`` is the program-side preparation the runner repeats to time
``setup_s``; ``build_oracle`` prepares the benchmark's own references once;
``check`` compares one finished op with them, outside the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

EPSILON = 1e-3          # graphfilt apply's default --cg-eps
MAX_ITERATIONS = 200    # graphfilt apply's default --cg-max-iter
LOWPASS = "lowpass:1.0"
CUTOFF = 1.0
DESIGN_GRID_SIZE = 100  # graphfilt design's default --grid-size
OP_TIMEOUT_S = 60.0
CLI_ENTRY = "import sys\nfrom graphfilt.cli import main\nsys.exit(main())"

# Filter banks designed in set-up with `graphfilt design`. The Laplacian bank
# keeps (1,2) and (3,5): plain CG never converges on them (a sign-changing
# denominator), the known defect the benchmark must keep showing.
LAPLACIAN_BANK = (
    ("iterative-b5", ["--method", "iterative", "--budget", "5"]),
    ("iterative-b9", ["--method", "iterative", "--budget", "9"]),
    ("iterative-b19", ["--method", "iterative", "--budget", "19"]),
    ("iterative-p1q2", ["--method", "iterative", "--p", "1", "--q", "2"]),
    ("iterative-p3q5", ["--method", "iterative", "--p", "3", "--q", "5"]),
    ("iterative-p9q10", ["--method", "iterative", "--p", "9", "--q", "10"]),
    ("fir-k16", ["--method", "fir", "--k", "16"]),
)
ADJACENCY_BANK = (
    ("iterative-b5", ["--method", "iterative", "--budget", "5"]),
    ("iterative-b9", ["--method", "iterative", "--budget", "9"]),
    ("iterative-b19", ["--method", "iterative", "--budget", "19"]),
    ("prony-projection-b9", ["--method", "prony-projection", "--budget", "9"]),
    ("fir-k16", ["--method", "fir", "--k", "16"]),
)

# (n, p) of the Erdos-Renyi Laplacian and (n, k) of the directed k-NN graph.
LAPLACIAN_GRAPH = (3000, 0.004)
ADJACENCY_GRAPH = (1500, 8)
SMALL_LAPLACIAN_GRAPH = (100, 0.1)
SMALL_ADJACENCY_GRAPH = (64, 6)
# Signals pre-generated per CLI apply workload; op i reads signal i mod SIGNALS.
# Coprime with both bank sizes, so every (filter, signal) pair of a run's first
# cycles differs: over ten seeds, one signal per run spread out_relerr_iqm on
# cli-apply-laplacian by 0.13-0.20 of its median, eight by 0.08-0.09.
SIGNALS = 8


@dataclass
class Op:
    """One timed op plus what its check needs afterwards."""

    label: str
    seconds: float = 0.0
    error: str | None = None
    rss_kb: int = 0
    spans: list = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0
    data: dict = field(default_factory=dict)


# An output that is missing or not finite scores the error of an all-zero
# output, so failures weigh on the error means without making them infinite.
MISSING_ERROR = 1.0


@dataclass
class App:
    """One checked output: a filter application or a command's result."""

    label: str
    failure: str | None = None
    relerr: float | None = None
    rnmse: float | None = None
    cg: dict | None = None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def child_env(root) -> dict:
    env = dict(os.environ)
    env.pop("GRAPHFILT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(cmd, env, stderr_path):
    """Run a child to completion; return (seconds, exit code, peak RSS in KiB).

    The child is reaped with wait4, which also gives its own peak RSS; a
    watchdog kills it after OP_TIMEOUT_S.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def run_cli(root, work, argv, index, spans_path=None) -> Op:
    """One `graphfilt` CLI process; traced through child.py when spans_path."""
    if spans_path is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(root / "perfbench" / "child.py"), str(spans_path),
               str(index), *argv]
    stderr_path = work / "stderr.txt"
    seconds, code, rss = run_process(cmd, child_env(root), stderr_path)
    op = Op(label="", seconds=seconds, rss_kb=rss)
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        op.error = f"exit {code}: {' '.join(tail)}"
    if spans_path is not None and spans_path.exists():
        op.spans = [tuple(s) for s in json.loads(spans_path.read_text())]
    return op


def run_main(argv) -> Op:
    """One in-process `graphfilt.cli.main` call, looked up at call time."""
    import graphfilt.cli

    start = time.perf_counter()
    try:
        code = graphfilt.cli.main(argv)
        error = None if code == 0 else f"exit {code}"
    except Exception as exc:  # a program failure is counted, not fatal
        error = f"raised {type(exc).__name__}: {exc}"
    return Op(label="", seconds=time.perf_counter() - start, error=error)


def read_bytes(path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def file_size(path) -> int:
    return path.stat().st_size if path.exists() else 0


def design_bank(work, prefix, grid, bank) -> None:
    for label, args in bank:
        out = work / f"{prefix}-{label}.json"
        argv = ["design", "--grid", grid, "--response", LOWPASS, *args,
                "-o", str(out), "--report", str(out.with_suffix(".report.json"))]
        op = run_main(argv)
        if op.error:
            raise RuntimeError(f"set-up design {prefix}-{label}: {op.error}")


def load_bank(work, prefix, bank) -> dict:
    """{label: (filter dict, program's design report)}."""
    out = {}
    for label, _ in bank:
        path = work / f"{prefix}-{label}.json"
        report = json.loads(path.with_suffix(".report.json").read_text())
        out[label] = (json.loads(path.read_text()), report)
    return out


def grid_lambdas(grid: str) -> np.ndarray:
    if grid == "uniform-real":
        return 2.0 * np.arange(DESIGN_GRID_SIZE) / (DESIGN_GRID_SIZE - 1)
    from graphfilt.spectral import complex_disc_grid

    return complex_disc_grid(DESIGN_GRID_SIZE).lambdas


# Allowed gap between a recomputed design RNMSE and the program's report. The
# two evaluate order-19 monomials at eigenvalues that differ in the last bits;
# over 320 spectrum designs the largest relative gap seen was 3e-3.
RNMSE_REL_TOL = 2e-2


def check_rnmse(filt, report, lam, amplitude_only, violations, label) -> float:
    """Recompute a design's RNMSE; record a violation if the program's differs."""
    value = oracle.design_rnmse(filt, lam, oracle.ideal_lowpass(lam, CUTOFF),
                                amplitude_only)
    claimed = report.get("rnmse_true", report.get("rnmse"))
    if not abs(value - claimed) <= 1e-6 + RNMSE_REL_TOL * abs(claimed):
        violations.append(f"{label}: reported RNMSE {claimed!r}, recomputed {value!r}")
    return value


def bank_rnmse(bank, grid, violations) -> list:
    lam = grid_lambdas(grid)
    values = [
        check_rnmse(filt, report, lam,
                    grid == "complex-disc" and filt["type"] == "arma",
                    violations, f"bank {label}")
        for label, (filt, report) in bank.items()
    ]
    return [v if np.isfinite(v) else MISSING_ERROR for v in values]


def check_application(label, filt, y, y_ref, s, x, symmetric, cg) -> App:
    """Check one filter output against the exact reference.

    cg holds the solver's own record (iterations, converged, ...) for ARMA
    outputs; the check adds the recomputed residual of the system solved.
    """
    app = App(label=label)
    if y.shape != y_ref.shape or not np.all(np.isfinite(y)):
        app.failure = "non-finite or mis-shaped output"
        app.relerr = MISSING_ERROR
        return app
    app.relerr = oracle.relerr(y, y_ref)
    if filt["type"] == "fir":
        if app.relerr > oracle.FIR_RELERR_TOL:
            app.failure = f"FIR output off by {app.relerr:.3g}"
        return app
    residual = oracle.cg_residual(filt, s, x, y, symmetric)
    app.cg = dict(cg, residual=residual,
                  tolerance_miss=residual > oracle.RESIDUAL_SLACK * EPSILON)
    if not cg["converged"]:
        app.failure = "CG residual ratio missed epsilon"
    elif app.cg["tolerance_miss"]:
        app.failure = f"recomputed residual {residual:.3g} exceeds slack"
    return app


def shift_identity(info) -> int:
    """Shift applications arma_apply_cg documents: ma + ar (iterations + 1),
    the ar term doubled in normal-equations mode."""
    ar = info["ar"] * (2 if info["normal_equations"] else 1)
    return info["ma"] + ar * (info["iterations"] + 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    in_process = False
    setup_reps = 5

    def __init__(self, root, work, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.violations = []
        self.bank_rnmse = []
        self.arcs = 0

    def rng(self, *tag) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tag])

    def peak_rss_kb(self, ops) -> int:
        if self.in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(op.rss_kb for op in ops)


def laplacian_input(rng):
    n, p = LAPLACIAN_GRAPH
    return n, oracle.er_edges(n, p, rng)


def adjacency_input(rng):
    n, k = ADJACENCY_GRAPH
    return n, oracle.knn_edges(oracle.knn_coords(n, rng), k)


class CliApply(Workload):
    """`graphfilt apply --solver cg` processes over one graph and signal."""

    def __init__(self, root, work, seed, shift: str):
        super().__init__(root, work, seed)
        self.name = f"cli-apply-{shift}"
        self.shift = shift
        self.symmetric = shift == "laplacian"
        self.grid = "uniform-real" if self.symmetric else "complex-disc"
        self.bank_spec = LAPLACIAN_BANK if self.symmetric else ADJACENCY_BANK
        self.graph_path = work / "graph.json"

    def setup(self) -> dict:
        start = time.perf_counter()
        rng = self.rng(1 if self.symmetric else 2)
        self.n, self.edges = (laplacian_input if self.symmetric else adjacency_input)(rng)
        self.xs = rng.standard_normal((SIGNALS, self.n))
        self.graph_path.write_text(
            oracle.graph_json(self.n, not self.symmetric, *self.edges))
        for j, x in enumerate(self.xs):
            self.signal_path(j).write_text(oracle.signal_csv(x))
        built = time.perf_counter()
        design_bank(self.work, "bank", self.grid, self.bank_spec)
        return {"graph_build": built - start,
                "filter_design": time.perf_counter() - built}

    def build_oracle(self) -> None:
        self.bank = load_bank(self.work, "bank", self.bank_spec)
        self.bank_rnmse = bank_rnmse(self.bank, self.grid, self.violations)
        self.arcs = len(self.edges[0])
        if self.symmetric:
            self.s = oracle.laplacian(self.n, *self.edges)
            self.ref = oracle.SymmetricReference(self.s)
        else:
            self.s = oracle.normalized_adjacency(self.n, *self.edges)
            self.ref = oracle.LuReference(self.s)
            for filt, _ in self.bank.values():
                if filt["type"] == "arma":
                    self.ref.factor(np.asarray(filt["a"]))
        self.refs = {}

    def signal_path(self, j):
        return self.work / f"signal-{j}.csv"

    def reference(self, label, j) -> np.ndarray:
        if (label, j) not in self.refs:
            self.refs[label, j] = oracle.reference_output(
                self.ref, self.bank[label][0], self.xs[j])
        return self.refs[label, j]

    def cycle(self) -> list:
        return list(self.bank)

    def run(self, label, index, traced) -> Op:
        tag = f"{index}{'t' if traced else 'u'}"
        out, trace = self.work / f"y{tag}.csv", self.work / f"cg{tag}.csv"
        filter_path = self.work / f"bank-{label}.json"
        signal = index % SIGNALS
        argv = ["apply", "--filter", str(filter_path), "--graph", str(self.graph_path),
                "--shift", self.shift, "--input", str(self.signal_path(signal)),
                "--solver", "cg", "--trace", str(trace), "-o", str(out)]
        op = run_cli(self.root, self.work, argv, index,
                     self.work / f"spans{tag}.json" if traced else None)
        op.label = label
        op.bytes_read = sum(map(file_size, (filter_path, self.graph_path,
                                            self.signal_path(signal))))
        op.bytes_written = file_size(out) + file_size(trace)
        op.data = {"out": out, "trace": trace, "signal": signal}
        return op

    def fingerprint(self, op):
        return op.error, read_bytes(op.data["out"]), read_bytes(op.data["trace"])

    def outputs(self, op):
        """(output signal, solver record or None) of a finished op."""
        y = oracle.read_signal_csv(op.data["out"], self.n)
        filt = self.bank[op.label][0]
        if filt["type"] == "fir":
            return y, None
        norms = np.loadtxt(op.data["trace"], delimiter=",", skiprows=1, ndmin=2)[:, 1]
        cg = {"iterations": len(norms) - 1,
              "converged": bool(norms[-1] <= EPSILON * norms[0]),
              "normal_equations": not self.symmetric}
        return y, cg

    def check(self, op) -> list:
        if op.error:
            return [App(label=op.label, failure=op.error, relerr=MISSING_ERROR)]
        try:
            y, cg = self.outputs(op)
        except (OSError, ValueError, IndexError) as exc:
            return [App(label=op.label, failure=f"unreadable output: {exc}",
                        relerr=MISSING_ERROR)]
        filt, j = self.bank[op.label][0], op.data["signal"]
        return [check_application(op.label, filt, y, self.reference(op.label, j), self.s,
                                  self.xs[j], self.symmetric, cg)]


class Solve(Workload):
    """In-process arma_apply_cg / fir_apply over both filter banks."""

    name = "solve"
    in_process = True
    setup_reps = 3  # each set-up normalizes both graphs and designs both banks

    def setup(self) -> dict:
        import graphfilt.graphs as gg

        start = time.perf_counter()
        self.graphs = {}
        for shift, make, kind in (
            ("laplacian", laplacian_input, gg.NORMALIZED_LAPLACIAN),
            ("adjacency", adjacency_input, gg.NORMALIZED_ADJACENCY),
        ):
            n, edges = make(self.rng(1 if shift == "laplacian" else 2))
            text = oracle.graph_json(n, shift == "adjacency", *edges)
            op = gg.normalize(gg.graph_from_json(text), kind)
            self.graphs[shift] = (n, edges, op)
        built = time.perf_counter()
        design_bank(self.work, "laplacian", "uniform-real", LAPLACIAN_BANK)
        design_bank(self.work, "adjacency", "complex-disc", ADJACENCY_BANK)
        return {"graph_build": built - start,
                "filter_design": time.perf_counter() - built}

    def build_oracle(self) -> None:
        from graphfilt.arma import arma_from_json
        from graphfilt.fir import fir_from_json

        self.banks, self.s, self.refs = {}, {}, {}
        for shift, spec, grid in (("laplacian", LAPLACIAN_BANK, "uniform-real"),
                                  ("adjacency", ADJACENCY_BANK, "complex-disc")):
            bank = load_bank(self.work, shift, spec)
            self.bank_rnmse += bank_rnmse(bank, grid, self.violations)
            self.banks[shift] = [
                (label, filt,
                 (fir_from_json if filt["type"] == "fir" else arma_from_json)(json.dumps(filt)))
                for label, (filt, _) in bank.items()
            ]
            n, edges, _ = self.graphs[shift]
            self.arcs += len(edges[0])
            if shift == "laplacian":
                self.s[shift] = oracle.laplacian(n, *edges)
                self.refs[shift] = oracle.SymmetricReference(self.s[shift])
            else:
                self.s[shift] = oracle.normalized_adjacency(n, *edges)
                self.refs[shift] = ref = oracle.LuReference(self.s[shift])
                for _, filt, _ in self.banks[shift]:
                    if filt["type"] == "arma":
                        ref.factor(np.asarray(filt["a"]))

    def cycle(self) -> list:
        return ["bank-pass"]

    def signals(self, index) -> dict:
        rng = self.rng(3, index)
        return {shift: rng.standard_normal(self.graphs[shift][0]) for shift in self.graphs}

    def run(self, label, index, traced) -> Op:
        import graphfilt.cg as gcg
        import graphfilt.fir as gfir

        cfg = gcg.CgConfig(epsilon=EPSILON, max_iterations=MAX_ITERATIONS)
        xs = self.signals(index)
        results = []
        start = time.perf_counter()
        for shift, (_, _, op) in self.graphs.items():
            for _, _, filt in self.banks[shift]:
                try:
                    if isinstance(filt, gfir.FirFilter):
                        results.append((gfir.fir_apply(filt, op, xs[shift]), None))
                    else:
                        results.append(gcg.arma_apply_cg(filt, op, xs[shift], cfg))
                except Exception as exc:  # a program failure is counted, not fatal
                    results.append((None, f"raised {type(exc).__name__}: {exc}"))
        seconds = time.perf_counter() - start
        outputs = []
        for y, trace in results:
            if y is None or trace is None:
                outputs.append((y, trace))
                continue
            outputs.append((y, {
                "iterations": trace.iterations,
                "converged": trace.converged,
                "normal_equations": trace.normal_equations,
                "shift_applications": trace.shift_applications,
            }))
        return Op(label=label, seconds=seconds, data={"index": index, "outputs": outputs})

    def fingerprint(self, op):
        return [(None if y is None else y.tobytes(), cg) for y, cg in op.data["outputs"]]

    def check(self, op) -> list:
        xs = self.signals(op.data["index"])
        outputs = iter(op.data["outputs"])
        apps = []
        for shift in self.graphs:
            for label, filt, _ in self.banks[shift]:
                y, cg = next(outputs)
                if y is None:
                    apps.append(App(label=f"{shift}:{label}", failure=cg,
                                    relerr=MISSING_ERROR))
                    continue
                ref = oracle.reference_output(self.refs[shift], filt, xs[shift])
                if cg is not None:
                    info = dict(cg, ar=len(filt["a"]) - 1, ma=len(filt["b"]) - 1)
                    if cg["shift_applications"] != shift_identity(info):
                        self.violations.append(
                            f"{shift} {label}: {cg['shift_applications']} shift "
                            f"applications, identity gives {shift_identity(info)}")
                apps.append(check_application(f"{shift}:{label}", filt, y, ref,
                                              self.s[shift], xs[shift],
                                              shift == "laplacian", cg))
        return apps


class Design(Workload):
    """In-process `graphfilt design` and `graphfilt experiment` commands."""

    name = "design"
    in_process = True
    BUDGETS = (5, 9, 13, 19)
    # Small graphs per shift kind; the i-th budget designs on variant i, so
    # every cycle covers all four spectra and repeats the one before it: the
    # error metrics depend on the seed, not on how many cycles a run has time for.
    GRAPH_VARIANTS = len(BUDGETS)

    def setup(self) -> dict:
        start = time.perf_counter()
        self.small = {"laplacian": [], "adjacency": []}
        for v in range(self.GRAPH_VARIANTS):
            n, p = SMALL_LAPLACIAN_GRAPH
            self.small["laplacian"].append((n, oracle.er_edges(n, p, self.rng(4, v))))
            n, k = SMALL_ADJACENCY_GRAPH
            coords = oracle.knn_coords(n, self.rng(5, v))
            self.small["adjacency"].append((n, oracle.knn_edges(coords, k)))
        for shift, graphs in self.small.items():
            for v, (n, edges) in enumerate(graphs):
                self.graph_path(shift, v).write_text(
                    oracle.graph_json(n, shift == "adjacency", *edges))
        built = time.perf_counter()
        # warm the design path once per shift kind before anything is timed
        for shift in self.small:
            op = run_main(["design", "--method", "iterative", "--response", LOWPASS,
                           "--budget", "5", "--grid", "graph-spectrum", "--shift", shift,
                           "--graph", str(self.graph_path(shift, 0)),
                           "-o", str(self.work / "warm-up.json")])
            if op.error:
                raise RuntimeError(f"set-up design on {shift} spectrum: {op.error}")
        return {"graph_build": built - start,
                "filter_design": time.perf_counter() - built}

    def graph_path(self, shift, variant):
        return self.work / f"{shift}-{variant}.json"

    def build_oracle(self) -> None:
        self.spectra = {}
        for shift, graphs in self.small.items():
            for v, (n, edges) in enumerate(graphs):
                self.arcs += len(edges[0])
                if shift == "laplacian":
                    s = oracle.laplacian(n, *edges).toarray()
                    self.spectra[shift, v] = np.linalg.eigvalsh(s)
                else:
                    s = oracle.normalized_adjacency(n, *edges).toarray()
                    self.spectra[shift, v] = oracle.real_if_close(np.linalg.eigvals(s))

    def grid(self, name, variant):
        """(frequencies, scored on magnitudes as graphfilt does) of a design grid."""
        if name.startswith("spectrum-"):
            return self.spectra[name.split("-", 1)[1], variant], False
        return grid_lambdas(name), name == "complex-disc"

    def cycle(self) -> list:
        grids = ("uniform-real", "complex-disc", "spectrum-laplacian", "spectrum-adjacency")
        specs = [(grid, str(b), ()) for grid in grids for b in self.BUDGETS]
        specs.append(("uniform-real", "9", ("--le-budget",)))
        seed = str(self.seed)
        specs += [
            ("experiment", "universal", ("--grid", "uniform-real", "--k-min", "2",
                                         "--k-max", "12", "--k-step", "2", "--seed", seed)),
            ("experiment", "interpolation", ("--trials", "50", "--seed", seed)),
            ("experiment", "compression", ("--k-min", "4", "--k-max", "8", "--k-step", "4",
                                           "--trials", "4", "--seed", seed)),
            ("experiment", "prediction", ("--k-min", "3", "--k-max", "5", "--k-step", "1",
                                          "--trials", "3", "--seed", seed)),
        ]
        return specs

    # rows each reduced study writes: k values x methods (or bit budgets, ...)
    EXPERIMENT_ROWS = {"universal": 24, "interpolation": 6, "compression": 4,
                       "prediction": 12}

    def run(self, spec, index, traced) -> Op:
        grid, what, extra = spec
        out = self.work / f"d{index}{'t' if traced else 'u'}.json"
        report = out.with_suffix(".report.json")
        read = []
        variant = None
        if grid == "experiment":
            out = out.with_suffix(".csv")
            argv = ["experiment", what, *extra, "-o", str(out)]
            label = f"experiment-{what}"
        else:
            argv = ["design", "--method", "iterative", "--response", LOWPASS,
                    "--budget", what, *extra, "-o", str(out), "--report", str(report)]
            if grid.startswith("spectrum-"):
                shift = grid.split("-", 1)[1]
                variant = self.BUDGETS.index(int(what))
                graph = self.graph_path(shift, variant)
                argv += ["--grid", "graph-spectrum", "--graph", str(graph), "--shift", shift]
                read.append(graph)
            else:
                argv += ["--grid", grid]
            label = f"{grid}-b{what}{''.join(extra)}"
        op = run_main(argv)
        op.label = label
        op.bytes_read = sum(map(file_size, read))
        op.bytes_written = file_size(out) + file_size(report)
        op.data = {"spec": spec, "out": out, "report": report, "variant": variant}
        return op

    def fingerprint(self, op):
        report = read_bytes(op.data["report"])
        if report is not None:
            report = json.loads(report)
            report.pop("config")  # echoes the output paths, which differ
        return op.error, read_bytes(op.data["out"]), report

    def check(self, op) -> list:
        app = App(label=op.label)
        grid, what, _ = op.data["spec"]
        try:
            if op.error:
                app.failure = op.error
            elif grid == "experiment":
                self._check_experiment(op, what, app)
            else:
                self._check_design(op, grid, app)
        except (OSError, ValueError, KeyError) as exc:
            app.failure = f"unreadable output: {exc}"
        if app.failure and grid != "experiment":
            app.rnmse = app.relerr = MISSING_ERROR
        return [app]

    def _check_experiment(self, op, study, app) -> None:
        rows = np.loadtxt(op.data["out"], delimiter=",", skiprows=1, usecols=(5, 6),
                          ndmin=2)
        if len(rows) != self.EXPERIMENT_ROWS[study]:
            app.failure = f"{len(rows)} report rows, expected {self.EXPERIMENT_ROWS[study]}"
        elif not np.all(np.isfinite(rows)) or np.any(rows < 0):
            app.failure = "non-finite or negative RNMSE in report"

    def _check_design(self, op, grid, app) -> None:
        filt = json.loads(op.data["out"].read_text())
        report = json.loads(op.data["report"].read_text())
        lam, amplitude_only = self.grid(grid, op.data["variant"])
        violations = []
        app.rnmse = check_rnmse(filt, report, lam, amplitude_only, violations, op.label)
        # a design's output is its frequency response: error against the
        # ideal response, magnitude and phase, on the design grid
        app.relerr = oracle.design_rnmse(filt, lam, oracle.ideal_lowpass(lam, CUTOFF),
                                         amplitude_only=False)
        if violations:
            app.failure = violations[0]
        elif not (np.isfinite(app.rnmse) and np.isfinite(app.relerr)):
            app.failure = "designed filter has a non-finite response"


def oracle_self_check(seed: int) -> list:
    """Compare the references with graphfilt's dense arma_apply_direct, and the
    reference shifts with graphfilt's normalize, on small graphs."""
    import graphfilt.graphs as gg
    from graphfilt.arma import ArmaFilter, arma_apply_direct

    rng = np.random.default_rng([seed, 9])
    a, b = np.array([1.0, 0.3, 0.1]), np.array([0.5, -0.2, 0.05])
    problems = []
    for shift in ("laplacian", "adjacency"):
        if shift == "laplacian":
            n = 120
            edges = oracle.er_edges(n, 0.08, rng)
            s = oracle.laplacian(n, *edges)
            ref, kind = oracle.SymmetricReference(s), gg.NORMALIZED_LAPLACIAN
        else:
            n = 80
            edges = oracle.knn_edges(oracle.knn_coords(n, rng), 6)
            s = oracle.normalized_adjacency(n, *edges)
            ref, kind = oracle.LuReference(s), gg.NORMALIZED_ADJACENCY
        op = gg.normalize(gg.graph_from_json(
            oracle.graph_json(n, shift == "adjacency", *edges)), kind)
        gap = abs(op.matrix - s).max()
        if gap > 1e-12:
            problems.append(f"self-check {shift}: shifts differ by {gap:.3g}")
        x = rng.standard_normal(n)
        err = oracle.relerr(ref.arma(a, b, x),
                            arma_apply_direct(ArmaFilter(a=a, b=b), op, x))
        if not err <= 1e-9:
            problems.append(f"self-check {shift}: reference and direct solve differ "
                            f"by {err:.3g}")
    return problems


def make(name: str, root, work, seed: int) -> Workload:
    if name == "cli-apply-laplacian":
        return CliApply(root, work, seed, "laplacian")
    if name == "cli-apply-adjacency":
        return CliApply(root, work, seed, "adjacency")
    if name == "solve":
        return Solve(root, work, seed)
    if name == "design":
        return Design(root, work, seed)
    raise ValueError(f"unknown workload {name!r}")


# The workloads BENCHMARK.json names. The extra ones run the same way when
# asked for by name; they are left out of the benchmarked set so that its runs
# can be long enough to be steady within the time the whole set may take.
WORKLOADS = ("cli-apply-laplacian", "design")
EXTRA_WORKLOADS = ("cli-apply-adjacency", "solve")
