"""graphfilt benchmark: one workload at one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/graphfilt``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it repeat every metric
by name and unit, with the failure ratio, the tail percentile and the
environment. Workloads, metrics and the reasons for them are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread here and in every CLI process started from here (they copy
# this environment); set before numpy is first imported. With one thread per
# CPU on a two-CPU machine, a neighbour busy on one CPU made the dense eigvals
# of cli-apply-adjacency 2-2.5 times slower; a single thread was unaffected.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
IMPORT_REPS = 5
# A run never stops before this many whole cycles. At --seconds 13 a slowed
# machine would otherwise stop cli-apply-adjacency (cycle 11-13 s) after one
# cycle of five ops, and its p90 would rest on five samples.
MIN_CYCLES = 2
STUDIES = ("universal", "interpolation", "compression", "prediction")
SPAN_SECONDS = (
    "cli.main", "graphs.graph_from_json", "graphs.normalize_laplacian",
    "graphs.normalize_adjacency", "cg.arma_apply_cg", "fir.fir_apply",
    "fir.fir_design", "design.best_order_search", "design.iterative_design",
    "design.prony_projection", "design.prony_ls", "spectral.eigendecompose",
    "spectral.spectrum_grid", "arma.arma_apply_direct",
)


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def environment(seed: int, graphfilt_threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "GRAPHFILT_THREADS": graphfilt_threads or "unset",
        "seed": seed,
    }


def median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def interquartile_mean(values) -> float:
    """Mean of the middle half: robust to a few wild outputs like the median,
    but it moves smoothly instead of jumping between clustered values."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(values):
    """(value, percentile, samples): the highest percentile leaving at least
    ten samples above it, but never below p90. A run of fewer than 101 ops
    has no such percentile at or above p90, so it reports p90 (interpolated)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if len(ordered) > 1 and 100.0 * k / (len(ordered) - 1) >= 90.0:
        return ordered[k], 100.0 * k / (len(ordered) - 1), len(ordered)
    if len(ordered) == 1:
        return ordered[0], 90.0, 1
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0, len(ordered)


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

def run_traced(wl, spec, index):
    import tracer

    if not wl.in_process:
        return wl.run(spec, index, traced=True)
    rec = tracer.Tracer(index)
    patches = tracer.install(rec)
    try:
        op = wl.run(spec, index, traced=True)
    finally:
        tracer.uninstall(patches)
    op.spans = rec.spans
    return op


def measure(wl, seconds: float, traced: bool):
    """Closed loop over whole cycles until `seconds` have passed, and at
    least MIN_CYCLES of them.

    With traced, every op also runs a second time under the tracer with the
    same inputs; the traced copy is kept for the per-layer metrics.
    """
    ops, pairs = [], []
    index = 0
    start = time.perf_counter()
    for cycles in itertools.count(1):
        for spec in wl.cycle():
            op = wl.run(spec, index, traced=False)
            ops.append(op)
            if traced:
                pairs.append((op, run_traced(wl, spec, index)))
            index += 1
        if cycles >= MIN_CYCLES and time.perf_counter() - start >= seconds:
            break
    return ops, pairs, time.perf_counter() - start


def import_seconds(root, work) -> float:
    """Bare `import graphfilt.cli` minus bare interpreter start, medians."""
    import workloads

    env = workloads.child_env(root)
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for code, out in (("pass", bare), ("import graphfilt.cli", full)):
            seconds, status, _ = workloads.run_process(
                [sys.executable, "-c", code], env, work / "stderr-import.txt")
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited {status}")
            out.append(seconds)
    return median(full) - median(bare)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, ops, apps, elapsed, setup_s) -> dict:
    seconds = [op.seconds for op in ops]
    tail_s, _, _ = tail(seconds)
    rnmse = [a.rnmse for a in apps if a.rnmse is not None] or wl.bank_rnmse
    relerr = [a.relerr for a in apps if a.relerr is not None]
    return {
        "op_p50_s": (median(seconds), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(ops) / elapsed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (wl.peak_rss_kb(ops) / 1024.0, "MB"),
        "out_relerr_iqm": (interquartile_mean(relerr), "ratio"),
        "design_rnmse_iqm": (interquartile_mean(rnmse), "ratio"),
    }


def per_layer(wl, pairs, traced_apps, setup_stages, reference_s, import_s) -> dict:
    import tracer

    ops = [t for _, t in pairs]
    n_ops = max(len(ops), 1)
    totals = defaultdict(float)
    layer_self = defaultdict(float)
    counts = defaultdict(float)
    cg_spans = []
    for op in ops:
        spans = op.spans
        for (name, start, end, parent, _, info), self_s in zip(spans, tracer.self_times(spans)):
            totals[name] += end - start
            layer_self[tracer.layer_of(name)] += self_s
            if name in tracer.SHIFT_SPANS:
                counts["shifts"] += 1
                counts["flops"] += info.get("flops", 0)
                counts["bytes"] += info.get("bytes", 0)
            elif name == "cg.arma_apply_cg" and info and "iterations" in info:
                cg_spans.append((end - start, info))
            elif name == "design.run_method" and parent >= 0 \
                    and spans[parent][0] == "design.best_order_search":
                counts["candidates"] += 1
                counts["finite"] += bool(info and info.get("finite"))
            elif name == "design.iterative_design" and info and "passes" in info:
                counts["passes"] += info["passes"]
        cg_counts = tracer.shift_calls_under(spans, "cg.arma_apply_cg")
        counts["cg_shifts"] += sum(cg_counts.values())
    wall = sum(op.seconds for op in ops) or 1.0
    cg_apps = [a for a in traced_apps if a.cg is not None]
    n_cg = max(len(cg_spans), 1)

    m = {"import.cli_s": (import_s, "s")}
    for name in SPAN_SECONDS:
        m[name + "_s"] = (totals[name] / n_ops, "s")
    m["cli.bytes_read"] = (sum(op.bytes_read for op in ops) / n_ops, "B")
    m["cli.bytes_written"] = (sum(op.bytes_written for op in ops) / n_ops, "B")
    m["graphs.arcs"] = (wl.arcs, "count")
    m["graphs.shift_applications"] = (counts["shifts"] / n_ops, "count")
    m["graphs.computed_flops"] = (counts["flops"] / n_ops, "flop")
    m["graphs.computed_bytes"] = (counts["bytes"] / n_ops, "B")
    m["cg.iterations"] = (sum(i["iterations"] for _, i in cg_spans) / n_cg, "count")
    m["cg.s_per_shift"] = (sum(d for d, _ in cg_spans) / max(counts["cg_shifts"], 1), "s")
    m["cg.normal_equations"] = (sum(i["normal_equations"] for _, i in cg_spans) / n_cg,
                                "ratio")
    m["cg.unconverged"] = (sum(not i["converged"] for _, i in cg_spans) / n_cg, "ratio")
    m["cg.tolerance_miss"] = (sum(a.cg["tolerance_miss"] for a in cg_apps)
                              / max(len(cg_apps), 1), "ratio")
    m["design.candidates"] = (counts["candidates"] / n_ops, "count")
    m["design.candidate_yield"] = (counts["finite"] / max(counts["candidates"], 1),
                                   "ratio")
    m["design.iterative_passes"] = (counts["passes"] / n_ops, "count")
    for study in STUDIES:
        m[f"experiments.{study}_s"] = (totals[f"experiments.{study}_study"] / n_ops, "s")
    m["setup.graph_build_s"] = (median([s["graph_build"] for s in setup_stages]), "s")
    m["setup.filter_design_s"] = (median([s["filter_design"] for s in setup_stages]), "s")
    m["setup.reference_s"] = (reference_s, "s")
    shares = 0.0
    for layer in ("import", *tracer.LAYERS):
        m[f"{layer}.self_s"] = (layer_self[layer] / n_ops, "s")
        share = layer_self[layer] / wall
        m[f"{layer}.share"] = (share, "ratio")
        shares += share
    m["unattributed.share"] = (1.0 - shares, "ratio")
    m["trace.overhead_ratio"] = (
        median([t.seconds / u.seconds for u, t in pairs], default=1.0), "ratio")
    return m


def trace_violations(wl, pairs) -> list:
    """Span nesting, the shift-count identity, and traced == untraced."""
    import tracer
    import workloads

    problems = []
    for untraced, traced in pairs:
        problems += [f"{traced.label}: {p}" for p in tracer.check_nesting(traced.spans)]
        counted = tracer.shift_calls_under(traced.spans, "cg.arma_apply_cg")
        for index, shifts in counted.items():
            info = traced.spans[index][5]
            if not info or "iterations" not in info:
                continue
            expected = workloads.shift_identity(info)
            if not shifts == info["shift_applications"] == expected:
                problems.append(
                    f"{traced.label}: {shifts} shift spans, {info['shift_applications']} "
                    f"recorded, identity gives {expected}")
        if wl.fingerprint(untraced) != wl.fingerprint(traced):
            problems.append(f"{traced.label}: traced output differs from untraced")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (ROOT / "src" / "graphfilt" / "__init__.py").is_file():
        print(f"error: no graphfilt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    graphfilt_threads = os.environ.pop("GRAPHFILT_THREADS", None)
    # Byte-compile graphfilt once, as an installed package is; otherwise, with
    # PYTHONDONTWRITEBYTECODE set, every CLI process would compile it anew.
    compileall.compile_dir(ROOT / "src" / "graphfilt", quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    import graphfilt

    if Path(graphfilt.__file__).resolve().parent != ROOT / "src" / "graphfilt":
        print(f"error: imported graphfilt from {graphfilt.__file__}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work, graphfilt_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, graphfilt_threads) -> int:
    import workloads

    wl = workloads.make(args.workload, ROOT, work, args.seed)
    stages = [wl.setup() for _ in range(wl.setup_reps)]
    setup_s = median([sum(s.values()) for s in stages])
    start = time.perf_counter()
    wl.build_oracle()
    reference_s = time.perf_counter() - start
    violations = workloads.oracle_self_check(args.seed)

    ops, pairs, elapsed = measure(wl, args.seconds, traced=bool(args.trace))
    apps = [app for op in ops for app in wl.check(op)]
    if args.trace:
        traced_apps = [app for _, op in pairs for app in wl.check(op)]
        violations += trace_violations(wl, pairs)
        metrics = per_layer(wl, pairs, traced_apps, stages, reference_s,
                            import_seconds(ROOT, work))
        # spans of the first traced cycle, for reading a run without rerunning it
        dump = WORK / f"trace-{args.workload}-{args.seed}.json"
        dump.write_text(json.dumps([op.spans for _, op in pairs[:len(wl.cycle())]]))
    else:
        metrics = end_to_end(wl, ops, apps, elapsed, setup_s)
    violations += wl.violations

    failed = sum(app.failure is not None for app in apps)
    env = environment(args.seed, graphfilt_threads)
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    tail_s, pct, samples = tail([op.seconds for op in ops])
    print(f"{'fail_ratio':34s} {failed / len(apps):.6g} failed/attempted "
          f"({failed}/{len(apps)})")
    print(f"op_tail_s is p{pct:.0f} of {samples} ops over {elapsed:.1f} s")
    by_label = defaultdict(list)
    for op in ops:
        by_label[op.label].append(op.seconds)
    for label, seconds in by_label.items():
        print(f"op {label}: {len(seconds)} runs, median {median(seconds):.4g} s")
    reasons = defaultdict(int)
    for app in apps:
        if app.failure:
            reasons[f"{app.label}: {app.failure}"] += 1
    for reason, count in sorted(reasons.items()):
        print(f"failed x{count} {reason}")
    for problem in violations:
        print(f"violation: {problem}")
    print(json.dumps({
        "correct": not violations,
        "attempted": len(apps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
