"""Self-test of the benchmark at tiny graph sizes: python3 perfbench/selftest.py

For every workload, one untraced and one traced run with a single cycle:
- the result line carries exactly the metrics BENCHMARK.json lists, each
  with its unit;
- the run is correct: spans nest with non-negative self time and children
  inside parents, the shift-count identity holds, traced and untraced runs
  of each op give identical outputs and counts, and the oracle agrees with
  graphfilt's dense direct solve;
- a corrupted output is counted as failed, not accepted.
Exits non-zero on the first failed check.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "LAPLACIAN_GRAPH": (200, 0.05),
    "ADJACENCY_GRAPH": (150, 6),
}


def run_once(name: str, trace: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.001",
                         "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def check_metrics(name, trace, result, spec) -> None:
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == declared, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(declared))} "
           "differ from BENCHMARK.json, or a unit differs")
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{name} trace={trace}: non-numeric metric value")


def check_nesting_detects_errors() -> None:
    good = [("a.f", 0.0, 1.0, -1, 0, None), ("b.g", 0.2, 0.5, 0, 0, None)]
    expect(not tracer.check_nesting(good), "a well-nested span list was rejected")
    bad = [("a.f", 0.0, 1.0, -1, 0, None), ("b.g", 0.5, 1.5, 0, 0, None)]
    expect(tracer.check_nesting(bad), "a child outside its parent was accepted")
    expect(all(abs(a - b) < 1e-12 for a, b in zip(tracer.self_times(good), [0.7, 0.3])),
           "self time is not duration minus children")


def check_corruption_detected() -> None:
    import numpy as np

    import oracle

    rng = np.random.default_rng(3)
    n = 60
    edges = oracle.er_edges(n, 0.15, rng)
    s = oracle.laplacian(n, *edges)
    ref = oracle.SymmetricReference(s)
    filt = {"type": "arma", "a": [1.0, 0.4], "b": [0.5, 0.1]}
    x = rng.standard_normal(n)
    y = oracle.reference_output(ref, filt, x)
    cg = {"iterations": 3, "converged": True, "normal_equations": False}
    ok = workloads.check_application("exact", filt, y, y, s, x, True, cg)
    expect(ok.failure is None, f"an exact output was rejected: {ok.failure}")
    y_bad = y.copy()
    y_bad[0] += 0.1 * np.linalg.norm(y)
    bad = workloads.check_application("corrupt", filt, y_bad, y, s, x, True, cg)
    expect(bad.failure is not None, "a corrupted output passed the residual check")
    missing = workloads.check_application("nan", filt, y * np.nan, y, s, x, True, cg)
    expect(missing.failure is not None and missing.relerr == workloads.MISSING_ERROR,
           "a non-finite output was not counted as failed")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, value in TINY.items():
        setattr(workloads, key, value)
    run.IMPORT_REPS = 1
    run.MIN_CYCLES = 1
    check_nesting_detects_errors()
    check_corruption_detected()
    for name in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_once(name, trace)
            expect(code == 0, f"{name} trace={trace}: exit code {code}")
            violations = [line for line in lines if line.startswith("violation:")]
            expect(result["correct"] and not violations,
                   f"{name} trace={trace}: not correct: {violations}")
            expect(result["attempted"] >= 1, f"{name} trace={trace}: nothing attempted")
            check_metrics(name, trace, result, spec)
            print(f"ok {name} trace={trace}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
