"""Byte identity and in-process timing of graphfilt's studies, one tree
against another, plus optional alternating benchmark pairs.

    python3 bench/study_identity.py PARENT_TREE CHANGE_TREE -o bench/BENCH_prN.json \
        [--rounds 5] [--reps 5] [--pairs design=8 --pairs cli-apply-laplacian=3] \
        [--seconds 36] [--pair-seed 22101] [--parent-commit SHA]

Each TREE is the root of a checkout that holds src/graphfilt and perfbench/.
Every measurement of a tree runs in a child process of this script that
imports that tree's src/ only, with BLAS held to one thread:

- identity: sha256 of the CSV that `graphfilt experiment KIND` writes for
  each of the four studies, at the CLI defaults and at the settings of the
  benchmark's `design` workload, at seeds 0-9 and 24; and sha256 of the
  output and trace CSV of `graphfilt apply --solver cg` for each filter of
  the `cli-apply-laplacian` bank, built by the benchmark's own set-up;
- timing: per-study in-process medians (one warm-up call, then --reps
  timed calls per round), in --rounds rounds that alternate which tree goes
  first, for the benchmark's study ops, the CLI defaults of the two batched
  studies and acceptance criteria 7 and 9;
- pairs: `python3 perfbench/run.py --workload W --seed S --seconds N
  --trace 0` run in each tree, the two sides of a pair back to back and the
  pairs alternating which side runs first, seeds counting up from
  --pair-seed; the record keeps every result line and op line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (*range(10), 24)
STUDIES = ("universal", "interpolation", "compression", "prediction")
# the `design` workload's study ops (perfbench/workloads.py, Design.cycle)
BENCH_SETTINGS = {
    "universal": ["--grid", "uniform-real", "--k-min", "2", "--k-max", "12",
                  "--k-step", "2"],
    "interpolation": ["--trials", "50"],
    "compression": ["--k-min", "4", "--k-max", "8", "--k-step", "4", "--trials", "4"],
    "prediction": ["--k-min", "3", "--k-max", "5", "--k-step", "1", "--trials", "3"],
}
TIMING_SEED = 24
APPLY_SEEDS = (24, 22001)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Workers: run in a child process that imports one tree's graphfilt
# ---------------------------------------------------------------------------

def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _experiment(argv, out: Path) -> bytes:
    from graphfilt.cli import main

    code = main(["experiment", *argv, "-o", str(out)])
    if code != 0:
        raise RuntimeError(f"graphfilt experiment {' '.join(argv)} exited {code}")
    return out.read_bytes()


def worker_digests(work: Path) -> dict:
    out = {}
    for seed in SEEDS:
        for kind in STUDIES:
            for setting, extra in (("cli-defaults", []), ("benchmark", BENCH_SETTINGS[kind])):
                argv = [kind, *extra, "--seed", str(seed)]
                out[f"{kind}/{setting}/seed-{seed}"] = _sha(_experiment(argv, work / "s.csv"))
    return out


def worker_apply(tree: Path, work: Path) -> dict:
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    out = {}
    for seed in APPLY_SEEDS:
        wl = workloads.make("cli-apply-laplacian", tree, work, seed)
        wl.setup()
        for index, (label, _) in enumerate(workloads.LAPLACIAN_BANK):
            error, y, trace = wl.fingerprint(wl.run(label, index, traced=False))
            out[f"seed-{seed}/{label}"] = {"error": error, "output": _sha(y),
                                           "trace": _sha(trace)}
    return out


def _timed_calls(work: Path) -> dict:
    """label -> a call that runs one study once."""
    from graphfilt.experiments import interpolation_study, prediction_study

    calls = {}
    for kind in STUDIES:
        argv = [kind, *BENCH_SETTINGS[kind], "--seed", str(TIMING_SEED)]
        calls[f"{kind}, benchmark op (seed {TIMING_SEED})"] = (
            lambda argv=argv: _experiment(argv, work / "t.csv"))
    for kind in ("interpolation", "prediction"):
        calls[f"{kind}, CLI default"] = (
            lambda kind=kind: _experiment([kind], work / "t.csv"))
    calls["interpolation, acceptance criterion 7"] = lambda: interpolation_study(trials=50)
    calls["prediction, acceptance criterion 9"] = lambda: prediction_study(
        k_values=(3, 4, 6), bit_values=(3, 5, 7, 16), trials=8)
    return calls


def worker_timing(work: Path, reps: int) -> dict:
    out = {}
    for label, call in _timed_calls(work).items():
        call()
        seconds = []
        for _ in range(reps):
            start = time.perf_counter()
            call()
            seconds.append(time.perf_counter() - start)
        out[label] = statistics.median(seconds)
    return out


def worker(mode: str, tree: Path, reps: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if mode == "digests":
            return worker_digests(work)
        if mode == "apply":
            return worker_apply(tree, work)
        if mode == "timing":
            return worker_timing(work, reps)
        if mode == "environment":
            import numpy

            return {"machine": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__}
    raise ValueError(f"unknown worker mode {mode!r}")


# ---------------------------------------------------------------------------
# Parent against change: run the workers of each tree and compare
# ---------------------------------------------------------------------------

def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env.pop("GRAPHFILT_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_worker(mode: str, tree: Path, reps: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", mode, str(tree),
           "--reps", str(reps)]
    done = subprocess.run(cmd, env=child_env(tree), capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker {mode} on a tree failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def compare(parent: dict, change: dict) -> dict:
    keys = sorted(set(parent) | set(change))
    differ = [k for k in keys if parent.get(k) != change.get(k)]
    return {"compared": len(keys), "identical": len(keys) - len(differ), "differ": differ,
            "digests": {k: {"parent": parent.get(k), "change": change.get(k)} for k in keys}}


def timing(trees: dict, rounds: int, reps: int) -> dict:
    per_round = []
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        per_round.append({side: run_worker("timing", trees[side], reps) for side in order})
    summary = {}
    for label in per_round[0]["parent"]:
        med = {side: statistics.median(rnd[side][label] for rnd in per_round)
               for side in trees}
        summary[label] = {"parent_s": med["parent"], "change_s": med["change"],
                          "ratio": med["change"] / med["parent"]}
    return {"rounds": rounds, "reps_per_round": reps, "per_round": per_round,
            "median_of_round_medians": summary}


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {"exit_code": done.returncode, "result": result,
            "op_lines": [line for line in lines if line.startswith("op ")],
            "stderr_tail": done.stderr.splitlines()[-3:] if done.returncode else []}


def pairs(trees: dict, counts: dict, seconds: int, first_seed: int) -> dict:
    runs = []
    index = 0
    for workload, count in counts.items():
        for i in range(count):
            seed = first_seed + index
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                runs.append({"workload": workload, "seed": seed, "seconds": seconds,
                             "side": side, "first": order[0],
                             **bench_run(trees[side], workload, seed, seconds)})
            index += 1
    return {"runs": runs, "summary": summarize(runs)}


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs) -> dict:
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload and run["result"]]
        metrics = {}
        for name in mine[0]["result"]["metrics"] if mine else ():
            sides = {side: [run["result"]["metrics"][name]["value"]
                            for run in mine if run["side"] == side]
                     for side in ("parent", "change")}
            metrics[name] = {side: _quartiles(values) for side, values in sides.items()}
        seeds = sorted({run["seed"] for run in mine})
        per_seed = {(run["seed"], run["side"]): run["result"] for run in mine}
        wins = sum(per_seed[s, "change"]["metrics"]["ops_per_s"]["value"]
                   > per_seed[s, "parent"]["metrics"]["ops_per_s"]["value"]
                   for s in seeds if (s, "change") in per_seed and (s, "parent") in per_seed)
        failed = {side: [run["result"]["failed"] for run in mine if run["side"] == side]
                  for side in ("parent", "change")}
        out[workload] = {"pairs": len(seeds), "ops_per_s_change_wins": wins,
                         "failed_per_run": failed, "metrics": metrics}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--worker", choices=("digests", "apply", "timing", "environment"))
    ap.add_argument("-o", "--output", type=Path)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=COUNT")
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--pair-seed", type=int, default=22101)
    ap.add_argument("--parent-commit")
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.trees[0].resolve(), args.reps)))
        return 0
    if len(args.trees) != 2 or args.output is None:
        ap.error("give PARENT_TREE CHANGE_TREE and -o OUTPUT")
    trees = dict(zip(("parent", "change"), (t.resolve() for t in args.trees)))
    record = {
        "what": "Study CSV and cli-apply-laplacian output identity, parent against "
                "change; in-process study timing; benchmark pairs",
        "command": "python3 bench/study_identity.py PARENT_TREE CHANGE_TREE "
                   f"-o {args.output.name} --rounds {args.rounds} --reps {args.reps} "
                   + "".join(f"--pairs {p} " for p in args.pairs)
                   + f"--seconds {args.seconds} --pair-seed {args.pair_seed}",
        "parent_commit": args.parent_commit,
        "environment": run_worker("environment", trees["change"]),
        "blas_threads": 1,
        "identity": {
            "studies": compare(*(run_worker("digests", trees[s]) for s in trees)),
            "cli_apply_laplacian": compare(*(run_worker("apply", trees[s]) for s in trees)),
        },
        "timing": timing(trees, args.rounds, args.reps),
    }
    counts = {}
    for spec in args.pairs:
        workload, _, count = spec.partition("=")
        counts[workload] = int(count)
    if counts:
        record["pairs"] = pairs(trees, counts, args.seconds, args.pair_seed)
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
