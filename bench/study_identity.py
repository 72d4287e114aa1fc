"""Byte identity and in-process timing of graphfilt's studies and shift
products, one tree against another, plus optional alternating benchmark pairs.

    python3 bench/study_identity.py PARENT_TREE CHANGE_TREE -o bench/BENCH_prN.json \
        [--reps 15] [--pairs design=8 --pairs cli-apply-laplacian=3] \
        [--seconds 36] [--pair-seed 22101] [--parent-commit SHA]

Each TREE is the root of a checkout that holds src/graphfilt and perfbench/.
Both trees' src/graphfilt is byte-compiled first, as perfbench/run.py does,
so that no timed process compiles the modules again when
PYTHONDONTWRITEBYTECODE keeps Python from caching them. Every measurement of
a tree runs in a child process of this script that imports that tree's src/
only, with BLAS held to one thread:

- identity: sha256 of the CSV that `graphfilt experiment KIND` writes for
  each of the four studies, at the CLI defaults and at the settings of the
  benchmark's `design` workload, at seeds 0-9 and 24; and sha256 of the
  output and trace CSV of `graphfilt apply --solver cg` for each filter of
  the `cli-apply-laplacian` bank and of the `cli-apply-adjacency` bank
  (normal-equations CG, the only user of S^T products), built by the
  benchmark's own set-up;
- timing: one long-lived child per tree runs the timed calls: the
  benchmark's study ops, the CLI defaults of the two batched studies,
  acceptance criteria 7 and 9, each layer of `graphfilt apply --solver cg`
  on the cli-apply-laplacian graph and the whole command in process for four
  bank filters, and batches of shift products; after one warm-up call per
  side, the two sides run each call in turn, --reps times, alternating which
  side goes first; each call's seconds are divided by the operations it ran
  (one study, or the products of a batch);
- imports: the seconds of `import scipy.sparse` after `import numpy` in
  fresh processes, and the process wall time of `import graphfilt.cli` in
  each tree and of `import numpy`;
- pairs: `python3 perfbench/run.py --workload W --seed S --seconds N
  --trace 0` run in each tree, the two sides of a pair back to back and the
  pairs alternating which side runs first, seeds counting up from
  --pair-seed; the record keeps every result line and op line.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import functools
import hashlib
import json
import math
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
APPLY_BANKS = (("cli-apply-laplacian", "LAPLACIAN_BANK"),
               ("cli-apply-adjacency", "ADJACENCY_BANK"))
APPLY_FILTERS = ("iterative-b9", "iterative-b19", "iterative-p3q5", "fir-k16")
PRODUCTS_PER_BATCH = 100
FIRST_PRODUCTS_PER_BATCH = 10
IMPORT_RUNS = 7
IMPORT_PROBE = ("import time, numpy\nstart = time.perf_counter()\nimport scipy.sparse\n"
                "print(time.perf_counter() - start)")
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
    for name, bank in APPLY_BANKS:
        for seed in APPLY_SEEDS:
            wl = workloads.make(name, tree, work, seed)
            wl.setup()
            for index, (label, _) in enumerate(getattr(workloads, bank)):
                error, y, trace = wl.fingerprint(wl.run(label, index, traced=False))
                out[f"{name}/seed-{seed}/{label}"] = {"error": error, "output": _sha(y),
                                                      "trace": _sha(trace)}
    return out


def _product_calls() -> dict:
    """label -> a call that runs a batch of single-signal shift products and
    returns how many it ran. Each graph is built on its first call; the
    numpy batches run with the scipy switch point out of reach."""
    import numpy as np
    from graphfilt import graphs

    def star(n):
        spokes = np.arange(1, n)
        return graphs.Graph(n, np.r_[np.zeros(n - 1), spokes], np.r_[spokes, np.zeros(n - 1)],
                            np.ones(2 * (n - 1)), directed=False)

    # label -> (graph, shift kind, transposed)
    cases = {
        "ER(3000, 0.004) Laplacian": (lambda: graphs.build_er_graph(3000, 0.004, 1),
                                      graphs.NORMALIZED_LAPLACIAN, False),
        "ER(20000, 0.0006) Laplacian": (lambda: graphs.build_er_graph(20000, 0.0006, 1),
                                        graphs.NORMALIZED_LAPLACIAN, False),
        "k-NN(1500, 8) adjacency, S^T": (
            lambda: graphs.build_knn_directed(
                np.random.default_rng(TIMING_SEED).random((1500, 2)), 8),
            graphs.NORMALIZED_ADJACENCY, True),
        "star(2000) Laplacian": (lambda: star(2000), graphs.NORMALIZED_LAPLACIAN, False),
    }

    @functools.cache
    def operand(name):
        make, kind, _ = cases[name]
        op = graphs.normalize(make(), kind)
        return op, np.random.default_rng(TIMING_SEED).standard_normal(op.n)

    def batch(name, kernel):
        op, x = operand(name)
        transposed = cases[name][2]
        if kernel == "scipy":
            matrix = op.matrix.T if transposed else op.matrix
            for _ in range(PRODUCTS_PER_BATCH):
                matrix @ x
            return PRODUCTS_PER_BATCH
        product = graphs.shift_apply_transpose if transposed else graphs.shift_apply
        switch, graphs._SCIPY_AFTER_ARC_VISITS = graphs._SCIPY_AFTER_ARC_VISITS, math.inf
        try:
            if kernel == "numpy":
                for _ in range(PRODUCTS_PER_BATCH):
                    product(op, x)
                return PRODUCTS_PER_BATCH
            # the first product on a new operator, which builds its layout
            for _ in range(FIRST_PRODUCTS_PER_BATCH):
                product(dataclasses.replace(op), x)
            return FIRST_PRODUCTS_PER_BATCH
        finally:
            graphs._SCIPY_AFTER_ARC_VISITS = switch

    return {f"shift product, {name}, {kernel}": functools.partial(batch, name, kernel)
            for name in cases for kernel in ("numpy", "scipy", "first numpy product")}


def _apply_calls(tree: Path, work: Path) -> dict:
    """label -> a call that runs one layer of `graphfilt apply --solver cg` on
    the cli-apply-laplacian workload's graph and a signal (seed TIMING_SEED),
    or the whole command in process for one bank filter."""
    import numpy as np
    from graphfilt import cg, cli, graphs

    sys.path.insert(0, str(tree / "perfbench"))
    import oracle
    import workloads

    rng = np.random.default_rng([TIMING_SEED, 1])
    n, edges = workloads.laplacian_input(rng)
    graph, signal = work / "graph.json", work / "signal.csv"
    graph.write_text(oracle.graph_json(n, False, *edges))
    signal.write_text(oracle.signal_csv(rng.standard_normal(n)))
    text = graph.read_text()
    parsed = graphs.graph_from_json(text)
    y = rng.standard_normal(n)
    trace = cg.CgTrace(residual_norms=rng.random(workloads.MAX_ITERATIONS + 1).tolist())
    calls = {
        "apply layer, graph_from_json": lambda: graphs.graph_from_json(text),
        "apply layer, normalize laplacian": lambda: graphs.normalize(
            parsed, graphs.NORMALIZED_LAPLACIAN),
        "apply layer, normalize laplacian and is_symmetric": lambda: graphs.is_symmetric(
            graphs.normalize(parsed, graphs.NORMALIZED_LAPLACIAN)),
        "apply layer, read_id_table signal": lambda: graphs.read_id_table(
            signal, ("node_id", "value")),
        "apply layer, write output": lambda: cli._write_signal_column(str(work / "y.csv"), y),
        "apply layer, write 201-row trace": lambda: cg.trace_to_csv(trace, work / "t.csv"),
    }
    for label, args in workloads.LAPLACIAN_BANK:
        if label not in APPLY_FILTERS:
            continue
        filt = work / f"{label}.json"
        if cli.main(["design", "--grid", "uniform-real", "--response", workloads.LOWPASS,
                     *args, "-o", str(filt)]) != 0:
            raise RuntimeError(f"design of {label} failed")
        argv = ["apply", "--filter", str(filt), "--graph", str(graph), "--shift", "laplacian",
                "--input", str(signal), "--solver", "cg", "--trace", str(work / "t.csv"),
                "-o", str(work / "y.csv")]
        calls[f"apply in process, {label}"] = functools.partial(cli.main, argv)
    return calls


def _timed_calls(tree: Path, work: Path) -> dict:
    """label -> a call that runs one study or apply step once and returns 1,
    or a batch of shift products and returns how many."""
    from graphfilt.experiments import interpolation_study, prediction_study

    once = {}
    for kind in STUDIES:
        argv = [kind, *BENCH_SETTINGS[kind], "--seed", str(TIMING_SEED)]
        once[f"{kind}, benchmark op (seed {TIMING_SEED})"] = (
            lambda argv=argv: _experiment(argv, work / "t.csv"))
    for kind in ("interpolation", "prediction"):
        once[f"{kind}, CLI default"] = (
            lambda kind=kind: _experiment([kind], work / "t.csv"))
    once["interpolation, acceptance criterion 7"] = lambda: interpolation_study(trials=50)
    once["prediction, acceptance criterion 9"] = lambda: prediction_study(
        k_values=(3, 4, 6), bit_values=(3, 5, 7, 16), trials=8)
    once.update(_apply_calls(tree, work))
    return {**{label: functools.partial(_once, call) for label, call in once.items()},
            **_product_calls()}


def _once(call) -> int:
    call()
    return 1


def worker_serve(tree: Path, work: Path) -> None:
    """Print the labels of the timed calls as one JSON line, then for every
    label read from standard input run that call and print the seconds per
    operation it ran."""
    calls = _timed_calls(tree, work)
    print(json.dumps(list(calls)), flush=True)
    for line in sys.stdin:
        call = calls[json.loads(line)]
        start = time.perf_counter()
        count = call()
        print(json.dumps((time.perf_counter() - start) / count), flush=True)


def worker(mode: str, tree: Path) -> dict | None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if mode == "digests":
            return worker_digests(work)
        if mode == "apply":
            return worker_apply(tree, work)
        if mode == "serve":
            return worker_serve(tree, work)
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


def worker_command(mode: str, tree: Path) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--worker", mode, str(tree)]


def run_worker(mode: str, tree: Path) -> dict:
    done = subprocess.run(worker_command(mode, tree), env=child_env(tree),
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker {mode} on a tree failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def compare(parent: dict, change: dict) -> dict:
    keys = sorted(set(parent) | set(change))
    differ = [k for k in keys if parent.get(k) != change.get(k)]
    return {"compared": len(keys), "identical": len(keys) - len(differ), "differ": differ,
            "digests": {k: {"parent": parent.get(k), "change": change.get(k)} for k in keys}}


def timing(trees: dict, reps: int) -> dict:
    """Every timed call, the two trees' workers called in turn (module
    docstring)."""
    servers = {side: subprocess.Popen(worker_command("serve", tree), env=child_env(tree),
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for side, tree in trees.items()}

    def call(side, label):
        server = servers[side]
        server.stdin.write(json.dumps(label) + "\n")
        server.stdin.flush()
        return json.loads(server.stdout.readline())

    try:
        labels = [json.loads(servers[side].stdout.readline()) for side in trees]
        if labels[0] != labels[1]:
            raise RuntimeError("the trees' workers time different calls")
        summary = {}
        for label in labels[0]:
            for side in trees:
                call(side, label)  # warm-up
            seconds = {side: [] for side in trees}
            for r in range(reps):
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    seconds[side].append(call(side, label))
            med = {side: statistics.median(values) for side, values in seconds.items()}
            summary[label] = {"parent_s": med["parent"], "change_s": med["change"],
                              "ratio": med["change"] / med["parent"],
                              "change_faster": sum(c < p for p, c in zip(seconds["parent"],
                                                                         seconds["change"])),
                              "seconds": seconds}
    finally:
        for server in servers.values():
            server.stdin.close()
            server.wait()
    return {"reps": reps, "seconds_are": "per operation: one study, or one shift product",
            "calls": summary}


def import_cost(trees: dict) -> dict:
    """Seconds of `import scipy.sparse` after `import numpy` inside fresh
    processes, and the wall time of `python -c "import graphfilt.cli"` and of
    `python -c "import numpy"` processes, the trees in turn."""
    scipy_s, wall = [], {}
    probes = [(f"import graphfilt.cli, {side}", tree, "import graphfilt.cli")
              for side, tree in trees.items()]
    probes.append(("import numpy", trees["change"], "import numpy"))
    for r in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              env=child_env(trees["change"]), capture_output=True, text=True,
                              check=True)
        scipy_s.append(float(done.stdout))
        for label, tree, code in probes if r % 2 == 0 else probes[::-1]:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(tree), check=True)
            wall.setdefault(label, []).append(time.perf_counter() - start)
    return {"scipy_sparse_after_numpy": {"seconds": scipy_s,
                                         "median_s": statistics.median(scipy_s)},
            "process_wall": {label: {"seconds": v, "median_s": statistics.median(v)}
                             for label, v in wall.items()}}


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
    ap.add_argument("--worker", choices=("digests", "apply", "serve", "environment"))
    ap.add_argument("-o", "--output", type=Path)
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=COUNT")
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--pair-seed", type=int, default=22101)
    ap.add_argument("--parent-commit")
    args = ap.parse_args(argv)
    if args.worker:
        result = worker(args.worker, args.trees[0].resolve())
        if result is not None:
            print(json.dumps(result))
        return 0
    if len(args.trees) != 2 or args.output is None:
        ap.error("give PARENT_TREE CHANGE_TREE and -o OUTPUT")
    trees = dict(zip(("parent", "change"), (t.resolve() for t in args.trees)))
    for tree in trees.values():
        compileall.compile_dir(tree / "src" / "graphfilt", quiet=1)
    record = {
        "what": "Study CSV and cli-apply output identity, parent against change; "
                "in-process study and shift-product timing; benchmark pairs",
        "command": "python3 bench/study_identity.py PARENT_TREE CHANGE_TREE "
                   f"-o {args.output.name} --reps {args.reps} "
                   + "".join(f"--pairs {p} " for p in args.pairs)
                   + f"--seconds {args.seconds} --pair-seed {args.pair_seed}",
        "parent_commit": args.parent_commit,
        "environment": run_worker("environment", trees["change"]),
        "blas_threads": 1,
        "identity": {
            "studies": compare(*(run_worker("digests", trees[s]) for s in trees)),
            "cli_apply": compare(*(run_worker("apply", trees[s]) for s in trees)),
        },
        "timing": timing(trees, args.reps),
        "imports": import_cost(trees),
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
