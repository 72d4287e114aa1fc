"""Byte identity, peak RSS and wall time of `graphfilt apply --solver direct`,
one tree against another.

    python3 bench/direct_apply.py PARENT_TREE CHANGE_TREE --into bench/BENCH_prN.json \
        [--runs 2]

Each TREE is the root of a checkout that holds src/graphfilt and perfbench/.
Set-up, with the parent tree's CLI: the Erdos-Renyi graphs ER(2000, 0.005)
and ER(500, 0.02), applied with the Laplacian shift, and a directed k-NN(500,
8) graph, applied with `--shift adjacency`; one white signal per graph; and
the benchmark's two filter banks (perfbench/workloads.py), the Laplacian bank
designed on the 100-point uniform-real grid and the adjacency bank on the
complex-disc grid. Every ARMA filter of a bank is then applied to its graphs
by a `graphfilt apply --solver direct` child of each tree, with BLAS held to
one thread. Each child is reaped with os.wait4. On Linux a child's ru_maxrss
starts from the high-water mark of the process it was forked from, so the
set-up runs in a child of its own and the measuring process never imports
numpy: the figure is then the `apply` child's own peak RSS. Both trees'
src/graphfilt is byte-compiled first, as perfbench/run.py does, so that no
child compiles the modules again when PYTHONDONTWRITEBYTECODE keeps Python
from caching them. The two trees run each case in turn, --runs times,
alternating which tree goes first.

The record, stored under the key "direct_apply" of the --into JSON file,
holds per (graph, filter) the sha256 of each tree's output CSV and every
run's peak RSS and wall time.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLI_ENTRY = "import sys\nfrom graphfilt.cli import main\nsys.exit(main())"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (name, gen-graph flags, shift, bank)
GRAPHS = (
    ("er-2000-0.005", ["--er", "--n", "2000", "--p", "0.005", "--seed", "1"],
     "laplacian", "laplacian"),
    ("er-500-0.02", ["--er", "--n", "500", "--p", "0.02", "--seed", "1"],
     "laplacian", "laplacian"),
    ("knn-500-8", ["--knn", "8"], "adjacency", "adjacency"),
)
KNN_NODES = 500
SIGNAL_SEED = 0


def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env.pop("GRAPHFILT_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def cli(tree: Path, argv) -> dict:
    """One graphfilt CLI child of tree, reaped with wait4."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv],
                                env=child_env(tree), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"graphfilt {' '.join(argv)} exited {proc.returncode}:\n"
                               f"{err.read().decode(errors='replace')}")
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024}


def write_signal(path: Path, values) -> None:
    lines = ["node_id,value"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def set_up(parent: Path, work: Path) -> list:
    """(graph, filter label, apply argv without -o) for every ARMA filter."""
    import numpy as np

    sys.path.insert(0, str(parent / "perfbench"))
    import workloads

    banks = {"laplacian": ("uniform-real", workloads.LAPLACIAN_BANK),
             "adjacency": ("complex-disc", workloads.ADJACENCY_BANK)}
    for bank, (grid, spec) in banks.items():
        for label, args in spec:
            if "fir" not in args:
                cli(parent, ["design", "--grid", grid, "--response", workloads.LOWPASS,
                             *args, "-o", str(work / f"{bank}-{label}.json")])
    rng = np.random.default_rng(SIGNAL_SEED)
    coords = work / "coords.csv"
    coords.write_text("id,x,y\n" + "".join(
        f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(rng.random((KNN_NODES, 2)).tolist())))
    cases = []
    for name, flags, shift, bank in GRAPHS:
        graph = work / f"{name}.json"
        cli(parent, ["gen-graph", *flags, *(["--coords", str(coords)] if "--knn" in flags
                                            else []), "-o", str(graph)])
        n = json.loads(graph.read_text())["n"]
        signal = work / f"{name}-x.csv"
        write_signal(signal, rng.standard_normal(n))
        for label, args in banks[bank][1]:
            if "fir" in args:
                continue
            cases.append((name, label, ["apply", "--filter", str(work / f"{bank}-{label}.json"),
                                        "--graph", str(graph), "--shift", shift,
                                        "--input", str(signal), "--solver", "direct"]))
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path)
    ap.add_argument("--into", type=Path, required=True)
    ap.add_argument("--runs", type=int, default=2)
    ap.add_argument("--set-up", type=Path, metavar="WORK", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    trees = dict(zip(("parent", "change"), (t.resolve() for t in args.trees)))
    if args.set_up:
        print(json.dumps(set_up(trees["parent"], args.set_up)))
        return 0
    for tree in trees.values():
        compileall.compile_dir(tree / "src" / "graphfilt", quiet=1)
    runs = {}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--set-up", tmp,
                               "--into", str(args.into), *map(str, trees.values())],
                              capture_output=True, text=True, check=True)
        cases = json.loads(done.stdout.splitlines()[-1])
        for name, label, apply_argv in cases:
            key = f"{name}/{label}"
            for r in range(args.runs):
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    out = work / "y.csv"
                    run = cli(trees[side], [*apply_argv, "-o", str(out)])
                    runs.setdefault(key, {}).setdefault(side, []).append(run)
                    digests.setdefault(key, {}).setdefault(side, set()).add(
                        hashlib.sha256(out.read_bytes()).hexdigest())
    cases_out = {}
    for key, sides in runs.items():
        sha = {side: sorted(digests[key][side]) for side in trees}
        cases_out[key] = {
            "identical": all(len(v) == 1 for v in sha.values())
                         and sha["parent"] == sha["change"],
            "output_sha256": {side: v[0] if len(v) == 1 else v for side, v in sha.items()},
            "runs": sides,
            "median_peak_rss_mb": {side: statistics.median(r["peak_rss_mb"] for r in sides[side])
                                   for side in trees},
            "median_seconds": {side: statistics.median(r["seconds"] for r in sides[side])
                               for side in trees},
        }
    record = json.loads(args.into.read_text()) if args.into.exists() else {}
    record["direct_apply"] = {
        "what": "graphfilt apply --solver direct outputs, wait4 peak RSS and wall time "
                "per child, parent against change",
        "command": f"python3 bench/direct_apply.py PARENT_TREE CHANGE_TREE "
                   f"--into {args.into.name} --runs {args.runs}",
        "blas_threads": 1,
        "compared": len(cases_out),
        "identical": sum(c["identical"] for c in cases_out.values()),
        "cases": cases_out,
    }
    args.into.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
