"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Tolerances are pinned here and nowhere else; seeds make every run
bit-for-bit reproducible.
"""

import time

import numpy as np
import pytest

from graphfilt import (
    ArmaFilter,
    CgConfig,
    DesignProblem,
    arma_apply_cg,
    arma_apply_direct,
    best_order_search,
    build_er_graph,
    build_knn_directed,
    complex_disc_grid,
    eigendecompose,
    fir_design,
    gft,
    iterative_design,
    normalize,
    prony_ls,
    prony_projection,
    spectrum_grid,
    uniform_real_grid,
)
from graphfilt import fir
from graphfilt.design import ideal_lowpass, run_method
from graphfilt.experiments import (
    InterpolationTask,
    budgeted_cg_study,
    compression_study,
    experiment_graphs,
    interpolate,
    interpolation_study,
    prediction_study,
    smooth_signal,
)
from graphfilt.graphs import NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN

from conftest import interpolation_matrix, random_pair_symmetric, random_stable_arma


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def rational_response(lambdas, a, b):
    return np.polyval(b[::-1], lambdas) / np.polyval(a[::-1], lambdas)


def test_criterion_01_exact_recovery_all_methods():
    grid = uniform_real_grid(100)
    rng = np.random.default_rng(101)
    worst = 0.0
    slowest = 0.0
    for _ in range(10):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(0, 5))
        a, b = random_stable_arma(rng, p, q)
        h = rational_response(grid.lambdas, a, b)
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
        for method in ("prony-ls", "prony-projection", "iterative"):
            start = time.perf_counter()
            report = run_method(method, problem)
            slowest = max(slowest, time.perf_counter() - start)
            worst = max(worst, report.rnmse_true)
    ok = worst <= 1e-8 and slowest < 1.0
    assert _report(
        1, ok,
        f"stable ARMA targets recovered by all methods; worst rnmse "
        f"{worst:.2e} (tol 1e-8), slowest case {slowest * 1e3:.0f} ms (< 1 s)",
    )


def test_criterion_02_real_coefficients_on_disc_grids():
    rng = np.random.default_rng(202)
    grid = complex_disc_grid(100)
    worst = 0.0
    designs = 0
    for _ in range(36):
        h = random_pair_symmetric(grid, rng)
        p = int(rng.integers(1, 6))
        q = int(rng.integers(0, 6))
        problem = DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q)
        for method in ("prony-ls", "prony-projection", "iterative"):
            worst = max(worst, run_method(method, problem).imag_residue)
            designs += 1
        worst = max(worst, fir_design(grid, h, p + q).imag_residue)
        designs += 1
    ok = worst <= 1e-8 and designs >= 100
    assert _report(
        2, ok,
        f"{designs} randomized designs on disc grids; max imaginary residue "
        f"{worst:.2e} (tol 1e-8)",
    )


def test_criterion_03_iterative_improves_projection_init():
    start = time.perf_counter()
    grid = uniform_real_grid(100)
    problem = DesignProblem(
        grid=grid, h_hat=ideal_lowpass(grid, 1.0), ar_order=9, ma_order=10
    )
    init = prony_projection(problem)
    report = iterative_design(problem, init=init.filter)
    elapsed = time.perf_counter() - start
    ok = (
        report.rnmse_true <= 1e-3
        and report.rnmse_true <= 0.5 * init.rnmse_true
        and elapsed < 10.0
    )
    assert _report(
        3, ok,
        f"ARMA(9,10) low-pass: init {init.rnmse_true:.2e} -> iterative "
        f"{report.rnmse_true:.2e} (tol 1e-3 and <= 0.5x init) in {elapsed:.1f} s",
    )


def test_criterion_04_method_ordering_on_universal_task():
    grid = uniform_real_grid(100)
    h = ideal_lowpass(grid, 1.0)
    ok = True
    details = []
    for k in (10, 14, 18):
        ls = best_order_search(grid, h, k, "prony-ls").rnmse_true
        proj = best_order_search(grid, h, k, "prony-projection").rnmse_true
        it = best_order_search(grid, h, k, "iterative").rnmse_true
        ok = ok and it <= proj <= 1.5 * ls
        details.append(f"K={k}: iter {it:.2e} <= proj {proj:.2e} <= 1.5x ls {ls:.2e}")
    fir16 = fir_design(grid, h, 16).rnmse
    iter16 = best_order_search(grid, h, 16, "iterative").rnmse_true
    ok = ok and fir16 >= 5.0 * iter16
    details.append(f"FIR(16) {fir16:.2e} >= 5x iter {iter16:.2e}")
    assert _report(4, ok, "; ".join(details))


# Shift products the criterion-5 pipeline makes: the direct and CG
# applications of the fidelity check and the whole budgeted-CG study. A
# count, unlike a wall time, does not depend on what else the machine runs.
_CRITERION_05_SHIFTS = 75026


def test_criterion_05_cg_fidelity_and_budget(monkeypatch):
    shifts = []
    for name in ("shift_apply", "shift_apply_transpose"):
        def counting(*args, _apply=getattr(fir, name), **kwargs):
            shifts.append(1)
            return _apply(*args, **kwargs)
        monkeypatch.setattr(fir, name, counting)
    op = normalize(build_er_graph(100, 0.1, 7), NORMALIZED_LAPLACIAN)
    rng = np.random.default_rng(55)
    a, b = random_stable_arma(rng, 2, 2)
    filt = ArmaFilter(a=a, b=b)
    x = rng.standard_normal(100)
    direct = arma_apply_direct(filt, op, x)
    y, trace = arma_apply_cg(filt, op, x, CgConfig(epsilon=1e-10, max_iterations=400))
    fidelity = np.linalg.norm(y - direct) / np.linalg.norm(direct)

    budget = budgeted_cg_study()
    ok = (
        fidelity <= 1e-6
        and budget.ar_order * budget.cg_iterations + budget.ma_order <= 16
        and budget.arma_rnmse <= budget.fir_rnmse
        and len(shifts) <= _CRITERION_05_SHIFTS
    )
    assert _report(
        5, ok,
        f"CG(eps=1e-10) vs direct {fidelity:.2e} (tol 1e-6); budget-16 ARMA"
        f"({budget.ar_order},{budget.ma_order}) x {budget.cg_iterations} CG iters "
        f"rnmse {budget.arma_rnmse:.4f} <= FIR(16) {budget.fir_rnmse:.4f}; "
        f"{len(shifts)} shift products (<= {_CRITERION_05_SHIFTS})",
    )


def test_criterion_06_gft_conjugate_symmetry():
    worst = 0.0
    checked = 0
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        coords = rng.random((24, 2)) * 3.0
        op = normalize(build_knn_directed(coords, 4), NORMALIZED_ADJACENCY)
        dec = eigendecompose(op)
        grid = spectrum_grid(dec)
        for _ in range(10):
            x_hat = gft(dec, rng.standard_normal(24))
            for i, j in enumerate(grid.pair):
                if i == j:
                    worst = max(worst, abs(x_hat[i].imag))
                else:
                    worst = max(worst, abs(x_hat[j] - np.conj(x_hat[i])))
            checked += 1
    ok = worst <= 1e-9 and checked == 100
    assert _report(
        6, ok,
        f"100 real signals on 10 directed graphs; max pairing residue "
        f"{worst:.2e} (tol 1e-9)",
    )


def test_criterion_07_interpolation_trend_and_solver_fidelity():
    start = time.perf_counter()
    report = interpolation_study(trials=50)
    means = {(r.method, r.k): r.mean for r in report.rows}
    ok = True
    details = []
    for omega in (1.0, 2.0):
        m = {k: means[(f"arma-cg-omega-{omega:g}", k)] for k in (10, 30, 90)}
        ok = ok and m[90] < m[30] < m[10]
        details.append(f"omega={omega:g}: {m[90]:.3f} < {m[30]:.3f} < {m[10]:.3f}")

    # solver fidelity against the dense inverse on fresh instances
    _, undirected = experiment_graphs()
    op = normalize(undirected, NORMALIZED_LAPLACIAN)
    dec = eigendecompose(op)
    rng = np.random.default_rng(77)
    max_dev = 0.0
    for _ in range(10):
        x = smooth_signal(dec, op.kind, rng)
        mask = np.zeros(32, dtype=bool)
        mask[rng.permutation(32)[:10]] = True
        task = InterpolationTask(mask=mask, omega=1.0)
        observed = np.where(mask, x + rng.normal(0, 0.1, 32), 0.0)
        y, _ = interpolate(op, observed, task, CgConfig(epsilon=1e-5, max_iterations=300))
        exact = np.linalg.solve(interpolation_matrix(op, task), observed)
        max_dev = max(max_dev, np.linalg.norm(y - exact) / np.linalg.norm(exact))
    elapsed = time.perf_counter() - start
    ok = ok and max_dev <= 1e-3 and elapsed < 10.0
    details.append(f"CG vs exact inverse {max_dev:.2e} (tol 1e-3); {elapsed:.1f} s")
    assert _report(7, ok, "; ".join(details))


def test_criterion_08_compression_trend():
    report = compression_study(k_values=(4, 8, 16, 23), trials=6)
    arma = {r.k: r.mean for r in report.rows if r.method == "arma"}
    fir = {r.k: r.mean for r in report.rows if r.method == "fir"}
    ks = (4, 8, 16, 23)
    ok = all(arma[b] <= arma[a] + 1e-12 for a, b in zip(ks, ks[1:]))
    ok = ok and all(arma[k] <= fir[k] for k in (8, 16, 23))
    ok = ok and arma[23] <= 1e-1
    assert _report(
        8, ok,
        "ARMA mean rnmse " + " >= ".join(f"{arma[k]:.2e}" for k in ks)
        + f"; ARMA <= FIR at K>=8; K=23 mean {arma[23]:.2e} (tol 1e-1)",
    )


def test_criterion_09_prediction_quantization():
    report = prediction_study(k_values=(3, 4, 6), bit_values=(3, 5, 7, 16), trials=8)
    means = {(r.k, r.method): r.mean for r in report.rows}
    series = [means[(3, f"arma-b{b}")] for b in (3, 5, 7, 16)]
    ok = all(b < a for a, b in zip(series, series[1:]))
    k4 = means[(4, "arma-b7")]
    k6 = means[(6, "arma-b7")]
    ok = ok and k4 <= 1e-1 and k6 <= 1.2 * k4
    assert _report(
        9, ok,
        "K=3 rnmse over B: " + " > ".join(f"{v:.2e}" for v in series)
        + f"; K=4,B=7 {k4:.2e} (tol 1e-1); K=6 {k6:.2e} <= 1.2x K=4",
    )


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    worst = 0.0
    instances = 0
    for _ in range(20):
        n = int(rng.integers(7, 16))
        grid = uniform_real_grid(n) if n % 2 else complex_disc_grid(n)
        h = random_pair_symmetric(grid, rng)
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0, 4))
        if p + q + 1 > n:
            continue
        lam = grid.lambdas
        # FIR oracle: explicit normal equations
        k = p + q
        psi = lam[:, None] ** np.arange(k + 1)[None, :]
        fir_oracle = np.linalg.solve(psi.conj().T @ psi, psi.conj().T @ h).real
        fir = fir_design(grid, h, k).filter.g
        worst = max(
            worst,
            np.linalg.norm(fir - fir_oracle) / max(np.linalg.norm(fir_oracle), 1.0),
        )
        # Prony LS oracle: constrained normal equations with a0 eliminated
        psi_p = lam[:, None] ** np.arange(p + 1)[None, :]
        psi_q = lam[:, None] ** np.arange(q + 1)[None, :]
        block = psi_p * h[:, None]
        lhs = np.hstack([block[:, 1:], -psi_q])
        theta = np.linalg.solve(lhs.conj().T @ lhs, -(lhs.conj().T @ block[:, 0])).real
        report = prony_ls(DesignProblem(grid=grid, h_hat=h, ar_order=p, ma_order=q))
        got = np.concatenate([report.filter.a[1:], report.filter.b])
        worst = max(
            worst, np.linalg.norm(got - theta) / max(np.linalg.norm(theta), 1.0)
        )
        instances += 1
    ok = worst <= 1e-6 and instances >= 15
    assert _report(
        10, ok,
        f"{instances} instances vs explicit normal equations; worst relative "
        f"deviation {worst:.2e} (tol 1e-6)",
    )
