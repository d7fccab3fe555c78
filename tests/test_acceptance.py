"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all).
The stochastic sweeps are shared through session fixtures because three
criteria read the same 30-seed protocol.
"""

import json
import time

import numpy as np
import pytest

from pfopt import (
    GaussianNoiseSpec,
    Hypercube,
    NuclearBall,
    gaussian_oracle,
    hypercube_l1_optimum,
    l1_distance,
    lipschitz_extend,
    nuclear_norm,
    params_deterministic,
    params_stochastic,
    pfw_run,
    pfw_run_stochastic,
    pgd_run,
    sgd_run,
)
from pfopt.bench import main as bench_main

N_SEEDS = 30
SWEEP_SIGMAS = (0.5, 1.0)
SWEEP_T = 10_000
SWEEP_N = 100


def _report(num, desc, ok):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def outside_anchor(n):
    rng = np.random.default_rng(12345 + n)
    u = rng.uniform(-1.0, 1.0, n)
    return 2.0 * u / np.max(np.abs(u))


def hypercube_problem(n):
    fs = Hypercube(n)
    omega = outside_anchor(n)
    _, f_star = hypercube_l1_optimum(omega)
    return fs, l1_distance(omega), f_star


@pytest.fixture(scope="session")
def deterministic_runs():
    """PFW and projected-baseline errors over n in {10,100}, T in {1e2..1e4}."""
    out = {"pfw": {}, "pgd": {}, "feasible": True, "trace_10_1000": None}
    t0 = time.perf_counter()
    for n in (10, 100):
        fs, obj, f_star = hypercube_problem(n)
        G, R = obj.lipschitz, fs.radius
        for T in (100, 1000, 10_000):
            trace = pfw_run(
                obj, fs, params_deterministic(G, R, T), fs.center,
                record_iterates=True,
            )
            out["pfw"][(n, T)] = trace.f_xbar - f_star
            if np.any(np.abs(trace.iterates.xs) > 1.0 + 1e-9) or not fs.contains(
                trace.xbar, 1e-9
            ):
                out["feasible"] = False
            if (n, T) == (10, 1000):
                out["trace_10_1000"] = (trace, params_deterministic(G, R, T), fs.center)
            ptrace = pgd_run(obj, fs, R / (G * np.sqrt(T)), T, fs.center)
            out["pgd"][(n, T)] = ptrace.f_xbar - f_star
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def stochastic_sweep():
    """30-seed noisy sweep at n=100, T=10000 for both solver families."""
    fs, obj, f_star = hypercube_problem(SWEEP_N)
    G, R = obj.lipschitz, fs.radius
    out = {"pfw": {}, "sgd": {}, "feasible": True}
    t0 = time.perf_counter()
    for sigma in SWEEP_SIGMAS:
        B = np.sqrt(G**2 + SWEEP_N * sigma**2)
        params = params_stochastic(G, B, R, SWEEP_T, "with_G")
        beta = R / (B * np.sqrt(SWEEP_T))
        pfw_errs, sgd_errs = [], []
        for seed in range(N_SEEDS):
            oracle = gaussian_oracle(
                obj, GaussianNoiseSpec(sigma=sigma, seed=seed), SWEEP_N
            )
            trace = pfw_run_stochastic(
                oracle, fs, params, fs.center, record_iterates=True
            )
            pfw_errs.append(trace.f_xbar - f_star)
            if np.any(np.abs(trace.iterates.xs) > 1.0 + 1e-9) or not fs.contains(
                trace.xbar, 1e-9
            ):
                out["feasible"] = False
            strace = sgd_run(oracle, fs, beta, SWEEP_T, fs.center)
            sgd_errs.append(strace.f_xbar - f_star)
        out["pfw"][sigma] = (np.array(pfw_errs), B)
        out["sgd"][sigma] = (np.array(sgd_errs), B)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_deterministic_bound(deterministic_runs):
    ok = True
    for (n, T), err in deterministic_runs["pfw"].items():
        bound = 3 * (2 * np.sqrt(n)) * np.sqrt(n) / np.sqrt(T)
        ok = ok and err <= bound
    ok = ok and deterministic_runs["elapsed"] < 60.0
    _report(1, "projection-free error <= 3RG/sqrt(T) on all hypercube cells", ok)


def test_criterion_2_pgd_bound(deterministic_runs):
    ok = True
    for (n, T), err in deterministic_runs["pgd"].items():
        ok = ok and err <= (2 * np.sqrt(n)) * np.sqrt(n) / np.sqrt(T)
    ok = ok and deterministic_runs["elapsed"] < 60.0
    _report(2, "projected baseline error <= RG/sqrt(T) on the same cells", ok)


def test_criterion_3_stochastic_bound(stochastic_sweep):
    G = np.sqrt(SWEEP_N)
    R = 2 * np.sqrt(SWEEP_N)
    ok = stochastic_sweep["elapsed"] < 300.0
    for sigma in SWEEP_SIGMAS:
        errs, B = stochastic_sweep["pfw"][sigma]
        slack = 3 * np.std(errs, ddof=1) / np.sqrt(N_SEEDS)
        ok = ok and np.mean(errs) <= (B * R + 2 * G * R) / np.sqrt(SWEEP_T) + slack
    _report(3, "noisy mean error <= (BR + 2GR)/sqrt(T) + 3*stderr", ok)


def test_criterion_4_sgd_bound(stochastic_sweep):
    R = 2 * np.sqrt(SWEEP_N)
    ok = True
    for sigma in SWEEP_SIGMAS:
        errs, B = stochastic_sweep["sgd"][sigma]
        slack = 3 * np.std(errs, ddof=1) / np.sqrt(N_SEEDS)
        ok = ok and np.mean(errs) <= B * R / np.sqrt(SWEEP_T) + slack
    _report(4, "stochastic baseline mean error <= BR/sqrt(T) + 3*stderr", ok)


def test_criterion_5_feasibility_without_projection(
    deterministic_runs, stochastic_sweep
):
    ok = deterministic_runs["feasible"] and stochastic_sweep["feasible"]
    m = n = 20
    tau = 5.0
    ball = NuclearBall(m, n, tau)
    rng = np.random.default_rng(55)
    W = rng.standard_normal((m, n))
    W *= 2 * tau / nuclear_norm(W)
    obj = l1_distance(W.ravel())
    trace = pfw_run(
        obj, ball, params_deterministic(obj.lipschitz, ball.radius, 1000),
        ball.center, record_iterates=True,
    )
    for x in trace.iterates.xs:
        ok = ok and nuclear_norm(x.reshape(m, n)) <= tau + 1e-7
    ok = ok and nuclear_norm(trace.xbar.reshape(m, n)) <= tau + 1e-7
    _report(5, "all iterates and averages stay feasible with no projection", ok)


def test_criterion_6_drift_identity(deterministic_runs):
    trace, _, x1 = deterministic_runs["trace_10_1000"]
    log = trace.iterates
    ys = np.vstack([x1, log.ys[:-1]])
    xs = np.vstack([x1, log.xs[:-1]])
    running = np.cumsum(ys - xs, axis=0)
    ok = np.max(np.abs(running - log.qs)) <= 1e-9
    _report(6, "drift accumulator equals the running sum of y - x", ok)


def test_criterion_7_y_update_variational(deterministic_runs):
    trace, p, x1 = deterministic_runs["trace_10_1000"]
    log = trace.iterates
    y_prev = np.vstack([x1, log.ys[:-1]])
    resid = (
        (p.alpha + p.eta) * log.ys
        - p.alpha * y_prev
        - p.eta * log.xs
        + p.eta * log.qs
        + log.gs
    )
    ok = np.max(np.abs(resid)) <= 1e-9
    _report(7, "y-update first-order optimality residual <= 1e-9", ok)


def test_criterion_8_nuclear_lmo_equivalence():
    tau = 3.0
    ball = NuclearBall(8, 6, tau)
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        A = rng.standard_normal((8, 6))
        out = ball.lmo(A.ravel()).reshape(8, 6)
        sigma1 = np.linalg.svd(A, compute_uv=False)[0]
        ok = ok and abs(np.sum(A * out) + tau * sigma1) <= 1e-8
    _report(8, "LMO value equals -tau * sigma_max against the dense SVD", ok)


def test_criterion_9_nuclear_projection_kkt():
    tau = 2.0
    ball = NuclearBall(6, 5, tau)
    rng = np.random.default_rng(99)
    feasible = []
    for _ in range(1000):
        Z = rng.standard_normal((6, 5))
        feasible.append(Z * (tau * rng.uniform() / nuclear_norm(Z)))
    ok = True
    for _ in range(100):
        A = rng.standard_normal((6, 5))
        A *= 3 * tau / nuclear_norm(A)
        P = ball.project(A.ravel()).reshape(6, 5)
        ok = ok and abs(nuclear_norm(P) - tau) <= 1e-8
        dist = np.linalg.norm(A - P)
        ok = ok and all(dist <= np.linalg.norm(A - Z) + 1e-9 for Z in feasible)
    _report(9, "projection hits the nuclear sphere and beats random points", ok)


def test_criterion_10_extension_properties():
    grid = [np.array([t]) for t in np.linspace(-1.0, 1.0, 2001)]

    def f_abs(x):
        return abs(float(x[0]))

    ok = abs(lipschitz_extend(f_abs, 1.0, grid, np.array([2.0])) - 2.0) <= 1e-3
    for p in grid[::40]:
        ok = ok and lipschitz_extend(f_abs, 1.0, grid, p) == f_abs(p)
    rng = np.random.default_rng(10)
    for _ in range(1000):
        w1, w2 = rng.uniform(-3, 3, (2, 1))
        v1 = lipschitz_extend(f_abs, 1.0, grid, w1)
        v2 = lipschitz_extend(f_abs, 1.0, grid, w2)
        ok = ok and abs(v1 - v2) <= np.linalg.norm(w1 - w2) + 2e-3
    _report(10, "extension agrees on the set, is Lipschitz, and reaches 2 at w=2", ok)


def test_criterion_11_degenerate_noise_equivalence():
    n, T = 10, 500
    fs, obj, _ = hypercube_problem(n)
    params = params_deterministic(obj.lipschitz, fs.radius, T)
    oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.0, seed=4), n)
    det = pfw_run(obj, fs, params, fs.center, record_iterates=True)
    sto = pfw_run_stochastic(oracle, fs, params, fs.center, record_iterates=True)
    ok = np.array_equal(det.xbar, sto.xbar)
    for name in ("xs", "ys", "qs", "gs"):
        ok = ok and np.array_equal(
            getattr(det.iterates, name), getattr(sto.iterates, name)
        )
    beta = fs.radius / (obj.lipschitz * np.sqrt(T))
    pg = pgd_run(obj, fs, beta, T, fs.center)
    sg = sgd_run(oracle, fs, beta, T, fs.center)
    ok = ok and np.array_equal(pg.xbar, sg.xbar)
    _report(11, "zero-noise stochastic runs reproduce the exact runs", ok)


def test_criterion_12_reproducible_csv(tmp_path):
    cfg = dict(
        experiment="hypercube_l1", n=6, sigma_list=[0.0, 0.5], T_list=[50, 100],
        seeds=[1, 2], algorithms=["pfw", "pgd"],
    )
    # one config file, run twice, each run into its own output directory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for tag in ("a", "b"):
        assert bench_main(["run", str(cfg_path), "--output-dir", str(tmp_path / tag)]) == 0
        outputs.append((tmp_path / tag / "hypercube_l1.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _report(12, "identical config and seeds give byte-identical CSV", ok)
