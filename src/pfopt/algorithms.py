"""Solvers: the drift-steered projection-free subgradient method in
deterministic and stochastic flavors, plus projected-subgradient baselines."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    FeasibleSet,
    Objective,
    PfwParams,
    SolverError,
    StochasticOracle,
    UnsupportedSetError,
    _as_flat,
)

_MAGNITUDE_GUARD = 1e12


@dataclass(frozen=True)
class GradientStep:
    """Constant step size and horizon for the projected baselines."""

    beta: float
    horizon: int

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class IterateLog:
    """Full per-iteration history, populated only on request.

    Row j corresponds to loop iteration k = j + 1: xs[j], ys[j] are the
    freshly produced x_{k+1}, y_{k+1}.  The drift solver also records qs[j],
    the drift Q_k steering that iteration, and gs[j], the subgradient taken
    at y_k; the projected baselines have neither, so both are None there,
    and their ys is xs.
    """

    xs: np.ndarray
    ys: np.ndarray
    qs: Optional[np.ndarray] = None
    gs: Optional[np.ndarray] = None


@dataclass(frozen=True)
class RunTrace:
    """Result of one solver run: averaged iterate plus diagnostics.

    per_iter rows are (k, f at the query point, ||Q_k||, elapsed seconds);
    the baselines have no drift accumulator and log 0.0 there.
    """

    xbar: np.ndarray
    f_xbar: float
    per_iter: List[Tuple[int, float, float, float]]
    params: object
    iterates: Optional[IterateLog] = None


def _guard(arr: np.ndarray, k: int):
    if not np.all(np.isfinite(arr)):
        raise SolverError("iterate became non-finite", k)
    if np.max(np.abs(arr)) > _MAGNITUDE_GUARD:
        raise SolverError("iterate magnitude exceeded guard; oracle bug likely", k)


def _check_start(feasible_set: FeasibleSet, x: np.ndarray):
    # full membership is set-specific; the enclosing ball is always checkable
    if np.linalg.norm(x - feasible_set.center) > feasible_set.radius + 1e-9:
        raise ValueError("start point lies outside the set's enclosing ball")


def _drift_loop(
    objective_value,
    get_subgrad,
    feasible_set: FeasibleSet,
    params: PfwParams,
    x1,
    record_iterates: bool,
) -> RunTrace:
    """Shared loop: accumulate drift Q, step x by the LMO, relax y."""
    x = _as_flat(x1).copy()
    _check_start(feasible_set, x)
    y = x.copy()
    Q = np.zeros_like(x)
    sum_x = x.copy()
    alpha, eta, T = params.alpha, params.eta, params.horizon
    per_iter: List[Tuple[int, float, float, float]] = []
    xs, ys, qs, gs = [], [], [], []
    t0 = time.perf_counter()
    for k in range(1, T):
        Q += y - x
        try:
            g = np.asarray(get_subgrad(y), dtype=float)
            x = np.asarray(feasible_set.lmo(-Q), dtype=float)
        except Exception as exc:
            raise SolverError(f"oracle failure: {exc}", k) from exc
        y = (alpha * y + eta * x - eta * Q - g) / (alpha + eta)
        _guard(x, k)
        _guard(y, k)
        sum_x += x
        per_iter.append(
            (k, float(objective_value(y)), float(np.linalg.norm(Q)),
             time.perf_counter() - t0)
        )
        if record_iterates:
            xs.append(x.copy())
            ys.append(y.copy())
            qs.append(Q.copy())
            gs.append(g)
    xbar = sum_x / T
    log = None
    if record_iterates:
        log = IterateLog(
            xs=np.array(xs), ys=np.array(ys), qs=np.array(qs), gs=np.array(gs)
        )
    return RunTrace(
        xbar=xbar,
        f_xbar=float(objective_value(xbar)),
        per_iter=per_iter,
        params=params,
        iterates=log,
    )


def pfw_run(
    objective: Objective,
    feasible_set: FeasibleSet,
    params: PfwParams,
    x1,
    record_iterates: bool = False,
) -> RunTrace:
    """Projection-free run with exact subgradients.

    Executes the loop for k = 1..T-1 (empty at T=1, when xbar = x1) and
    returns the average of x_1..x_T.  Never calls feasible_set.project.
    """
    return _drift_loop(
        objective.value, objective.subgrad, feasible_set, params, x1,
        record_iterates,
    )


def pfw_run_stochastic(
    oracle: StochasticOracle,
    feasible_set: FeasibleSet,
    params: PfwParams,
    x1,
    record_iterates: bool = False,
) -> RunTrace:
    """Projection-free run with noisy subgradients; bit-reproducible per seed."""
    rng = oracle.rng()

    def get_subgrad(y):
        return oracle.noisy_subgrad(y, rng)

    return _drift_loop(
        oracle.base.value, get_subgrad, feasible_set, params, x1,
        record_iterates,
    )


def _projected_loop(
    objective_value, get_subgrad, feasible_set, step: GradientStep, x0,
    record_iterates: bool,
) -> RunTrace:
    if feasible_set.project is None:
        raise UnsupportedSetError("set does not provide a projection")
    x = _as_flat(x0).copy()
    _check_start(feasible_set, x)
    sum_x = x.copy()
    per_iter: List[Tuple[int, float, float, float]] = []
    xs = []
    t0 = time.perf_counter()
    for k in range(step.horizon):
        try:
            g = np.asarray(get_subgrad(x), dtype=float)
            x = np.asarray(feasible_set.project(x - step.beta * g), dtype=float)
        except UnsupportedSetError:
            raise
        except Exception as exc:
            raise SolverError(f"oracle failure: {exc}", k + 1) from exc
        _guard(x, k + 1)
        sum_x += x
        per_iter.append(
            (k, float(objective_value(x)), 0.0, time.perf_counter() - t0)
        )
        if record_iterates:
            xs.append(x.copy())
    # averages x_0..x_T over T+1 points, unlike the projection-free solver
    xbar = sum_x / (step.horizon + 1)
    log = None
    if record_iterates:
        arr = np.array(xs)
        log = IterateLog(xs=arr, ys=arr)
    return RunTrace(
        xbar=xbar,
        f_xbar=float(objective_value(xbar)),
        per_iter=per_iter,
        params=step,
        iterates=log,
    )


def pgd_run(
    objective: Objective,
    feasible_set: FeasibleSet,
    beta: float,
    T: int,
    x0,
    record_iterates: bool = False,
) -> RunTrace:
    """Projected subgradient descent baseline."""
    step = GradientStep(beta=beta, horizon=T)
    return _projected_loop(
        objective.value, objective.subgrad, feasible_set, step, x0,
        record_iterates,
    )


def sgd_run(
    oracle: StochasticOracle,
    feasible_set: FeasibleSet,
    beta: float,
    T: int,
    x0,
    record_iterates: bool = False,
) -> RunTrace:
    """Stochastic projected subgradient descent baseline."""
    rng = oracle.rng()

    def get_subgrad(x):
        return oracle.noisy_subgrad(x, rng)

    step = GradientStep(beta=beta, horizon=T)
    return _projected_loop(
        oracle.base.value, get_subgrad, feasible_set, step, x0, record_iterates
    )
