"""Solvers: the drift-steered projection-free subgradient method in
deterministic and stochastic flavors, plus projected-subgradient baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FeasibleSet,
    Objective,
    PfwParams,
    SolverError,
    StochasticOracle,
    UnsupportedSetError,
    _POSITIVE,
    _POSITIVE_INT,
    _aligned_empty,
    _as_flat,
    _check,
)

_MAGNITUDE_GUARD = 1e12
_NORM_SQUARED_BOUND = _MAGNITUDE_GUARD**2 / 4


@dataclass(frozen=True)
class GradientStep:
    """Constant step size and horizon for the projected baselines."""

    beta: float
    horizon: int

    def __post_init__(self):
        _check(_POSITIVE, beta=self.beta)
        _check(_POSITIVE_INT, horizon=self.horizon)


@dataclass(frozen=True)
class IterateLog:
    """Full per-iteration history, populated only on request.

    This is the only per-iteration record a run keeps; ask for it with
    ``record_iterates=True``.  Each array has one row per loop iteration and
    the problem dimension as its second axis, so a run with no iterations
    (the drift solver at T=1) gives shape (0, d).  Row j corresponds to loop
    iteration k = j + 1: xs[j], ys[j] are the freshly produced x_{k+1},
    y_{k+1}.  The drift solver also records qs[j], the drift Q_k steering that
    iteration, and gs[j], the subgradient taken at y_k; the projected
    baselines have neither, so both are None there, and their ys is xs.
    An update rule yields its records in this field order: (x, y, -Q, g) for
    the drift rule, which carries -Q and is recorded as Q, (x,) for the
    projected one.  Per-iteration values such as f(ys[j]) or ||qs[j]|| are
    derived from these rows.
    """

    xs: np.ndarray
    ys: np.ndarray
    qs: Optional[np.ndarray] = None
    gs: Optional[np.ndarray] = None


@dataclass(frozen=True)
class RunTrace:
    """Result of one solver run: the averaged iterate and its value.

    Per-iteration history lives in ``iterates``, which is None unless the
    run was asked for it with ``record_iterates=True``.
    """

    xbar: np.ndarray
    f_xbar: float
    iterates: Optional[IterateLog] = None


def _guard(arr: np.ndarray, k: int):
    # max |x_i| <= ||x||_2, so ||x||^2 <= (bound / 2)^2 proves every entry
    # finite and in bound in one BLAS call, the factor 4 far above the dot's
    # rounding (n 2^-53); np.vdot, as arr.dot warns on overflow (numpy 2).
    # Else abs then max decides: no square to overflow, NaN fails the <=,
    # and the bare ufunc, as np.max's wrapper outcosts the scan at n = 100
    if not (np.vdot(arr, arr) <= _NORM_SQUARED_BOUND
            or np.maximum.reduce(np.abs(arr)) <= _MAGNITUDE_GUARD):
        if not np.all(np.isfinite(arr)):
            raise SolverError("iterate became non-finite", k)
        raise SolverError("iterate magnitude exceeded guard; oracle bug likely", k)


def _check_start(feasible_set: FeasibleSet, x: np.ndarray):
    # x1 is averaged into xbar, so it must lie in the set
    if not feasible_set.contains(x):
        raise ValueError("start point lies outside the feasible set")


def _drift_steps(get_subgrad, feasible_set: FeasibleSet, params: PfwParams, x):
    """The paper's update: accumulate drift Q, step x by the LMO, relax y.

    Carries D = -Q, the LMO's direction, so no step negates Q.  D starts at
    -0.0, as -Q's zeros do, and ``D -= y - x`` keeps -Q's bits except where
    Q + (y - x) cancels to exactly zero: D then holds +0.0 where -Q is -0.0,
    which a sign-reading LMO (the hypercube's) and the recorded Q would
    show; no tested run met one.  y adds D * eta where the paper subtracts
    Q * eta, the same bits, as a - b is a + (-b) in IEEE arithmetic.
    Yields its records (x, y, D, g) once per iteration, D updated in place;
    the driver records -D as IterateLog's Q.
    """
    lmo, size = feasible_set.lmo, x.size
    y = x.copy()
    D = _aligned_empty((size,))  # the LMO's operand, so on a 64-byte boundary
    D[...] = -0.0
    # 0-d float64 arrays: numpy takes them as operands faster than Python
    # floats or np.float64 scalars (y * alpha 385 ns against 588 and 556 ns,
    # timeit, n = 10, numpy 2.4); the products are the same bits
    alpha = np.array(params.alpha, dtype=float)
    eta = np.array(params.eta, dtype=float)
    denom = np.array(params.alpha + params.eta, dtype=float)
    while True:
        D -= y - x
        g = _as_flat(get_subgrad(y), size)
        x = _as_flat(lmo(D), size)
        y = (y * alpha + x * eta + D * eta - g) / denom
        yield x, y, D, g


def _projected_steps(
    get_subgrad, feasible_set: FeasibleSet, step: GradientStep, x
):
    """The baselines' update: a subgradient step, then the projection.

    Yields its one record (x,), IterateLog's first field, once per iteration.
    """
    project, size = feasible_set.project, x.size
    beta = np.array(step.beta, dtype=float)  # 0-d, as in _drift_steps
    while True:
        g = _as_flat(get_subgrad(x), size)
        x = _as_flat(project(x - g * beta), size)
        yield (x,)


def _solve(
    objective_value, get_subgrad, feasible_set: FeasibleSet, params, x1,
    record_iterates: bool,
) -> RunTrace:
    """Run the update rule that params select and return the average of the
    start and every iterate it produced.

    The drift rule (PfwParams) runs k = 1..T-1 and averages T points; the
    projected rule (GradientStep) runs k = 1..T and averages T+1 points.
    The start is read at the set's dimension, ``center.size``, and must
    pass the set's ``contains``: it is averaged into the result, so a start
    outside the set raises ValueError before any oracle call.  Every
    subgradient, LMO point and projection is read at that size too, so a
    malformed one raises SolverError at its iteration.
    """
    drift = isinstance(params, PfwParams)
    if not drift and feasible_set.project is None:
        raise UnsupportedSetError("set does not provide a projection")
    x = _as_flat(x1, feasible_set.center.size).copy()
    _check_start(feasible_set, x)
    n_steps = params.horizon - 1 if drift else params.horizon
    sum_x = x.copy()
    rule = _drift_steps if drift else _projected_steps
    steps = rule(get_subgrad, feasible_set, params, x)
    rows = np.empty((4 if drift else 1, n_steps, x.size)) if record_iterates else None
    vdot = np.vdot
    for k in range(1, n_steps + 1):
        try:
            record = next(steps)
        except Exception as exc:
            raise SolverError(f"oracle failure: {exc}", k) from exc
        # a record leads with its iterates: x, and y where the rule has one;
        # _guard's one-vdot test, inline, passes nearly all, and _guard
        # decides the rest
        for iterate in record[:2]:
            if not vdot(iterate, iterate) <= _NORM_SQUARED_BOUND:
                _guard(iterate, k)
        sum_x += record[0]
        if rows is not None:
            rows[:, k - 1] = record
    log = None
    if rows is not None:
        if drift:  # the drift rule records D = -Q
            np.negative(rows[2], out=rows[2])
        # a rule that records only x gives the baselines' log: ys is xs
        xs, *rest = rows
        log = IterateLog(xs, *(rest or [xs]))
    xbar = sum_x / (n_steps + 1)
    return RunTrace(xbar=xbar, f_xbar=float(objective_value(xbar)), iterates=log)


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
    return _solve(
        objective.value, objective.subgrad, feasible_set, params, x1,
        record_iterates,
    )


def _noisy(oracle: StochasticOracle):
    """The oracle's noisy subgradient, drawing from one generator per run."""
    rng = oracle.rng()
    return lambda x: oracle.noisy_subgrad(x, rng)


def pfw_run_stochastic(
    oracle: StochasticOracle,
    feasible_set: FeasibleSet,
    params: PfwParams,
    x1,
    record_iterates: bool = False,
) -> RunTrace:
    """Projection-free run with noisy subgradients; bit-reproducible per seed."""
    return _solve(
        oracle.base.value, _noisy(oracle), feasible_set, params, x1,
        record_iterates,
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
    return _solve(
        objective.value, objective.subgrad, feasible_set,
        GradientStep(beta=beta, horizon=T), x0, record_iterates,
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
    return _solve(
        oracle.base.value, _noisy(oracle), feasible_set,
        GradientStep(beta=beta, horizon=T), x0, record_iterates,
    )
