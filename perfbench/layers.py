"""Layer spans timed from outside the program.

``instrument`` wraps the public names that ``pfopt.bench`` and ``pfopt.sets``
call, for the duration of a ``with`` block, so that every call into a layer
opens a span.  Nothing in ``pfopt`` is edited and the wrapped calls do the
same arithmetic, so a traced run returns bit-identical results.

Spans are aggregated in memory by name: calls, total time and self time (the
span's time minus that of the spans it opened).  The clock stops while the
benchmark runs its own reference checks, so checking costs land in no span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from pfopt import bench, sets
from pfopt.core import Objective, StochasticOracle
from pfopt.sets import Hypercube, NuclearBall, VertexPolytope

SOLVERS = ("pfw_run", "pfw_run_stochastic", "pgd_run", "sgd_run")


class Tracer:
    def __init__(self):
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.paused_s = 0.0
        # one entry per top_singular_triplet call: |s1 - dense sigma1|
        self.top_triplet_errors: List[float] = []
        # one entry per solver call, in call order: does xbar lie in the set?
        self.xbar_contained: List[bool] = []
        # [child time, child spans] of each open span
        self._stack: List[List[float]] = []
        self.span_cost_s = 0.0
        self.span_cost_s = self._calibrate()

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                stats[0] += 1
                stats[1] += elapsed
                # the wrapper's own work around each child lands in this
                # span's window; take it out of self time
                stats[2] += elapsed - frame[0] - frame[1] * self.span_cost_s

        return traced

    def _calibrate(self, n: int = 20000) -> float:
        """Seconds a child span's wrapper adds to its parent's self time."""

        def nothing():
            return None

        child = self.wrap("calibrate.child", nothing)

        def parent(fn):
            for _ in range(n):
                fn()

        t0 = time.perf_counter()
        parent(nothing)
        bare = time.perf_counter() - t0
        self.wrap("calibrate.parent", parent)(child)
        cost = (self.spans["calibrate.parent"][2] - bare) / n
        del self.spans["calibrate.child"], self.spans["calibrate.parent"]
        return max(cost, 0.0)

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


@dataclass(frozen=True)
class _TracedObjective(Objective):
    original: Optional[Objective] = None


def _traced_objective(tracer: Tracer, obj: Objective) -> Objective:
    return _TracedObjective(
        value=tracer.wrap("objectives.value", obj.value),
        subgrad=tracer.wrap("objectives.subgrad", obj.subgrad),
        lipschitz=obj.lipschitz,
        original=obj,
    )


def _in_cube_hull(fs: VertexPolytope, x, tol: float = 1e-9) -> bool:
    """Membership for a polytope whose vertices are all of {0,1}^n, whose
    hull is the unit box.  VertexPolytope.contains is not implemented."""
    V = fs.vertices
    n = V.shape[1]
    if V.shape[0] != 2**n or not np.isin(V, (0.0, 1.0)).all() or (
        len(np.unique(V, axis=0)) != 2**n
    ):
        raise NotImplementedError("no membership test for this polytope")
    return bool(np.all((x >= -tol) & (x <= 1.0 + tol)))


def set_contains(fs, x) -> bool:
    try:
        return bool(fs.contains(x))
    except NotImplementedError:
        if isinstance(fs, VertexPolytope):
            return _in_cube_hull(fs, x)
        raise


def _traced_solver(tracer: Tracer, solver):
    timed = tracer.wrap("algorithms", solver)

    @functools.wraps(solver)
    def run(oracle, feasible_set, *args, **kwargs):
        trace = timed(oracle, feasible_set, *args, **kwargs)
        with tracer.paused():
            tracer.xbar_contained.append(set_contains(feasible_set, trace.xbar))
        return trace

    return run


def _traced_top_triplet(tracer: Tracer, top_singular_triplet):
    timed = tracer.wrap("linalg.top_triplet", top_singular_triplet)

    @functools.wraps(top_singular_triplet)
    def run(A):
        t = timed(A)
        with tracer.paused():
            sigma1 = np.linalg.svd(A, compute_uv=False)[0]
            tracer.top_triplet_errors.append(abs(float(t.s1) - float(sigma1)))
        return t

    return run


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer call of pfopt.bench.run_experiment through tracer."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def objective_factory(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return _traced_objective(tracer, factory(*args, **kwargs))

        return build

    def gaussian_oracle(base, spec, dim):
        # noise wraps the untraced base, so one noisy call is one span
        inner = saved_oracle(getattr(base, "original", None) or base, spec, dim)
        return StochasticOracle(
            base=base,
            noisy_subgrad=tracer.wrap("objectives.subgrad", inner.noisy_subgrad),
            second_moment=inner.second_moment,
            seed=inner.seed,
        )

    saved_oracle = bench.gaussian_oracle
    try:
        for name in SOLVERS:
            patch(bench, name, _traced_solver(tracer, getattr(bench, name)))
        patch(bench, "l1_distance", objective_factory(bench.l1_distance))
        patch(bench, "penalized_objective", objective_factory(bench.penalized_objective))
        patch(bench, "gaussian_oracle", gaussian_oracle)
        for cls in (Hypercube, NuclearBall, VertexPolytope):
            for op in ("lmo", "project"):
                if op in vars(cls):
                    patch(cls, op, tracer.wrap(f"sets.{op}", vars(cls)[op]))
        patch(sets, "top_singular_triplet",
              _traced_top_triplet(tracer, sets.top_singular_triplet))
        patch(sets, "full_svd", tracer.wrap("linalg.full_svd", sets.full_svd))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
