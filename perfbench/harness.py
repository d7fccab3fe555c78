"""Measurement: timed passes over a workload, correctness checks, metrics.

A pass runs a workload's configs through ``pfopt.bench.run_experiment`` and
writes the CSV and the SVG of all its cells.  Passes repeat until the time
budget is spent; timings are reported as medians over passes or cells, with
their sample counts.  An untraced run gives the end-to-end metrics, scaled to
the machine's reference speed (see speed.py).  A traced run alternates
untraced and traced passes and gives the per-layer split.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from pfopt.bench import CurvePoint, render_plot, run_experiment, write_csv

import speed
from layers import Tracer, instrument
from workloads import Workload

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pfw_us_per_iter": "us",
    "baseline_us_per_iter": "us",
    "error_over_bound_max": "ratio",
}

PER_LAYER = {
    "algorithms.self_us_per_iter": "us",
    "objectives.subgrad_calls": "count",
    "objectives.value_calls": "count",
    "objectives.us_per_call": "us",
    "sets.lmo_calls": "count",
    "sets.lmo_us_per_call": "us",
    "sets.project_calls": "count",
    "sets.project_us_per_call": "us",
    "sets.lmo_over_project": "ratio",
    "linalg.top_triplet_calls": "count",
    "linalg.top_triplet_us_per_call": "us",
    "linalg.full_svd_us_per_call": "us",
    "linalg.top_triplet_share_of_lmo": "ratio",
    "linalg.top_triplet_miss_count": "count",
    "linalg.top_triplet_err_max": "abs",
    "bench.run_experiment_s": "s",
    "bench.write_csv_s": "s",
    "bench.render_plot_s": "s",
    "trace_overhead_pct": "%",
}

# a top_singular_triplet value further than this from the dense sigma1 is a miss
LMO_VALUE_TOL = 1e-8

_SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import pfopt
from pfopt.bench import ExperimentConfig
for raw in json.loads(sys.argv[1]):
    ExperimentConfig(**raw).validate()
setup = time.perf_counter() - t0
import speed
print(json.dumps([setup, speed.reading()]))
"""


@dataclass
class Pass:
    wall_s: float
    points: List[CurvePoint]
    # index of each cell's config in the workload, parallel to points
    config_of: List[int]
    tracer: Optional[Tracer] = None
    # untraced passes only: wall_s at reference speed, and each cell's factor
    scaled_wall_s: float = 0.0
    cell_scale: List[float] = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.tracer is not None


@dataclass
class Report:
    attempted: int
    failed: int
    failures: List[str]
    metrics: Dict[str, Tuple[float, str]]
    samples: Dict[str, int]
    notes: List[str] = field(default_factory=list)
    # per span name, from the first traced pass: [calls, total_s, self_s]
    spans: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def _median(values) -> float:
    return float(statistics.median(values))


def _ratio(num: float, den: float) -> float:
    # a layer that does not run on a workload reports 0
    return num / den if den else 0.0


def run_pass(workload: Workload, configs, out_dir: Path, tracer=None) -> Pass:
    """One pass.  Untraced, it reads the machine's speed before and after each
    config, outside the timed spans, and scales that config's timings."""
    run, csv, plot = run_experiment, write_csv, render_plot
    clock = time.perf_counter
    if tracer is not None:
        run = tracer.wrap("bench.run_experiment", run_experiment)
        csv = tracer.wrap("bench.write_csv", write_csv)
        plot = tracer.wrap("bench.render_plot", render_plot)
        clock = tracer.clock
    p = Pass(0.0, [], [], tracer)
    before = speed.reading() if tracer is None else None
    factor = 1.0
    for i, cfg in enumerate(configs):
        t0 = clock()
        cells = run(cfg)
        elapsed = clock() - t0
        if tracer is None:
            after = speed.reading()
            factor, before = speed.scale(before, after), after
        p.wall_s += elapsed
        p.scaled_wall_s += elapsed * factor
        p.points.extend(cells)
        p.config_of.extend([i] * len(cells))
        p.cell_scale.extend([factor] * len(cells))
    t0 = clock()
    csv(p.points, out_dir / f"{workload.name}.csv")
    plot(p.points, out_dir / f"{workload.name}.svg")
    elapsed = clock() - t0
    p.wall_s += elapsed
    p.scaled_wall_s += elapsed * factor
    return p


def _check_pass(workload: Workload, p: Pass, reference: Optional[Pass]) -> Dict[int, str]:
    """Cells of one pass that fail a correctness check, with the reason."""
    bad: Dict[int, str] = {}
    pairs: Dict[tuple, Dict[str, int]] = {}
    for i, (pt, cfg) in enumerate(zip(p.points, p.config_of)):
        if not math.isfinite(pt.f_xbar):
            bad[i] = "f_xbar is not finite"
            continue
        err = _error(workload, pt)
        if err is not None and not err <= pt.bound:
            bad[i] = f"error {err!r} exceeds bound {pt.bound!r}"
        pairs.setdefault((cfg, pt.sigma, pt.T, pt.seed), {})[pt.algorithm] = i
    # with no known optimum, pfw cannot trail the projected baseline by more
    # than its own guarantee
    if workload.f_star is None:
        for pair in pairs.values():
            if "pfw" in pair and "pgd" in pair:
                pfw, pgd = p.points[pair["pfw"]], p.points[pair["pgd"]]
                gap = pfw.f_xbar - pgd.f_xbar
                if pfw.error is None and not gap <= pfw.bound:
                    bad.setdefault(pair["pfw"], f"f_pfw - f_pgd = {gap!r} exceeds bound_pfw")
    if p.tracer is not None:
        contained = p.tracer.xbar_contained
        if len(contained) != len(p.points):
            for i in range(len(p.points)):
                bad.setdefault(i, "solver calls do not match cells")
        for i, ok in enumerate(contained):
            if not ok:
                bad.setdefault(i, "xbar is outside the set")
    if reference is not None:
        for i, (a, b) in enumerate(zip(reference.points, p.points)):
            if a.f_xbar.hex() != b.f_xbar.hex():
                bad.setdefault(i, f"f_xbar {b.f_xbar!r} differs from pass 0's {a.f_xbar!r}")
    return bad


def _error(workload: Workload, pt: CurvePoint) -> Optional[float]:
    if pt.error is not None:
        return pt.error
    if workload.f_star is not None:
        return pt.f_xbar - workload.f_star
    return None


def error_over_bound_max(workload: Workload, p: Pass) -> float:
    """Largest (f_xbar - f*)/bound over the pass's cells.  Where f* is unknown
    (the nuclear ball with an outside anchor), the best f_xbar any cell of the
    same problem instance reached stands in for it; that under-states the
    error but keeps the pfw/pgd gap in view."""
    best: Dict[int, float] = {}
    for pt, cfg in zip(p.points, p.config_of):
        best[cfg] = min(best.get(cfg, math.inf), pt.f_xbar)
    worst = 0.0
    for pt, cfg in zip(p.points, p.config_of):
        err = _error(workload, pt)
        if err is None:
            err = pt.f_xbar - best[cfg]
        worst = max(worst, err / pt.bound)
    return worst


def measure_setup(configs, samples: int, src: Path) -> List[Tuple[float, float]]:
    """Seconds to import pfopt from ``src`` and validate the configs, each in
    a fresh interpreter, with the speed reading taken right after.  One
    discarded run first fills the bytecode cache."""
    arg = json.dumps([asdict(c) for c in configs])
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONPATH=path)
    out = []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, arg],
            env=env, cwd=src.parent, capture_output=True, text=True, timeout=120,
            check=True,
        )
        setup, reading = json.loads(proc.stdout)
        out.append((setup, reading))
    return out[1:]


def _layer_metrics(p: Pass) -> Dict[str, float]:
    t = p.tracer
    iters = sum(pt.T for pt in p.points)
    n_value, n_subgrad = t.calls("objectives.value"), t.calls("objectives.subgrad")
    objectives_s = t.total_s("objectives.value") + t.total_s("objectives.subgrad")
    lmo_us = 1e6 * _ratio(t.total_s("sets.lmo"), t.calls("sets.lmo"))
    project_us = 1e6 * _ratio(t.total_s("sets.project"), t.calls("sets.project"))
    errors = t.top_triplet_errors
    return {
        "algorithms.self_us_per_iter": 1e6 * _ratio(t.self_s("algorithms"), iters),
        "objectives.subgrad_calls": n_subgrad,
        "objectives.value_calls": n_value,
        "objectives.us_per_call": 1e6 * _ratio(objectives_s, n_value + n_subgrad),
        "sets.lmo_calls": t.calls("sets.lmo"),
        "sets.lmo_us_per_call": lmo_us,
        "sets.project_calls": t.calls("sets.project"),
        "sets.project_us_per_call": project_us,
        "sets.lmo_over_project": _ratio(lmo_us, project_us),
        "linalg.top_triplet_calls": t.calls("linalg.top_triplet"),
        "linalg.top_triplet_us_per_call": 1e6 * _ratio(
            t.total_s("linalg.top_triplet"), t.calls("linalg.top_triplet")),
        "linalg.full_svd_us_per_call": 1e6 * _ratio(
            t.total_s("linalg.full_svd"), t.calls("linalg.full_svd")),
        "linalg.top_triplet_share_of_lmo": _ratio(
            t.total_s("linalg.top_triplet"), t.total_s("sets.lmo")),
        "linalg.top_triplet_miss_count": sum(e > LMO_VALUE_TOL for e in errors),
        "linalg.top_triplet_err_max": max(errors, default=0.0),
        "bench.run_experiment_s": t.total_s("bench.run_experiment"),
        "bench.write_csv_s": t.total_s("bench.write_csv"),
        "bench.render_plot_s": t.total_s("bench.render_plot"),
    }


def environment(root: Path, threads: Dict[str, str]) -> Dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas_name = "unknown"
    revision = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            revision = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            revision = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "pinned_threads": threads,
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": revision,
    }


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    src: Path,
    setup_samples: int = 7,
    tiny: bool = False,
) -> Report:
    """Measure one workload, importing pfopt from ``src``, for about
    ``seconds``.  Untraced runs also time ``setup_samples`` fresh imports."""
    configs = workload.configs(seed, tiny)
    cells_per_pass = sum(
        len(c.sigma_list) * len(c.T_list) * len(c.seeds) * len(c.algorithms)
        for c in configs
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    setups = [] if trace else measure_setup(configs, setup_samples, src)

    passes: List[Pass] = []
    failures: List[str] = []
    attempted = failed = 0
    # a round is one pass, or one untraced/traced pair.  No round starts that
    # the last one's length says would overrun the budget, but an untraced
    # run takes two passes, so that no timing rests on a single pass.
    min_rounds = 1 if trace else 2
    rounds = 0
    start = time.perf_counter()
    round_s = 0.0
    try:
        while rounds < min_rounds or time.perf_counter() - start + round_s <= seconds:
            round_start = time.perf_counter()
            # alternate which side of a pair runs first
            order = ((False, True) if len(passes) % 4 == 0 else (True, False)) if trace else (False,)
            for traced in order:
                attempted += cells_per_pass
                if traced:
                    tracer = Tracer()
                    with instrument(tracer):
                        p = run_pass(workload, configs, out_dir, tracer)
                else:
                    p = run_pass(workload, configs, out_dir)
                bad = _check_pass(workload, p, passes[0] if passes else None)
                failed += len(bad)
                failures.extend(
                    f"pass {len(passes)} cell {i} ({p.points[i].algorithm}, sigma="
                    f"{p.points[i].sigma}, seed={p.points[i].seed}): {why}"
                    for i, why in sorted(bad.items())
                )
                passes.append(p)
            rounds += 1
            round_s = time.perf_counter() - round_start
    except Exception:  # a failing pass is reported, not raised
        failed += cells_per_pass
        failures.append(f"pass {len(passes)} raised:\n{traceback.format_exc()}")

    metrics: Dict[str, Tuple[float, str]] = {}
    samples: Dict[str, int] = {}
    notes: List[str] = []
    spans: Dict[str, List[float]] = {}
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if not trace and plain:
        # (raw, scaled) samples of each timing
        cells = [(1e3 * pt.wallclock_ms / pt.T, f, pt.algorithm == "pfw")
                 for p in plain for pt, f in zip(p.points, p.cell_scale)]
        pfw = [(t, t * f) for t, f, is_pfw in cells if is_pfw]
        base = [(t, t * f) for t, f, is_pfw in cells if not is_pfw]
        if not base:
            notes.append("no projected baseline on this workload: "
                         "baseline_us_per_iter repeats pfw_us_per_iter")
            base = pfw
        timings = {
            "setup_s": [(t, t * speed.scale(r, r)) for t, r in setups],
            "wall_s": [(p.wall_s, p.scaled_wall_s) for p in plain],
            "pfw_us_per_iter": pfw,
            "baseline_us_per_iter": base,
        }
        for name, xs in timings.items():
            metrics[name] = (_median([s for _, s in xs]), END_TO_END[name])
            samples[name] = len(xs)
        notes.append("unscaled: " + ", ".join(
            f"{name} {_median([r for r, _ in xs]):.6g}" for name, xs in timings.items()))
        # deterministic: every pass computes the same value
        metrics["error_over_bound_max"] = (
            error_over_bound_max(workload, plain[0]), END_TO_END["error_over_bound_max"])
        samples["error_over_bound_max"] = len(plain[0].points)
    if trace and plain and traced:
        per_pass = [_layer_metrics(p) for p in traced]
        for name in per_pass[0]:
            value = _median([m[name] for m in per_pass])
            if PER_LAYER[name] == "count":
                value = int(value)  # counts repeat exactly from pass to pass
            metrics[name] = (value, PER_LAYER[name])
            samples[name] = len(per_pass)
        overhead = 100.0 * (
            _median([p.wall_s for p in traced]) / _median([p.wall_s for p in plain]) - 1.0
        )
        metrics["trace_overhead_pct"] = (overhead, PER_LAYER["trace_overhead_pct"])
        samples["trace_overhead_pct"] = len(passes)
        spans = traced[0].tracer.spans
    return Report(
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics=metrics,
        samples=samples,
        notes=notes,
        spans=spans,
    )
