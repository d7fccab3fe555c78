"""Experiment harness: config-driven runs, CSV emission, SVG convergence
plots, and the command-line entry point."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

# pfw_run and pgd_run are not called here: a zero-noise cell is the noisy
# oracle at sigma = 0.  They stay importable because perfbench/layers.py
# patches all four solver names on this module.
from .algorithms import pfw_run, pfw_run_stochastic, pgd_run, sgd_run  # noqa: F401
from .core import Objective, SolverError, _check_seed, params_stochastic
from .linalg import nuclear_norm
from .objectives import (
    GaussianNoiseSpec,
    gaussian_oracle,
    hypercube_l1_optimum,
    l1_distance,
    penalized_objective,
    PenaltySpec,
)
from .sets import Hypercube, NuclearBall, VertexPolytope

EXPERIMENTS = ("hypercube_l1", "nuclear_l1", "num3_demo")
ALGORITHMS = ("pfw", "pgd")

CSV_HEADER = "experiment,algorithm,n,m,sigma,T,seed,f_xbar,error,bound"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # finite too: json.loads reads NaN and Infinity, which no setting takes
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < math.inf


def _is_str(v) -> bool:
    return isinstance(v, str)


@dataclass
class ExperimentConfig:
    experiment: str
    n: int
    sigma_list: List[float]
    T_list: List[int]
    seeds: List[int]
    algorithms: List[str]
    output_dir: str = "bench_out"
    m: int = 0
    tau: float = 0.0
    omega_mode: str = "outside"
    gamma: float = 10.0

    def validate(self):
        # configs arrive as JSON, so check types before comparing values
        for name, ok in (("n", _is_int), ("m", _is_int), ("tau", _is_real),
                         ("gamma", _is_real), ("output_dir", _is_str)):
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} has an invalid value: {value!r}")
        for name, ok in (("sigma_list", _is_real), ("T_list", _is_int),
                         ("seeds", None), ("algorithms", _is_str)):
            values = getattr(self, name)
            if not isinstance(values, list):
                raise ConfigError(f"{name} must be a list, got {values!r}")
            if ok is not None and not all(ok(v) for v in values):
                raise ConfigError(f"{name} has an invalid entry: {values!r}")
        for seed in self.seeds:
            try:
                _check_seed(seed)
            except ValueError as exc:
                raise ConfigError(f"seeds has an invalid entry: {exc}") from None
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.sigma_list:
            raise ConfigError("sigma_list must be nonempty")
        if any(s < 0 for s in self.sigma_list):
            raise ConfigError("sigma values must be nonnegative")
        if not self.T_list:
            raise ConfigError("T_list must be nonempty")
        if any(t < 1 for t in self.T_list):
            raise ConfigError("T values must be positive")
        if list(self.T_list) != sorted(set(self.T_list)):
            raise ConfigError("T_list must be strictly increasing")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not self.algorithms:
            raise ConfigError("algorithms must be nonempty")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}")
        if self.omega_mode not in ("inside", "outside"):
            raise ConfigError("omega_mode must be 'inside' or 'outside'")
        if self.experiment == "nuclear_l1":
            if self.m < 1:
                raise ConfigError("nuclear_l1 needs m >= 1")
            if not self.tau > 0:
                raise ConfigError("nuclear_l1 needs tau > 0")
        if self.experiment == "num3_demo":
            if self.n > 10:
                raise ConfigError("num3_demo vertex polytope is capped at n <= 10")
            if "pgd" in self.algorithms:
                raise ConfigError("num3_demo has no projection; only pfw applies")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class CurvePoint:
    """One benchmark cell; error is None when the optimum is not analytic.
    wallclock_ms goes to timings.json, not the CSV, so parse_csv reads 0.0."""

    experiment: str
    algorithm: str
    n: int
    m: int
    sigma: float
    T: int
    seed: int
    f_xbar: float
    error: Optional[float]
    bound: float
    wallclock_ms: float


def _anchor_rng(config: ExperimentConfig) -> np.random.Generator:
    # anchor generation is tied to the first seed so every cell shares one instance
    return np.random.default_rng([int(config.seeds[0]), 0x0FF5E7])


def _make_hypercube_instance(config: ExperimentConfig):
    rng = _anchor_rng(config)
    n = config.n
    u = rng.uniform(-1.0, 1.0, n)
    if config.omega_mode == "outside":
        peak = np.max(np.abs(u))
        omega = 2.0 * (u / peak if peak > 0 else np.ones(n))
    else:
        omega = u
    objective = l1_distance(omega)
    _, f_star = hypercube_l1_optimum(omega)
    return Hypercube(n), objective, f_star


def _make_nuclear_instance(config: ExperimentConfig):
    rng = _anchor_rng(config)
    m, n, tau = config.m, config.n, config.tau
    raw = rng.standard_normal((m, n))
    scale = (2.0 * tau if config.omega_mode == "outside" else 0.5 * tau)
    W = raw * (scale / nuclear_norm(raw))
    objective = l1_distance(W.ravel())
    # a feasible anchor is itself the optimum; outside anchors have no closed form
    f_star = 0.0 if config.omega_mode == "inside" else None
    return NuclearBall(m, n, tau), objective, f_star


def _make_num3_instance(config: ExperimentConfig):
    n = config.n

    def value(x):
        return -float(np.min(x))

    def subgrad(x):
        g = np.zeros(len(x))
        g[x.argmin()] = -1.0
        return g

    base = Objective(value=value, subgrad=subgrad, lipschitz=1.0)
    spec = PenaltySpec(
        constraints=[(np.ones(n), n / 2.0)], gamma=config.gamma
    )
    objective = penalized_objective(base, spec)
    verts = [np.array(v, dtype=float) for v in itertools.product((0.0, 1.0), repeat=n)]
    return VertexPolytope(verts), objective, None


_BUILDERS = {
    "hypercube_l1": _make_hypercube_instance,
    "nuclear_l1": _make_nuclear_instance,
    "num3_demo": _make_num3_instance,
}


def run_experiment(config: ExperimentConfig) -> List[CurvePoint]:
    """Run every (sigma, T, seed, algorithm) cell of the config."""
    config.validate()
    fs, objective, f_star = _BUILDERS[config.experiment](config)
    x1 = fs.center
    G, R = objective.lipschitz, fs.radius
    points = []
    for sigma, T, seed, algo in itertools.product(
        config.sigma_list, config.T_list, config.seeds, config.algorithms
    ):
        t0 = time.perf_counter()
        # at sigma = 0 the oracle is exact and B = G, so the schedules and
        # bounds below are the deterministic ones
        oracle = gaussian_oracle(
            objective, GaussianNoiseSpec(sigma=sigma, seed=int(seed)), x1.size
        )
        B = oracle.second_moment
        if algo == "pfw":
            trace = pfw_run_stochastic(
                oracle, fs, params_stochastic(G, B, R, T, "with_G"), x1
            )
            bound = (B * R + 2.0 * G * R) / np.sqrt(T)
        else:
            trace = sgd_run(oracle, fs, R / (B * np.sqrt(T)), T, x1)
            bound = B * R / np.sqrt(T)
        wallclock_ms = (time.perf_counter() - t0) * 1e3
        error = None if f_star is None else trace.f_xbar - f_star
        points.append(
            CurvePoint(
                experiment=config.experiment,
                algorithm=algo,
                n=config.n,
                m=config.m,
                sigma=float(sigma),
                T=int(T),
                seed=int(seed),
                f_xbar=trace.f_xbar,
                error=error,
                bound=float(bound),
                wallclock_ms=wallclock_ms,
            )
        )
    return points


def _fmt(v: float) -> str:
    # the shortest string that reads back as the same float; float() because
    # numpy >= 2 writes np.float64(...) as its repr
    return repr(float(v))


def _sorted(points: List[CurvePoint]) -> List[CurvePoint]:
    return sorted(points, key=lambda p: (p.experiment, p.algorithm, p.sigma, p.T, p.seed))


def write_csv(points: List[CurvePoint], path):
    """Emit the sorted CSV, every float exact, so that identical configs
    produce byte-identical files and equal bytes mean equal results."""
    lines = [CSV_HEADER]
    for p in _sorted(points):
        lines.append(
            ",".join(
                [
                    p.experiment,
                    p.algorithm,
                    str(p.n),
                    str(p.m),
                    _fmt(p.sigma),
                    str(p.T),
                    str(p.seed),
                    _fmt(p.f_xbar),
                    "" if p.error is None else _fmt(p.error),
                    _fmt(p.bound),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def parse_csv(path) -> List[CurvePoint]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    width = CSV_HEADER.count(",") + 1
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(f)}")
        points.append(
            CurvePoint(
                experiment=f[0],
                algorithm=f[1],
                n=int(f[2]),
                m=int(f[3]),
                sigma=float(f[4]),
                T=int(f[5]),
                seed=int(f[6]),
                f_xbar=float(f[7]),
                error=None if f[8] == "" else float(f[8]),
                bound=float(f[9]),
                wallclock_ms=0.0,
            )
        )
    return points


_PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d6a9f", "#c77d1e", "#3f8f8f")

_PLOT_W, _PLOT_H = 720, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 30, 50


def series_means(points: List[CurvePoint]):
    """Seed-mean value per (algorithm, sigma, T); error where available,
    otherwise the raw objective value."""
    cells = {}
    for p in points:
        key = (p.algorithm, p.sigma, p.T)
        cells.setdefault(key, []).append(
            (p.f_xbar if p.error is None else p.error, p.bound)
        )
    out = {}
    for (algo, sigma, T), vals in sorted(cells.items()):
        ys = [v for v, _ in vals]
        out.setdefault((algo, sigma), []).append(
            (T, sum(ys) / len(ys), vals[0][1])
        )
    return out


def render_plot(points: List[CurvePoint], path):
    """Standalone log-log SVG: one mean-value series per (algorithm, sigma)
    plus a dashed guarantee-bound reference for each.  Output is a plain string
    build, so identical input gives identical bytes."""
    if not points:
        raise ValueError("no points to plot")
    series = series_means(points)
    floor = 1e-12
    all_x, all_y = [], []
    for pts in series.values():
        for T, y, bound in pts:
            all_x.append(T)
            all_y.extend([max(abs(y), floor), max(bound, floor)])
    lx0, lx1 = np.log10(min(all_x)), np.log10(max(all_x))
    ly0, ly1 = np.log10(min(all_y)), np.log10(max(all_y))
    if lx1 - lx0 < 1e-9:
        lx1 = lx0 + 1.0
    if ly1 - ly0 < 1e-9:
        ly1 = ly0 + 1.0

    iw = _PLOT_W - _MARGIN_L - _MARGIN_R
    ih = _PLOT_H - _MARGIN_T - _MARGIN_B

    def sx(t):
        return _MARGIN_L + iw * (np.log10(t) - lx0) / (lx1 - lx0)

    def sy(v):
        v = max(abs(v), floor)
        return _MARGIN_T + ih * (1.0 - (np.log10(v) - ly0) / (ly1 - ly0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" height="{_PLOT_H}">',
        f'<rect width="{_PLOT_W}" height="{_PLOT_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="black"/>',
    ]
    # decade ticks
    for d in range(int(np.floor(lx0)), int(np.ceil(lx1)) + 1):
        if lx0 - 1e-9 <= d <= lx1 + 1e-9:
            x = sx(10.0**d)
            out.append(
                f'<line x1="{x:.2f}" y1="{_MARGIN_T + ih}" x2="{x:.2f}" '
                f'y2="{_MARGIN_T + ih + 5}" stroke="black"/>'
            )
            out.append(
                f'<text x="{x:.2f}" y="{_MARGIN_T + ih + 20}" font-size="12" '
                f'text-anchor="middle">1e{d}</text>'
            )
    for d in range(int(np.floor(ly0)), int(np.ceil(ly1)) + 1):
        if ly0 - 1e-9 <= d <= ly1 + 1e-9:
            y = sy(10.0**d)
            out.append(
                f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
                f'y2="{y:.2f}" stroke="black"/>'
            )
            out.append(
                f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="12" '
                f'text-anchor="end">1e{d}</text>'
            )
    out.append(
        f'<text x="{_MARGIN_L + iw / 2:.2f}" y="{_PLOT_H - 10}" font-size="13" '
        'text-anchor="middle">iterations T</text>'
    )
    leg_y = _MARGIN_T + 14
    for i, ((algo, sigma), pts) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        line = " ".join(f"{sx(T):.2f},{sy(v):.2f}" for T, v, _ in pts)
        out.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        bline = " ".join(f"{sx(T):.2f},{sy(b):.2f}" for T, _, b in pts)
        out.append(
            f'<polyline points="{bline}" fill="none" stroke="{color}" '
            'stroke-width="1" stroke-dasharray="5,4"/>'
        )
        lx = _PLOT_W - _MARGIN_R + 10
        out.append(
            f'<line x1="{lx}" y1="{leg_y - 4}" x2="{lx + 22}" y2="{leg_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{leg_y}" font-size="12">'
            f"{algo}, sigma={sigma:.12g}</text>"
        )
        leg_y += 18
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.output_dir:
        config.output_dir = args.output_dir
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = run_experiment(config)
    csv_path = out / f"{config.experiment}.csv"
    svg_path = out / f"{config.experiment}.svg"
    write_csv(points, csv_path)
    render_plot(points, svg_path)
    # wall-clock times differ between reruns, so they stay out of the CSV
    timings = [
        {"algorithm": p.algorithm, "sigma": p.sigma, "T": p.T, "seed": p.seed,
         "wallclock_ms": p.wallclock_ms}
        for p in _sorted(points)
    ]
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    meta = dict(asdict(config))
    meta["anchor_generation"] = {
        "mode": config.omega_mode,
        "rng": "pcg64 seeded from [seeds[0], 0x0FF5E7]",
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} and {svg_path} ({len(points)} cells)")
    return 0


def _cmd_plot(args) -> int:
    points = parse_csv(args.csv)
    render_plot(points, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfopt-bench",
        description="Run projection-free solver benchmarks and plot results.",
    )
    parser.add_argument(
        "--list-experiments", action="store_true", help="list experiment names and exit"
    )
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run an experiment config (JSON)")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_plot = sub.add_parser("plot", help="re-render an SVG from an emitted CSV")
    p_plot.add_argument("csv")
    p_plot.add_argument("out")
    args = parser.parse_args(argv)

    if args.list_experiments:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_plot(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
