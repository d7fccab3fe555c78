"""Experiment harness: config-driven runs, CSV emission, SVG convergence
plots, and the command-line entry point."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
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
from .core import Objective, SolverError, params_stochastic
from .core import _NONNEGATIVE, _NONNEGATIVE_INT, _POSITIVE_INT, _check
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

# The CSV's columns in order, each with its type: the header, write_csv and
# parse_csv are all built from this table.  They are CurvePoint's fields bar
# wallclock_ms, which goes to timings.json.
_COLUMNS = (
    ("experiment", str), ("algorithm", str), ("n", int), ("m", int), ("sigma", float),
    ("T", int), ("seed", int), ("f_xbar", float), ("error", float), ("bound", float),
)
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _each(rule):
    """The rule of a list field: a nonempty list of distinct entries (a repeat
    would run its cells twice), each meeting rule, which is tested first."""
    ok, what = rule
    return (lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v))
            and len(set(v)) == len(v),
            f"a nonempty list of distinct entries, each {what}")


# The one rule each field's value must meet, and its wording for the error;
# the numeric rules are the library's own.  Configs arrive as JSON, so every
# rule checks the type before the range.
_FIELD_RULES = {
    "experiment": (lambda v: v in EXPERIMENTS, f"one of {EXPERIMENTS}"),
    "n": _POSITIVE_INT,
    "m": _NONNEGATIVE_INT,
    "tau": _NONNEGATIVE,
    "omega_mode": (lambda v: v in ("inside", "outside"), "'inside' or 'outside'"),
    "sigma_list": _each(_NONNEGATIVE),
    "T_list": _each(_POSITIVE_INT),
    "seeds": _each(_NONNEGATIVE_INT),
    "algorithms": _each((lambda v: v in ALGORITHMS, f"one of {ALGORITHMS}")),
}
# fields an experiment never reads: held at their defaults, as m is in every row
_UNREAD = {"hypercube_l1": ("m", "tau"), "num3_demo": ("m", "tau", "omega_mode")}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int
    sigma_list: List[float]
    T_list: List[int]
    seeds: List[int]
    algorithms: List[str]
    m: int = 0
    tau: float = 0.0
    omega_mode: str = "outside"

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name, rule in _FIELD_RULES.items():
            _check(rule, ConfigError, **{name: getattr(self, name)})
        # the rules that tie fields together
        for name in _UNREAD.get(self.experiment, ()):
            if getattr(self, name) != self.__dataclass_fields__[name].default:
                raise ConfigError(f"{name} is not read by {self.experiment}; leave it out")
        if self.T_list != sorted(self.T_list):
            raise ConfigError("T_list must be strictly increasing")
        if self.experiment == "nuclear_l1" and not (self.m >= 1 and self.tau > 0):
            raise ConfigError("nuclear_l1 needs m >= 1 and tau > 0")
        if self.experiment == "num3_demo" and self.n > 10:
            raise ConfigError("num3_demo vertex polytope is capped at n <= 10")
        if self.experiment == "num3_demo" and "pgd" in self.algorithms:
            raise ConfigError("num3_demo has no projection; only pfw applies")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        # an unreadable file raises OSError, bad JSON a ValueError
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


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
    # gamma = 10 > the multiplier 1/n, so the penalty is exact: f* = -1/2 at x = 1/2
    spec = PenaltySpec(constraints=[(np.ones(n), n / 2.0)], gamma=10.0)
    objective = penalized_objective(base, spec)
    verts = [np.array(v, dtype=float) for v in itertools.product((0.0, 1.0), repeat=n)]
    return VertexPolytope(verts), objective, -0.5


_BUILDERS = {
    "hypercube_l1": _make_hypercube_instance,
    "nuclear_l1": _make_nuclear_instance,
    "num3_demo": _make_num3_instance,
}


def run_experiment(config: ExperimentConfig) -> List[CurvePoint]:
    """Run every (sigma, T, seed, algorithm) cell of the config."""
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


def _format_field(p: CurvePoint, name: str, kind) -> str:
    v = getattr(p, name)
    return "" if v is None else _fmt(v) if kind is float else str(v)


def write_csv(points: List[CurvePoint], path):
    """Emit the sorted CSV, every float exact, so that identical configs
    produce byte-identical files and equal bytes mean equal results."""
    lines = [CSV_HEADER]
    for p in _sorted(points):
        lines.append(",".join(_format_field(p, name, kind) for name, kind in _COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_field(name: str, kind, text: str):
    # only error may be empty (no closed-form optimum); a float must be
    # finite and T at least 1, or the plot's log axes have no range
    if name == "error" and text == "":
        return None
    try:
        v = kind(text)
    except ValueError:
        v = None
    if v is None or (kind is float and not math.isfinite(v)) or (name == "T" and v < 1):
        raise ValueError(f"{name} has an invalid value {text!r}")
    return v


def parse_csv(path) -> List[CurvePoint]:
    """The points of a CSV that write_csv wrote.  Raises ValueError naming
    the line, and the field where one value is malformed."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != len(_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(_COLUMNS)} fields, got {len(f)}")
        try:
            values = {name: _parse_field(name, kind, text)
                      for (name, kind), text in zip(_COLUMNS, f)}
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        points.append(CurvePoint(**values, wallclock_ms=0.0))
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


def _log_axis(values):
    """(lo, hi, decades) of one log axis: the log10 range of the positive
    values, a decade wide if they are all equal, and the integer decades
    inside it, where the ticks go."""
    lo, hi = np.log10(min(values)), np.log10(max(values))
    if hi - lo < 1e-9:
        hi = lo + 1.0
    decades = range(int(np.floor(lo)), int(np.ceil(hi)) + 1)
    return lo, hi, [d for d in decades if lo - 1e-9 <= d <= hi + 1e-9]


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
    lx0, lx1, x_decades = _log_axis(all_x)
    ly0, ly1, y_decades = _log_axis(all_y)

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
    for d in x_decades:
        x = sx(10.0**d)
        out += [
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + ih}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + ih + 5}" stroke="black"/>',
            f'<text x="{x:.2f}" y="{_MARGIN_T + ih + 20}" font-size="12" '
            f'text-anchor="middle">1e{d}</text>',
        ]
    for d in y_decades:
        y = sy(10.0**d)
        out += [
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black"/>',
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">1e{d}</text>',
        ]
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


# the BLAS thread variables a run records where they are set
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _blas_name() -> str:
    """numpy's BLAS library as "<name> <version>", "unknown" on numpy < 1.25,
    which has no dict form of its build config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _environment() -> dict:
    """What a run's timings depend on beyond its config: the numpy version,
    its BLAS library (``_blas_name``), the BLAS thread variables that are
    set, and the git revision of the checkout pfopt is imported from
    ("unknown" for an installed package)."""
    revision = "unknown"
    root = Path(__file__).resolve().parents[2]  # src/pfopt/bench.py in a checkout
    if (root / ".git").exists():
        import subprocess  # here, not at the top: it adds ms to importing pfopt
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS if v in os.environ},
        "git_revision": revision,
    }


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    points = run_experiment(config)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # only now: a failed run leaves none
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
    meta = asdict(config)
    meta["anchor_generation"] = {"rng": "pcg64 seeded from [seeds[0], 0x0FF5E7]"}
    meta["environment"] = _environment()
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
    p_run.add_argument("--output-dir", default="bench_out")
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
    # malformed input (ConfigError is a ValueError) or a file that cannot be
    # read or written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
