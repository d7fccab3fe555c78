import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

import pfopt.bench
from pfopt import SolverError, params_deterministic, pfw_run, pgd_run
from pfopt.bench import (
    CSV_HEADER,
    ConfigError,
    CurvePoint,
    ExperimentConfig,
    main,
    parse_csv,
    render_plot,
    run_experiment,
    series_means,
    write_csv,
)


def small_config(**overrides):
    base = dict(
        experiment="hypercube_l1",
        n=10,
        sigma_list=[0.0],
        T_list=[50, 100],
        seeds=[1],
        algorithms=["pfw", "pgd"],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid(self):
        small_config().validate()

    # a config is validated on construction, so each rule below raises
    # before the test could call validate()
    def test_empty_sigma_list(self):
        with pytest.raises(ConfigError):
            small_config(sigma_list=[])

    def test_T_list_must_increase(self):
        with pytest.raises(ConfigError):
            small_config(T_list=[100, 50])
        with pytest.raises(ConfigError):
            small_config(T_list=[50, 50])

    def test_seeds_nonempty(self):
        with pytest.raises(ConfigError):
            small_config(seeds=[])

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            small_config(algorithms=["newton"])

    def test_nuclear_needs_tau(self):
        with pytest.raises(ConfigError):
            small_config(experiment="nuclear_l1", m=5)

    def test_frozen_and_valid_from_construction(self):
        cfg = small_config()
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "experiment", "n", "sigma_list", "T_list", "seeds", "algorithms",
            "m", "tau", "omega_mode"]
        for name, value in [("n", 20), ("seeds", [2]), ("omega_mode", "inside")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert cfg == small_config()
        # constructing the config is what raises; validate() is never called
        with pytest.raises(ConfigError, match="n has an invalid value"):
            small_config(n=0)
        with pytest.raises(ConfigError, match="tau is not read by hypercube_l1"):
            small_config(tau=1.0)

    def test_unread_fields_at_their_defaults_pass(self):
        # perfbench validates asdict(config), which carries every field
        for cfg in (small_config(m=0, tau=0.0, omega_mode="inside"),
                    small_config(experiment="num3_demo", n=3, algorithms=["pfw"])):
            ExperimentConfig(**dataclasses.asdict(cfg)).validate()

    def test_num3_runs_pgd(self):
        # the polytope projects, so pgd runs on num3_demo, within its bound
        points = run_experiment(small_config(experiment="num3_demo", n=3))
        pgd = [p for p in points if p.algorithm == "pgd"]
        assert len(pgd) == 2 and all(0.0 <= p.error <= p.bound for p in pgd)

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "hypercube_l1", "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)


class TestRunExperiment:
    def test_deterministic_hypercube_cells(self):
        points = run_experiment(small_config())
        assert len(points) == 4  # 1 sigma x 2 T x 1 seed x 2 algorithms
        for p in points:
            assert p.error is not None
            assert p.error <= p.bound
            assert p.error >= -1e-9

    def test_stochastic_cells_use_stochastic_bounds(self):
        points = run_experiment(
            small_config(sigma_list=[0.5], T_list=[100], seeds=[1, 2])
        )
        n, sigma, T = 10, 0.5, 100
        G, R = np.sqrt(n), 2 * np.sqrt(n)
        B = np.sqrt(G**2 + n * sigma**2)
        for p in points:
            if p.algorithm == "pfw":
                assert p.bound == pytest.approx((B * R + 2 * G * R) / np.sqrt(T))
            else:
                assert p.bound == pytest.approx(B * R / np.sqrt(T))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(experiment="hypercube_l1", n=6),
            dict(experiment="hypercube_l1", n=6, omega_mode="inside"),
            dict(experiment="nuclear_l1", n=6, m=6, tau=5.0, omega_mode="outside"),
            dict(experiment="num3_demo", n=4, algorithms=["pfw"]),
        ],
        ids=["hypercube_l1", "hypercube_l1_inside", "nuclear_l1", "num3_demo"],
    )
    def test_zero_noise_cells_reproduce_the_exact_solvers(self, overrides):
        # a zero-noise cell runs the noisy oracle at sigma = 0, where B = G:
        # the same schedule, step and xbar as the exact solvers
        cfg = small_config(sigma_list=[0.0], T_list=[40, 200], **overrides)
        fs, objective, f_star = pfopt.bench._BUILDERS[cfg.experiment](cfg)
        if cfg.omega_mode == "inside":
            # an anchor inside the set is its own optimum, so error is f_xbar
            assert f_star == 0.0
        G, R = objective.lipschitz, fs.radius
        points = run_experiment(cfg)
        assert len(points) == len(cfg.T_list) * len(cfg.algorithms)
        for p in points:
            rt = np.sqrt(p.T)
            if p.algorithm == "pfw":
                exact = pfw_run(objective, fs, params_deterministic(G, R, p.T), fs.center)
                bound = 3.0 * R * G / rt
            else:
                exact = pgd_run(objective, fs, R / (G * rt), p.T, fs.center)
                bound = R * G / rt
            assert p.f_xbar.hex() == exact.f_xbar.hex()
            assert p.bound == pytest.approx(bound, rel=1e-15, abs=0.0)
            if f_star is None:
                assert p.error is None
            else:
                assert p.error == p.f_xbar - f_star and p.error <= p.bound

    def test_nuclear_inside_has_zero_optimum(self):
        cfg = ExperimentConfig(
            experiment="nuclear_l1", n=4, m=5, tau=2.0, omega_mode="inside",
            sigma_list=[0.0], T_list=[200], seeds=[3], algorithms=["pfw", "pgd"],
        )
        for p in run_experiment(cfg):
            assert p.error is not None
            assert p.error <= p.bound

    def test_nuclear_outside_reports_value_only(self):
        cfg = ExperimentConfig(
            experiment="nuclear_l1", n=4, m=5, tau=2.0, omega_mode="outside",
            sigma_list=[0.0], T_list=[100], seeds=[3], algorithms=["pfw"],
        )
        points = run_experiment(cfg)
        assert all(p.error is None for p in points)
        assert all(np.isfinite(p.f_xbar) for p in points)

    def test_num3_demo_runs(self):
        cfg = ExperimentConfig(
            experiment="num3_demo", n=3,
            sigma_list=[0.0], T_list=[200], seeds=[1], algorithms=["pfw"],
        )
        points = run_experiment(cfg)
        assert len(points) == 1
        assert points[0].error == points[0].f_xbar + 0.5

    def test_mean_error_nonincreasing_in_T(self):
        # soft monotonicity: allow one inversion, as the theorems only bound
        points = run_experiment(small_config(T_list=[50, 200, 800]))
        means = series_means(points)
        inversions = 0
        for pts in means.values():
            vals = [v for _, v, _ in pts]
            inversions += sum(1 for a, b in zip(vals, vals[1:]) if b > a + 1e-12)
        assert inversions <= 1


def num3_instance(n):
    return pfopt.bench._make_num3_instance(
        small_config(experiment="num3_demo", n=n, algorithms=["pfw"])
    )


class TestNum3Optimum:
    """num3_demo minimizes -min(x) over [0, 1]^n with sum(x) <= n/2, the
    constraint as an exact penalty: its optimum is -1/2, at x = 1/2."""

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_rows_report_the_error_to_the_optimum(self, n):
        cfg = ExperimentConfig(
            experiment="num3_demo", n=n, sigma_list=[0.0, 0.5], T_list=[100, 1000],
            seeds=[0, 1], algorithms=["pfw"],
        )
        points = run_experiment(cfg)
        assert len(points) == 8
        for p in points:
            assert p.error.hex() == (p.f_xbar + 0.5).hex()
            assert 0.0 <= p.error <= p.bound

    @pytest.mark.parametrize("n", range(1, 11))
    def test_objective_is_minus_half_at_the_center(self, n):
        _, objective, f_star = num3_instance(n)
        assert f_star == -0.5
        assert objective.value(np.full(n, 0.5)) == -0.5

    def test_no_vertex_or_grid_point_scores_below_the_optimum(self):
        for n in range(1, 11):
            _, objective, f_star = num3_instance(n)
            vertices = itertools.product((0.0, 1.0), repeat=n)
            assert min(objective.value(np.array(v)) for v in vertices) >= f_star
        _, objective, f_star = num3_instance(2)
        grid = [i / 100 for i in range(101)]
        assert min(objective.value(np.array([a, b])) for a in grid for b in grid) == f_star

    def test_mean_error_is_positive_and_falls_with_T(self):
        cfg = ExperimentConfig(
            experiment="num3_demo", n=10, sigma_list=[0.0], T_list=[100, 1000, 10000],
            seeds=[0], algorithms=["pfw"],
        )
        (series,) = series_means(run_experiment(cfg)).values()
        errors = [v for _, v, _ in series]
        assert [T for T, _, _ in series] == [100, 1000, 10000]
        assert 0.0 < errors[2] < errors[1] < errors[0]


class TestCsv:
    def point(self, **overrides):
        base = dict(
            experiment="hypercube_l1", algorithm="pfw", n=10, m=0, sigma=0.5,
            T=100, seed=1, f_xbar=1.234567890123, error=0.5, bound=2.0,
            wallclock_ms=17.5,
        )
        base.update(overrides)
        return CurvePoint(**base)

    def test_zero_points_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_point_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv([self.point()], path)
        assert len(path.read_text().splitlines()) == 2

    def test_absent_error_is_empty_field(self, tmp_path):
        path = tmp_path / "n.csv"
        write_csv([self.point(error=None)], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[8] == ""

    def test_rows_sorted(self, tmp_path):
        pts = [
            self.point(T=200, seed=2),
            self.point(T=100, seed=1),
            self.point(algorithm="pgd", T=100, seed=1),
            self.point(T=100, seed=2),
        ]
        path = tmp_path / "s.csv"
        write_csv(pts, path)
        keys = [
            (r.split(",")[1], float(r.split(",")[4]), int(r.split(",")[5]), int(r.split(",")[6]))
            for r in path.read_text().splitlines()[1:]
        ]
        assert keys == sorted(keys)

    def test_round_trip(self, tmp_path):
        # numpy >= 2 writes repr(np.float64) as np.float64(...), which the
        # parse would reject
        pts = [self.point(), self.point(T=200, error=None, f_xbar=np.pi),
               self.point(T=300, f_xbar=np.float64(0.1) + np.float64(0.2))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pts, p1)
        parsed = parse_csv(p1)
        write_csv(parsed, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # every float is written exactly, so the parse gives back the same bits
        expected = sorted(pts, key=lambda p: p.T)
        assert [q.f_xbar.hex() for q in parsed] == [p.f_xbar.hex() for p in expected]
        assert [q.bound for q in parsed] == [p.bound for p in expected]


class TestPlot:
    def test_single_series_svg(self, tmp_path):
        pts = [
            CurvePoint("hypercube_l1", "pfw", 10, 0, 0.0, T, 1, 1.0 / T, 1.0 / T,
                       3.0 / np.sqrt(T), 0.0)
            for T in (100, 1000)
        ]
        path = tmp_path / "p.svg"
        render_plot(pts, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2  # series + bound reference

    def test_deterministic_bytes(self, tmp_path):
        pts = run_experiment(small_config())
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_plot(pts, a)
        render_plot(pts, b)
        assert a.read_bytes() == b.read_bytes()

    def test_series_means_match_hand_computation(self):
        pts = [
            CurvePoint("e", "pfw", 10, 0, 0.5, 100, s, 0.0, err, 9.0, 0.0)
            for s, err in [(1, 1.0), (2, 3.0)]
        ]
        means = series_means(pts)
        assert means[("pfw", 0.5)] == [(100, 2.0, 9.0)]

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_plot([], tmp_path / "x.svg")


CLI_CONFIG = dict(
    experiment="hypercube_l1", n=6, sigma_list=[0.0], T_list=[50], seeds=[1],
    algorithms=["pfw"],
)
CSV_ROW = "hypercube_l1,pfw,10,0,0.0,100,1,1.25,0.5,2.0"


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CLI_CONFIG, **overrides)))
        return path

    def run(self, cfg, tmp_path):
        """Run cfg into tmp_path / "out"."""
        return main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])

    def test_list_experiments(self, capsys):
        assert main(["--list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "hypercube_l1" in out and "nuclear_l1" in out

    def test_run_writes_outputs(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert self.run(cfg, tmp_path) == 0
        out = tmp_path / "out"
        assert (out / "hypercube_l1.csv").exists()
        assert (out / "hypercube_l1.svg").exists()
        assert (out / "metadata.json").exists()

    def test_metadata_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert self.run(self.write_config(tmp_path), tmp_path) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        # the config's fields, and nothing of where its files went
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(meta) == fields | {"anchor_generation", "environment"}
        assert {k: meta[k] for k in CLI_CONFIG} == CLI_CONFIG
        assert meta["anchor_generation"] == {"rng": "pcg64 seeded from [seeds[0], 0x0FF5E7]"}
        env = meta["environment"]
        assert sorted(env) == ["blas", "blas_threads", "git_revision", "numpy"]
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert "MKL_NUM_THREADS" not in env["blas_threads"]
        rev = env["git_revision"]
        assert rev == "unknown" or re.fullmatch(r"[0-9a-f]{40}", rev)

    def test_timings_leave_the_csv(self, tmp_path):
        cfg = self.write_config(
            tmp_path, sigma_list=[0.0, 0.5], T_list=[20, 50], seeds=[1, 2],
            algorithms=["pfw", "pgd"],
        )
        assert self.run(cfg, tmp_path) == 0
        out = tmp_path / "out"
        header, *rows = (out / "hypercube_l1.csv").read_text().splitlines()
        assert header == CSV_HEADER and "wallclock" not in header
        timings = json.loads((out / "timings.json").read_text())
        assert len(timings) == len(rows) == 16
        for entry, row in zip(timings, rows):
            f = row.split(",")
            assert (entry["algorithm"], entry["sigma"], entry["T"], entry["seed"]) == (
                f[1], float(f[4]), int(f[5]), int(f[6])
            )
            assert entry["wallclock_ms"] > 0.0

    def test_output_dir_override(self, tmp_path, monkeypatch):
        # without --output-dir a run writes into ./bench_out
        cfg = self.write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "bench_out" / "hypercube_l1.csv").exists()
        override = tmp_path / "elsewhere"
        assert main(["run", str(cfg), "--output-dir", str(override)]) == 0
        assert (override / "hypercube_l1.csv").exists()

    @pytest.mark.parametrize("failure", ["sigma_overflow", "solver_error"])
    def test_failed_run_leaves_no_output_dir(self, tmp_path, monkeypatch, failure):
        # the output directory is made only after the run returns
        if failure == "solver_error":
            def fail(*args, **kwargs):
                raise SolverError("iterate became non-finite", 1)

            monkeypatch.setattr(pfopt.bench, "pfw_run_stochastic", fail)
            cfg, code = self.write_config(tmp_path), 3
        else:
            cfg, code = self.write_config(tmp_path, sigma_list=[1e200]), 2
        out = tmp_path / "nested" / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == code
        assert not (tmp_path / "nested").exists()

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = self.write_config(tmp_path, sigma_list=[])
        assert main(["run", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_plot_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert self.run(cfg, tmp_path) == 0
        csv = tmp_path / "out" / "hypercube_l1.csv"
        svg = tmp_path / "re.svg"
        assert main(["plot", str(csv), str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "exc",
        [SolverError("iterate became non-finite", 1),
         np.linalg.LinAlgError("SVD did not converge")],
    )
    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(pfopt.bench, "pfw_run_stochastic", fail)
        cfg = self.write_config(tmp_path)
        assert self.run(cfg, tmp_path) == 3
        assert capsys.readouterr().err.startswith("solver error:")

    @pytest.mark.parametrize(
        "command, text, names",
        [
            ("run", json.dumps(dict(CLI_CONFIG, n="10")), "n has"),
            ("run", json.dumps(dict(CLI_CONFIG, T_list=[10.5])), "T_list"),
            ("run", json.dumps(dict(CLI_CONFIG, sigma_list=0.5)), "sigma_list"),
            ("run", json.dumps(dict(CLI_CONFIG, algorithms="pfw")), "algorithms"),
            # where the files go is --output-dir, not the config
            ("run", json.dumps(dict(CLI_CONFIG, output_dir="out")), "unknown config keys"),
            ("run", json.dumps(dict(CLI_CONFIG, gamma=10.0)), "unknown config keys"),
            ("run", json.dumps(dict(CLI_CONFIG, sigma_list=[float("nan")])),
             "sigma_list"),
            ("run", json.dumps(dict(CLI_CONFIG, tau=float("inf"))), "tau"),
            ("run", json.dumps(dict(CLI_CONFIG, m=-5)), "m has"),
            ("run", json.dumps(dict(CLI_CONFIG, tau=-2.0)), "tau has"),
            # hypercube_l1 reads omega_mode only, num3_demo none of the three
            ("run", json.dumps(dict(CLI_CONFIG, m=7)), "m is not read by hypercube_l1"),
            ("run", json.dumps(dict(CLI_CONFIG, tau=3.0)), "tau is not read"),
            ("run", json.dumps(dict(CLI_CONFIG, experiment="num3_demo", omega_mode="inside")),
             "omega_mode is not read by num3_demo"),
            # a repeated entry would run its cells twice
            ("run", json.dumps(dict(CLI_CONFIG, sigma_list=[0.5, 0.5])), "sigma_list has"),
            ("run", json.dumps(dict(CLI_CONFIG, seeds=[0, 0])), "seeds has"),
            ("run", json.dumps(dict(CLI_CONFIG, algorithms=["pfw", "pfw"])),
             "algorithms has"),
            # valid, but sigma^2 overflows: the implied bound B is inf
            ("run", json.dumps(dict(CLI_CONFIG, sigma_list=[1e200])),
             "second_moment has an invalid value: inf"),
            ("run", json.dumps(dict(CLI_CONFIG, seeds=[1, -1])), "seeds"),
            ("run", json.dumps(dict(CLI_CONFIG, seeds=[True])), "seeds"),
            ("run", json.dumps(dict(CLI_CONFIG, seeds=[1.0])), "seeds"),
            ("run", json.dumps(dict(CLI_CONFIG, seeds=[None])), "seeds"),
            ("run", "[1, 2]", "JSON object"),
            ("run", json.dumps({k: v for k, v in CLI_CONFIG.items() if k != "n"}),
             "argument: 'n'"),
            ("run", json.dumps(dict(CLI_CONFIG, experiment="num3_demo", n=11)),
             "capped at n <= 10"),
            ("run_into_file", json.dumps(CLI_CONFIG), "File exists"),
            ("plot", None, "No such file"),
            ("plot", f"{CSV_HEADER.replace('f_xbar', 'fx')}\n{CSV_ROW}\n",
             "unrecognized CSV header"),
            ("plot", CSV_HEADER + "\nhypercube_l1,pfw,10\n", "line 2"),
            ("plot", f"{CSV_HEADER}\n{CSV_ROW}\n{CSV_ROW.replace(',100,', ',0,')}\n",
             "line 3: T has"),
            ("plot", f"{CSV_HEADER}\n{CSV_ROW.replace(',1.25,', ',nan,')}\n",
             "line 2: f_xbar has"),
            ("plot", f"{CSV_HEADER}\n{CSV_ROW.replace(',10,', ',abc,')}\n",
             "line 2: n has"),
        ],
        ids=["n_str", "T_float", "sigma_scalar", "algorithms_str",
             "output_dir_removed", "gamma_removed", "sigma_nan", "tau_inf", "m_negative",
             "tau_negative", "m_unread", "tau_unread", "omega_mode_unread",
             "sigma_repeated", "seeds_repeated", "algorithms_repeated",
             "sigma_overflow",
             "seeds_negative",
             "seeds_bool", "seeds_float", "seeds_none", "top_level_list",
             "n_missing", "num3_n_over_cap",
             "output_dir_is_file", "missing_csv", "csv_wrong_header",
             "short_csv_row", "csv_T_zero",
             "csv_f_xbar_nan", "csv_n_str"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, text, names):
        # text None leaves the input file absent; run_into_file names the
        # config file itself as the output directory
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        argv = {
            "run": ["run", str(path)],
            "run_into_file": ["run", str(path), "--output-dir", str(path)],
            "plot": ["plot", str(path), str(tmp_path / "out.svg")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and names in err

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
