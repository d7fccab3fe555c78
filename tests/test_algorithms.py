import copy
import warnings

import numpy as np
import pytest

from pfopt import (
    DimensionError,
    FeasibleSet,
    GaussianNoiseSpec,
    Hypercube,
    NuclearBall,
    Objective,
    PfwParams,
    SolverError,
    StochasticOracle,
    UnsupportedSetError,
    VertexPolytope,
    gaussian_oracle,
    hypercube_l1_optimum,
    l1_distance,
    params_deterministic,
    params_stochastic,
    pfw_run,
    pfw_run_stochastic,
    pgd_run,
    sgd_run,
)
from pfopt.bench import ExperimentConfig, _make_num3_instance


def outside_anchor(n):
    return 2.0 * np.ones(n)


def hypercube_problem(n):
    fs = Hypercube(n)
    obj = l1_distance(outside_anchor(n))
    _, f_star = hypercube_l1_optimum(outside_anchor(n))
    return fs, obj, f_star


def reference_drift(subgrad, lmo, x1, params, T, sigma, seed):
    """The drift update with N(0, sigma^2 I) noise on each subgradient,
    written out step by step.  Returns xbar and the per-iteration rows
    (xs, ys, qs, gs), in IterateLog's layout."""
    alpha, eta = params.alpha, params.eta
    rng = np.random.default_rng(seed)
    x = np.array(x1, dtype=float)
    y = x.copy()
    Q = np.zeros(x.size)
    total = x.copy()
    rows = []
    for _ in range(T - 1):
        Q += y - x
        g = subgrad(y) + sigma * rng.standard_normal(x.size)
        x = lmo(-Q)
        y = (alpha * y + eta * x - eta * Q - g) / (alpha + eta)
        total += x
        rows.append((x, y, Q.copy(), g))
    return total / T, [np.array(r) for r in zip(*rows)]


def reference_runs(omega, sigma, seed, params, beta, T):
    """The drift and projected updates on the hypercube with the l1 distance
    to omega and N(0, sigma^2 I) noise, written out step by step.  Returns
    (xbar, f(xbar), rows) of each: the drift update's rows are (xs, ys, qs,
    gs), the projected update's (xs,)."""
    n = omega.size
    xbar, rows = reference_drift(
        lambda y: np.sign(y - omega), lambda d: -np.sign(d), np.zeros(n),
        params, T, sigma, seed,
    )
    pfw = (xbar, rows)

    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    total = x.copy()
    xs = []
    for _ in range(T):
        g = np.sign(x - omega) + sigma * rng.standard_normal(n)
        x = np.clip(x - beta * g, -1.0, 1.0)
        total += x
        xs.append(x)
    pgd = (total / (T + 1), [np.array(xs)])

    return [(xbar, float(np.abs(xbar - omega).sum()), rows) for xbar, rows in (pfw, pgd)]


class HugeLmoHypercube(Hypercube):
    def lmo(self, direction):
        return np.full(self.n, 1e13)


class NanLmoHypercube(Hypercube):
    def lmo(self, direction):
        return np.full(self.n, np.nan)


class NegInfLmoHypercube(Hypercube):
    def lmo(self, direction):
        return np.full(self.n, -np.inf)


class HugeProjectionHypercube(Hypercube):
    def project(self, z):
        return np.full(self.n, 1e13)


class ConstantHypercube(Hypercube):
    """Returns one fixed array from both the LMO and the projection."""

    def __init__(self, value):
        super().__init__(len(value))
        self.value = np.array(value, dtype=float)

    def lmo(self, direction):
        return self.value.copy()

    def project(self, z):
        return self.value.copy()


class CountingHypercube(Hypercube):
    def __init__(self, n):
        super().__init__(n)
        self.project_calls = 0

    def project(self, z):
        self.project_calls += 1
        return super().project(z)


class TestPfwRun:
    def test_horizon_one_returns_start(self):
        fs, obj, _ = hypercube_problem(4)
        x1 = np.array([0.5, -0.5, 0.0, 1.0])
        params = params_deterministic(obj.lipschitz, fs.radius, 1)
        trace = pfw_run(obj, fs, params, x1)
        assert np.array_equal(trace.xbar, x1)
        assert trace.iterates is None
        # a recorded run with no iterations has empty (0, d) histories
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=1.0, seed=0), 4)
        for trace in (
            pfw_run(obj, fs, params, x1, record_iterates=True),
            pfw_run_stochastic(oracle, fs, params, x1, record_iterates=True),
        ):
            assert np.array_equal(trace.xbar, x1)
            log = trace.iterates
            for rows in (log.xs, log.ys, log.qs, log.gs):
                assert rows.shape == (0, 4)

    def test_deterministic_bound_paper_constants(self):
        # n = 10 box, anchor outside at 2*ones, T = 10000: 3RG/sqrt(T) = 0.6
        n, T = 10, 10_000
        fs, obj, f_star = hypercube_problem(n)
        trace = pfw_run(obj, fs, params_deterministic(obj.lipschitz, fs.radius, T), fs.center)
        bound = 3 * fs.radius * obj.lipschitz / np.sqrt(T)
        assert bound == pytest.approx(0.6)
        assert trace.f_xbar - f_star <= bound

    def test_interior_anchor_against_grid_oracle(self):
        n, T = 2, 10_000
        fs = Hypercube(n)
        obj = l1_distance(np.zeros(n))
        ticks = np.linspace(-1, 1, 2001)
        xx, yy = np.meshgrid(ticks, ticks)
        grid_min = np.min(np.abs(xx) + np.abs(yy))
        trace = pfw_run(obj, fs, params_deterministic(obj.lipschitz, fs.radius, T), fs.center)
        bound = 3 * fs.radius * obj.lipschitz / np.sqrt(T)
        assert trace.f_xbar - grid_min <= bound

    def test_never_calls_project(self):
        fs = CountingHypercube(5)
        obj = l1_distance(outside_anchor(5))
        pfw_run(obj, fs, params_deterministic(obj.lipschitz, fs.radius, 200), fs.center)
        assert fs.project_calls == 0

    @pytest.mark.parametrize("n", [1, 3, 10, 100])
    def test_lmo_direction_is_64_byte_aligned(self, n):
        # the drift rule hands the LMO one buffer, D, on a 64-byte boundary
        fs, obj, _ = hypercube_problem(n)
        lmo, seen = fs.lmo, []

        def recording_lmo(d):
            seen.append((d.ctypes.data, d.flags.c_contiguous))
            return lmo(d)

        fs.lmo = recording_lmo
        pfw_run(obj, fs, params_deterministic(obj.lipschitz, fs.radius, 5), fs.center)
        assert len(seen) == 4 and len(set(seen)) == 1  # T - 1 steps
        address, contiguous = seen[0]
        assert address % 64 == 0 and contiguous

    def test_drift_identity(self):
        fs, obj, _ = hypercube_problem(6)
        T = 300
        trace = pfw_run(
            obj, fs, params_deterministic(obj.lipschitz, fs.radius, T),
            fs.center, record_iterates=True,
        )
        log = trace.iterates
        x1 = fs.center
        # prepend the start: iterate k uses y_1..y_k, x_1..x_k
        ys = np.vstack([x1, log.ys[:-1]])
        xs = np.vstack([x1, log.xs[:-1]])
        running = np.cumsum(ys - xs, axis=0)
        assert np.max(np.abs(running - log.qs)) <= 1e-9

    def test_y_update_first_order_condition(self):
        fs, obj, _ = hypercube_problem(6)
        T = 300
        p = params_deterministic(obj.lipschitz, fs.radius, T)
        trace = pfw_run(obj, fs, p, fs.center, record_iterates=True)
        log = trace.iterates
        y_prev = fs.center
        for j in range(len(log.ys)):
            resid = (
                (p.alpha + p.eta) * log.ys[j]
                - p.alpha * y_prev
                - p.eta * log.xs[j]
                + p.eta * log.qs[j]
                + log.gs[j]
            )
            assert np.max(np.abs(resid)) <= 1e-9
            y_prev = log.ys[j]

    def test_xbar_is_exact_average(self):
        fs, obj, _ = hypercube_problem(4)
        T = 50
        trace = pfw_run(
            obj, fs, params_deterministic(obj.lipschitz, fs.radius, T),
            fs.center, record_iterates=True,
        )
        total = fs.center + np.sum(trace.iterates.xs, axis=0)
        assert np.array_equal(trace.xbar, total / T)
        assert fs.contains(trace.xbar)

    def test_iterates_feasible(self):
        fs, obj, _ = hypercube_problem(5)
        trace = pfw_run(
            obj, fs, params_deterministic(obj.lipschitz, fs.radius, 200),
            fs.center, record_iterates=True,
        )
        assert np.all(np.abs(trace.iterates.xs) <= 1.0 + 1e-9)

    def test_start_outside_ball_rejected(self):
        fs, obj, _ = hypercube_problem(3)
        with pytest.raises(ValueError):
            pfw_run(obj, fs, params_deterministic(1.0, fs.radius, 10), np.full(3, 100.0))

    def test_set_without_contains_fails_at_the_start(self):
        # contains is required, like lmo: no enclosing-ball stand-in
        class Segment(FeasibleSet):
            center, radius = np.zeros(1), 1.0

            def lmo(self, direction):
                return -np.sign(direction)

        with pytest.raises(NotImplementedError):
            pfw_run(l1_distance(np.ones(1)), Segment(), PfwParams(1.0, 1.0, 5), [0.0])

    @pytest.mark.parametrize("solver", ["pfw", "pfw_stochastic", "pgd", "sgd"])
    def test_start_outside_polytope_rejected(self, solver):
        # inside the triangle's enclosing ball (radius 1 at the vertex 0),
        # outside the triangle: at T = 1, xbar would be the start itself
        poly = VertexPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        obj = l1_distance(np.zeros(2))
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.5, seed=0), 2)
        params = params_deterministic(obj.lipschitz, poly.radius, 1)
        runs = {
            "pfw": lambda: pfw_run(obj, poly, params, [0.6, 0.6]),
            "pfw_stochastic": lambda: pfw_run_stochastic(oracle, poly, params, [0.6, 0.6]),
            "pgd": lambda: pgd_run(obj, poly, 0.1, 1, [0.6, 0.6]),
            "sgd": lambda: sgd_run(oracle, poly, 0.1, 1, [0.6, 0.6]),
        }
        with pytest.raises(ValueError, match="^start point lies outside the feasible set$"):
            runs[solver]()

    @pytest.mark.parametrize("solver", ["pfw", "pfw_stochastic", "pgd", "sgd"])
    def test_start_in_ball_outside_set_rejected(self, solver):
        # inside the enclosing ball of radius 4, outside the box
        fs, obj, _ = hypercube_problem(4)
        x1 = [1.9, 0.0, 0.0, 0.0]
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.5, seed=0), 4)
        params = params_deterministic(obj.lipschitz, fs.radius, 1)
        runs = {
            "pfw": lambda: pfw_run(obj, fs, params, x1),
            "pfw_stochastic": lambda: pfw_run_stochastic(oracle, fs, params, x1),
            "pgd": lambda: pgd_run(obj, fs, 0.1, 1, x1),
            "sgd": lambda: sgd_run(oracle, fs, 0.1, 1, x1),
        }
        with pytest.raises(ValueError):
            runs[solver]()

    def test_broken_oracle_reports_iteration(self):
        fs = Hypercube(3)
        bad = Objective(
            value=lambda x: 0.0,
            subgrad=lambda x: np.full(3, 1e13),
            lipschitz=1.0,
        )
        with pytest.raises(SolverError) as err:
            pfw_run(bad, fs, params_deterministic(1.0, fs.radius, 10), fs.center)
        assert err.value.iteration == 1

        # a failure in the first step is iteration 1 in every solver, on the
        # oracle-failure path (raises) and on the iterate guard (NaN)
        def raises(x):
            raise RuntimeError("oracle down")

        for subgrad in (raises, lambda x: np.full(3, np.nan)):
            bad = Objective(value=lambda x: 0.0, subgrad=subgrad, lipschitz=1.0)
            noisy = StochasticOracle(
                base=bad,
                noisy_subgrad=lambda x, rng: subgrad(x),
                second_moment=1.0,
                seed=0,
            )
            runs = (
                lambda: pfw_run(
                    bad, fs, params_deterministic(1.0, fs.radius, 10), fs.center
                ),
                lambda: pgd_run(bad, fs, 0.1, 10, fs.center),
                lambda: sgd_run(noisy, fs, 0.1, 10, fs.center),
            )
            for run in runs:
                with pytest.raises(SolverError) as err:
                    run()
                assert err.value.iteration == 1

        # the guards also scan what the set returns: a huge or NaN LMO output
        # and a huge projection are caught in the first step
        obj = l1_distance(np.zeros(3))
        params = params_deterministic(1.0, fs.radius, 10)
        runs = (
            lambda: pfw_run(obj, HugeLmoHypercube(3), params, fs.center),
            lambda: pfw_run(obj, NanLmoHypercube(3), params, fs.center),
            lambda: pgd_run(obj, HugeProjectionHypercube(3), 0.1, 10, fs.center),
        )
        for run in runs:
            with pytest.raises(SolverError) as err:
                run()
            assert err.value.iteration == 1

    @pytest.mark.parametrize(
        "fs, subgrad, message",
        [(NegInfLmoHypercube(3), np.sign, "non-finite"),
         (Hypercube(3), lambda x: np.full(3, np.nan), "non-finite"),
         (HugeLmoHypercube(3), np.sign, "magnitude exceeded")],
        ids=["-inf in x", "nan in y", "huge x"],
    )
    def test_guard_names_the_fault(self, fs, subgrad, message):
        # a NaN subgradient reaches only y in the first step, since
        # x = lmo(-Q) with Q = 0
        obj = Objective(value=lambda x: 0.0, subgrad=subgrad, lipschitz=1.0)
        with pytest.raises(SolverError, match=message) as err:
            pfw_run(obj, fs, params_deterministic(1.0, fs.radius, 10), fs.center)
        assert err.value.iteration == 1

    # the guard's edges: +-1e12 itself and -0.0 pass; the next float up, and
    # a magnitude whose square overflows, are "magnitude exceeded" with no
    # RuntimeWarning; a NaN next to a huge entry is "non-finite".  90000
    # entries of 3e9 have a squared norm of 8.1e23, past the one-dot check's
    # 2.5e23, so the exact scan must pass them
    @pytest.mark.parametrize(
        "value, message",
        [([1e12, -1e12], None),
         ([-0.0, 1.0], None),
         ([np.nextafter(1e12, np.inf), 0.0], "magnitude exceeded"),
         ([0.0, -np.nextafter(1e12, np.inf)], "magnitude exceeded"),
         ([1e200, 0.0], "magnitude exceeded"),
         ([1e200, np.nan], "non-finite"),
         (np.full(90000, 3e9), None)],
        ids=["at bound", "negative zero", "above bound", "below -bound",
             "overflowing square", "huge and nan", "large norm in bound"],
    )
    @pytest.mark.parametrize("place", ["lmo x", "projection x", "y"])
    def test_guard_edges(self, value, message, place):
        value = np.array(value)
        start = np.zeros(value.size)
        if place == "y":
            # x1 = 0, Q = 0 and lmo(0) = 0 in the first step, so with
            # alpha = eta = 1 the update is y = -g / 2 = value, exactly
            fs, subgrad = Hypercube(value.size), lambda x: -2.0 * value
        else:
            fs, subgrad = ConstantHypercube(value), lambda x: start
        obj = Objective(value=lambda x: 0.0, subgrad=subgrad, lipschitz=1.0)
        if place == "projection x":
            run = lambda: pgd_run(obj, fs, 1.0, 1, start, record_iterates=True)
        else:
            params = PfwParams(alpha=1.0, eta=1.0, horizon=2)
            run = lambda: pfw_run(obj, fs, params, start, record_iterates=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                log = run().iterates
                assert np.array_equal(log.ys[0] if place == "y" else log.xs[0], value)
                return
            with pytest.raises(SolverError, match=message) as err:
                run()
        assert err.value.iteration == 1

    def test_nan_oracle_fails(self):
        fs = Hypercube(3)
        bad = Objective(
            value=lambda x: 0.0,
            subgrad=lambda x: np.full(3, np.nan),
            lipschitz=1.0,
        )
        with pytest.raises(SolverError):
            pfw_run(bad, fs, params_deterministic(1.0, fs.radius, 10), fs.center)


class TestPgdRun:
    def test_zero_subgradient_fixed_point(self):
        fs = Hypercube(3)
        const = Objective(value=lambda x: 7.0, subgrad=lambda x: np.zeros(3), lipschitz=1.0)
        x0 = np.array([0.3, -0.3, 0.9])
        trace = pgd_run(const, fs, beta=0.1, T=25, x0=x0)
        assert np.allclose(trace.xbar, x0, atol=1e-12)

    def test_bound_paper_constants(self):
        n, T = 10, 10_000
        fs, obj, f_star = hypercube_problem(n)
        beta = fs.radius / (obj.lipschitz * np.sqrt(T))
        trace = pgd_run(obj, fs, beta, T, fs.center)
        assert trace.f_xbar - f_star <= fs.radius * obj.lipschitz / np.sqrt(T)

    def test_single_unclamped_step(self):
        fs = Hypercube(2)
        obj = l1_distance(np.array([5.0, -5.0]))
        x0 = np.zeros(2)
        beta = 0.01
        trace = pgd_run(obj, fs, beta, 1, x0, record_iterates=True)
        g0 = obj.subgrad(x0)
        assert np.array_equal(trace.iterates.xs[0], x0 - beta * g0)
        # drift and subgradient histories belong to the drift solver only
        assert trace.iterates.qs is None
        assert trace.iterates.gs is None

    def test_averages_over_T_plus_one(self):
        fs = Hypercube(1)
        obj = l1_distance(np.array([10.0]))
        x0 = np.zeros(1)
        beta = 0.25
        trace = pgd_run(obj, fs, beta, 2, x0)
        # by hand: x0 = 0, x1 = 0.25, x2 = 0.5; mean over three points
        assert trace.xbar[0] == pytest.approx((0.0 + 0.25 + 0.5) / 3)

    def test_requires_projection(self):
        # every shipped set projects; a set with only an LMO does not
        class Segment(FeasibleSet):
            center, radius = np.zeros(1), 1.0

            def lmo(self, direction):
                return -np.sign(direction)

            def contains(self, x, tol=1e-9):
                return abs(x[0]) <= 1.0 + tol

        with pytest.raises(UnsupportedSetError):
            pgd_run(l1_distance(np.ones(1)), Segment(), 0.1, 10, [0.0])


class TestStochasticRuns:
    def test_zero_noise_matches_deterministic(self):
        n, T = 6, 400
        fs, obj, _ = hypercube_problem(n)
        params = params_deterministic(obj.lipschitz, fs.radius, T)
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.0, seed=3), n)
        det = pfw_run(obj, fs, params, fs.center, record_iterates=True)
        sto = pfw_run_stochastic(oracle, fs, params, fs.center, record_iterates=True)
        assert np.array_equal(det.xbar, sto.xbar)
        for name in ("xs", "ys", "qs", "gs"):
            assert np.array_equal(getattr(det.iterates, name), getattr(sto.iterates, name))

    def test_zero_noise_sgd_matches_pgd(self):
        n, T = 6, 400
        fs, obj, _ = hypercube_problem(n)
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.0, seed=3), n)
        beta = fs.radius / (obj.lipschitz * np.sqrt(T))
        det = pgd_run(obj, fs, beta, T, fs.center)
        sto = sgd_run(oracle, fs, beta, T, fs.center)
        assert np.array_equal(det.xbar, sto.xbar)

    def test_list_subgradient_at_zero_noise_matches_deterministic(self):
        # an objective whose subgrad returns a list runs under pfw_run; the
        # noisy oracle reads it by the same shape rule, so it runs there too
        n, T = 6, 400
        fs, obj, _ = hypercube_problem(n)
        listed = Objective(
            value=obj.value, subgrad=lambda x: obj.subgrad(x).tolist(),
            lipschitz=obj.lipschitz,
        )
        params = params_deterministic(obj.lipschitz, fs.radius, T)
        oracle = gaussian_oracle(listed, GaussianNoiseSpec(sigma=0.0, seed=3), n)
        det = pfw_run(listed, fs, params, fs.center)
        sto = pfw_run_stochastic(oracle, fs, params, fs.center)
        assert det.xbar.tobytes() == sto.xbar.tobytes()

    def test_seed_reproducibility(self):
        n, T = 8, 300
        fs, obj, _ = hypercube_problem(n)
        B = np.sqrt(obj.lipschitz**2 + n)
        params = params_stochastic(obj.lipschitz, B, fs.radius, T)
        runs = [
            pfw_run_stochastic(
                gaussian_oracle(obj, GaussianNoiseSpec(sigma=1.0, seed=s), n),
                fs, params, fs.center,
            )
            for s in (11, 11, 12)
        ]
        assert np.array_equal(runs[0].xbar, runs[1].xbar)
        assert not np.array_equal(runs[0].xbar, runs[2].xbar)

    def test_mean_error_within_theorem_bound(self):
        n, T, sigma, n_seeds = 20, 2000, 1.0, 10
        fs, obj, f_star = hypercube_problem(n)
        G, R = obj.lipschitz, fs.radius
        B = np.sqrt(G**2 + n * sigma**2)
        errs = []
        for seed in range(n_seeds):
            oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=sigma, seed=seed), n)
            trace = pfw_run_stochastic(
                oracle, fs, params_stochastic(G, B, R, T, "with_G"), fs.center
            )
            errs.append(trace.f_xbar - f_star)
        mean = np.mean(errs)
        slack = 3 * np.std(errs, ddof=1) / np.sqrt(n_seeds)
        assert mean <= (B * R + 2 * G * R) / np.sqrt(T) + slack

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_matches_reference_transcription(self, sigma):
        # pins the solvers' operation order: a reordering of the arithmetic
        # shows in the last bits of y; pfw's xbar averages sign vectors, so
        # it moves only when a sign of Q flips.  Every recorded row must
        # match too, so a sign carried in the loop cannot leak into the log
        n, T, seed = 7, 60, 5
        omega = np.array([2.5, -1.7, 0.3, 1.2, -0.4, 3.0, -2.2])
        fs, obj = Hypercube(n), l1_distance(omega)
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=sigma, seed=seed), n)
        G, B, R = obj.lipschitz, oracle.second_moment, fs.radius
        params = params_stochastic(G, B, R, T, "with_G")
        beta = R / (B * np.sqrt(T))
        traces = (
            pfw_run_stochastic(oracle, fs, params, fs.center, record_iterates=True),
            sgd_run(oracle, fs, beta, T, fs.center, record_iterates=True),
        )
        for trace, (xbar, f_xbar, rows) in zip(
            traces, reference_runs(omega, sigma, seed, params, beta, T)
        ):
            assert trace.xbar.tobytes() == xbar.tobytes()
            assert trace.f_xbar.hex() == f_xbar.hex()
            log = trace.iterates
            for got, want in zip((log.xs, log.ys, log.qs, log.gs), rows):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_matches_reference_transcription_on_the_polytope(self, sigma):
        # num3_demo at n = 4: the vertex scan and the exact-penalty oracle,
        # whose arithmetic is written out here; the run violates the
        # constraint on some steps and not on others
        n, T, seed = 4, 1000, 3
        config = ExperimentConfig(
            experiment="num3_demo", n=n, sigma_list=[sigma], T_list=[T],
            seeds=[seed], algorithms=["pfw"],
        )
        fs, obj, _ = _make_num3_instance(config)
        a, b, gamma = np.ones(n), n / 2.0, 10.0

        def value(x):
            slack = float(np.dot(a, x)) - b
            return -float(np.min(x)) + (gamma * slack if slack > 0.0 else 0.0)

        def subgrad(x):
            g = np.zeros(n)
            g[x.argmin()] = -1.0
            # one constraint: its index is the smallest achieving the max
            if float(np.dot(a, x)) - b > 0.0:
                g = g + a * gamma
            return g

        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=sigma, seed=seed), n)
        params = params_stochastic(
            obj.lipschitz, oracle.second_moment, fs.radius, T, "with_G"
        )
        trace = pfw_run_stochastic(oracle, fs, params, fs.center, record_iterates=True)
        xbar, rows = reference_drift(subgrad, fs.lmo, fs.center, params, T, sigma, seed)
        ys = np.vstack([fs.center, rows[1][:-1]])  # the points the oracle saw
        violated = ys.sum(axis=1) > b
        assert violated.any() and not violated.all()
        assert trace.xbar.tobytes() == xbar.tobytes()
        assert trace.f_xbar.hex() == value(xbar).hex()
        log = trace.iterates
        for got, want in zip((log.xs, log.ys, log.qs, log.gs), rows):
            assert got.tobytes() == want.tobytes()

    def test_b_only_schedule_runs(self):
        n, T = 5, 500
        fs, obj, f_star = hypercube_problem(n)
        B = np.sqrt(obj.lipschitz**2 + n * 0.25)
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.5, seed=7), n)
        trace = pfw_run_stochastic(
            oracle, fs, params_stochastic(obj.lipschitz, B, fs.radius, T, "B_only"),
            fs.center,
        )
        # Appendix-style bound for the G-free schedule: 3BR/sqrt(T)
        assert trace.f_xbar - f_star <= 3 * B * fs.radius / np.sqrt(T)


RECORDED_SETS = {
    "hypercube": lambda: Hypercube(5),
    "nuclear": lambda: NuclearBall(4, 3, 2.0),
    "polytope": lambda: VertexPolytope(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]]
    ),
}


@pytest.mark.parametrize(
    "solver, set_name",
    [(solver, name) for solver in ("pfw", "pfw_stochastic", "pgd", "sgd") for name in RECORDED_SETS],
)
def test_recording_does_not_perturb_the_run(solver, set_name):
    fs = RECORDED_SETS[set_name]()
    d, T = fs.center.size, 40
    obj = l1_distance(np.linspace(-3.0, 3.0, d))
    oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.5, seed=4), d)
    G, B, R = obj.lipschitz, oracle.second_moment, fs.radius
    runs = {
        "pfw": lambda rec: pfw_run(
            obj, fs, params_deterministic(G, R, T), fs.center, rec
        ),
        "pfw_stochastic": lambda rec: pfw_run_stochastic(
            oracle, fs, params_stochastic(G, B, R, T, "with_G"), fs.center, rec
        ),
        "pgd": lambda rec: pgd_run(obj, fs, R / (G * np.sqrt(T)), T, fs.center, rec),
        "sgd": lambda rec: sgd_run(oracle, fs, R / (B * np.sqrt(T)), T, fs.center, rec),
    }
    plain, recorded = runs[solver](False), runs[solver](True)
    assert plain.iterates is None
    assert recorded.xbar.tobytes() == plain.xbar.tobytes()
    assert recorded.f_xbar.hex() == plain.f_xbar.hex()
    log = recorded.iterates
    if solver.startswith("pfw"):
        for rows in (log.xs, log.ys, log.qs, log.gs):
            assert rows.shape == (T - 1, d)
    else:
        assert log.xs.shape == (T, d)
        assert log.ys is log.xs
        assert log.qs is None and log.gs is None


# The loop reads every oracle output it uses, a subgradient and an LMO point
# or a projection, through the shape rule at the iterate's size: a vector of
# the wrong size raises at its iteration, and a column or a list is the flat
# vector it holds.  (solver, the output malformed, the set it runs on)
_BOUNDARY = [
    (solver, output, set_name)
    for solver, outputs in (
        ("pfw", ("subgrad", "lmo")),
        ("pgd", ("subgrad", "project")),
        ("pfw_stochastic", ("noisy_subgrad",)),
        ("sgd", ("noisy_subgrad",)),
    )
    for output in outputs
    for set_name in ("Hypercube", "NuclearBall")
    if set_name == "Hypercube" or output in ("lmo", "project")
]
_BOUNDARY_SETS = {
    "Hypercube": lambda: Hypercube(4),
    "NuclearBall": lambda: NuclearBall(2, 2, 1.0),
}
_WRONG_SIZE = {
    "short": (lambda v: v[:-1], 3),
    "long": (lambda v: np.append(v, 0.0), 5),
    "single": (lambda v: v[:1], 1),
}
_REREAD = {"column": lambda v: v.reshape(-1, 1), "list": lambda v: v.tolist()}


def _boundary_run(solver, output, set_name, form, T=20):
    """Run solver on a 4-entry problem with one oracle output passed through form."""
    fs = _BOUNDARY_SETS[set_name]()
    obj = l1_distance(np.linspace(-3.0, 3.0, 4))
    if output in ("lmo", "project"):
        inner = fs
        fs = copy.copy(inner)
        setattr(fs, output, lambda v: form(getattr(inner, output)(v)))
    subgrad = (lambda x: form(obj.subgrad(x))) if output == "subgrad" else obj.subgrad
    shaped = Objective(obj.value, subgrad, obj.lipschitz)
    # built directly, so that no wrapper of its own reads the noisy output
    oracle = StochasticOracle(
        base=obj,
        noisy_subgrad=lambda x, rng: form(obj.subgrad(x) + rng.normal(0.0, 0.5, 4)),
        second_moment=float(np.sqrt(obj.lipschitz**2 + 4 * 0.25)),
        seed=3,
    )
    G, B, R = obj.lipschitz, oracle.second_moment, fs.radius
    runs = {
        "pfw": lambda: pfw_run(shaped, fs, params_deterministic(G, R, T), fs.center),
        "pfw_stochastic": lambda: pfw_run_stochastic(
            oracle, fs, params_stochastic(G, B, R, T), fs.center
        ),
        "pgd": lambda: pgd_run(shaped, fs, R / (G * np.sqrt(T)), T, fs.center),
        "sgd": lambda: sgd_run(oracle, fs, R / (B * np.sqrt(T)), T, fs.center),
    }
    return runs[solver]()


@pytest.mark.parametrize("solver, output, set_name", _BOUNDARY)
@pytest.mark.parametrize("wrong", _WRONG_SIZE)
def test_oracle_output_of_wrong_size_raises(solver, output, set_name, wrong):
    form, got = _WRONG_SIZE[wrong]
    with pytest.raises(SolverError) as info:
        _boundary_run(solver, output, set_name, form)
    assert info.match(rf"^oracle failure: expected 4 entries, got {got} \(iteration 1\)$")
    assert info.value.iteration == 1
    assert isinstance(info.value.__cause__, DimensionError)


@pytest.mark.parametrize("solver, output, set_name", _BOUNDARY)
@pytest.mark.parametrize("reread", _REREAD)
def test_column_or_list_oracle_output_reads_as_flat(solver, output, set_name, reread):
    flat = _boundary_run(solver, output, set_name, lambda v: v)
    shaped = _boundary_run(solver, output, set_name, _REREAD[reread])
    assert shaped.xbar.tobytes() == flat.xbar.tobytes()
