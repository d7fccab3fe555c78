import numpy as np
import pytest

from pfopt import (
    DimensionError,
    GaussianNoiseSpec,
    Objective,
    PenaltySpec,
    gaussian_oracle,
    hypercube_l1_optimum,
    l1_distance,
    lipschitz_extend,
    penalized_objective,
)


class TestL1Distance:
    def test_direct(self):
        obj = l1_distance(np.zeros(2))
        assert obj.value([1.0, -2.0]) == 3.0
        assert np.array_equal(obj.subgrad([1.0, -2.0]), [1.0, -1.0])

    def test_at_anchor(self):
        omega = np.array([0.3, -0.7])
        obj = l1_distance(omega)
        assert obj.value(omega) == 0.0
        assert np.array_equal(obj.subgrad(omega), [0.0, 0.0])

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(1)
        omega = rng.standard_normal(5)
        obj = l1_distance(omega)
        for _ in range(100):
            x = rng.standard_normal(5)
            g = obj.subgrad(x)
            fx = obj.value(x)
            for _ in range(10):
                y = rng.standard_normal(5)
                assert obj.value(y) >= fx + np.dot(g, y - x) - 1e-12

    def test_lipschitz_constant(self):
        obj = l1_distance(np.zeros(9))
        assert obj.lipschitz == pytest.approx(3.0)
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = obj.subgrad(rng.standard_normal(9))
            assert np.linalg.norm(g) <= obj.lipschitz + 1e-12
        # equality when no coordinate ties the anchor
        g = obj.subgrad(np.full(9, 0.5))
        assert np.linalg.norm(g) == pytest.approx(obj.lipschitz)

    def test_shape_mismatch(self):
        obj = l1_distance(np.zeros(3))
        with pytest.raises(DimensionError):
            obj.value(np.zeros(4))
        with pytest.raises(DimensionError):
            obj.subgrad(np.zeros(4))


class TestHypercubeOptimum:
    def test_separable_clamp(self):
        x_star, f_star = hypercube_l1_optimum([0.5, 2.0])
        assert np.array_equal(x_star, [0.5, 1.0])
        assert f_star == 1.0

    def test_feasible_anchor(self):
        _, f_star = hypercube_l1_optimum([0.1, -0.9, 0.0])
        assert f_star == 0.0

    def test_matches_grid_search(self):
        # the box objective is separable, so a per-coordinate scan is exact
        rng = np.random.default_rng(3)
        grid = np.linspace(-1.0, 1.0, 2001)
        for _ in range(10):
            omega = 3 * rng.standard_normal(4)
            _, f_star = hypercube_l1_optimum(omega)
            brute = sum(np.min(np.abs(grid - w)) for w in omega)
            assert abs(f_star - brute) <= 4e-3


class TestGaussianOracle:
    def test_zero_noise_is_exact(self):
        obj = l1_distance(np.zeros(4))
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.0, seed=0), 4)
        x = np.array([0.5, -0.5, 1.0, 0.0])
        assert np.array_equal(oracle.noisy_subgrad(x, oracle.rng()), obj.subgrad(x))
        assert oracle.second_moment == pytest.approx(obj.lipschitz)

    def test_unbiasedness(self):
        obj = l1_distance(np.zeros(5))
        sigma, draws = 0.7, 100_000
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=sigma, seed=5), 5)
        x = np.array([0.5, -0.2, 0.9, -1.4, 0.3])
        rng = oracle.rng()
        total = np.zeros(5)
        for _ in range(draws):
            total += oracle.noisy_subgrad(x, rng)
        mean = total / draws
        tol = 4 * sigma / np.sqrt(draws)
        assert np.all(np.abs(mean - obj.subgrad(x)) <= tol)

    def test_second_moment(self):
        obj = l1_distance(np.zeros(5))
        sigma, draws = 0.7, 100_000
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=sigma, seed=6), 5)
        x = np.array([0.5, -0.2, 0.9, -1.4, 0.3])
        rng = oracle.rng()
        total = 0.0
        for _ in range(draws):
            total += np.sum(oracle.noisy_subgrad(x, rng) ** 2)
        expected = np.sum(obj.subgrad(x) ** 2) + 5 * sigma**2
        assert total / draws == pytest.approx(expected, rel=0.05)

    def test_implied_bound(self):
        obj = l1_distance(np.zeros(10))
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=0.5, seed=1), 10)
        assert oracle.second_moment == pytest.approx(np.sqrt(10 + 10 * 0.25))
        assert oracle.second_moment >= obj.lipschitz

    @pytest.mark.parametrize("dim", [1, 7])
    def test_wrong_dim_rejected(self, dim):
        # dim = 1 would broadcast one draw over all five coordinates, and
        # either dim gives a second moment for the wrong dimension
        obj = l1_distance(np.zeros(5))
        for sigma in (0.0, 0.5):
            oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma=sigma, seed=0), dim)
            with pytest.raises(DimensionError):
                oracle.noisy_subgrad(np.ones(5), oracle.rng())

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianNoiseSpec(sigma=-0.1, seed=0)


class TestLipschitzExtension:
    grid = [np.array([t]) for t in np.linspace(-1.0, 1.0, 2001)]

    @staticmethod
    def f_abs(x):
        return abs(float(x[0]))

    def test_extends_abs_beyond_interval(self):
        val = lipschitz_extend(self.f_abs, 1.0, self.grid, np.array([2.0]))
        assert val == pytest.approx(2.0, abs=1e-3)

    def test_exact_at_candidates(self):
        w = self.grid[137]
        assert lipschitz_extend(self.f_abs, 1.0, self.grid, w) == self.f_abs(w)

    def test_lipschitz_with_grid_slack(self):
        rng = np.random.default_rng(7)
        res = 2.0 / 2000
        for _ in range(200):
            w1, w2 = rng.uniform(-3, 3, (2, 1))
            v1 = lipschitz_extend(self.f_abs, 1.0, self.grid, w1)
            v2 = lipschitz_extend(self.f_abs, 1.0, self.grid, w2)
            assert abs(v1 - v2) <= np.linalg.norm(w1 - w2) + 2 * res

    def test_monotone_under_candidate_growth(self):
        small = self.grid[::100]
        w = np.array([1.7])
        assert lipschitz_extend(self.f_abs, 1.0, self.grid, w) <= lipschitz_extend(
            self.f_abs, 1.0, small, w
        )

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            lipschitz_extend(self.f_abs, 1.0, [], np.array([0.0]))


def _zero_objective(n):
    return Objective(
        value=lambda x: 0.0, subgrad=lambda x: np.zeros(n), lipschitz=1.0
    )


class TestPenalty:
    def test_inactive_constraints(self):
        base = l1_distance(np.zeros(2))
        spec = PenaltySpec(constraints=[(np.array([1.0, 0.0]), 10.0)], gamma=3.0)
        obj = penalized_objective(base, spec)
        x = np.array([0.5, -0.5])
        assert obj.value(x) == base.value(x)
        assert np.array_equal(obj.subgrad(x), base.subgrad(x))

    def test_active_single_constraint(self):
        base = _zero_objective(2)
        spec = PenaltySpec(constraints=[(np.array([1.0, 0.0]), 0.0)], gamma=2.0)
        obj = penalized_objective(base, spec)
        x = np.array([3.0, 0.0])
        assert obj.value(x) == 6.0
        assert np.array_equal(obj.subgrad(x), [2.0, 0.0])

    def test_tie_break_smallest_index(self):
        base = _zero_objective(2)
        spec = PenaltySpec(
            constraints=[(np.array([1.0, 0.0]), 0.0), (np.array([1.0, 0.0]), 0.0)],
            gamma=1.0,
        )
        g = penalized_objective(base, spec).subgrad(np.array([1.0, 5.0]))
        assert np.array_equal(g, [1.0, 0.0])

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(9)
        base = l1_distance(rng.standard_normal(3))
        spec = PenaltySpec(
            constraints=[(rng.standard_normal(3), 0.5), (rng.standard_normal(3), -0.2)],
            gamma=1.7,
        )
        obj = penalized_objective(base, spec)
        for _ in range(100):
            x, y = rng.standard_normal((2, 3))
            g = obj.subgrad(x)
            assert obj.value(y) >= obj.value(x) + np.dot(g, y - x) - 1e-10

    def test_lipschitz_bound_holds(self):
        rng = np.random.default_rng(10)
        base = l1_distance(np.zeros(3))
        spec = PenaltySpec(constraints=[(rng.standard_normal(3), 0.0)], gamma=2.5)
        obj = penalized_objective(base, spec)
        for _ in range(300):
            g = obj.subgrad(rng.standard_normal(3) * 3)
            assert np.linalg.norm(g) <= obj.lipschitz + 1e-10

    def test_zero_gamma_is_base(self):
        base = l1_distance(np.zeros(2))
        spec = PenaltySpec(constraints=[(np.array([1.0, 1.0]), -5.0)], gamma=0.0)
        obj = penalized_objective(base, spec)
        x = np.array([2.0, -3.0])
        assert obj.value(x) == base.value(x)
        assert np.array_equal(obj.subgrad(x), base.subgrad(x))
        assert obj.lipschitz == base.lipschitz

    @pytest.mark.parametrize("x", [[0.5, -0.5], [3.0, 0.0]])
    def test_each_half_calls_only_its_base_half(self, x):
        # one inactive and one active constraint point
        calls = {"value": 0, "subgrad": 0}
        inner = l1_distance(np.zeros(2))

        def value(y):
            calls["value"] += 1
            return inner.value(y)

        def subgrad(y):
            calls["subgrad"] += 1
            return inner.subgrad(y)

        base = Objective(value=value, subgrad=subgrad, lipschitz=inner.lipschitz)
        spec = PenaltySpec(constraints=[(np.array([1.0, 0.0]), 1.0)], gamma=2.0)
        obj = penalized_objective(base, spec)
        obj.subgrad(np.array(x))
        assert calls == {"value": 0, "subgrad": 1}
        obj.value(np.array(x))
        assert calls == {"value": 1, "subgrad": 1}
