import numpy as np
import pytest

from pfopt import (
    Objective,
    StochasticOracle,
    params_deterministic,
    params_stochastic,
)


class TestDeterministicParams:
    def test_theorem_values(self):
        p = params_deterministic(G=1.0, R=1.0, T=4)
        assert p.alpha == pytest.approx(2.0)
        assert p.eta == pytest.approx(0.25)
        assert p.horizon == 4

    def test_horizon_one(self):
        p = params_deterministic(G=1.0, R=1.0, T=1)
        assert p.alpha == pytest.approx(1.0)
        assert p.eta == pytest.approx(0.5)

    def test_hypercube_constants(self):
        # G = sqrt(10), R = 2*sqrt(10), T = 100 evaluated by hand
        p = params_deterministic(G=np.sqrt(10), R=2 * np.sqrt(10), T=100)
        assert p.alpha == pytest.approx(5.0, abs=1e-12)
        assert p.eta == pytest.approx(1.0 / 40.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            params_deterministic(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            params_deterministic(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            params_deterministic(1.0, 1.0, 0)

    def test_pure(self):
        a = params_deterministic(1.7, 2.3, 55)
        b = params_deterministic(1.7, 2.3, 55)
        assert a == b


class TestStochasticParams:
    def test_with_G_mode(self):
        p = params_stochastic(G=1.0, B=2.0, R=1.0, T=4, mode="with_G")
        assert p.alpha == pytest.approx(4.0)
        assert p.eta == pytest.approx(0.25)

    def test_B_only_mode(self):
        p = params_stochastic(G=1.0, B=1.0, R=1.0, T=1, mode="B_only")
        assert p.alpha == pytest.approx(1.0)
        assert p.eta == pytest.approx(2.0)

    def test_noisy_hypercube_constants(self):
        # sigma = 0.5, n = 10: B = sqrt(10 + 10 * 0.25)
        G, R, T = np.sqrt(10), 2 * np.sqrt(10), 100
        B = np.sqrt(10 + 10 * 0.25)
        p = params_stochastic(G, B, R, T, "with_G")
        assert p.alpha == pytest.approx(B * 10 / R, abs=1e-12)
        assert p.eta == pytest.approx(G / (2 * R * 10), abs=1e-14)

    def test_rejects_B_below_G(self):
        with pytest.raises(ValueError):
            params_stochastic(G=2.0, B=1.0, R=1.0, T=4)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            params_stochastic(1.0, 2.0, 1.0, 4, mode="other")


def _dummy_objective(G=1.0):
    return Objective(value=lambda x: 0.0, subgrad=lambda x: np.zeros(len(x)), lipschitz=G)


class TestOracleHandles:
    def test_second_moment_must_dominate_lipschitz(self):
        base = _dummy_objective(G=3.0)
        with pytest.raises(ValueError):
            StochasticOracle(
                base=base,
                noisy_subgrad=lambda x, rng: base.subgrad(x),
                second_moment=2.0,
                seed=0,
            )

    @pytest.mark.parametrize("seed", [-1, 1.5, False, "3", None])
    def test_rejects_bad_seed(self, seed):
        base = _dummy_objective()
        with pytest.raises(ValueError, match="seed"):
            StochasticOracle(
                base=base,
                noisy_subgrad=lambda x, rng: base.subgrad(x),
                second_moment=1.0,
                seed=seed,
            )

    def test_rng_is_seed_stable(self):
        base = _dummy_objective()
        oracle = StochasticOracle(
            base=base,
            noisy_subgrad=lambda x, rng: rng.standard_normal(3),
            second_moment=5.0,
            seed=41,
        )
        a = oracle.rng().standard_normal(4)
        b = oracle.rng().standard_normal(4)
        assert np.array_equal(a, b)

    def test_objective_rejects_nonpositive_lipschitz(self):
        with pytest.raises(ValueError):
            _dummy_objective(G=0.0)
