import numpy as np
import pytest

from pfopt import (
    DimensionError,
    GaussianNoiseSpec,
    GradientStep,
    Hypercube,
    NuclearBall,
    Objective,
    PenaltySpec,
    PfwParams,
    StochasticOracle,
    VertexPolytope,
    gaussian_oracle,
    l1_distance,
    lipschitz_extend,
    params_deterministic,
    params_stochastic,
    penalized_objective,
    pfw_run,
    pfw_run_stochastic,
    pgd_run,
    sgd_run,
)
from pfopt.core import _as_flat


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


def _oracle(second_moment=1.0, seed=0):
    base = _dummy_objective()
    return StochasticOracle(
        base=base, noisy_subgrad=lambda x, rng: base.subgrad(x),
        second_moment=second_moment, seed=seed,
    )


def _pgd(T):
    fs = Hypercube(2)
    return pgd_run(l1_distance(np.zeros(2)), fs, 0.1, T, fs.center)


_BAD_COUNT = [True, 2.5, 0]
_BAD_SEED = [True, 2.5, -1]
_BAD_POSITIVE = [True, 0.0, -1.0, float("nan"), float("inf")]
_BAD_NONNEGATIVE = [True, -1.0, float("nan"), float("inf")]

# (constructor, the argument it names, a call with that argument set to v,
# the values it must reject)
_ARGUMENT_CASES = [
    ("PfwParams", "alpha", lambda v: PfwParams(v, 1.0, 10), _BAD_POSITIVE),
    ("PfwParams", "eta", lambda v: PfwParams(1.0, v, 10), _BAD_POSITIVE),
    ("PfwParams", "horizon", lambda v: PfwParams(1.0, 1.0, v), _BAD_COUNT),
    ("GradientStep", "beta", lambda v: GradientStep(v, 10), _BAD_POSITIVE),
    ("GradientStep", "horizon", lambda v: GradientStep(0.1, v), _BAD_COUNT),
    ("pgd_run", "horizon", _pgd, _BAD_COUNT),
    ("Objective", "lipschitz", _dummy_objective, _BAD_POSITIVE),
    ("StochasticOracle", "second_moment", lambda v: _oracle(second_moment=v), _BAD_POSITIVE),
    ("StochasticOracle", "seed", lambda v: _oracle(seed=v), _BAD_SEED),
    ("params_deterministic", "G", lambda v: params_deterministic(v, 1.0, 10), _BAD_POSITIVE),
    ("params_deterministic", "R", lambda v: params_deterministic(1.0, v, 10), _BAD_POSITIVE),
    ("params_deterministic", "T", lambda v: params_deterministic(1.0, 1.0, v), _BAD_COUNT),
    ("params_stochastic", "G", lambda v: params_stochastic(v, 2.0, 1.0, 10), _BAD_POSITIVE),
    ("params_stochastic", "B", lambda v: params_stochastic(1.0, v, 1.0, 10), _BAD_POSITIVE),
    ("params_stochastic", "R", lambda v: params_stochastic(1.0, 2.0, v, 10), _BAD_POSITIVE),
    ("params_stochastic", "T", lambda v: params_stochastic(1.0, 2.0, 1.0, v), _BAD_COUNT),
    ("GaussianNoiseSpec", "sigma", lambda v: GaussianNoiseSpec(v, 0), _BAD_NONNEGATIVE),
    ("GaussianNoiseSpec", "seed", lambda v: GaussianNoiseSpec(0.5, v), _BAD_SEED),
    ("PenaltySpec", "gamma", lambda v: PenaltySpec([], v), _BAD_NONNEGATIVE),
    ("Hypercube", "n", Hypercube, _BAD_COUNT),
    ("NuclearBall", "m", lambda v: NuclearBall(v, 2, 1.0), _BAD_COUNT),
    ("NuclearBall", "n", lambda v: NuclearBall(2, v, 1.0), _BAD_COUNT),
    ("NuclearBall", "tau", lambda v: NuclearBall(2, 2, v), _BAD_POSITIVE),
    ("gaussian_oracle", "dim",
     lambda v: gaussian_oracle(_dummy_objective(), GaussianNoiseSpec(0.5, 0), v), _BAD_COUNT),
    ("lipschitz_extend", "G",
     lambda v: lipschitz_extend(lambda x: 0.0, v, [np.zeros(2)], np.ones(2)), _BAD_NONNEGATIVE),
]


@pytest.mark.parametrize(
    "name, build, value",
    [pytest.param(name, build, v, id=f"{owner}-{name}-{v!r}")
     for owner, name, build, values in _ARGUMENT_CASES for v in values],
)
def test_constructor_rejects_bad_argument(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} has an invalid value: "):
        build(value)


_SETS = {
    "Hypercube": Hypercube(3),
    "NuclearBall": NuclearBall(2, 3, 1.0),
    "VertexPolytope": VertexPolytope(np.eye(3)),
}
# every solver on every set it runs on; the projected ones need a projection
_STARTS = [(solver, name) for solver in ("pfw", "pfw_stochastic") for name in _SETS] + [
    (solver, name) for solver in ("pgd", "sgd") for name in ("Hypercube", "NuclearBall")
]


def _run(solver, fs, x1):
    obj = l1_distance(fs.center)
    oracle = gaussian_oracle(obj, GaussianNoiseSpec(0.5, 0), fs.center.size)
    params = params_deterministic(obj.lipschitz, fs.radius, 3)
    runs = {
        "pfw": lambda: pfw_run(obj, fs, params, x1),
        "pfw_stochastic": lambda: pfw_run_stochastic(oracle, fs, params, x1),
        "pgd": lambda: pgd_run(obj, fs, 0.1, 3, x1),
        "sgd": lambda: sgd_run(oracle, fs, 0.1, 3, x1),
    }
    return runs[solver]()


# (case, the size k expected, a call given a vector of k - 1 entries)
_SHAPE_CASES = [
    (f"{name}.{op}", fs.center.size, getattr(fs, op))
    for name, fs in _SETS.items() for op in ("lmo", "project", "contains")
    if getattr(fs, op) is not None
] + [
    ("l1_distance.value", 3, l1_distance(np.zeros(3)).value),
    ("l1_distance.subgrad", 3, l1_distance(np.zeros(3)).subgrad),
    ("lipschitz_extend.w", 3, lambda w: lipschitz_extend(lambda x: 0.0, 1.0, [np.zeros(3)], w)),
    # a list of vectors is sized by its first entry
    ("lipschitz_extend.candidates", 3,
     lambda c: lipschitz_extend(lambda x: 0.0, 1.0, [np.zeros(3), c], np.zeros(3))),
    ("VertexPolytope.vertices", 3, lambda v: VertexPolytope([np.zeros(3), v])),
    ("PenaltySpec.constraints", 3, lambda a: PenaltySpec([(np.ones(3), 0.0), (a, 0.0)], 1.0)),
    # the noisy oracle reads its base's subgradient at its own dimension
    ("gaussian_oracle.subgrad", 3,
     lambda g: gaussian_oracle(Objective(lambda x: 0.0, lambda x: g, 1.0),
                               GaussianNoiseSpec(0.0, 0), 3).noisy_subgrad(np.zeros(3), None)),
] + [
    # so does the penalty oracle, at x's size, whether or not its one
    # constraint <1, x> <= b is violated at x = 1
    (f"penalized_objective.base_subgrad-{state}", 3,
     lambda g, b=b: penalized_objective(Objective(lambda x: 0.0, lambda x: g, 1.0),
                                        PenaltySpec([(np.ones(3), b)], 1.0)).subgrad(np.ones(3)))
    for state, b in (("inactive", 10.0), ("violated", 0.0))
] + [
    # the penalty oracle sizes x by its constraints, here one entry longer
    # than its base objective's anchor
    (f"penalized_objective.{op}", 3,
     getattr(penalized_objective(l1_distance(np.zeros(2)),
                                 PenaltySpec([(np.ones(3), 0.0)], 1.0)), op))
    for op in ("value", "subgrad")
] + [
    (f"{solver}-{name}-start", _SETS[name].center.size,
     lambda x1, solver=solver, fs=_SETS[name]: _run(solver, fs, x1))
    for solver, name in _STARTS
]


@pytest.mark.parametrize(
    "k, call", [pytest.param(k, call, id=case) for case, k, call in _SHAPE_CASES]
)
def test_vector_of_wrong_size_rejected(k, call):
    # one rule, core._as_flat, sizes every vector argument
    with pytest.raises(DimensionError, match=f"^expected {k} entries, got {k - 1}$"):
        call(np.zeros(k - 1))


@pytest.mark.parametrize("solver, name", _STARTS)
def test_nan_start_lies_outside_the_set(solver, name):
    fs = _SETS[name]
    x1 = fs.center.copy()
    x1[0] = np.nan
    with pytest.raises(ValueError, match="outside the feasible set"):
        _run(solver, fs, x1)


class _Sub(np.ndarray):
    pass


def _shipped_outputs():
    """(case, size, a call returning one output a solver reads) for every
    shipped set's lmo and project and every shipped oracle's subgradient."""
    rng = np.random.default_rng(7)
    cases = []
    for name, fs in (
        ("Hypercube", Hypercube(4)),
        ("NuclearBall-2x3", NuclearBall(2, 3, 1.0)),
        ("NuclearBall-3x2", NuclearBall(3, 2, 1.0)),
        ("VertexPolytope", VertexPolytope(rng.standard_normal((6, 4)))),
    ):
        d = fs.center.size
        for op in ("lmo", "project"):
            if getattr(fs, op) is None:
                continue
            for kind, v in (("random", 3.0 * rng.standard_normal(d)), ("zero", np.zeros(d))):
                cases.append((f"{name}.{op}-{kind}", d, lambda f=getattr(fs, op), v=v: f(v)))
    obj = l1_distance(np.linspace(-1.0, 1.0, 4))
    x = np.array([0.5, -2.0, 0.0, 1.0])
    cases.append(("l1_distance.subgrad", 4, lambda: obj.subgrad(x)))
    # <1, x> = -0.5: inactive at b = 10, violated at b = -10
    for state, b in (("inactive", 10.0), ("violated", -10.0)):
        pen = penalized_objective(obj, PenaltySpec([(np.ones(4), b)], 1.0))
        cases.append((f"penalized_objective.subgrad-{state}", 4, lambda pen=pen: pen.subgrad(x)))
    for sigma in (0.0, 0.5):
        oracle = gaussian_oracle(obj, GaussianNoiseSpec(sigma, 0), 4)
        cases.append((f"gaussian_oracle-sigma{sigma}", 4,
                      lambda oracle=oracle: oracle.noisy_subgrad(x, oracle.rng())))
    return cases


_SHIPPED_OUTPUTS = _shipped_outputs()


class TestAsFlat:
    def test_flat_float64_array_passes_through(self):
        x = np.arange(5.0)
        assert _as_flat(x) is x
        assert _as_flat(x, 5) is x

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: [0.0, 1.5, -2.0, 3.0], id="list"),
            pytest.param(lambda: np.arange(4, dtype=np.int64), id="int64"),
            pytest.param(lambda: np.arange(4, dtype=np.float32) / 3, id="float32"),
            pytest.param(lambda: np.arange(4.0).reshape(4, 1), id="column"),
            # ravel copies a strided view into contiguous memory, which a
            # BLAS call may round differently from the strided one
            pytest.param(lambda: np.arange(8.0)[::2], id="strided"),
            pytest.param(lambda: np.arange(4.0).astype(">f8"), id="big-endian"),
            pytest.param(lambda: np.arange(4.0).view(_Sub), id="subclass"),
        ],
    )
    def test_other_inputs_are_converted(self, make):
        x = make()
        out = _as_flat(x, 4)
        assert out is not x
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.flags.c_contiguous and out.dtype.isnative
        assert np.array_equal(out, np.asarray(x, dtype=float).ravel())

    @pytest.mark.parametrize(
        "size, output",
        [pytest.param(size, output, id=case) for case, size, output in _SHIPPED_OUTPUTS],
    )
    def test_shipped_outputs_pass_through(self, size, output):
        # the solver loop reads each of these every step: a copy here would
        # cost every step, and a strided view could round a BLAS call apart
        out = output()
        assert _as_flat(out, size) is out

    def test_wrong_size_message(self):
        with pytest.raises(DimensionError, match="^expected 3 entries, got 4$"):
            _as_flat(np.zeros(4), 3)
        with pytest.raises(DimensionError, match="^expected 3 entries, got 2$"):
            _as_flat([[0.0], [1.0]], 3)
