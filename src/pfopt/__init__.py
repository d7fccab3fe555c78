"""Projection-free nonsmooth convex optimization via linear minimization
oracles, with projected-subgradient baselines and a benchmark harness."""

from .algorithms import (
    GradientStep,
    IterateLog,
    RunTrace,
    pfw_run,
    pfw_run_stochastic,
    pgd_run,
    sgd_run,
)
from .core import (
    DimensionError,
    FeasibleSet,
    Objective,
    PfwParams,
    SolverError,
    StochasticOracle,
    UnsupportedSetError,
    params_deterministic,
    params_stochastic,
)
from .linalg import SvdTriplet, full_svd, nuclear_norm, top_singular_triplet
from .objectives import (
    GaussianNoiseSpec,
    PenaltySpec,
    gaussian_oracle,
    hypercube_l1_optimum,
    l1_distance,
    lipschitz_extend,
    penalized_objective,
)
from .sets import Hypercube, NuclearBall, VertexPolytope

__all__ = [
    "DimensionError",
    "FeasibleSet",
    "GaussianNoiseSpec",
    "GradientStep",
    "Hypercube",
    "IterateLog",
    "NuclearBall",
    "Objective",
    "PenaltySpec",
    "PfwParams",
    "RunTrace",
    "SolverError",
    "StochasticOracle",
    "SvdTriplet",
    "UnsupportedSetError",
    "VertexPolytope",
    "full_svd",
    "gaussian_oracle",
    "hypercube_l1_optimum",
    "l1_distance",
    "lipschitz_extend",
    "nuclear_norm",
    "params_deterministic",
    "params_stochastic",
    "penalized_objective",
    "pfw_run",
    "pfw_run_stochastic",
    "pgd_run",
    "sgd_run",
    "top_singular_triplet",
]
