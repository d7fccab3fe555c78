"""Shipped objectives: L1 distance, Gaussian noise wrapper, Lipschitz
extension over a candidate set, and the exact-penalty builder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import Objective, StochasticOracle, _as_flat, _as_rows
from .core import _NONNEGATIVE, _NONNEGATIVE_INT, _POSITIVE_INT, _check


def l1_distance(omega) -> Objective:
    """f(x) = sum_i |x_i - omega_i| with G = sqrt(dim).

    The subgradient picks sign(x_i - omega_i) with sign(0) := 0, a valid
    element of [-1, 1] that keeps the oracle deterministic.
    """
    anchor = _as_flat(omega).copy()

    def _diff(x) -> np.ndarray:
        return _as_flat(x, anchor.size) - anchor

    def value(x):
        return float(np.abs(_diff(x)).sum())

    def subgrad(x):
        return np.sign(_diff(x))

    return Objective(value=value, subgrad=subgrad, lipschitz=float(np.sqrt(anchor.size)))


def hypercube_l1_optimum(omega) -> Tuple[np.ndarray, float]:
    """Exact minimizer of the L1 distance over [-1, 1]^n (separable clamp)."""
    omega = _as_flat(omega)
    x_star = np.clip(omega, -1.0, 1.0)
    f_star = float(np.maximum(0.0, np.abs(omega) - 1.0).sum())
    return x_star, f_star


@dataclass(frozen=True)
class GaussianNoiseSpec:
    """Additive N(0, sigma^2 I) subgradient noise; implied B = sqrt(G^2 + dim*sigma^2)."""

    sigma: float
    seed: int

    def __post_init__(self):
        _check(_NONNEGATIVE, sigma=self.sigma)
        _check(_NONNEGATIVE_INT, seed=self.seed)


def gaussian_oracle(base: Objective, spec: GaussianNoiseSpec, dim: int) -> StochasticOracle:
    """Wrap an exact oracle with iid Gaussian noise on every subgradient call."""
    _check(_POSITIVE_INT, dim=dim)
    sigma = spec.sigma

    def noisy_subgrad(x, rng):
        # read by the shape rule before any draw, so valid calls consume the
        # same stream
        g = _as_flat(base.subgrad(x), dim)
        if sigma == 0.0:
            return g
        # loc + scale * z per draw, from the stream standard_normal reads:
        # the same bits as g + standard_normal(dim) * sigma, one call fewer
        return g + rng.normal(0.0, sigma, dim)

    try:
        B = float(np.sqrt(base.lipschitz**2 + dim * spec.sigma**2))
    except OverflowError:  # a float's ** raises where * gives inf
        B = np.inf  # which StochasticOracle rejects, naming second_moment
    return StochasticOracle(
        base=base, noisy_subgrad=noisy_subgrad, second_moment=B, seed=spec.seed
    )


def lipschitz_extend(f_values, G: float, candidates: Sequence, w) -> float:
    """min over candidates of f(x) + G*||x - w||.

    Upper-bounds the true extension inf over the whole set; exact at
    candidate points and exact in the limit under candidate refinement.
    """
    _check(_NONNEGATIVE, G=G)
    if len(candidates) == 0:
        raise ValueError("candidate list must be nonempty")
    cand = _as_rows(candidates)
    w = _as_flat(w, cand.shape[1])
    vals = np.array([f_values(c) for c in cand], dtype=float)
    dists = np.linalg.norm(cand - w, axis=1)
    return float(np.min(vals + G * dists))


@dataclass(frozen=True)
class PenaltySpec:
    """Linear inequality constraints <a_j, x> <= b_j folded into the objective
    with weight gamma (hinge on the worst violation)."""

    constraints: List[Tuple[np.ndarray, float]]
    gamma: float

    def __post_init__(self):
        _check(_NONNEGATIVE, gamma=self.gamma)
        rows = _as_rows([a for a, _ in self.constraints])
        object.__setattr__(
            self,
            "constraints",
            [(a, float(b)) for a, (_, b) in zip(rows, self.constraints)],
        )


def penalized_objective(base: Objective, spec: PenaltySpec) -> Objective:
    """base(x) + gamma * max(0, max_j <a_j, x> - b_j) as an Objective with the
    worst-case Lipschitz bound G_base + gamma * max_j ||a_j||.

    On a positive max the subgradient adds gamma * a_{j*}, j* the smallest
    achieving index; ties at zero keep the bare base subgradient.
    """

    # x is sized by the constraints; the base oracle sizes it too
    constraints, gamma = tuple(spec.constraints), spec.gamma
    size = constraints[0][0].size if constraints else None
    # gamma * a_j once, here, so a violated step makes one array op
    pushes = [a * gamma for a, _ in constraints]

    def _worst(x):
        # the largest slack <a_j, x> - b_j and its smallest achieving index;
        # a.dot, as np.dot runs a Python-level dispatcher first (same bits)
        slacks = [a.dot(x) - b for a, b in constraints]
        if not slacks:
            return 0.0, None
        worst = max(slacks)
        return worst, slacks.index(worst)

    def value(x):
        x = _as_flat(x, size)
        worst, _ = _worst(x)
        if worst > 0.0:
            # float(): worst is np.float64, and the sum keeps base.value's type
            return base.value(x) + gamma * float(worst)
        return base.value(x)

    def subgrad(x):
        x = _as_flat(x, size)
        g = _as_flat(base.subgrad(x), x.size)
        worst, j_star = _worst(x)
        if worst > 0.0:
            return g + pushes[j_star]
        return g

    norms = [np.linalg.norm(a) for a, _ in spec.constraints]
    G = base.lipschitz + spec.gamma * (max(norms) if norms else 0.0)
    return Objective(value=value, subgrad=subgrad, lipschitz=G)
