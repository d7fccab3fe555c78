"""Shipped objectives: L1 distance, Gaussian noise wrapper, Lipschitz
extension over a candidate set, and the exact-penalty builder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import DimensionError, Objective, StochasticOracle, _as_flat


def l1_distance(omega) -> Objective:
    """f(x) = sum_i |x_i - omega_i| with G = sqrt(dim).

    The subgradient picks sign(x_i - omega_i) with sign(0) := 0, a valid
    element of [-1, 1] that keeps the oracle deterministic.
    """
    anchor = _as_flat(omega).copy()

    def _diff(x) -> np.ndarray:
        x = _as_flat(x)
        if x.size != anchor.size:
            raise DimensionError(f"dimension mismatch: {x.size} vs {anchor.size}")
        return x - anchor

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
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def gaussian_oracle(base: Objective, spec: GaussianNoiseSpec, dim: int) -> StochasticOracle:
    """Wrap an exact oracle with iid Gaussian noise on every subgradient call."""

    def noisy_subgrad(x, rng):
        g = base.subgrad(x)
        # checked before any draw, so valid calls consume the same stream
        if g.size != dim:
            raise DimensionError(f"noise dimension {dim} but subgradient size {g.size}")
        if spec.sigma == 0.0:
            return g
        return g + spec.sigma * rng.standard_normal(dim)

    B = float(np.sqrt(base.lipschitz**2 + dim * spec.sigma**2))
    return StochasticOracle(
        base=base, noisy_subgrad=noisy_subgrad, second_moment=B, seed=spec.seed
    )


def lipschitz_extend(f_values, G: float, candidates: Sequence, w) -> float:
    """min over candidates of f(x) + G*||x - w||.

    Upper-bounds the true extension inf over the whole set; exact at
    candidate points and exact in the limit under candidate refinement.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list must be nonempty")
    cand = np.array([_as_flat(c) for c in candidates], dtype=float)
    w = _as_flat(w)
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
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        object.__setattr__(
            self,
            "constraints",
            [(_as_flat(a).copy(), float(b)) for a, b in self.constraints],
        )


def penalized_objective(base: Objective, spec: PenaltySpec) -> Objective:
    """base(x) + gamma * max(0, max_j <a_j, x> - b_j) as an Objective with the
    worst-case Lipschitz bound G_base + gamma * max_j ||a_j||.

    On a positive max the subgradient adds gamma * a_{j*}, j* the smallest
    achieving index; ties at zero keep the bare base subgradient.
    """

    def _worst(x):
        # the largest slack <a_j, x> - b_j and its smallest achieving index
        slacks = [float(np.dot(a, x)) - b for a, b in spec.constraints]
        if not slacks:
            return 0.0, None
        worst = max(slacks)
        return worst, slacks.index(worst)

    def value(x):
        x = _as_flat(x)
        worst, _ = _worst(x)
        if worst > 0.0:
            return base.value(x) + spec.gamma * worst
        return base.value(x)

    def subgrad(x):
        x = _as_flat(x)
        g = np.array(base.subgrad(x), dtype=float, copy=True)
        worst, j_star = _worst(x)
        if worst > 0.0:
            g += spec.gamma * spec.constraints[j_star][0]
        return g

    norms = [np.linalg.norm(a) for a, _ in spec.constraints]
    G = base.lipschitz + spec.gamma * (max(norms) if norms else 0.0)
    return Objective(value=value, subgrad=subgrad, lipschitz=G)
