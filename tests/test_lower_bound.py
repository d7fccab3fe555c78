"""The lower-bound instance: f(x) = max_i x_i on the l2 ball of radius R in
n = T + 1 dimensions, with e_i for the lowest maximizing index as the
subgradient (G = 1) and f* = -R/sqrt(n), attained at -R/sqrt(n) * ones.

A method whose iterates stay in the span of its past subgradients has an
xbar supported on the first T coordinates, so f(xbar) >= 0 and its error is
at least R/sqrt(T + 1) (Nesterov 2004, Thm 3.2.1; Bubeck 2015, Thm 3.13).
pfw meets the span condition on the ball, whose LMO is -R d/||d||; pgd
meets it from the centre.  pfw's bound 3GR/sqrt(T) is within a factor of 3
of this one and pgd's GR/sqrt(T) within sqrt(1 + 1/T).
"""

import numpy as np
import pytest

from pfopt import Objective, params_deterministic, pfw_run, pgd_run
from pfopt.core import FeasibleSet

R = 2.0


class Ball(FeasibleSet):
    """The l2 ball of the given radius at 0 in n dimensions."""

    def __init__(self, n: int, radius: float):
        self.center = np.zeros(n)
        self.radius = radius

    def lmo(self, direction):
        # pfw's first drift is zero, and every point of the ball minimizes it
        norm = np.linalg.norm(direction)
        return -self.radius / norm * direction if norm > 0 else self.center.copy()

    def project(self, z):
        norm = np.linalg.norm(z)
        return self.radius / norm * z if norm > self.radius else z

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(x) <= self.radius + tol)


def _max_coordinate(n: int) -> Objective:
    def subgrad(x):
        g = np.zeros(n)
        g[np.argmax(x)] = 1.0  # argmax takes the lowest maximizing index
        return g

    return Objective(value=lambda x: float(np.max(x)), subgrad=subgrad, lipschitz=1.0)


@pytest.mark.parametrize("T", [10, 100, 1000])
@pytest.mark.parametrize("algorithm", ["pfw", "pgd"])
def test_error_between_lower_bound_and_solver_bound(algorithm, T):
    n = T + 1
    f, ball = _max_coordinate(n), Ball(n, R)
    G = f.lipschitz
    if algorithm == "pfw":
        trace = pfw_run(f, ball, params_deterministic(G, R, T), ball.center)
        bound = 3.0 * G * R / np.sqrt(T)
    else:
        trace = pgd_run(f, ball, R / (G * np.sqrt(T)), T, ball.center)
        bound = G * R / np.sqrt(T)
    error = trace.f_xbar - (-R / np.sqrt(n))
    assert R / np.sqrt(n) - 1e-12 <= error <= bound
    # the span property: no step reached the last coordinate
    assert np.all(trace.xbar[T:] == 0.0)
