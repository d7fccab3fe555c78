"""Concrete feasible sets: hypercube, nuclear-norm ball, vertex polytope."""

from __future__ import annotations

import numpy as np

from .core import DimensionError, FeasibleSet, _as_flat
from .linalg import gram_eigh, nuclear_norm, top_singular_triplet
from .linalg import full_svd  # noqa: F401  (perfbench/layers.py times sets.full_svd)


class Hypercube(FeasibleSet):
    """The box [-1, 1]^n, enclosed in the ball of radius 2*sqrt(n) at 0.

    The enclosing radius is deliberately the loose 2*sqrt(n) (not the tight
    sqrt(n)) so step schedules reproduce the shipped experiment constants.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self.center = np.zeros(n)
        self.radius = 2.0 * np.sqrt(n)

    def _check(self, x) -> np.ndarray:
        x = _as_flat(x)
        if x.size != self.n:
            raise DimensionError(f"expected dimension {self.n}, got {x.size}")
        return x

    def lmo(self, direction) -> np.ndarray:
        # -1 where d > 0, +1 where d < 0, 0 on ties: minimizes <d, x>
        d = self._check(direction)
        return -np.sign(d)

    def project(self, z) -> np.ndarray:
        return np.clip(self._check(z), -1.0, 1.0)

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self._check(x)) <= 1.0 + tol))


class NuclearBall(FeasibleSet):
    """Matrices of bounded nuclear norm, flattened row-major to vectors.

    Enclosed in the Frobenius ball of radius tau at the zero matrix, since
    ||Z||_F <= ||Z||_* <= tau on the set.
    """

    def __init__(self, m: int, n: int, tau: float):
        if m < 1 or n < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.m, self.n, self.tau = m, n, float(tau)
        self.center = np.zeros(m * n)
        self.radius = float(tau)

    def _as_matrix(self, x) -> np.ndarray:
        x = _as_flat(x)
        if x.size != self.m * self.n:
            raise DimensionError(
                f"expected {self.m}x{self.n} matrix data, got length {x.size}"
            )
        return x.reshape(self.m, self.n)

    def lmo(self, direction) -> np.ndarray:
        """-tau * u1 v1^T for the top singular pair of the direction matrix."""
        A = self._as_matrix(direction)
        if not A.any():
            return np.zeros(self.m * self.n)
        t = top_singular_triplet(A)
        return np.outer(-self.tau * t.u1, t.v1).ravel()

    def project(self, z) -> np.ndarray:
        """Singular-value soft thresholding with an exact water-filling level.

        One ``eigh`` of the smaller Gram matrix (``gram_eigh``); the singular
        values are the column norms of B V.  Over any orthonormal V those
        norms sum to at least ||A||_*, so rounding errs toward shrinking and
        ||P||_* <= tau.  Measured: interior points come back as an exact copy
        down to a relative margin of 1e-13, except on decaying spectra
        (singular values over 12 decades), where points within 1e-8 of the
        boundary moved by up to 4e-9, relative.  Square roots of the Gram
        eigenvalues moved rank-1 and rank-3 points lying 1e-7 inside.
        """
        A = self._as_matrix(z)
        B, V = gram_eigh(A)
        BV = B @ V
        s = np.linalg.norm(BV, axis=0)
        if s.sum() <= self.tau:
            return A.ravel().copy()
        lam = _waterfill_level(s, self.tau)
        keep = s > lam
        P = (BV[:, keep] * (1.0 - lam / s[keep])) @ V[:, keep].T
        return (P if B is A else P.T).ravel()

    def contains(self, x, tol: float = 1e-7) -> bool:
        # ||A||_F <= ||A||_* <= sqrt(min(m, n)) ||A||_F settles most points
        # without a singular-value pass
        A = self._as_matrix(x)
        bound = self.tau + tol
        fro = float(np.linalg.norm(A))
        if fro > bound:
            return False
        if np.sqrt(min(self.m, self.n)) * fro <= bound:
            return True
        return nuclear_norm(A) <= bound


def _waterfill_level(s: np.ndarray, tau: float) -> float:
    """Exact lambda >= 0 with sum(max(0, s_i - lambda)) = tau.

    Solved in closed form on the active prefix of the sorted values; no
    bisection, so no extra tolerance enters downstream checks.
    """
    s = np.sort(s)[::-1]
    prefix = np.cumsum(s)
    for i in range(1, s.size + 1):
        lam = (prefix[i - 1] - tau) / i
        upper = s[i - 1]
        lower = s[i] if i < s.size else 0.0
        if lower <= lam <= upper:
            return max(0.0, lam)
    # total mass below tau: caller should have returned the input unchanged
    return 0.0


class VertexPolytope(FeasibleSet):
    """Convex hull of an explicit vertex list; LMO by direct scan."""

    def __init__(self, vertices):
        verts = [_as_flat(v) for v in vertices]
        if not verts:
            raise ValueError("vertex list must be nonempty")
        dim = verts[0].size
        if any(v.size != dim for v in verts):
            raise DimensionError("all vertices must share one shape")
        self.vertices = np.array(verts, dtype=float)
        self.center = self.vertices[0].copy()
        self.radius = float(
            np.max(np.linalg.norm(self.vertices - self.center, axis=1))
        )

    def lmo(self, direction) -> np.ndarray:
        d = _as_flat(direction)
        if d.size != self.vertices.shape[1]:
            raise DimensionError("direction dimension mismatch")
        scores = self.vertices @ d
        # argmin returns the lowest index on ties, which is the documented rule
        return self.vertices[int(np.argmin(scores))].copy()
