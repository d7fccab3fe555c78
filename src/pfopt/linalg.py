"""Dense SVD helpers: top singular triplet, thin decomposition, nuclear norm.

``top_singular_triplet`` picks its method from the matrix size: one thin
LAPACK SVD when ``min(m, n) <= _DENSE_MAX_DIM``, power iteration on the Gram
operator above it, with the same dense SVD answering whenever the power
iteration does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Size crossover of top_singular_triplet, measured on the drift matrices -Q_k
# that pfw produces on nuclear_l1 instances (k x k, outside anchor, tau = 5,
# T = 40, six anchors; numpy with one BLAS thread on a 2-core Xeon).  Mean
# power-iteration time over one thin SVD: 1.9 at k = 160, 1.3 at 200, 0.63 at
# 240, 0.17 at 300.  Below that the drift matrices are ill-gapped (median
# sigma2/sigma1 0.98), power iteration takes a median of 200-400 steps
# against a dense SVD worth 9 steps at k = 20 and 120 at k = 100, and its
# stall exit missed tau*sigma1 by more than 1e-8 at k = 160-225.  The
# crossover rises with T: at T = 100, power iteration still takes 2.7x the
# SVD's time at k = 256.
_DENSE_MAX_DIM = 256
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 5000


@dataclass(frozen=True)
class SvdTriplet:
    """Leading singular triplet (u1, s1, v1) with unit-norm vectors."""

    u1: np.ndarray
    s1: float
    v1: np.ndarray


def top_singular_triplet(A: np.ndarray) -> SvdTriplet:
    """Leading singular triplet, up to a joint sign flip of u1 and v1.

    When ``min(m, n) <= _DENSE_MAX_DIM`` it is the first triplet of one thin
    dense SVD.  Above that, power iteration on the Gram operator from the
    all-ones vector, and the same dense SVD if the iteration does not
    converge.  Deterministic.  Raises ValueError on non-finite input; a
    LAPACK failure surfaces as LinAlgError.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    v = None
    if min(A.shape) > _DENSE_MAX_DIM:
        v, s = _power_iteration(A)
    if v is None:
        U, S, Vt = np.linalg.svd(A, full_matrices=False)
        u, s, v = U[:, 0], float(S[0]), Vt[0]
    else:
        u = A @ v
        u = u / np.linalg.norm(u)
    return SvdTriplet(u1=u, s1=s, v1=v)


def _power_iteration(A: np.ndarray):
    """Leading right singular vector and value, or (None, None) on no
    convergence within _POWER_MAX_ITER steps."""
    v = np.ones(A.shape[1])
    v = v / np.linalg.norm(v)
    history = []
    for _ in range(_POWER_MAX_ITER):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return None, None  # start orthogonal to the row space
        v_new = w / nw
        s = float(np.linalg.norm(A @ v_new))
        # vector alignment is sign-insensitive
        if min(np.linalg.norm(v_new - v), np.linalg.norm(v_new + v)) <= _POWER_TOL:
            return v_new, s
        # the value estimate grows monotonically; stop once 20 steps have
        # added at most 1e-10 relative.  On near-tied spectra this stops short
        # of sigma1, which is why small matrices take the dense path.
        history.append(s)
        if len(history) > 20 and s - history[-21] <= 1e-10 * max(1.0, s):
            return v_new, s
        v = v_new
    return None, None


def full_svd(A: np.ndarray):
    """Thin SVD (U, S, Vt) with A = (U * S) @ Vt and S sorted descending."""
    return np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)


def nuclear_norm(A: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())
