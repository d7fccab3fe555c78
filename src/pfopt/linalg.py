"""Dense SVD helpers: top singular triplet, Gram eigendecomposition, thin
decomposition, nuclear norm.

``top_singular_triplet`` solves for the top eigenvector of the smaller Gram
matrix: by ``eigh`` up to ``_DENSE_MAX_DIM`` columns, by Lanczos above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Size crossover, measured on the drift matrices -Q_k that pfw produces on
# nuclear_l1 (k x k, outside anchor, tau = 5, T = 100, two anchors; one BLAS
# thread, 2-core Xeon).  Mean ms per call, Gram eigh against Lanczos: 1.7-1.9
# against 2.3-2.4 at k = 100, 2.6-2.8 against 2.7-2.8 at k = 128, 4.1-4.4
# against 3.3 at k = 160.  Lanczos pays a Python cost per step, and these
# ill-gapped matrices take it 30-60 steps at k <= 160; eigh grows as k^3.
_DENSE_MAX_DIM = 128
# Lanczos stops once the top Ritz residual ||G v - theta v|| <= tol * theta;
# the value error is second order in it (<= 2e-15 at 300 x 300, T = 40).
_LANCZOS_TOL = 1e-8
# The stop test's eigh of the k x k tridiagonal outgrows one Lanczos step
# (300 us at k = 48); run every fourth step, k = 160 calls fell 5.6 -> 3.0 ms.
_LANCZOS_CHECK_EVERY = 4


@dataclass(frozen=True)
class SvdTriplet:
    """Leading singular triplet (u1, s1, v1) with unit-norm vectors."""

    u1: np.ndarray
    s1: float
    v1: np.ndarray


def top_singular_triplet(A: np.ndarray) -> SvdTriplet:
    """Leading singular triplet, up to a joint sign flip of u1 and v1.

    With ``B`` the one of ``A`` and ``A.T`` with fewer columns and ``v`` the
    top eigenvector of ``B.T @ B``: ``s1 = ||B v||`` and ``u = B v / s1``, so
    ``s1 <= sigma1`` and ``<A, u1 v1^T> = s1`` to rounding.  A zero matrix
    gives ``s1 = 0`` with unit vectors.  Deterministic.  Raises ValueError on
    non-finite input; a LAPACK failure surfaces as LinAlgError.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    B = _narrow(A)
    v = _lanczos_top(B) if B.shape[1] > _DENSE_MAX_DIM else None
    if v is None:
        v = gram_eigh(B)[1][:, -1]
    u = B @ v
    s = float(np.linalg.norm(u))
    u = u / s if s > 0.0 else np.full(u.size, u.size**-0.5)
    return SvdTriplet(u1=u, s1=s, v1=v) if B is A else SvdTriplet(u1=v, s1=s, v1=u)


def _narrow(A: np.ndarray) -> np.ndarray:
    """A, or A.T if A is wide: the side with the smaller Gram matrix."""
    return A if A.shape[1] <= A.shape[0] else A.T


def gram_eigh(A: np.ndarray):
    """(B, V) with B = A, or A.T if A is wide, and V the eigenvectors of
    B.T @ B in columns, eigenvalues ascending.  The columns of B @ V are
    orthogonal, with A's singular values as their norms.  A LAPACK failure
    surfaces as LinAlgError."""
    B = _narrow(A)
    return B, np.linalg.eigh(B.T @ B)[1]


def _lanczos_top(B: np.ndarray):
    """Top eigenvector of ``B.T @ B`` by fully reorthogonalised Lanczos, or
    None if the Krylov space turns invariant or nears full dimension first:
    the start may lack the top direction, so theta_max need not be sigma1^2."""
    n = B.shape[1]
    Q = np.empty((n, n))  # row j is the j-th Lanczos vector
    T = np.zeros((n, n))  # the tridiagonal projection of B.T @ B onto them
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    scale = 0.0  # the largest Rayleigh quotient so far, <= sigma1^2
    for k in range(n - 1):
        Q[k] = q
        w = B.T @ (B @ q)
        T[k, k] = q @ w
        scale = max(scale, T[k, k])
        basis = Q[: k + 1]
        for _ in range(2):
            w -= (basis @ w) @ basis
        beta = float(np.linalg.norm(w))
        if beta <= _LANCZOS_TOL * scale:
            return None
        if k % _LANCZOS_CHECK_EVERY == _LANCZOS_CHECK_EVERY - 1:
            theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
            if beta * abs(S[-1, -1]) <= _LANCZOS_TOL * theta[-1]:
                return S[:, -1] @ basis
        T[k, k + 1] = T[k + 1, k] = beta
        q = w / beta
    return None


def full_svd(A: np.ndarray):
    """Thin SVD (U, S, Vt) with A = (U * S) @ Vt and S sorted descending."""
    return np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)


def nuclear_norm(A: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())
