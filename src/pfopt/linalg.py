"""Dense SVD helpers: top singular triplet, Gram eigendecomposition, thin
decomposition, nuclear norm.

``top_singular_triplet`` solves for the top eigenvector of the smaller Gram
matrix: by ``eigh`` up to ``_DENSE_MAX_DIM`` columns, by Lanczos above it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


# Size crossover, measured on the drift matrices -Q_k that pfw produces on
# nuclear_l1 (k x k, outside anchor, tau = 5, T = 100, every fourth LMO call
# of two anchors; one BLAS thread, 2-core Xeon, 20 alternating pairs).
# Median ms per call, Gram eigh against Lanczos, anchors 0 and 1: 0.82
# against 1.45 at k = 64, 1.79 against 1.88 at k = 100, 2.01 against 2.13 at
# k = 112, 2.26 against 2.19 at k = 120, 2.51 against 2.06 at k = 128, 3.66
# against 2.54 at k = 160.  On anchors 2 and 3 Lanczos wins from k = 112
# (1.42 against 1.55) and ties at 120.  Lanczos pays a Python cost per step,
# and these ill-gapped matrices take it 30-60 steps at k <= 160; eigh grows
# as k^3.
_DENSE_MAX_DIM = 112
# Lanczos stops once the top Ritz residual ||G v - theta v|| <= tol * theta;
# the value error is second order in it (<= 3.1e-15 at 300 x 300, T = 40).
_LANCZOS_TOL = 1e-8
# The stop test's eigh of the k x k tridiagonal outgrows one Lanczos step
# (44 against 15 us at k = 48, n = 160); run every fourth step, calls on
# 160 x 160 drift matrices fell 2.8 -> 1.3 ms (one BLAS thread, 2 cores).
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
    ``s1 <= sigma1`` and ``<A, u1 v1^T> = s1`` to rounding.  The Lanczos path
    renormalises its Ritz vector ``v``, so ``||v1|| = 1`` and ``s1 <= sigma1``
    hold however far its basis's orthogonality has drifted.  A zero matrix
    gives ``s1 = 0`` with unit vectors.  Deterministic.  Raises ValueError on
    non-finite input; a LAPACK failure surfaces as LinAlgError.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    B = _narrow(A)
    v = _lanczos_top(B) if B.shape[1] > _DENSE_MAX_DIM else None
    if v is None:
        v = gram_eigh(B)[1][:, -1]
    u = B @ v
    s = math.sqrt(u.dot(u))
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


@functools.lru_cache(maxsize=16)  # bounded: a sweep over sizes must not grow it
def _lanczos_start(n: int) -> np.ndarray:
    """The fixed unit start vector of length n, built once and read-only, so
    that every call at one size starts from the same bits."""
    q = np.random.default_rng(0).standard_normal(n)
    q /= math.sqrt(q.dot(q))
    q.flags.writeable = False
    return q


def _lanczos_top(B: np.ndarray):
    """Top eigenvector of ``B.T @ B`` by Lanczos, or None if the Krylov space
    turns invariant or nears full dimension first: the start may lack the top
    direction, so theta_max need not be sigma1^2.

    Each step makes one classical Gram-Schmidt pass against the whole basis.
    On pfw's 300 x 300 drift matrices that kept max |Q Q^T - I| at return
    within 3.6e-12 (two passes: 2.0e-15).  On clustered spectra, where runs
    are longer, one pass lets it decay until the Ritz values leave the
    spectrum and the run ends in the eigh fallback; a second pass, made on
    the steps where the first shows that decay, prevents it.  The Ritz
    vector is renormalised on return, so its unit norm does not rest on
    that orthogonality."""
    n = B.shape[1]
    Q = np.empty((n, n))  # row j is the j-th Lanczos vector
    T = np.zeros((n, n))  # the tridiagonal projection of B.T @ B onto them
    q = _lanczos_start(n)
    scale = 0.0  # the largest Rayleigh quotient so far, <= sigma1^2
    for k in range(n - 1):
        Q[k] = q
        w = B.T @ (B @ q)
        T[k, k] = q @ w
        scale = max(scale, T[k, k])
        basis = Q[: k + 1]
        h = basis @ w
        w -= h @ basis
        # w's coefficients on all but the last two vectors vanish in exact
        # arithmetic; past the tolerance the basis is losing its
        # orthogonality, and a second pass restores it
        stale = h[:-2]
        if stale.dot(stale) > (_LANCZOS_TOL * scale) ** 2:
            w -= (basis @ w) @ basis
        beta = math.sqrt(w.dot(w))
        if beta <= _LANCZOS_TOL * scale:
            return None
        if k % _LANCZOS_CHECK_EVERY == _LANCZOS_CHECK_EVERY - 1:
            theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
            if beta * abs(S[-1, -1]) <= _LANCZOS_TOL * theta[-1]:
                v = S[:, -1] @ basis
                return v / math.sqrt(v.dot(v))
        T[k, k + 1] = T[k + 1, k] = beta
        q = w / beta
    return None


def full_svd(A: np.ndarray):
    """Thin SVD (U, S, Vt) with A = (U * S) @ Vt and S sorted descending."""
    return np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)


def nuclear_norm(A: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())
