"""Dense SVD helpers: top singular triplet, Gram eigendecomposition, thin
decomposition, nuclear norm.

``top_singular_triplet`` solves for the top eigenvector of the smaller Gram
matrix.  Past ``_DENSE_MAX_DIM`` columns Lanczos tries first; then the top
eigenvalue by ``eigvalsh`` and one shifted inverse-iteration solve.  Each
certifies its vector or declines, and where both decline ``eigh`` answers.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np


# Size crossover, measured on the drift matrices -Q_k that pfw produces on
# nuclear_l1 (k x k, outside anchor, tau = 5, T = 100, every fourth LMO call
# of two anchors; one BLAS thread, 2-core Xeon, 20 alternating pairs).
# Median ms per call, the dense path (eigvalsh and one solve) against
# Lanczos, anchors 0 and 1: 0.38 against 1.35 at k = 64, 0.88 against 1.63
# at k = 100, 0.97 against 1.52 at k = 112, 1.48 against 2.14 at k = 128,
# 2.05 against 2.16 at k = 160 (dense faster in 13 of 20 pairs), 3.58
# against 2.96 at k = 192.  Anchors 2 and 3 agree: 0.93 against 1.64 at
# k = 112, 2.11 against 2.48 at k = 160, 3.15 against 2.69 at k = 192.  So
# the crossover lies between 160 and 192.  The value stays at 112: no
# benchmark workload runs between 20 and 300 to judge a move, and CI's
# 120 x 120 config is there to run Lanczos.  Lanczos pays a Python cost per
# step, and these ill-gapped matrices take it 30-60 steps at k <= 160;
# eigvalsh grows as k^3.
_DENSE_MAX_DIM = 112
# The dense path's shift, theta (1 + 2^-50), lies 4-8 ulps above theta: off
# the float eigvalsh returned, so the shifted matrix is not singular when
# theta is exact, and within rounding of the top eigenvalue, so one solve
# grows the top direction about gap / (2^-50 theta) times more than the
# rest, gap the distance to the next eigenvalue (Parlett, The Symmetric
# Eigenvalue Problem, ch. 4).
_SHIFT = 2.0**-50
# The dense path's certificate, ||B v||^2 >= theta (1 - 1e-13), holds s1
# within 5e-14 of sqrt(theta), relative.  Accepted vectors fall short of
# theta by rounding only: at most 1.8e-15 on pfw's 20 x 20 drift matrices
# and 7.9e-15 on clustered, decaying and degenerate spectra at k <= 100.
_CERTIFY = 1e-13
# The band of ||A||_F^2 that top_singular_triplet takes as it is.  In it the
# Gram entries, theta, the dense solve's ||v||^2 (between about theta^-2 and
# 2^100 theta^-2) and Lanczos's w.w all stay normal floats; outside it, A is
# scaled by a power of two, exactly, into the band and s1 back.
_BAND = (2.0**-200, 2.0**200)
# Lanczos stops once the top Ritz residual ||G v - theta v|| <= tol * theta;
# the value error is second order in it (<= 3.1e-15 at 300 x 300, T = 40).
_LANCZOS_TOL = 1e-8
# The stop test's eigh of the k x k tridiagonal outgrows one Lanczos step
# (44 against 15 us at k = 48, n = 160); run every fourth step, calls on
# 160 x 160 drift matrices fell 2.8 -> 1.3 ms (one BLAS thread, 2 cores).
_LANCZOS_CHECK_EVERY = 4


class SvdTriplet(NamedTuple):
    """Leading singular triplet (u1, s1, v1) with unit-norm vectors."""

    u1: np.ndarray
    s1: float
    v1: np.ndarray


def top_singular_triplet(A: np.ndarray) -> SvdTriplet:
    """Leading singular triplet, up to a joint sign flip of u1 and v1.

    With ``B`` the one of ``A`` and ``A.T`` with fewer columns and ``v`` the
    top eigenvector of ``B.T @ B``: ``s1 = ||B v||`` and ``u = B v / s1``, so
    ``s1 <= sigma1`` and ``<A, u1 v1^T> = s1`` to rounding.  ``v`` is the
    first certified one of Lanczos (past ``_DENSE_MAX_DIM`` columns) and the
    dense path, else ``gram_eigh``'s top column.  A zero matrix stops at the
    scale check: ``s1 = 0``, ``u`` with equal entries and ``v`` the last
    basis vector (swapped if ``A`` is wide).  If ``||A||_F^2`` leaves
    ``_BAND``, A is scaled by a power of two first, so every finite scale is
    served.  Deterministic.  Raises ValueError on non-finite input; a LAPACK
    failure surfaces as LinAlgError.
    """
    A = np.asarray(A, dtype=float)
    exponent = 0
    # a sum of squares in the band proves every entry finite; else the
    # largest entry decides, and sets the scale
    if not _BAND[0] <= np.vdot(A, A) <= _BAND[1]:
        largest = np.abs(A).max()
        if not math.isfinite(largest):
            raise ValueError("matrix has non-finite entries")
        if largest == 0.0:
            B = _narrow(A)
            u, v = np.full(B.shape[0], B.shape[0] ** -0.5), np.zeros(B.shape[1])
            v[-1] = 1.0
            return SvdTriplet(u, 0.0, v) if B is A else SvdTriplet(v, 0.0, u)
        exponent = math.frexp(largest)[1]
        A = np.ldexp(A, -exponent)
    B = _narrow(A)
    top = (_lanczos_top(B) if B.shape[1] > _DENSE_MAX_DIM else None) or _dense_top(B)
    if top is None:  # both solvers declined
        v = gram_eigh(B)[1][:, -1]
        u = B @ v
        top = v, u, u.dot(u)
    v, u, uu = top
    s = math.sqrt(uu)
    u = u / s
    s = math.ldexp(s, exponent)
    return SvdTriplet(u, s, v) if B is A else SvdTriplet(v, s, u)


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


def _dense_top(B: np.ndarray):
    """``(v, B @ v, ||B v||^2)`` with v the top eigenvector of ``G = B.T @ B``,
    or None: its eigenvalue theta by ``eigvalsh``, then one solve of
    ``(G - theta (1 + _SHIFT) I) v = q`` from the fixed start q, which is
    inverse iteration shifted just past theta.

    ``v`` is certified when ``||B v||^2 >= theta (1 - _CERTIFY)``: a Rayleigh
    quotient that close to the top eigenvalue pins ``s1`` however the
    solve's rounding mixed in eigenvectors of a close second eigenvalue.
    So ``v`` is accurate to the value, not to ``eigh``'s precision
    (``||G v - theta v|| <= 1e-10 theta`` on pfw's drift matrices).  None
    where the certificate fails or the shifted matrix is singular."""
    n = B.shape[1]
    G = B.T @ B
    theta = np.linalg.eigvalsh(G)[-1]
    G.reshape(-1)[:: n + 1] -= theta * (1.0 + _SHIFT)  # a view: G is fresh, C-ordered
    try:
        v = np.linalg.solve(G, _start_vector(n))
    except np.linalg.LinAlgError:  # the shifted matrix is singular
        return None
    v /= math.sqrt(v.dot(v))
    u = B @ v
    uu = u.dot(u)
    return (v, u, uu) if uu >= theta * (1.0 - _CERTIFY) else None


@functools.lru_cache(maxsize=16)  # bounded: a sweep over sizes must not grow it
def _start_vector(n: int) -> np.ndarray:
    """The fixed unit start vector of length n, built once and read-only, so
    that every call at one size starts from the same bits: the right-hand
    side of the dense path's solve and Lanczos's first basis vector."""
    q = np.random.default_rng(0).standard_normal(n)
    q /= math.sqrt(q.dot(q))
    q.flags.writeable = False
    return q


def _lanczos_top(B: np.ndarray):
    """``(v, B @ v, ||B v||^2)`` with v the top eigenvector of ``B.T @ B`` by
    Lanczos, or None if the Krylov space turns invariant or nears full
    dimension first: the start may lack the top direction, so theta_max need
    not be sigma1^2.

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
    q = _start_vector(n)
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
                v = v / math.sqrt(v.dot(v))
                u = B @ v
                return v, u, u.dot(u)
        T[k, k + 1] = T[k + 1, k] = beta
        q = w / beta
    return None


def full_svd(A: np.ndarray):
    """Thin SVD (U, S, Vt) with A = (U * S) @ Vt and S sorted descending."""
    return np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)


def nuclear_norm(A: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())
