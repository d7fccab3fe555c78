"""Concrete feasible sets: hypercube, nuclear-norm ball, vertex polytope."""

from __future__ import annotations

import math

import numpy as np

from .core import FeasibleSet, _POSITIVE, _POSITIVE_INT, _aligned_empty, _as_flat, _as_rows, _check
from .linalg import gram_eigh, nuclear_norm, top_singular_triplet
from .linalg import full_svd  # noqa: F401  (perfbench/layers.py times sets.full_svd)


class Hypercube(FeasibleSet):
    """The box [-1, 1]^n, enclosed in the ball of radius 2*sqrt(n) at 0.

    The enclosing radius is deliberately the loose 2*sqrt(n) (not the tight
    sqrt(n)) so step schedules reproduce the shipped experiment constants.
    """

    def __init__(self, n: int):
        _check(_POSITIVE_INT, n=n)
        self.n = n
        self.center = np.zeros(n)
        self.radius = 2.0 * np.sqrt(n)

    def lmo(self, direction) -> np.ndarray:
        # -1 where d > 0, +1 where d < 0, 0 on ties: minimizes <d, x>
        d = _as_flat(direction, self.n)
        return -np.sign(d)

    def project(self, z) -> np.ndarray:
        # np.clip's bits minus its dispatch wrapper; the method still runs
        # numpy's Python-level _clip, but one ufunc pass beats two:
        # np.minimum(np.maximum(z, -1.0), 1.0) took 1.4 us against 1.2 us
        # (timeit, n = 100), np.clip 2.4 us
        return _as_flat(z, self.n).clip(-1.0, 1.0)

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(_as_flat(x, self.n)) <= 1.0 + tol))


class NuclearBall(FeasibleSet):
    """Matrices of bounded nuclear norm, flattened row-major to vectors.

    Enclosed in the Frobenius ball of radius tau at the zero matrix, since
    ||Z||_F <= ||Z||_* <= tau on the set.
    """

    def __init__(self, m: int, n: int, tau: float):
        _check(_POSITIVE_INT, m=m, n=n)
        _check(_POSITIVE, tau=tau)
        self.m, self.n, self.tau = m, n, float(tau)
        self.center = np.zeros(m * n)
        self.radius = float(tau)

    def _as_matrix(self, x) -> np.ndarray:
        return _as_flat(x, self.m * self.n).reshape(self.m, self.n)

    def lmo(self, direction) -> np.ndarray:
        """-tau * u1 v1^T for the top singular pair of the direction matrix.

        The product is one BLAS call on a column and a row: at 300 x 300 it
        takes half the time of ``np.outer``, whose broadcast runs row by
        row.  The values equal ``np.outer``'s, except that an exactly zero
        factor gives +0.0 where ``np.outer`` gives -0.0.
        """
        A = self._as_matrix(direction)
        if not A.any():
            return np.zeros(self.m * self.n)
        t = top_singular_triplet(A)
        return np.dot((-self.tau * t.u1)[:, None], t.v1[None, :]).ravel()

    def project(self, z) -> np.ndarray:
        """Singular-value soft thresholding with an exact water-filling level.

        One ``eigh`` of the smaller Gram matrix (``gram_eigh``); the singular
        values are the column norms of B V.  Over any orthonormal V those
        norms sum to at least ||A||_*, so rounding errs toward shrinking and
        ||P||_* <= tau.  Measured: interior points come back as an exact copy
        down to a relative margin of 1e-13, except on decaying spectra
        (singular values over 12 decades), where points within 1e-8 of the
        boundary moved by up to 4e-9, relative.  Square roots of the Gram
        eigenvalues moved rank-1 and rank-3 points lying 1e-7 inside.  Raises
        ValueError on NaN or inf entries.
        """
        A = self._as_matrix(z)
        # a finite sum of squares proves every entry finite, in one vdot
        if not math.isfinite(np.vdot(A, A)) and not np.isfinite(A).all():
            raise ValueError("matrix has non-finite entries")
        B, V = gram_eigh(A)
        BV = B @ V
        # np.linalg.norm's formula minus its wrapper; compress keeps what a mask would
        s = np.sqrt(np.add.reduce(BV * BV, axis=0))
        if s.sum() <= self.tau:
            return A.ravel().copy()
        lam = _waterfill_level(s, self.tau)
        keep = s > lam
        P = (BV.compress(keep, 1) * (1.0 - lam / s.compress(keep))) @ V.compress(keep, 1).T
        return (P if B is A else P.T).ravel()

    def contains(self, x, tol: float = 1e-7) -> bool:
        # ||A||_F <= ||A||_* <= sqrt(min(m, n)) ||A||_F settles most points
        # without a singular-value pass
        A = self._as_matrix(x)
        bound = self.tau + tol
        fro = float(np.linalg.norm(A))
        if not fro <= bound:  # NaN too, which the SVD below cannot take
            return False
        if np.sqrt(min(self.m, self.n)) * fro <= bound:
            return True
        return nuclear_norm(A) <= bound


def _waterfill_level(s: np.ndarray, tau: float) -> float:
    """Exact lambda > 0 with sum(max(0, s_i - lambda)) = tau; needs s.sum() > tau.

    Closed form on the sorted values: the level that keeps the i largest is
    (their sum - tau) / i, and the answer is the level at the last i whose
    i-th largest value lies above it; i = 1 always does, as tau > 0.  No
    bisection, so no extra tolerance enters downstream checks.
    """
    # np.sort, np.cumsum and np.flatnonzero minus their wrappers: same bits
    s = s.copy()
    s.sort()
    s = s[::-1]
    levels = (np.add.accumulate(s) - tau) / np.arange(1, s.size + 1)
    return levels[(s > levels).nonzero()[0][-1]]


class VertexPolytope(FeasibleSet):
    """Convex hull of an explicit vertex list; LMO by direct scan.

    ``vertices`` (one row per vertex) is stored column-major, so the scan
    ``vertices.dot(d)`` runs BLAS gemv as a sum of columns, faster than row
    by row on ``num3_demo``'s 1024 x 10 cube; its scores may differ from the
    row-major product in their last bits.  ``.dot`` gives ``@``'s scores and
    took 2.1 us against 2.7 us there.  ``center``, ``radius``, ``project``
    and ``contains`` read the rows row-major and do not depend on the layout.
    """

    def __init__(self, vertices):
        rows = _as_rows(vertices)
        if len(rows) == 0:
            raise ValueError("vertex list must be nonempty")
        self.center = rows[0].copy()
        self.radius = float(np.max(np.linalg.norm(rows - self.center, axis=1)))
        self.vertices = _aligned_empty(rows.shape, order="F")
        self.vertices[...] = rows

    def lmo(self, direction) -> np.ndarray:
        scores = self.vertices.dot(_as_flat(direction, self.vertices.shape[1]))
        # a fresh contiguous copy; argmin takes the lowest index on ties
        return self.vertices[scores.argmin()].copy()

    def project(self, z) -> np.ndarray:
        """The nearest point of the hull: z + y, with y from Wolfe's loop
        (``_nearest``) on the vertices shifted by -z; never calls ``self.lmo``.
        It can miss near clusters of near-duplicate vertices, as ``contains``
        can misread there, and z + y rounds at 1e-16 ||z||: a z 1e8 times the
        hull's size away came back outside it.  Raises ValueError on NaN or
        inf entries."""
        z = _as_flat(z, self.vertices.shape[1])
        if not np.isfinite(z).all():
            raise ValueError("point has non-finite entries")
        return z + _nearest(np.subtract(self.vertices, z, order="C"))

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether the Euclidean distance from x to the hull is at most tol, by
        Wolfe's loop with its membership exits (``_nearest``) on the vertices
        shifted by -x; never calls ``self.lmo``.  NaN and inf give False."""
        x = _as_flat(x, self.vertices.shape[1])
        if not np.isfinite(x).all():
            return False
        y = _nearest(np.subtract(self.vertices, x, order="C"), tol)
        return math.sqrt(y.dot(y)) <= tol


def _nearest(P: np.ndarray, tol: float | None = None) -> np.ndarray:
    """The point y of the convex hull of P's rows nearest the origin.

    Wolfe's minimum-norm-point algorithm (Math. Programming 11, 1976) keeps
    y, the point nearest the origin in the affine hull of a few rows (the
    corral) with positive weights, so y lies in the hull.  Each major cycle
    scores every row against y and adds the lowest outside the corral;
    minor cycles then drop rows until the new y again has positive weights,
    and ||y|| falls.  A cycle that does not lower ||y|| ends the loop with
    the best y, the nearest point to rounding.  Without tol (``project``),
    so does Wolfe's stop: no row outside the corral scores below ||y||^2 -
    1e-16 max ||p||^2 (his 1e-12 fell short by 2e-6 of the norms in
    near-duplicate clusters).  With tol (``contains``), ||y|| <= tol is the
    verdict, and two exits certify it: ||y|| <= tol (inside), or every row
    scoring above tol ||y||, a hyperplane that keeps the hull tol away
    (outside).  Membership needs no score threshold: the lowest row is tried
    even where its score lies within rounding of the corral's, which on thin
    hulls still lowers ||y||.  The answer is exact up to the rounding of y,
    about 1e-16 times the rows' norms times the corral's condition:
    near-duplicate vertices (spread below about 1e-6 of their norms) can
    make a point inside read as outside.  Raises RuntimeError past 10 (m + n)
    major cycles; the most any tested input took was 0.7 (m + n).
    """
    m, n = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    slack = 1e-16 * sq.max()
    corral = [int(sq.argmin())]
    lam = np.ones(1)
    best, nearest = math.inf, P[corral[0]]
    for _ in range(10 * (m + n)):
        y = lam @ P[corral]
        yy = y.dot(y)
        norm = math.sqrt(yy)
        if tol is not None and norm <= tol:
            return y
        if norm >= best:
            return nearest
        best, nearest = norm, y
        scores = P @ y
        if tol is not None and scores.min() > tol * norm:
            return y
        scores[corral] = math.inf
        k = int(scores.argmin())
        if tol is None and scores[k] >= yy - slack:
            return y
        corral.append(k)
        lam = np.append(lam, 0.0)
        while True:
            alpha = _affine_weights(P[corral])
            if (alpha > 0).all():
                lam = alpha
                break
            # move from lam toward alpha until the first weight reaches 0
            out = (alpha <= 0).nonzero()[0]
            step = lam[out] - alpha[out]
            ratio = np.divide(lam[out], step, out=np.zeros(out.size), where=step > 0)
            first = ratio.argmin()
            lam += ratio[first] * (alpha - lam)
            lam[out[first]] = 0.0
            keep = lam > 0
            corral = [i for i, kept in zip(corral, keep) if kept]
            lam = lam[keep] / lam[keep].sum()
    raise RuntimeError("no nearest point within the cycle limit")


def _affine_weights(C: np.ndarray) -> np.ndarray:
    """Weights, summing to 1, of the point nearest the origin in the affine
    hull of C's rows: C[0] + D beta over the differences D, by least squares
    and one refinement step on the residual.  On near-duplicate rows, where
    D is ill-conditioned, the step matters: on 13 rows of norm about 100 in
    two clusters 1e-4 across, y reached within 1e-12 of the origin with it
    and stalled near 1e-8 without it."""
    c0 = C[0]
    D = (C[1:] - c0).T
    beta = np.linalg.lstsq(D, -c0, rcond=None)[0]
    beta += np.linalg.lstsq(D, -(c0 + D @ beta), rcond=None)[0]
    return np.concatenate(([1.0 - beta.sum()], beta))
