import functools
import inspect
import math
import warnings

import numpy as np
import pytest

from pfopt import (
    NuclearBall,
    SvdTriplet,
    full_svd,
    l1_distance,
    nuclear_norm,
    params_deterministic,
    pfw_run,
    top_singular_triplet,
)
from pfopt import linalg
from pfopt.linalg import _DENSE_MAX_DIM, _lanczos_top, _start_vector


def _rotated(rng, s):
    """A square matrix with singular values s, between random rotations."""
    U = np.linalg.qr(rng.standard_normal((s.size, s.size)))[0]
    V = np.linalg.qr(rng.standard_normal((s.size, s.size)))[0]
    return (U * s) @ V.T


# k x k matrices (k x 3k and 3k x k for wide and tall) that the dense path
# must resolve to 1e-13 relative, built from rng
_DENSE_FAMILIES = {
    **{
        f"clustered-gap{gap:g}": lambda k, rng, gap=gap: _rotated(
            rng, np.r_[1.0, 1.0 - gap, rng.uniform(0.1, 0.9, k - 2)])
        for gap in 10.0 ** -np.arange(2, 15, 2)
    },
    # a row permutation of a diagonal: the top three are equal to the bit
    "degenerate": lambda k, rng: np.diag(
        np.r_[2.0, 2.0, 2.0, np.linspace(1.9, 0.1, k - 3)])[rng.permutation(k)],
    "decaying": lambda k, rng: _rotated(rng, np.logspace(0, -12, k)),
    "rank-deficient": lambda k, rng: (
        rng.standard_normal((k, k // 4)) @ rng.standard_normal((k // 4, k))),
    "wide": lambda k, rng: rng.standard_normal((k, 3 * k)),
    "tall": lambda k, rng: rng.standard_normal((3 * k, k)),
}


# every fifth decade of the float range, which holds 1e-170 and 1e-160, where
# the unscaled Gram matrix's entries underflow or lose digits, and 1e154,
# where they overflow
_SWEEP = np.append(10.0 ** np.arange(-300, 301, 5), 1e154)


def _start_blind_dense(n):
    """3 u w^T + u2 q^T with q the fixed start vector and w a unit vector
    orthogonal to it: q is an eigenvector of the Gram matrix (value 1,
    against 9 on w), so Lanczos's first step finds an invariant space, the
    shifted solve returns q, whose Rayleigh quotient fails the certificate,
    and eigh takes over."""
    q = _start_vector(n)
    w = np.zeros(n)
    w[:2] = q[1], -q[0]
    w /= np.linalg.norm(w)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    u2 = rng.standard_normal(n)
    u2 -= (u2 @ u) * u
    u2 /= np.linalg.norm(u2)
    return 3.0 * np.outer(u, w) + np.outer(u2, q)


@functools.lru_cache(maxsize=1)
def _drift_matrices():
    """The drift matrices -Q that pfw steers by on criterion 5's 20 x 20
    instance at T = 300, taken from its recorded iterates."""
    k, tau = 20, 5.0
    ball = NuclearBall(k, k, tau)
    W = np.random.default_rng(55).standard_normal((k, k))
    W *= 2 * tau / nuclear_norm(W)
    obj = l1_distance(W.ravel())
    trace = pfw_run(
        obj, ball, params_deterministic(obj.lipschitz, ball.radius, 300),
        ball.center, record_iterates=True,
    )
    return [-Q.reshape(k, k) for Q in trace.iterates.qs if Q.any()]


def _reference_dense_triplet(A):
    """top_singular_triplet's dense path written out as it read before it
    reused its certificate's product: the shift through G.flat, the solve,
    normalisation, the certificate, eigh where that fails, and then B @ v
    computed again for u1 and s1.  Returns (u1, s1, v1)."""
    A = np.asarray(A, dtype=float)
    exponent = 0
    if not linalg._BAND[0] <= np.vdot(A, A) <= linalg._BAND[1]:
        largest = np.abs(A).max()
        if largest > 0.0:
            exponent = math.frexp(largest)[1]
            A = np.ldexp(A, -exponent)
    B = A if A.shape[1] <= A.shape[0] else A.T
    n = B.shape[1]
    G = B.T @ B
    theta = np.linalg.eigvalsh(G)[-1]
    v = None
    if theta > 0.0:
        G.flat[:: n + 1] -= theta * (1.0 + linalg._SHIFT)
        w = np.linalg.solve(G, _start_vector(n))
        w /= math.sqrt(w.dot(w))
        u = B @ w
        if u.dot(u) >= theta * (1.0 - linalg._CERTIFY):
            v = w
    if v is None:
        v = np.linalg.eigh(B.T @ B)[1][:, -1]
    u = B @ v
    s = math.sqrt(u.dot(u))
    u = u / s if s > 0.0 else np.full(u.size, u.size**-0.5)
    s = math.ldexp(s, exponent)
    return (u, s, v) if B is A else (v, s, u)


def _count_fallbacks(monkeypatch):
    """The list that every later gram_eigh call of top_singular_triplet
    appends to."""
    calls = []
    gram_eigh = linalg.gram_eigh

    def counted(B):
        calls.append(B.shape)
        return gram_eigh(B)

    monkeypatch.setattr(linalg, "gram_eigh", counted)
    return calls


class TestTopSingularTriplet:
    def test_diagonal(self):
        t = top_singular_triplet(np.diag([3.0, 1.0]))
        assert t.s1 == pytest.approx(3.0, abs=1e-10)
        assert np.allclose(np.abs(t.u1), [1.0, 0.0], atol=1e-8)
        assert np.allclose(np.abs(t.v1), [1.0, 0.0], atol=1e-8)

    def test_rank_one_construction(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        t = top_singular_triplet(2.0 * np.outer(u, v))
        assert t.s1 == pytest.approx(2.0, rel=1e-10)

    def test_triplet_consistency(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((7, 5))
        t = top_singular_triplet(A)
        assert np.linalg.norm(t.u1) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(t.v1) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(A @ t.v1, t.s1 * t.u1, atol=1e-8 * t.s1)

    def test_matches_full_svd(self):
        rng = np.random.default_rng(29)
        # 8 x 6 takes the dense path, 300 x (_DENSE_MAX_DIM + 1) and its
        # transpose the Lanczos path
        shapes = (
            [(8, 6)] * 50
            + [(300, _DENSE_MAX_DIM + 1)] * 3
            + [(_DENSE_MAX_DIM + 1, 300)]
        )
        for shape in shapes:
            A = rng.standard_normal(shape)
            t = top_singular_triplet(A)
            assert t.s1 == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], abs=1e-8)

    def test_deterministic(self):
        # dense path, then Lanczos path; a Lanczos call at another size runs
        # between the two calls, so the start vector, built once per size,
        # must carry nothing from one call to the next
        other = np.random.default_rng(6).standard_normal((_DENSE_MAX_DIM + 40,) * 2)
        for shape in [(6, 6), (_DENSE_MAX_DIM + 9, _DENSE_MAX_DIM + 1)]:
            A = np.random.default_rng(5).standard_normal(shape)
            t1 = top_singular_triplet(A)
            top_singular_triplet(other)
            t2 = top_singular_triplet(A)
            assert np.array_equal(t1.u1, t2.u1)
            assert np.array_equal(t1.v1, t2.v1)
            assert t1.s1 == t2.s1

    def test_tiny_gap_with_one_reorthogonalisation_pass(self):
        # sigma1 = 1 and sigma2 = 1 - 1e-6 above a Gaussian tail scaled to at
        # most 0.9: a near-double top that Lanczos, with one Gram-Schmidt
        # pass per step, must still resolve to 1e-12 with unit vectors
        n = 300
        rng = np.random.default_rng(41)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        tail = np.sort(np.abs(rng.standard_normal(n - 2)))[::-1]
        s = np.concatenate([[1.0, 1.0 - 1e-6], 0.9 * tail / tail[0]])
        A = (U * s) @ V.T
        assert _lanczos_top(A) is not None
        t = top_singular_triplet(A)
        sigma1 = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(t.s1 - sigma1) <= 1e-12
        assert abs(np.linalg.norm(t.u1) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(t.v1) - 1.0) <= 1e-14

    def test_basis_stays_orthogonal_on_a_clustered_spectrum(self, monkeypatch):
        # sigma1 = 1 above 189 values in [0.95, 0.999] and 10 well-separated
        # ones down to 0.01: Lanczos needs about 60 steps, and the bottom
        # Ritz values converge long before the top one.  Projected onto an
        # orthonormal basis, every stop test's Ritz values interlace the Gram
        # spectrum; a basis that loses its orthogonality breaks that with
        # spurious copies of converged Ritz values (or, with one
        # Gram-Schmidt pass alone, Ritz values far outside the spectrum)
        n = 200
        rng = np.random.default_rng(0)
        s = np.concatenate([[1.0], np.sort(rng.uniform(0.95, 0.999, n - 11))[::-1],
                            np.linspace(0.5, 0.01, 10)])
        rng = np.random.default_rng(3)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = (U * s) @ V.T
        gram = np.sort(s**2)
        tridiagonals = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            tridiagonals.append(np.array(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        top = _lanczos_top(A)
        monkeypatch.undo()
        assert top is not None
        v, u, uu = top
        assert np.array_equal(u, A @ v) and uu == u.dot(u)
        assert abs(math.sqrt(uu) - 1.0) <= 1e-12
        assert tridiagonals
        for T in tridiagonals:
            theta = np.linalg.eigvalsh(T)
            k = theta.size
            assert np.all(theta <= gram[n - k:] + 1e-10)
            assert np.all(theta >= gram[:k] - 1e-10)

    def test_zero_matrix_is_degenerate(self, monkeypatch):
        # the scale check answers a zero matrix, so no solver and no eigh
        # runs on either side of _DENSE_MAX_DIM: s1 = 0, the longer side
        # (the left one if square) gets equal entries and the other the last
        # basis vector
        def never(*args):
            raise AssertionError("a solver ran on a zero matrix")

        for name in ("_lanczos_top", "_dense_top", "gram_eigh"):
            monkeypatch.setattr(linalg, name, never)
        k = _DENSE_MAX_DIM
        for m, n in [(3, 3), (5, 3), (3, 5), (k + 1, k + 1), (k + 9, k + 1),
                     (k + 1, k + 9), (k + 9, 2), (2, k + 9)]:
            for A in (np.zeros((m, n)), -np.zeros((m, n))):
                t = top_singular_triplet(A)
                assert type(t.s1) is float and t.s1 == 0.0
                flat, basis = (t.u1, t.v1) if m >= n else (t.v1, t.u1)
                assert t.u1.shape == (m,) and t.v1.shape == (n,)
                assert np.array_equal(flat, np.full(flat.size, flat.size**-0.5))
                assert np.array_equal(basis, np.eye(basis.size)[-1])

    def test_start_blind_past_the_dense_size(self, monkeypatch):
        # blind to the top direction for both solvers: Lanczos declines,
        # then the dense path, and eigh answers once
        n = _DENSE_MAX_DIM + 1
        A = _start_blind_dense(n)
        calls = []

        def counted(name):
            solver = getattr(linalg, name)

            def run(B):
                calls.append(name)
                return solver(B)
            return run

        for name in ("_lanczos_top", "_dense_top", "gram_eigh"):
            monkeypatch.setattr(linalg, name, counted(name))
        t = top_singular_triplet(A)
        assert calls == ["_lanczos_top", "_dense_top", "gram_eigh"]
        assert t.s1 == pytest.approx(3.0, rel=1e-14)
        assert np.linalg.norm(A @ t.v1 - t.s1 * t.u1) <= 1e-13

    def test_start_blind_to_the_top_direction(self, blind_start_matrix):
        t = top_singular_triplet(blind_start_matrix)
        assert t.s1 == pytest.approx(3.0, abs=1e-12)
        # the matrix has rank 2, so the Krylov space turns invariant within
        # three steps, whatever the start holds; Lanczos hands over to eigh
        # rather than trust a Ritz value from that space
        assert _lanczos_top(blind_start_matrix) is None

    def test_lanczos_runs_to_full_dimension(self):
        # 116 singular values within 1e-7 of one another: the residual never
        # falls below the stop test, so Lanczos spends all n - 1 steps and
        # hands over to the dense path, which still resolves sigma1
        n = 116
        rng = np.random.default_rng(1)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        B = (U * (1.0 + 1e-7 * np.arange(n) / n)) @ V.T
        assert n > _DENSE_MAX_DIM
        assert _lanczos_top(B) is None
        t = top_singular_triplet(B)
        sigma1 = np.linalg.svd(B, compute_uv=False)[0]
        assert abs(t.s1 - sigma1) <= 1e-15 * sigma1
        assert np.linalg.norm(B @ t.v1 - t.s1 * t.u1) <= 1e-12

    def test_returns_a_frozen_triplet(self):
        # the field order is the constructor's, whatever type holds them
        assert list(inspect.signature(SvdTriplet).parameters) == ["u1", "s1", "v1"]
        rng = np.random.default_rng(4)
        wide = (_DENSE_MAX_DIM + 1, _DENSE_MAX_DIM + 2)
        # dense path, Lanczos path, zero matrix
        for A in [rng.standard_normal((6, 4)), rng.standard_normal(wide), np.zeros((3, 3))]:
            t = top_singular_triplet(A)
            assert isinstance(t, SvdTriplet)
            assert type(t.s1) is float
            for name in ("u1", "s1", "v1"):
                with pytest.raises(AttributeError):
                    setattr(t, name, None)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                top_singular_triplet(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_accepts_an_overflowing_frobenius_norm(self):
        # the squared Frobenius norm, 20 * 1.024e307, overflows to inf, but
        # every entry is finite: the entries decide, and the dense path's
        # scaled solve keeps ||v||^2 in range
        assert top_singular_triplet(3.2e153 * np.eye(20)).s1 == 3.2e153


class TestDensePath:
    @pytest.mark.parametrize("k", [20, 64])
    @pytest.mark.parametrize("family", sorted(_DENSE_FAMILIES))
    def test_value_matches_sigma1(self, family, k, monkeypatch):
        A = _DENSE_FAMILIES[family](k, np.random.default_rng(k))
        assert min(A.shape) <= _DENSE_MAX_DIM
        # the dense solve itself answers: no family may leave at the scale
        # check or fall back to eigh unseen
        answers = []
        dense_top = linalg._dense_top
        monkeypatch.setattr(
            linalg, "_dense_top", lambda B: answers.append(dense_top(B)) or answers[-1])
        s1 = top_singular_triplet(A).s1
        assert len(answers) == 1 and answers[0] is not None
        sigma1 = np.linalg.svd(A, compute_uv=False)[0]
        # s1 is a Rayleigh quotient's root, so at most sigma1; numpy's sigma1
        # carries rounding of its own, which s1 may top by a few ulps
        assert s1 <= sigma1 * (1.0 + 1e-14)
        assert sigma1 - s1 <= 1e-13 * sigma1

    def test_start_blind_to_the_top_direction(self, monkeypatch):
        n = 20
        A = _start_blind_dense(n)
        fallbacks = _count_fallbacks(monkeypatch)
        t = top_singular_triplet(A)
        assert fallbacks == [(n, n)]
        assert t.s1 == pytest.approx(3.0, rel=1e-14)

    def test_scale_sweep(self, monkeypatch):
        # unscaled, the Gram matrix's entries underflow (s1 = 0 at c = 1e-170)
        # or overflow (LinAlgError at c = 1e154), and the solve's ||v||^2 ~
        # (2^50 / theta)^2 leaves the float range sooner; scaled by a power
        # of two into _BAND, every c is certified without eigh
        A = np.random.default_rng(3).standard_normal((20, 20))
        fallbacks = _count_fallbacks(monkeypatch)
        for c in _SWEEP:
            sigma1 = np.linalg.svd(c * A, compute_uv=False)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                t = top_singular_triplet(c * A)
            assert t.s1 <= sigma1 * (1.0 + 1e-15)
            assert sigma1 - t.s1 <= 1e-13 * sigma1
            assert np.linalg.norm(t.v1) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(t.u1) == pytest.approx(1.0, abs=1e-15)
        assert fallbacks == []

    def test_scale_sweep_lanczos(self, monkeypatch):
        # the same sweep past _DENSE_MAX_DIM, where unscaled Lanczos gave
        # s1 = 0 at c = 1e-170 and LinAlgError from c = 1e154; numpy's sigma1
        # is the reference to within its own rounding, which s1 tops by up
        # to 2e-15 at this size
        A = np.random.default_rng(3).standard_normal((300, 300))
        fallbacks = _count_fallbacks(monkeypatch)
        for c in _SWEEP:
            sigma1 = np.linalg.svd(c * A, compute_uv=False)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                t = top_singular_triplet(c * A)
            assert abs(sigma1 - t.s1) <= 1e-13 * sigma1
            assert np.linalg.norm(t.v1) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(t.u1) == pytest.approx(1.0, abs=1e-15)
        assert fallbacks == []

    def test_no_fallback_on_solver_drift(self, monkeypatch):
        # every drift matrix pfw steers by is certified without eigh
        drifts = _drift_matrices()
        assert len(drifts) >= 298
        fallbacks = _count_fallbacks(monkeypatch)
        for A in drifts:
            top_singular_triplet(A)
        assert fallbacks == []

    def test_bits_match_the_reference_transcription(self, monkeypatch):
        # the drift matrices; tall and wide Gaussians (B is A, B is A.T); a
        # start-blind matrix, where eigh answers; a zero one, which the scale
        # check answers; an input scaled out of _BAND
        rng = np.random.default_rng(8)
        tiny = 1e-160 * rng.standard_normal((20, 20))
        assert np.vdot(tiny, tiny) < linalg._BAND[0]
        cases = _drift_matrices() + [
            rng.standard_normal((20, 7)),
            rng.standard_normal((7, 20)),
            _start_blind_dense(20),
            np.zeros((5, 3)),
            tiny,
        ]
        fallbacks = _count_fallbacks(monkeypatch)
        for A in cases:
            t = top_singular_triplet(A)
            u1, s1, v1 = _reference_dense_triplet(A)
            assert t.u1.tobytes() == u1.tobytes()
            assert t.v1.tobytes() == v1.tobytes()
            assert t.s1.hex() == s1.hex()
        assert fallbacks == [(20, 20)]

    def test_residual_on_solver_drift(self):
        # one solve leaves components of about (theta's error + shift) / gap
        # on the other eigenvectors: v is accurate to the value, not to
        # eigh's 4e-15
        for A in _drift_matrices():
            v = top_singular_triplet(A).v1
            G = A.T @ A
            theta = np.linalg.eigvalsh(G)[-1]
            assert np.linalg.norm(G @ v - theta * v) <= 1e-10 * theta


class TestFullSvd:
    def test_identity(self):
        _, S, _ = full_svd(np.eye(4))
        assert np.allclose(S, 1.0)

    def test_known_diagonal(self):
        _, S, _ = full_svd(np.diag([2.0, 7.0, 5.0]))
        assert np.allclose(S, [7.0, 5.0, 2.0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((10, 7))
        U, S, Vt = full_svd(A)
        recon = (U * S) @ Vt
        rel = np.linalg.norm(recon - A) / np.linalg.norm(A)
        assert rel <= 1e-8
        assert np.allclose(U.T @ U, np.eye(7), atol=1e-8)
        assert np.allclose(Vt @ Vt.T, np.eye(7), atol=1e-8)
        assert np.all(np.diff(S) <= 0)
        assert np.all(S >= 0)


class TestNormInequalities:
    def test_frobenius_below_nuclear(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            A = rng.standard_normal((5, 4))
            assert np.linalg.norm(A) <= nuclear_norm(A) + 1e-10

    def test_sigma_max_below_frobenius(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            A = rng.standard_normal((6, 5))
            assert top_singular_triplet(A).s1 <= np.linalg.norm(A) + 1e-10
