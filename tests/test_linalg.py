import numpy as np
import pytest

from pfopt import full_svd, nuclear_norm, top_singular_triplet
from pfopt.linalg import _DENSE_MAX_DIM, _lanczos_top


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
        v = _lanczos_top(A)
        monkeypatch.undo()
        assert v is not None
        assert abs(np.linalg.norm(A @ v) - 1.0) <= 1e-12
        assert tridiagonals
        for T in tridiagonals:
            theta = np.linalg.eigvalsh(T)
            k = theta.size
            assert np.all(theta <= gram[n - k:] + 1e-10)
            assert np.all(theta >= gram[:k] - 1e-10)

    def test_zero_matrix_is_degenerate(self):
        # dense path, then Lanczos path (wide, so u1 and v1 trade places)
        for shape in [(3, 4), (_DENSE_MAX_DIM + 1, _DENSE_MAX_DIM + 2)]:
            t = top_singular_triplet(np.zeros(shape))
            assert t.s1 == 0.0
            assert t.u1.shape == (shape[0],) and t.v1.shape == (shape[1],)
            assert np.linalg.norm(t.u1) == pytest.approx(1.0)
            assert np.linalg.norm(t.v1) == pytest.approx(1.0)

    def test_start_blind_to_the_top_direction(self, blind_start_matrix):
        t = top_singular_triplet(blind_start_matrix)
        assert t.s1 == pytest.approx(3.0, abs=1e-12)
        # the matrix has rank 2, so the Krylov space turns invariant within
        # three steps, whatever the start holds; Lanczos hands over to eigh
        # rather than trust a Ritz value from that space
        assert _lanczos_top(blind_start_matrix) is None

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            top_singular_triplet(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
