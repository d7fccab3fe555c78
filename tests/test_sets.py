import itertools

import numpy as np
import pytest

from pfopt import (
    DimensionError,
    GaussianNoiseSpec,
    Hypercube,
    NuclearBall,
    VertexPolytope,
    gaussian_oracle,
    l1_distance,
    nuclear_norm,
    params_deterministic,
    params_stochastic,
    pfw_run,
    pfw_run_stochastic,
    top_singular_triplet,
)
from pfopt import sets
from pfopt.bench import ExperimentConfig, _make_num3_instance
from pfopt.linalg import _DENSE_MAX_DIM, gram_eigh
from pfopt.sets import _waterfill_level


def random_feasible_nuclear(rng, m, n, tau):
    Z = rng.standard_normal((m, n))
    return Z * (tau * rng.uniform() / nuclear_norm(Z))


def svd_projection(A, tau):
    """Reference projection: thin SVD, then the water-filling level."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.sum() <= tau:
        return A.copy()
    return (U * np.maximum(0.0, s - _waterfill_level(s, tau))) @ Vt


class TestHypercubeLmo:
    def test_sign_rule(self):
        assert np.array_equal(Hypercube(3).lmo([1.0, -2.0, 0.0]), [-1.0, 1.0, 0.0])

    def test_zero_direction(self):
        box = Hypercube(4)
        out = box.lmo(np.zeros(4))
        assert np.array_equal(out, np.zeros(4))
        assert np.dot(np.zeros(4), out) == 0.0

    def test_matches_exhaustive_enumeration(self):
        n = 8
        box = Hypercube(n)
        grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=n)))
        vertices = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.standard_normal(n)
            best = box.lmo(d) @ d
            assert best <= np.min(grid @ d) + 1e-12
            assert best <= np.min(vertices @ d) + 1e-12

    def test_radius_bookkeeping(self):
        n = 10
        box = Hypercube(n)
        assert box.radius == pytest.approx(2 * np.sqrt(n))
        d = np.random.default_rng(4).standard_normal(n)
        assert np.linalg.norm(box.lmo(d)) <= np.sqrt(n) <= box.radius


class TestHypercubeProjection:
    def test_clamp(self):
        assert np.array_equal(
            Hypercube(3).project([0.5, -3.0, 2.0]), [0.5, -1.0, 1.0]
        )

    def test_identity_on_feasible(self):
        z = np.array([0.2, -0.9, 1.0])
        assert np.array_equal(Hypercube(3).project(z), z)

    def test_idempotent_and_nonexpansive(self):
        box = Hypercube(6)
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = 3 * rng.standard_normal(6), 3 * rng.standard_normal(6)
            pa, pb = box.project(a), box.project(b)
            assert np.array_equal(box.project(pa), pa)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_matches_separable_grid_minimization(self):
        # the squared distance splits per coordinate; scan each 1-D problem
        box = Hypercube(6)
        rng = np.random.default_rng(8)
        grid = np.linspace(-1.0, 1.0, 4001)
        for _ in range(10):
            z = 3 * rng.standard_normal(6)
            p = box.project(z)
            for i in range(6):
                best = grid[np.argmin((grid - z[i]) ** 2)]
                assert abs(p[i] - best) <= 1e-3

    def test_bits_equal_np_clip_on_special_values(self):
        tiny = np.finfo(float).smallest_subnormal
        z = np.array([
            0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
            np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 0.5, -3.0,
        ])
        assert Hypercube(z.size).project(z).tobytes() == np.clip(z, -1.0, 1.0).tobytes()

    def test_variational_inequality(self):
        box = Hypercube(5)
        rng = np.random.default_rng(10)
        for _ in range(30):
            z = 3 * rng.standard_normal(5)
            p = box.project(z)
            for _ in range(30):
                x = rng.uniform(-1, 1, 5)
                assert np.dot(z - p, x - p) <= 1e-8


class TestNuclearLmo:
    def test_hand_svd(self):
        ball = NuclearBall(2, 2, 2.0)
        A = np.diag([3.0, 1.0])
        out = ball.lmo(A.ravel()).reshape(2, 2)
        assert np.allclose(out, np.diag([-2.0, 0.0]), atol=1e-9)
        assert np.sum(A * out) == pytest.approx(-6.0, abs=1e-9)

    def test_zero_direction(self):
        out = NuclearBall(3, 4, 1.5).lmo(np.zeros(12))
        assert np.array_equal(out, np.zeros(12))

    def test_matches_dense_svd_oracle(self):
        tau = 2.5
        ball = NuclearBall(5, 4, tau)
        rng = np.random.default_rng(12)
        for _ in range(30):
            A = rng.standard_normal((5, 4))
            out = ball.lmo(A.ravel()).reshape(5, 4)
            sigma1 = np.linalg.svd(A, compute_uv=False)[0]
            assert np.sum(A * out) == pytest.approx(-tau * sigma1, abs=1e-8)

    @pytest.mark.parametrize(
        "m, n",
        [(6, 9), (9, 6), (_DENSE_MAX_DIM + 20, _DENSE_MAX_DIM + 1),
         (_DENSE_MAX_DIM + 1, _DENSE_MAX_DIM + 20)],
    )
    def test_value_on_both_sides_of_the_crossover(self, m, n):
        tau = 2.0
        ball = NuclearBall(m, n, tau)
        rng = np.random.default_rng(m + n)
        gaussian = rng.standard_normal((m, n))
        rank_three = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
        for A in (gaussian, rank_three, np.zeros((m, n))):
            out = ball.lmo(A.ravel())
            sigma1 = np.linalg.svd(A, compute_uv=False)[0]
            assert np.dot(A.ravel(), out) == pytest.approx(-tau * sigma1, abs=1e-8)
        assert np.array_equal(ball.lmo(gaussian.ravel()), ball.lmo(gaussian.ravel()))

    @pytest.mark.parametrize(
        "m, n",
        [(9, 6), (6, 6), (6, 9), (_DENSE_MAX_DIM + 20, _DENSE_MAX_DIM + 1),
         (_DENSE_MAX_DIM + 1, _DENSE_MAX_DIM + 1),
         (_DENSE_MAX_DIM + 1, _DENSE_MAX_DIM + 20)],
    )
    def test_rank_one_product_equals_outer(self, m, n):
        # the BLAS product writes +0.0 where np.outer writes -0.0;
        # array_equal counts the two as equal.  tau is a power of two, so
        # scaling before or after the product rounds alike
        tau = 2.0
        ball = NuclearBall(m, n, tau)
        d = np.random.default_rng(m * n).standard_normal(m * n)
        t = top_singular_triplet(d.reshape(m, n))
        expected = -tau * np.outer(t.u1, t.v1).ravel()
        assert np.array_equal(ball.lmo(d), expected)

    def test_start_blind_to_the_top_direction(self, blind_start_matrix):
        ball = NuclearBall(300, 300, 5.0)
        out = ball.lmo(blind_start_matrix.ravel())
        assert np.dot(blind_start_matrix.ravel(), out) == pytest.approx(-15.0, abs=1e-8)

    @pytest.mark.parametrize(
        "k, T", [(20, 300), (257, 40), (_DENSE_MAX_DIM + 1, 100), (160, 200)]
    )
    def test_value_accurate_on_solver_drift(self, k, T):
        # the drift matrices pfw steers by are ill-gapped, unlike Gaussian
        # ones, and more so as T grows; criterion 5's instance on each side
        # of the size crossover, and at k = 160, T = 200 Lanczos runs past
        # step 32 on 182 of 198 calls (median 48 steps)
        tau = 5.0
        ball = NuclearBall(k, k, tau)
        W = np.random.default_rng(55).standard_normal((k, k))
        W *= 2 * tau / nuclear_norm(W)
        obj = l1_distance(W.ravel())
        trace = pfw_run(
            obj, ball, params_deterministic(obj.lipschitz, ball.radius, T),
            ball.center, record_iterates=True,
        )
        for Q in trace.iterates.qs:
            A = -Q.reshape(k, k)
            sigma1 = np.linalg.svd(A, compute_uv=False)[0]
            value = np.sum(A * ball.lmo(A.ravel()).reshape(k, k))
            assert tau * sigma1 + value <= 1e-8

    def test_output_is_rank_one_on_the_sphere(self):
        tau = 3.0
        ball = NuclearBall(6, 4, tau)
        A = np.random.default_rng(14).standard_normal((6, 4))
        out = ball.lmo(A.ravel()).reshape(6, 4)
        s = np.linalg.svd(out, compute_uv=False)
        assert np.sum(s > 1e-9) == 1
        assert nuclear_norm(out) == pytest.approx(tau, abs=1e-9)

    def test_optimality_certificate(self):
        tau = 2.0
        ball = NuclearBall(5, 4, tau)
        rng = np.random.default_rng(16)
        d = rng.standard_normal((5, 4))
        best = np.sum(d * ball.lmo(d.ravel()).reshape(5, 4))
        for _ in range(10_000):
            Z = random_feasible_nuclear(rng, 5, 4, tau)
            assert best <= np.sum(d * Z) + 1e-8


class TestNuclearProjection:
    def test_interior_unchanged(self):
        ball = NuclearBall(3, 3, 5.0)
        A = np.diag([1.0, 1.0, 1.0])
        assert np.array_equal(ball.project(A.ravel()), A.ravel())

    def test_hand_waterfilling(self):
        ball = NuclearBall(2, 2, 2.0)
        out = ball.project(np.diag([3.0, 1.0]).ravel()).reshape(2, 2)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-9)
        assert nuclear_norm(out) == pytest.approx(2.0, abs=1e-9)

    def test_random_domination(self):
        tau = 2.0
        rng = np.random.default_rng(18)
        # tall, then wide
        for m, n in [(6, 5), (5, 6)]:
            ball = NuclearBall(m, n, tau)
            feas = [random_feasible_nuclear(rng, m, n, tau) for _ in range(1000)]
            for _ in range(10):
                A = rng.standard_normal((m, n))
                if nuclear_norm(A) <= tau:
                    A *= 3 * tau / nuclear_norm(A)
                P = ball.project(A.ravel()).reshape(m, n)
                assert nuclear_norm(P) == pytest.approx(tau, abs=1e-8)
                dist = np.linalg.norm(A - P)
                for Z in feas:
                    assert dist <= np.linalg.norm(A - Z) + 1e-9

    def test_variational_inequality(self):
        tau = 1.5
        rng = np.random.default_rng(20)
        # square, then wide
        for m, n in [(4, 4), (5, 6)]:
            ball = NuclearBall(m, n, tau)
            A = rng.standard_normal((m, n)) * 2
            P = ball.project(A.ravel()).reshape(m, n)
            for _ in range(200):
                X = random_feasible_nuclear(rng, m, n, tau)
                assert np.sum((A - P) * (X - P)) <= 1e-8

    def test_level_on_tied_singular_values(self):
        # the level is exactly the tied 0.1, where the scan answered 0 and
        # the input came back unprojected
        ball = NuclearBall(4, 4, 1.2)
        out = ball.project(np.diag([0.7, 0.7, 0.1, 0.1]).ravel()).reshape(4, 4)
        assert np.allclose(out, np.diag([0.6, 0.6, 0.0, 0.0]), atol=1e-12)
        assert nuclear_norm(out) == pytest.approx(1.2, abs=1e-12)

    @pytest.mark.parametrize("m, n", [(129, 140), (300, 200), (200, 300)])
    def test_matches_svd_reference(self, m, n):
        tau = 5.0
        ball = NuclearBall(m, n, tau)
        rng = np.random.default_rng(m + 2 * n)
        k = min(m, n)
        U = np.linalg.qr(rng.standard_normal((m, k)))[0]
        W = np.linalg.qr(rng.standard_normal((n, k)))[0]
        gaussian = rng.standard_normal((m, n))
        rank_three = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
        decaying = (U * np.logspace(0, -12, k)) @ W.T
        for A in (gaussian, rank_three, decaying):
            A = A * (3 * tau / nuclear_norm(A))
            P = ball.project(A.ravel()).reshape(m, n)
            R = svd_projection(A, tau)
            assert np.linalg.norm(P - R) <= 1e-12 * np.linalg.norm(R)
            assert abs(nuclear_norm(P) - tau) <= 1e-8
        zero = np.zeros(m * n)
        assert np.array_equal(ball.project(zero), zero)

    @pytest.mark.parametrize("m, n", [(129, 140), (300, 200), (200, 300)])
    def test_low_rank_interior_near_the_boundary_unchanged(self, m, n):
        # 1e-8 inside the ball: the square roots of the Gram eigenvalues
        # overstate these points' nuclear norm and would shrink them
        tau = 5.0
        ball = NuclearBall(m, n, tau)
        rng = np.random.default_rng(m + 3 * n)
        for r in (1, 3, 30):
            A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            A *= tau * (1 - 1e-8) / nuclear_norm(A)
            assert np.array_equal(ball.project(A.ravel()), A.ravel())


def waterfill_scan(s, tau):
    """The water-filling level by the scan that the closed form replaced: the
    first active prefix whose level lies between its last value and the next.
    Where the level lands exactly on a run of tied values, rounding can put
    every prefix's level outside its bracket, and the scan answers 0."""
    s = np.sort(s)[::-1]
    prefix = np.cumsum(s)
    for i in range(1, s.size + 1):
        lam = (prefix[i - 1] - tau) / i
        upper = s[i - 1]
        lower = s[i] if i < s.size else 0.0
        if lower <= lam <= upper:
            return max(0.0, lam)
    return 0.0


class TestWaterfillLevel:
    def test_equals_the_scan_on_random_spectra(self):
        rng = np.random.default_rng(30)
        for _ in range(3000):
            s = rng.uniform(size=rng.integers(1, 60)) * 10.0 ** rng.uniform(-3, 3)
            tau = s.sum() * rng.uniform(0.001, 0.999)
            assert _waterfill_level(s, tau) == waterfill_scan(s, tau)

    def test_equals_the_scan_on_tied_spectra(self):
        # few distinct values, some zero
        rng = np.random.default_rng(31)
        for _ in range(3000):
            s = rng.integers(0, 5, size=rng.integers(1, 40)) * rng.choice([1.0, 0.1, 0.3])
            if s.any():
                tau = s.sum() * rng.uniform(0.001, 0.999)
                assert _waterfill_level(s, tau) == waterfill_scan(s, tau)

    def test_level_on_a_tied_value(self):
        # tau puts the exact level on a positive tied value v, where the scan
        # is no reference; the closed form stays within the rounding of the
        # prefix sums
        rng = np.random.default_rng(32)
        for _ in range(3000):
            s = rng.integers(0, 6, size=rng.integers(2, 300)) * rng.choice([1.0, 0.1, 0.3])
            levels = s[(s > 0) & (s < s.max())]
            if levels.size:
                v = rng.choice(levels)
                lam = _waterfill_level(s, np.maximum(s - v, 0.0).sum())
                assert abs(lam - v) <= s.size * np.finfo(float).eps * s.sum()


def waterfill_by_sort(s, tau):
    """_waterfill_level through np.sort, np.cumsum and np.flatnonzero."""
    s = np.sort(s)[::-1]
    levels = (np.cumsum(s) - tau) / np.arange(1, s.size + 1)
    return levels[np.flatnonzero(s > levels)[-1]]


def project_by_masks(A, tau):
    """NuclearBall.project through np.linalg.norm and boolean masks."""
    B, V = gram_eigh(A)
    BV = B @ V
    s = np.linalg.norm(BV, axis=0)
    if s.sum() <= tau:
        return A.ravel().copy()
    lam = waterfill_by_sort(s, tau)
    keep = s > lam
    P = (BV[:, keep] * (1.0 - lam / s[keep])) @ V[:, keep].T
    return (P if B is A else P.T).ravel()


class TestProjectionBits:
    """project and _waterfill_level call numpy's formulas without their
    wrappers; each must give the wrapped forms' exact bits."""

    @pytest.mark.parametrize("m, n", [(20, 20), (6, 4), (4, 6), (129, 140)])
    def test_project_equals_the_wrapped_formulas(self, m, n):
        tau = 5.0
        ball = NuclearBall(m, n, tau)
        rng = np.random.default_rng(m + 5 * n)
        k = min(m, n)
        U = np.linalg.qr(rng.standard_normal((m, k)))[0]
        W = np.linalg.qr(rng.standard_normal((n, k)))[0]
        tied = np.zeros((m, n))
        # two values 3v over k - 2 values v: the level lands on the tied v
        tied[np.arange(k), np.arange(k)] = 1.25 * np.r_[3.0, 3.0, np.ones(k - 2)]
        inputs = {
            "gaussian": rng.standard_normal((m, n)),
            "rank three": rng.standard_normal((m, 3)) @ rng.standard_normal((3, n)),
            "decaying": (U * np.logspace(0, -12, k)) @ W.T,
        }
        inputs = {name: A * (3 * tau / nuclear_norm(A)) for name, A in inputs.items()}
        inputs["tied"] = tied
        interior = rng.standard_normal((m, n))
        inputs["interior"] = interior * (0.5 * tau / nuclear_norm(interior))
        for name, A in inputs.items():
            P = ball.project(A.ravel())
            assert P.tobytes() == project_by_masks(A, tau).tobytes(), name
            B, V = gram_eigh(A)
            s = np.linalg.norm(B @ V, axis=0)
            # the interior point takes the copy path, with no level
            assert (s.sum() <= tau) == (name == "interior")
            if name != "interior":
                level = _waterfill_level(s, tau)
                assert level.tobytes() == waterfill_by_sort(s, tau).tobytes(), name


class TestNuclearContains:
    @pytest.mark.parametrize("m, n", [(6, 4), (4, 6), (140, 129), (129, 140)])
    def test_agrees_with_nuclear_norm(self, m, n, monkeypatch):
        tau, tol = 2.0, 1e-7
        ball = NuclearBall(m, n, tau)
        rng = np.random.default_rng(m * n)
        gaussian = rng.standard_normal((m, n))
        rank_one = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        fro, nuc = np.linalg.norm(gaussian), nuclear_norm(gaussian)
        root_k = np.sqrt(min(m, n))
        # (point, inside, settled without a singular-value pass)
        cases = [
            (np.zeros((m, n)), True, True),
            (gaussian * (0.9 * tau / (root_k * fro)), True, True),
            (gaussian * (1.1 * tau / fro), False, True),
            (rank_one * (1.01 * tau / nuclear_norm(rank_one)), False, True),
            (gaussian * (0.99 * tau / nuc), True, False),
            (gaussian * (1.01 * tau / nuc), False, False),
            (rank_one * (0.99 * tau / nuclear_norm(rank_one)), True, False),
        ]
        svd_passes = []

        def counted(A):
            svd_passes.append(1)
            return nuclear_norm(A)

        monkeypatch.setattr("pfopt.sets.nuclear_norm", counted)
        for X, inside, settled in cases:
            svd_passes.clear()
            assert ball.contains(X.ravel(), tol) is inside
            assert inside == (nuclear_norm(X) <= tau + tol)
            assert len(svd_passes) == (0 if settled else 1)


class TestVertexPolytope:
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    def test_obvious_minimum(self):
        poly = VertexPolytope(self.triangle)
        assert np.array_equal(poly.lmo([1.0, 1.0]), [0.0, 0.0])

    def test_zero_direction_tie_break(self):
        poly = VertexPolytope(self.triangle)
        assert np.array_equal(poly.lmo([0.0, 0.0]), [0.0, 0.0])

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(22)
        verts = rng.standard_normal((20, 5))
        poly = VertexPolytope(verts)
        for _ in range(50):
            d = rng.standard_normal(5)
            out = poly.lmo(d)
            best, best_val = None, np.inf
            for v in verts:
                val = float(np.dot(v, d))
                if val < best_val:
                    best, best_val = v, val
            assert np.array_equal(out, best)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (20, 5), (1024, 10), (7, 33)])
    def test_vertices_are_column_major_on_a_64_byte_boundary(self, shape):
        rows = np.random.default_rng(5).standard_normal(shape)
        vertices = VertexPolytope(rows).vertices
        assert vertices.flags.f_contiguous and vertices.ctypes.data % 64 == 0
        assert vertices.dtype == np.float64 and np.array_equal(vertices, rows)

    def test_lmo_returns_a_fresh_contiguous_vertex(self):
        poly = VertexPolytope(self.triangle)
        assert poly.vertices.flags.f_contiguous
        out = poly.lmo([1.0, 1.0])
        assert out.flags.c_contiguous and not np.shares_memory(out, poly.vertices)

    def test_exact_ties_on_the_cube_give_the_lowest_index(self):
        # directions with zero and repeated entries: the column-major scan
        # picks the first minimizer of the naive scan
        cube = [np.array(v) for v in itertools.product((0.0, 1.0), repeat=4)]
        poly = VertexPolytope(cube)
        for d in itertools.product((-2.0, -1.0, 0.0, 1.0), repeat=4):
            scores = [float(np.dot(v, d)) for v in cube]
            assert np.array_equal(poly.lmo(d), cube[scores.index(min(scores))])

    def test_contains_reads_row_major_differences(self, monkeypatch):
        # Wolfe's scans run on the same C-ordered array as before the
        # vertices were stored column-major, so they round as they did
        seen = []
        within = sets._hull_within
        monkeypatch.setattr(sets, "_hull_within", lambda P, tol: seen.append(P) or within(P, tol))
        vertices = np.random.default_rng(5).standard_normal((7, 3))
        x = vertices.mean(axis=0)
        assert VertexPolytope(vertices).contains(x)
        assert seen[0].flags.c_contiguous and np.array_equal(seen[0], vertices - x)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_num3_run_equals_the_row_major_scan(self, sigma):
        # a num3_demo instance at n = 6: the column-major scores may differ
        # from the row-major ones in their last bits, but not the vertex
        # each step picks
        config = ExperimentConfig(
            experiment="num3_demo", n=6, sigma_list=[sigma], T_list=[500],
            seeds=[0], algorithms=["pfw"],
        )
        fs, objective, _ = _make_num3_instance(config)
        rows = VertexPolytope(fs.vertices)
        rows.vertices = np.ascontiguousarray(fs.vertices)
        oracle = gaussian_oracle(objective, GaussianNoiseSpec(sigma, 0), 6)
        params = params_stochastic(
            objective.lipschitz, oracle.second_moment, fs.radius, 500
        )
        xbars = [pfw_run_stochastic(oracle, p, params, fs.center).xbar for p in (fs, rows)]
        assert np.array_equal(xbars[0], xbars[1])

    def test_radius_from_first_vertex(self):
        poly = VertexPolytope(self.triangle)
        assert poly.radius == pytest.approx(1.0)
        assert np.array_equal(poly.center, [0.0, 0.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            VertexPolytope([])

    def test_contains_rejects_beyond_a_vertex_by_one_scan(self, monkeypatch):
        # the nearest point is the vertex (1, 0) itself, so the first scan
        # gives a separating hyperplane, before any affine solve
        solves = []
        weights = sets._affine_weights
        monkeypatch.setattr(sets, "_affine_weights", lambda C: solves.append(C) or weights(C))
        poly = VertexPolytope(self.triangle)
        assert not poly.contains([1.0 + 1e-8, -1e-8])
        assert solves == []
        assert not poly.contains([0.6, 0.6])
        assert len(solves) == 1

    def test_contains_just_outside_a_facet(self):
        # num3_demo's polytope, the hull of {0, 1}^10: 1e-8 outside a facet
        # the scores cannot separate, and about half of these points end
        # where adding a vertex no longer lowers ||y||; on the facet, inside
        poly = VertexPolytope(list(itertools.product((0.0, 1.0), repeat=10)))
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0.1, 0.9, 10)
            x[0] = -1e-8
            assert not poly.contains(x)
            x[0] = 0.0
            assert poly.contains(x)

    @pytest.mark.parametrize("seed", [43, 108])
    def test_contains_inside_a_thin_simplex(self, seed):
        # a simplex in R^4 1e-5 thick and 1e3 from the origin: the last
        # vertex scores within rounding of the corral's, and adding it anyway
        # finds the point inside
        rng = np.random.default_rng(seed)
        vertices = rng.standard_normal((5, 4))
        vertices[:, -1] *= 1e-6
        vertices = 10.0 * vertices + 1e3
        x = rng.dirichlet(np.ones(5)) @ vertices
        assert VertexPolytope(vertices).contains(x, tol=1e-11)

    @pytest.mark.parametrize("seed", [67, 113])
    def test_contains_inside_near_duplicate_clusters(self, seed):
        # 13 vertices in two clusters 1e-4 across, in R^9: the corral's
        # affine solve is ill-conditioned, and with its refinement step the
        # point inside is found within 1e-12 (one solve stalls near 1e-8)
        rng = np.random.default_rng(seed)
        vertices = rng.standard_normal((2, 9))[rng.integers(2, size=13)]
        vertices = 100.0 * (vertices + 1e-6 * rng.standard_normal((13, 9)))
        x = rng.dirichlet(np.ones(13)) @ vertices
        assert VertexPolytope(vertices).contains(x, tol=1e-11)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionError):
            VertexPolytope([[0.0, 0.0], [1.0]])


class TestLmoInsideBall:
    def test_outputs_within_radius(self):
        rng = np.random.default_rng(24)
        sets = [Hypercube(7), NuclearBall(4, 5, 2.0), VertexPolytope(rng.standard_normal((6, 3)))]
        for fs in sets:
            dim = len(fs.center)
            for _ in range(20):
                out = fs.lmo(rng.standard_normal(dim))
                assert np.linalg.norm(out - fs.center) <= fs.radius + 1e-9
