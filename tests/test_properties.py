"""Property tests over drawn inputs: each set's LMO is no worse than any
feasible point, and each projection satisfies the variational inequality
<z - P(z), x - P(z)> <= 0 on feasible x.  ``contains`` holds on every LMO
and projection output, and the polytope's decides convex combinations,
points just outside and non-finite points.  The solvers' iterate guard
raises exactly on the entries it must, whichever of its checks decides.

Matrix shapes fall on both sides of the LMO's size crossover.  Matrices are
generated from a drawn seed, so a 140 x 140 input costs one draw, not 19600.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pfopt import Hypercube, NuclearBall, SolverError, VertexPolytope, nuclear_norm
from pfopt.algorithms import _guard
from pfopt.linalg import _DENSE_MAX_DIM

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=30)

seeds = st.integers(0, 2**32 - 1)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
# a matrix's nuclear norm over tau: inside the ball below 1, and at 20 the
# water-filling keeps a few singular values
nuclear_ratios = st.floats(0.5, 20.0)
small = st.integers(1, 8)
large = st.integers(_DENSE_MAX_DIM + 1, _DENSE_MAX_DIM + 12)
matrix_shapes = st.one_of(
    st.tuples(small, small),
    st.tuples(small, large),
    st.tuples(large, small),
    st.tuples(large, large),
)
dims = st.shared(st.integers(1, 12), key="dim")
entries = st.floats(-1e3, 1e3)
box_vectors = arrays(float, dims, elements=entries)
box_points = arrays(float, dims, elements=st.floats(-1.0, 1.0))


def draw_matrix(rng, m, n, rank, scale):
    """A Gaussian matrix of the given rank (full if None), times scale."""
    if rank is None:
        return scale * rng.standard_normal((m, n))
    return scale * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def nuclear_ball_points(rng, D, tau, count=3):
    """Feasible points: the extreme point that minimizes <D, X>, found by a
    dense SVD, then random rank-one extreme points and scaled Gaussians."""
    m, n = D.shape
    U, _, Vt = np.linalg.svd(D, full_matrices=False)
    yield -tau * np.outer(U[:, 0], Vt[0])
    for _ in range(count):
        u, v = rng.standard_normal(m), rng.standard_normal(n)
        yield tau * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        Z = rng.standard_normal((m, n))
        yield Z * (tau * rng.uniform() / nuclear_norm(Z))


@PROPERTY
@given(d=box_vectors, v=box_points)
def test_hypercube_lmo_beats_feasible_points(d, v):
    box = Hypercube(d.size)
    x = box.lmo(d)
    assert box.contains(x)
    best = d @ x
    assert best <= d @ v + 1e-12 * (1.0 + np.abs(d).sum())


@PROPERTY
@given(seed=seeds, k=st.integers(1, 30), p=st.integers(1, 8), scale=scales)
def test_polytope_lmo_beats_feasible_points(seed, k, p, scale):
    rng = np.random.default_rng(seed)
    vertices = rng.standard_normal((k, p))
    poly = VertexPolytope(vertices)
    d = scale * rng.standard_normal(p)
    best = d @ poly.lmo(d)
    weights = rng.dirichlet(np.ones(k), size=10)
    tol = 1e-12 * (1.0 + np.abs(vertices @ d).max())
    for v in np.vstack([vertices, weights @ vertices]):
        assert best <= d @ v + tol


def _no_lmo(direction):
    raise AssertionError("contains called the LMO")


@settings(PROPERTY, max_examples=100)
@given(seed=seeds, k=st.integers(1, 30), p=st.integers(1, 8), scale=scales,
       binary=st.booleans(), repeats=st.integers(0, 5))
def test_polytope_contains_decides(seed, k, p, scale, binary, repeats):
    # Gaussian vertices, or corners of the box [0, scale]^p, whose edges and
    # faces two or three corners often span; repeated vertices; k <= p gives
    # a flat hull
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, (k, p)) if binary else rng.standard_normal((k, p))
    vertices = scale * np.vstack([base, base[rng.integers(k, size=repeats)]])
    poly = VertexPolytope(vertices)
    poly.lmo = _no_lmo
    # the vertices are stored column-major; a row-major copy must give the
    # same center, radius and answers
    rows = np.ascontiguousarray(poly.vertices)
    assert np.array_equal(poly.center, rows[0])
    assert poly.radius == float(np.max(np.linalg.norm(rows - rows[0], axis=1)))
    twin = VertexPolytope(vertices)
    twin.vertices = rows

    def contains(x):
        inside = poly.contains(x)
        assert twin.contains(x) is inside
        return inside

    m, tol = len(vertices), 1e-9
    combos = [rng.dirichlet(np.ones(m), size=3) @ vertices]
    for size in (2, 3, p):
        chosen = rng.choice(m, size=min(size, m), replace=False)
        combos.append(rng.dirichlet(np.ones(chosen.size), size=2) @ vertices[chosen])
    for x in np.vstack([vertices, *combos]):
        assert contains(x)
    # the hull lies in the half-space <c, .> <= <c, vertex>, so the moved
    # vertex is 10 tol from it
    c = rng.standard_normal(p)
    c /= np.linalg.norm(c)
    assert not contains(vertices[(vertices @ c).argmax()] + 10 * tol * c)
    for bad in (math.nan, math.inf, -math.inf):
        x = combos[0][0].copy()
        x[rng.integers(p)] = bad
        assert not contains(x)


@settings(PROPERTY, max_examples=60)
@given(seed=seeds, k=st.integers(1, 30), p=st.integers(1, 8), scale=scales,
       binary=st.booleans(), reach=st.floats(-12.0, 1.0).map(lambda e: 10.0**e))
def test_polytope_projection_variational_inequality(seed, k, p, scale, binary, reach):
    # the vertices as in test_polytope_contains_decides; z lies reach * scale
    # from a convex combination, inside the hull or out
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, (k, p)) if binary else rng.standard_normal((k, p))
    vertices = scale * base
    poly = VertexPolytope(vertices)
    poly.lmo = _no_lmo
    twin = VertexPolytope(vertices)
    twin.vertices = np.ascontiguousarray(poly.vertices)
    x = rng.dirichlet(np.ones(k)) @ vertices
    z = x + reach * scale * rng.standard_normal(p)
    far = np.linalg.norm(vertices - z, axis=1).max()
    # a point of the hull comes back to rounding
    assert np.linalg.norm(poly.project(x) - x) <= 1e-14 * far + 1e-14 * scale
    P = poly.project(z)
    assert np.array_equal(twin.project(z), P)
    assert poly.contains(P)
    # <v - P, z - P> <= 0 for every vertex v, relative to ||z - P|| max|v|;
    # the second term is P's rounding, which the residual reads through v - P
    kkt = ((vertices - P) @ (z - P)).max()
    assert kkt <= 1e-12 * np.linalg.norm(z - P) * np.abs(vertices).max() + 1e-14 * far**2


@PROPERTY
@given(shape=matrix_shapes, rank=st.sampled_from([None, 1, 3]), seed=seeds, scale=scales)
def test_nuclear_lmo_beats_feasible_points(shape, rank, seed, scale):
    m, n = shape
    tau = 2.0
    ball = NuclearBall(m, n, tau)
    rng = np.random.default_rng(seed)
    D = draw_matrix(rng, m, n, rank, scale)
    X_lmo = ball.lmo(D.ravel())
    assert ball.contains(X_lmo)
    best = D.ravel() @ X_lmo
    tol = 1e-8 * tau * np.linalg.norm(D)
    for X in nuclear_ball_points(rng, D, tau):
        assert best <= np.sum(D * X) + tol


@PROPERTY
@given(z=box_vectors, x=box_points)
def test_hypercube_projection_variational_inequality(z, x):
    box = Hypercube(z.size)
    p = box.project(z)
    assert np.all(np.abs(p) <= 1.0) and box.contains(p)
    assert (z - p) @ (x - p) <= 1e-12 * (1.0 + np.abs(z).sum())


@PROPERTY
@given(shape=matrix_shapes, rank=st.sampled_from([None, 1, 3]), seed=seeds,
       ratio=nuclear_ratios)
def test_nuclear_projection_variational_inequality(shape, rank, seed, ratio):
    m, n = shape
    tau = 2.0
    ball = NuclearBall(m, n, tau)
    rng = np.random.default_rng(seed)
    A = draw_matrix(rng, m, n, rank, 1.0)
    A *= ratio * tau / nuclear_norm(A)
    P = ball.project(A.ravel())
    assert ball.contains(P)
    P = P.reshape(m, n)
    # tau = s_i - lambda cancels to the rounding of s_i, which grows with A
    assert nuclear_norm(P) <= tau + 1e-12 * (tau + np.linalg.norm(A))
    tol = 1e-9 * tau * (1.0 + np.linalg.norm(A))
    # the first point maximizes <A - P, X> over the ball
    for X in nuclear_ball_points(rng, P - A, tau):
        assert np.sum((A - P) * (X - P)) <= tol


def signed(low, high):
    return st.floats(low, high) | st.floats(-high, -low)


# the guard's regions: +-0.0 and subnormals; entries near half the bound,
# where the one-dot check flips; entries at the bound and just past it;
# entries whose square overflows; and the non-finite ones
guard_entries = [
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    signed(4.9e11, 5.1e11),
    signed(9.999e11, 1.0001e12) | st.sampled_from([1e12, -1e12]),
    signed(1e154, 1e300),
    st.sampled_from([math.inf, -math.inf, math.nan]),
]


@st.composite
def guard_vectors(draw):
    """1-300 entries from a drawn nonempty subset of the regions, so that
    vectors within the bound are drawn as well as those past it."""
    regions = draw(st.sets(st.integers(0, len(guard_entries) - 1), min_size=1))
    elements = st.one_of(*(guard_entries[i] for i in sorted(regions)))
    return draw(arrays(float, st.integers(1, 300), elements=elements))


@settings(PROPERTY, max_examples=300)
@given(x=guard_vectors(), k=st.integers(1, 10**6))
def test_guard_raises_exactly_past_the_bound(x, k):
    entries = x.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if all(abs(v) <= 1e12 for v in entries):
            _guard(x, k)
            return
        message = ("iterate became non-finite" if not all(map(math.isfinite, entries))
                   else "iterate magnitude exceeded guard")
        with pytest.raises(SolverError, match=message) as err:
            _guard(x, k)
    assert err.value.iteration == k
