"""Property tests over drawn inputs: each set's LMO is no worse than any
feasible point, and each projection satisfies the variational inequality
<z - P(z), x - P(z)> <= 0 on feasible x.

Matrix shapes fall on both sides of the LMO's size crossover.  Matrices are
generated from a drawn seed, so a 140 x 140 input costs one draw, not 19600.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pfopt import Hypercube, NuclearBall, VertexPolytope, nuclear_norm
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
    best = d @ box.lmo(d)
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


@PROPERTY
@given(shape=matrix_shapes, rank=st.sampled_from([None, 1, 3]), seed=seeds, scale=scales)
def test_nuclear_lmo_beats_feasible_points(shape, rank, seed, scale):
    m, n = shape
    tau = 2.0
    ball = NuclearBall(m, n, tau)
    rng = np.random.default_rng(seed)
    D = draw_matrix(rng, m, n, rank, scale)
    best = D.ravel() @ ball.lmo(D.ravel())
    tol = 1e-8 * tau * np.linalg.norm(D)
    for X in nuclear_ball_points(rng, D, tau):
        assert best <= np.sum(D * X) + tol


@PROPERTY
@given(z=box_vectors, x=box_points)
def test_hypercube_projection_variational_inequality(z, x):
    p = Hypercube(z.size).project(z)
    assert np.all(np.abs(p) <= 1.0)
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
    P = ball.project(A.ravel()).reshape(m, n)
    # tau = s_i - lambda cancels to the rounding of s_i, which grows with A
    assert nuclear_norm(P) <= tau + 1e-12 * (tau + np.linalg.norm(A))
    tol = 1e-9 * tau * (1.0 + np.linalg.norm(A))
    # the first point maximizes <A - P, X> over the ball
    for X in nuclear_ball_points(rng, P - A, tau):
        assert np.sum((A - P) * (X - P)) <= tol
