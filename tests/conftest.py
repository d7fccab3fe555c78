import numpy as np
import pytest


def pytest_report_header(config):
    # a byte pin that fails on one numpy then names the library it ran on
    from pfopt.bench import _blas_name

    return f"numpy {np.__version__}, BLAS {_blas_name()}"


@pytest.fixture
def blind_start_matrix():
    """300 x 300 matrix 3 u w^T + u2 o^T with sigma1 = 3 and sigma2 = 1.

    w = (e1 - e2)/sqrt(2) is orthogonal to o = ones/sqrt(n), so an iteration
    started from the all-ones vector spans an invariant subspace without the
    top right singular vector and reports sigma2.
    """
    n = 300
    rng = np.random.default_rng(7)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    u2 = rng.standard_normal(n)
    u2 -= (u2 @ u) * u
    u2 /= np.linalg.norm(u2)
    w = np.zeros(n)
    w[:2] = [1.0, -1.0]
    w /= np.sqrt(2.0)
    return 3.0 * np.outer(u, w) + np.outer(u2, np.ones(n) / np.sqrt(n))
