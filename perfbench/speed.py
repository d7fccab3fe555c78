"""The machine's speed, read from a fixed kernel that does not use pfopt.

Other jobs share this machine's cores.  Its speed flips between a normal
and a fast state (the fast one runs the same code 20-40% quicker), on a
scale of seconds to minutes, so raw timings of identical runs spread by
20-30%.  The kernel below flips with it.  Timings are therefore scaled by
REFERENCE_S / (the kernel's time right before and after the timed work): they
read what the work would take at the speed where the kernel takes REFERENCE_S.
"""

import statistics
import time

import numpy as np

# the kernel's median time on the 2-CPU machine described in README.md,
# in its normal state
REFERENCE_S = 0.012


def reference_s() -> float:
    """Seconds for small-vector numpy steps, the stuff solver loops are made
    of, and 20x20 SVDs."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal(100)
    A = rng.standard_normal((20, 20))
    t0 = time.perf_counter()
    y = w.copy()
    for _ in range(1000):
        y = 0.5 * (y + np.sign(y - w))
        float(np.abs(y).sum())
    for _ in range(50):
        np.linalg.svd(A)
    return time.perf_counter() - t0


def reading(samples: int = 5) -> float:
    """Median kernel time of a few back-to-back runs."""
    return statistics.median(reference_s() for _ in range(samples))


def scale(before: float, after: float) -> float:
    """Factor that takes a timing made between two readings to REFERENCE_S."""
    return REFERENCE_S / ((before + after) / 2.0)
