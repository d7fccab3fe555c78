"""Shared domain types: feasible sets, oracle handles, step schedules."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class UnsupportedSetError(RuntimeError):
    """The requested operation needs a capability the set does not provide."""


class SolverError(RuntimeError):
    """A solver run failed; carries the offending iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


def _is_int(v) -> bool:
    # bool is Integral, but True is no count
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # finite too: json.loads reads NaN and Infinity, which no constant takes
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < math.inf


# The argument rules, each a test with its wording for the error.  A seed
# meets _NONNEGATIVE_INT where it is taken: numpy would reject a bad seed
# only at the first draw, naming no field.
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_NONNEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_POSITIVE = (lambda v: _is_real(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = (lambda v: _is_real(v) and v >= 0, "a finite number >= 0")


def _check(rule, error=ValueError, /, **values) -> None:
    """Raise error naming the first of the keyword arguments that fails rule."""
    ok, what = rule
    for name, value in values.items():
        if not ok(value):
            raise error(f"{name} has an invalid value: {value!r} (must be {what})")


_FLOAT = np.dtype(float)


def _as_flat(x, size: Optional[int] = None) -> np.ndarray:
    """Coerce an array-like to a flat float64 array of ``size`` entries, if given.

    This is the one size check for vectors: sets, objectives and solvers read
    their vector arguments through it, and the solvers every oracle output
    too, so a wrong size raises one message.
    An exact ``np.ndarray`` that is already 1-D, C-contiguous and native
    float64 is returned as it is; anything else, a strided view or a
    subclass too, gets ``np.asarray(x, dtype=float).ravel()``.
    """
    if not (type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim == 1
            and x.flags.c_contiguous):
        x = np.asarray(x, dtype=float).ravel()
    if size is not None and x.size != size:
        raise DimensionError(f"expected {size} entries, got {x.size}")
    return x


def _aligned_empty(shape, order: str = "C") -> np.ndarray:
    """``np.empty(shape, order=order)`` on a 64-byte boundary; shape is a tuple.
    Off it (malloc's luck), one BLAS thread took 580 against 490 us on a 300 x
    300 top triplet, and 2.04-2.33 against 1.49 us on a 1024 x 10 vertex scan."""
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape, order=order)


def _as_rows(vectors) -> np.ndarray:
    """Stack a list of vectors as the rows of a float64 array.

    Each is read through ``_as_flat`` at the first one's size, so a list of
    mixed sizes raises its ``DimensionError``.  An empty list gives an empty
    array.
    """
    rows = []
    for v in vectors:
        rows.append(_as_flat(v, rows[0].size if rows else None))
    return np.array(rows)


class FeasibleSet:
    """A convex set with an LMO, contained in a ball of radius R at `center`.

    The set's points are flat vectors of ``center.size`` entries: its methods
    and the solvers' start points are read at that size through ``_as_flat``.
    Subclasses must implement :meth:`lmo` and :meth:`contains`; every
    solver checks its start point with ``contains`` and rejects one outside
    the set.  Sets with a cheap Euclidean projection also implement
    :meth:`project` (left as None here so callers can test for the
    capability).  What ``lmo`` and ``project`` return is a vector of
    ``center.size`` entries in any array-like form; the solvers read it by
    the same shape rule.
    """

    center: np.ndarray
    radius: float

    project: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def lmo(self, direction) -> np.ndarray:
        """Return a minimizer of <direction, x> over the set: a vector of
        ``center.size`` entries, in any array-like form."""
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether x lies in the set, up to tol."""
        raise NotImplementedError


@dataclass(frozen=True)
class Objective:
    """Convex objective with an exact subgradient oracle.

    ``lipschitz`` bounds the norm of any returned subgradient.  ``subgrad``
    returns a vector of the point's size in any array-like form; the solvers
    read it through ``_as_flat``.
    """

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __post_init__(self):
        _check(_POSITIVE, lipschitz=self.lipschitz)


@dataclass(frozen=True)
class StochasticOracle:
    """Unbiased noisy subgradient oracle with bounded second moment.

    ``noisy_subgrad(x, rng)`` must be mean-equal to ``base.subgrad(x)`` and
    satisfy E||g||^2 <= second_moment**2, and returns a vector of the
    point's size in any array-like form; the solvers read it through
    ``_as_flat``.  All randomness flows through the generator built from
    ``seed``; no global RNG is touched.
    """

    base: Objective
    noisy_subgrad: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    second_moment: float
    seed: int

    def __post_init__(self):
        _check(_POSITIVE, second_moment=self.second_moment)
        if self.second_moment < self.base.lipschitz:
            raise ValueError(
                "second-moment bound must dominate the Lipschitz bound"
            )
        _check(_NONNEGATIVE_INT, seed=self.seed)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class PfwParams:
    """Constants of the drift-steered solver: weights alpha, eta and horizon T."""

    alpha: float
    eta: float
    horizon: int

    def __post_init__(self):
        _check(_POSITIVE, alpha=self.alpha, eta=self.eta)
        _check(_POSITIVE_INT, horizon=self.horizon)


def params_deterministic(G: float, R: float, T: int) -> PfwParams:
    """Schedule for exact subgradients: alpha = G*sqrt(T)/R, eta = G/(2*R*sqrt(T)),
    the noisy schedule at B = G."""
    return params_stochastic(G, G, R, T)


def params_stochastic(
    G: float, B: float, R: float, T: int, mode: str = "with_G"
) -> PfwParams:
    """Schedule for noisy subgradients.

    mode "with_G":  alpha = B*sqrt(T)/R, eta = G/(2*R*sqrt(T))
    mode "B_only":  alpha = B*sqrt(T)/R, eta = 2*B/(R*sqrt(T))
    """
    _check(_POSITIVE, G=G, B=B, R=R)
    _check(_POSITIVE_INT, T=T)
    if B < G:
        raise ValueError("second-moment bound B must satisfy B >= G")
    rt = np.sqrt(T)
    alpha = B * rt / R
    if mode == "with_G":
        eta = G / (2.0 * R * rt)
    elif mode == "B_only":
        eta = 2.0 * B / (R * rt)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PfwParams(alpha=alpha, eta=eta, horizon=T)
