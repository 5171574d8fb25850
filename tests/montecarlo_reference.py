"""References for the Monte Carlo path: the homogeneous sum by a gather of
every support tuple's entries, and the entry laws by their arithmetic
formulas on one drawn bit per two-valued factor.  Neither shares code with
``montecarlo``'s nested prefix evaluation or its table lookups."""

import math

import numpy as np

from homsums import Kernel


def tuple_weights(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Index matrix (support x d, zero-based) and per-tuple weights
    ``d! * value``."""
    if not kernel.entries:
        return np.zeros((0, kernel.d), dtype=np.int64), np.zeros(0)
    idx = np.array([t for t in kernel.entries], dtype=np.int64) - 1
    root = math.sqrt(kernel.scale2)
    w = np.array([float(v) * root * math.factorial(kernel.d) for v in kernel.entries.values()])
    return idx, w


def gather_sum(kernel: Kernel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Q(f; x)`` for every row of ``x``, tuple by tuple, and the sum of the
    terms' absolute values, which scales the rounding error of any
    evaluation order."""
    idx, w = tuple_weights(kernel)
    factors = x[:, idx]
    return factors.prod(axis=2) @ w, np.abs(factors).prod(axis=2) @ np.abs(w)


def _signs(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2, size=shape, dtype=np.bool_).astype(np.float64) * 2.0 - 1.0


def _mixture_t(rng: np.random.Generator, shape, alpha: float, q: int) -> np.ndarray:
    v = 1.0 + alpha * _signs(rng, shape + (q,))
    return np.sqrt(np.prod(v, axis=-1))


def formula_entries(rng: np.random.Generator, spec, shape) -> np.ndarray:
    """A batch of entries drawn from ``rng`` by the arithmetic formulas of
    each law, in the sampler's order of draws."""
    if spec.law == "rademacher":
        return _signs(rng, shape)
    if spec.law == "gaussian":
        return rng.standard_normal(shape)
    if spec.law == "two-point":
        return 1.0 + spec.alpha * _signs(rng, shape)
    if spec.law == "mixture-T":
        return _mixture_t(rng, shape, spec.alpha, spec.q)
    t = _mixture_t(rng, shape, spec.alpha, spec.q)
    x = rng.standard_normal(shape) if spec.base == "gaussian" else _signs(rng, shape)
    return t * x
