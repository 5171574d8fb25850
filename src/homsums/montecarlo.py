"""Monte Carlo estimation of homogeneous-sum moments.

Sampling uses numpy's Philox counter-based bit generator keyed by the
sampler seed, with a fixed batch layout, so estimates are reproducible
bit-for-bit for a given sampler description regardless of platform.  The
estimator is the plain empirical mean; the exact engines are the primary
truth and this module is an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HomsumError, UnknownSampler
from .kernels import Kernel

LAW_IDS = ("rademacher", "gaussian", "two-point", "mixture-T", "product-TX")
BASE_IDS = ("gaussian", "rademacher")

_BATCH = 1 << 16
#: Most float64 elements one support chunk's gather (batch x chunk x d) holds.
_GATHER_BUDGET = 1 << 22


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: entry law, seed, and sample count.

    ``alpha`` and ``q`` parameterize the two-point factors of the mixture
    weight ``T = sqrt(V_1 ... V_q)``; ``base`` is the centered law multiplied
    by ``T`` in the product-TX law.
    """

    law: str
    seed: int
    sample_count: int
    alpha: float = 0.5
    q: int = 1
    base: str = "gaussian"

    def __post_init__(self) -> None:
        if self.law not in LAW_IDS:
            raise UnknownSampler(f"unknown sampler {self.law!r}; known: {', '.join(LAW_IDS)}")
        if self.sample_count < 1:
            raise HomsumError("sample_count must be positive")
        if self.law in ("two-point", "mixture-T", "product-TX"):
            if not 0 <= self.alpha < 1:
                raise HomsumError(f"alpha must lie in [0, 1), got {self.alpha}")
            if self.q < 1:
                raise HomsumError(f"q must be >= 1, got {self.q}")
        if self.law == "product-TX" and self.base not in BASE_IDS:
            raise UnknownSampler(f"unknown base law {self.base!r}; known: {', '.join(BASE_IDS)}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    sample_count: int
    seed: int

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n": self.sample_count,
            "seed": self.seed,
        }


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _signs(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


def _mixture_t(rng: np.random.Generator, shape, alpha: float, q: int) -> np.ndarray:
    v = 1.0 + alpha * _signs(rng, shape + (q,))
    return np.sqrt(np.prod(v, axis=-1))


def _entries(rng: np.random.Generator, spec: SamplerSpec, shape) -> np.ndarray:
    if spec.law == "rademacher":
        return _signs(rng, shape)
    if spec.law == "gaussian":
        return rng.standard_normal(shape)
    if spec.law == "two-point":
        return 1.0 + spec.alpha * _signs(rng, shape)
    if spec.law == "mixture-T":
        return _mixture_t(rng, shape, spec.alpha, spec.q)
    # product-TX: independent weight and centered base per entry
    t = _mixture_t(rng, shape, spec.alpha, spec.q)
    x = rng.standard_normal(shape) if spec.base == "gaussian" else _signs(rng, shape)
    return t * x


def sample_mixture_t(spec: SamplerSpec) -> np.ndarray:
    """Draws of the mixture weight ``T = sqrt(V_1 ... V_q)``; every value is
    at least ``(1 - alpha)^(q/2) > 0``."""
    if spec.law != "mixture-T":
        raise UnknownSampler(f"sample_mixture_t needs a mixture-T spec, got {spec.law!r}")
    rng = _generator(spec.seed)
    return _mixture_t(rng, (spec.sample_count,), spec.alpha, spec.q)


def mixture_t_moment(q: int, alpha, order: int) -> Fraction:
    """Exact even moments of the mixture weight: ``E[T^2] = 1`` and
    ``E[T^4] = (1 + alpha^2)^q``."""
    a = Fraction(alpha)
    if order == 2:
        return Fraction(1)
    if order == 4:
        return (1 + a * a) ** q
    raise HomsumError(f"closed-form mixture moments available for orders 2 and 4, not {order}")


def alpha_for_moment_ratio(theta: float, q: int) -> float:
    """The two-point half-width giving ``E[T^4] = 1 + theta`` with ``q``
    factors: ``alpha = sqrt((1+theta)^(1/q) - 1)``.  Raising ``q`` drives
    ``alpha`` into ``[0, 1)``; a ratio too large for the given ``q`` is
    rejected."""
    if theta < 0:
        raise HomsumError(f"moment ratio increment must be >= 0, got {theta}")
    if q < 1:
        raise HomsumError(f"q must be >= 1, got {q}")
    alpha = math.sqrt((1.0 + theta) ** (1.0 / q) - 1.0)
    if not alpha < 1:
        raise HomsumError(
            f"theta={theta} needs more than q={q} factors to keep alpha in [0, 1)"
        )
    return alpha


def _kernel_weights(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Index matrix (support x d, zero-based) and per-tuple weights
    ``d! * value`` for evaluating the sum on a sample row."""
    if not kernel.entries:
        return np.zeros((0, kernel.d), dtype=np.int64), np.zeros(0)
    idx = np.array([t for t in kernel.entries], dtype=np.int64) - 1
    root = math.sqrt(kernel.scale2)
    w = np.array(
        [float(v) * root * math.factorial(kernel.d) for v in kernel.entries.values()]
    )
    return idx, w


def estimate_moment(kernel: Kernel, spec: SamplerSpec, order: int) -> Estimate:
    """Empirical ``E[Q(f)^order]`` with its standard error."""
    if order not in (2, 3, 4):
        raise HomsumError(f"estimated orders are 2, 3, 4; got {order}")
    idx, w = _kernel_weights(kernel)
    rng = _generator(spec.seed)
    chunks = []
    remaining = spec.sample_count
    while remaining > 0:
        batch = min(_BATCH, remaining)
        x = _entries(rng, spec, (batch, kernel.n))
        # Q summed over chunks of the support, so the gather stays within budget
        step = max(1, _GATHER_BUDGET // (batch * kernel.d))
        q = np.zeros(batch)
        for lo in range(0, len(w), step):
            q += x[:, idx[lo : lo + step]].prod(axis=2) @ w[lo : lo + step]
        chunks.append(q**order)
        remaining -= batch
    vals = np.concatenate(chunks)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(spec.sample_count)) if spec.sample_count > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, sample_count=spec.sample_count, seed=spec.seed)
