"""Monte Carlo estimation of homogeneous-sum moments.

Sampling uses numpy's Philox counter-based bit generator keyed by the
sampler seed.  The stream depends on the sampler description and ``n``
alone, not on the kernel or the row chunking: per batch of ``_BATCH`` rows
it draws one bit per weight factor in (row, index, factor) order, then one
sign bit per entry, then one normal per entry under a Gaussian law or base,
each in (row, index) order (a law draws only the parts it has).  Bits come
from whole 32-bit Philox words read low bit first (``_bits``): the bits,
and the generator state, that numpy's ``integers(0, 2, dtype=bool)`` gives,
which the reference tests pin.  An entry's bits form one code, read from a
table made by the law's formula, so entries equal the formulas bit for bit
on any platform.  The sum runs on BLAS, so an estimate repeats bit-for-bit
on one numpy build and may differ in its last bits on another.  The
estimator is the plain empirical mean; the exact engines are the primary
truth and this module is an independent check.

The sum is evaluated on a batch by nesting it over prefixes of the sorted
support (``_horner_plan``): one matmul for the last index, then per earlier
index a product with the entries and a sum over each prefix's children.
A row chunk's entries are made, and its normals drawn, just before the sum
reads them (numpy keeps no normals between calls: one draw per batch
gives the same values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import HomsumError, UnknownSampler
from .kernels import Kernel

LAW_IDS = ("rademacher", "gaussian", "two-point", "mixture-T", "product-TX")
BASE_IDS = ("gaussian", "rademacher")

_BATCH = 1 << 16
#: Most float64 values one intermediate of a row chunk holds (512 KiB), so
#: that a chunk's intermediates stay in cache.
_GATHER_BUDGET = 1 << 16


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
        if not 0 <= self.seed < 1 << 128:  # a Philox key
            raise HomsumError(f"seed must lie in 0..2**128 - 1, got {self.seed}")
        if self.sample_count < 1:
            raise HomsumError("sample_count must be positive")
        if self.law in ("two-point", "mixture-T", "product-TX"):
            if not 0 <= self.alpha < 1:
                raise HomsumError(f"alpha must lie in [0, 1), got {self.alpha}")
            if not 1 <= self.q <= 15:  # a code of q + 1 bits indexes a table
                raise HomsumError(f"q must lie in 1..15, got {self.q}")
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


def _layout(spec: SamplerSpec) -> tuple[int, int, bool]:
    """An entry's code: ``q`` weight bits and ``signed`` sign bits; and
    whether a normal multiplies the coded value."""
    q = spec.q if spec.law in ("mixture-T", "product-TX") else 0
    base = spec.base if spec.law == "product-TX" else spec.law
    return q, int(base in ("rademacher", "two-point")), base == "gaussian"


def _table(spec: SamplerSpec) -> np.ndarray:
    """The value of every code, by each law's formula on the code's bits
    (bit ``j < q`` is weight factor ``j``, bit ``q`` the sign), so that a
    lookup equals the formula bit for bit."""
    q, signed, _ = _layout(spec)
    s = (np.arange(1 << (q + signed))[:, None] >> np.arange(q + signed) & 1) * 2.0 - 1.0
    if spec.law == "two-point":
        return 1.0 + spec.alpha * s[:, 0]
    t = np.sqrt(np.prod(1.0 + spec.alpha * s[:, :q], axis=1))
    return t * s[:, q] if signed else t


def _words(rng: np.random.Generator, count: int) -> np.ndarray:
    """The bytes, low first, of the ``ceil(count / 32)`` whole 32-bit Philox
    words that hold ``count`` bits."""
    words = rng.integers(0, 1 << 32, size=-(-count // 32), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)


def _bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` fair bits as uint8 0 or 1, read low bit first from whole
    words: the bits ``rng.integers(0, 2, count, dtype=bool)`` gives, and the
    state it leaves (numpy takes a bool from each bit of a 32-bit word in
    turn, and Philox carries a spare half word over either way)."""
    return np.unpackbits(_words(rng, count), count=count, bitorder="little")


def _fields(rng: np.random.Generator, count: int, width: int, shift: int, dtype) -> np.ndarray:
    """``count`` fields of ``width`` bits read low bit first from whole
    words (field ``i`` holds bits ``i * width`` on), each shifted left by
    ``shift``.  ``width`` divides 8, so a byte holds ``8 // width`` whole
    fields and one lookup per byte gives them all."""
    fields = np.arange(256, dtype=dtype)[:, None] >> np.arange(0, 8, width, dtype=dtype) & (1 << width) - 1
    table = fields << shift
    return table.take(_words(rng, count * width).astype(np.intp), axis=0).ravel()[:count]


def _codes(rng: np.random.Generator, spec: SamplerSpec, shape) -> np.ndarray | None:
    """One bit per two-valued factor: ``shape + (q,)`` weight bits, then
    ``shape`` sign bits, packed into one code per entry (bit ``j < q`` from
    weight factor ``j``, bit ``q`` the sign); ``None`` when the law has no
    two-valued factor."""
    q, signed, _ = _layout(spec)
    count = math.prod(shape)
    if not q:
        return _bits(rng, count).reshape(shape) if signed else None
    dtype = np.min_scalar_type((1 << (q + signed)) - 1)
    if 8 % q:  # weight codes straddle bytes: build each from its bits
        bits = _bits(rng, count * q).reshape(count, q)
        code = bits[:, q - 1].astype(dtype)
        for j in reversed(range(q - 1)):
            code <<= 1
            code |= bits[:, j]
    else:
        code = _fields(rng, count, q, 0, dtype)
    if signed:
        code |= _fields(rng, count, 1, q, dtype)
    return code.reshape(shape)


def _chunk(rng: np.random.Generator, spec: SamplerSpec, table, code, lo: int, hi: int, tail=()) -> np.ndarray:
    """Rows ``lo:hi`` of a batch's entries, index first: the codes looked
    up, times normals of shape ``(hi - lo,) + tail`` drawn now under a
    Gaussian law or base."""
    x = None if code is None else table.take(code[lo:hi].T)
    if not _layout(spec)[2]:
        return x
    g = rng.standard_normal((hi - lo,) + tail).T
    return np.ascontiguousarray(g) if x is None else np.multiply(x, g, out=x)


def _entries(rng: np.random.Generator, spec: SamplerSpec, shape) -> np.ndarray:
    """One batch of entries of ``shape``: its codes, then its normals."""
    return _chunk(rng, spec, _table(spec), _codes(rng, spec, shape), 0, shape[0], shape[1:]).T


def sample_mixture_t(spec: SamplerSpec) -> np.ndarray:
    """Draws of the mixture weight ``T = sqrt(V_1 ... V_q)``; every value is
    at least ``(1 - alpha)^(q/2) > 0``."""
    if spec.law != "mixture-T":
        raise UnknownSampler(f"sample_mixture_t needs a mixture-T spec, got {spec.law!r}")
    return _entries(_generator(spec.seed), spec, (spec.sample_count,))


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


def _horner_plan(kernel: Kernel) -> tuple[np.ndarray, list]:
    """The homogeneous sum nested by prefixes of the sorted support,
    ``Q = sum_{i1} x_{i1} sum_{i2>i1} x_{i2} ... sum_{id} w x_{id}`` with
    ``w = d! * value``.

    Returns the ``P_{d-1} x n`` matrix holding ``w`` at (prefix of length
    d-1, last index), and one level per prefix length ``l = d-1, ..., 1``:
    the last index of each ``l``-prefix, the first child of each
    ``(l-1)``-prefix, and ``(parent, lo, hi)`` for each run of two or more
    children (a parent's children are contiguous because the support is
    sorted).  The empty kernel gets the zero plan of degree 1."""
    d = kernel.d
    den, nums = kernel.int_entries()
    if not nums:
        return np.zeros((1, kernel.n)), []
    idx = np.array(list(nums), dtype=np.intp) - 1
    root = math.sqrt(kernel.scale2)
    # num / den rounds the rational once, as float(Fraction) does
    w = np.array([v / den * root * math.factorial(d) for v in nums.values()])
    # new[l, k]: support row k starts a new prefix of length l
    new = np.zeros((d, len(idx)), dtype=bool)
    new[:, 0] = True
    for l in range(1, d):
        new[l, 1:] = new[l - 1, 1:] | (idx[1:, l - 1] != idx[:-1, l - 1])
    prefix = np.cumsum(new[d - 1]) - 1
    weights = np.zeros((prefix[-1] + 1, kernel.n))
    weights[prefix, idx[:, d - 1]] = w
    levels = []
    for l in range(d - 1, 0, -1):
        last = idx[new[l], l - 1]
        starts = np.flatnonzero(new[l - 1][new[l]])
        bounds = [*starts.tolist(), len(last)]
        runs = [(j, a, b) for j, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a + 1]
        levels.append((last, starts, runs))
    return weights, levels


def _homogeneous_sum(kernel: Kernel, count: int, chunk) -> np.ndarray:
    """``Q(f; x)`` for rows ``0:count`` of ``x``, where ``chunk(lo, hi)``
    returns rows ``lo:hi`` transposed (``n x (hi - lo)``): one matmul for
    the last index, then per prefix level a gather, a product and a sum
    over each run.  Rows go in chunks so that no intermediate holds more
    than ``_GATHER_BUDGET`` values."""
    weights, levels = kernel.derived(_horner_plan)
    step = max(1, _GATHER_BUDGET // max(len(weights), kernel.n))
    q = np.empty(count)
    for lo in range(0, count, step):
        xt = chunk(lo, min(lo + step, count))
        s = weights @ xt
        for last, starts, runs in levels:
            s *= xt[last]
            out = s[starts]
            for j, a, b in runs:
                np.add.reduce(s[a:b], axis=0, out=out[j])
            s = out
        q[lo : lo + step] = s[0]
    return q


def estimate_moment(kernel: Kernel, spec: SamplerSpec, order: int) -> Estimate:
    """Empirical ``E[Q(f)^order]`` with its standard error."""
    if order not in (2, 3, 4):
        raise HomsumError(f"estimated orders are 2, 3, 4; got {order}")
    rng = _generator(spec.seed)
    table = _table(spec)
    # each batch's mean and centered sum of squares merge into running ones
    # (Chan, Golub and LeVeque); one batch gives numpy's mean and std bits
    mean = m2 = 0.0
    for start in range(0, spec.sample_count, _BATCH):
        batch = min(_BATCH, spec.sample_count - start)
        code = _codes(rng, spec, (batch, kernel.n))
        q = _homogeneous_sum(kernel, batch, partial(_chunk, rng, spec, table, code, tail=(kernel.n,)))
        v = q * q
        if order > 2:
            v *= v if order == 4 else q
        b_mean = v.mean()
        v -= b_mean
        b_m2 = np.square(v, out=v).sum()
        if start:
            delta = b_mean - mean
            mean += delta * (batch / (start + batch))
            m2 += b_m2 + delta * delta * (start * batch / (start + batch))
        else:
            mean, m2 = b_mean, b_m2
    n = spec.sample_count
    stderr = float(np.sqrt(m2 / (n - 1)) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=float(mean), stderr=stderr, sample_count=n, seed=spec.seed)
