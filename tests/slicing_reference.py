"""Slice-by-slice references for the sums the engines contract as
parent-kernel incidence types: the classical closed form's slice fourth
moments, the free closed form's per-index slice moments and the contraction
identity's overlap square sums.  Each builds slice kernels or groups the
ordered support directly, sharing no code path with the typed forms."""

import itertools
import random
from fractions import Fraction
from math import factorial

import numpy as np

from homsums import (
    Kernel,
    KernelFamily,
    family_kernel,
    free_second_moment,
    gaussian_fourth_moment,
    make_admissible,
    random_admissible_kernel,
    slice_kernel,
)
from homsums.contract import TIER_TENSORS, dense_tier

#: (star family size, sparse random (n, support size)) per degree: both fill
#: less than 1/DENSE_SPARSITY of the n^d tensor, so they contract sparsely
SPARSE_SIZES = {2: (80, (60, 40)), 3: (12, (20, 30)), 4: (6, (12, 20)), 5: (4, (9, 12))}


def reference_kernels(d: int) -> dict[str, Kernel]:
    """Degree-``d`` kernels for the typed-versus-sliced comparisons: a dense
    random exact kernel, a ``star`` kernel and a sparse random one (both
    below the dense fill rule), and a float-mode kernel (beyond the int64
    bound)."""
    rng = random.Random(d)
    star_n, (n, size) = SPARSE_SIZES[d]
    subsets = list(itertools.combinations(range(1, n + 1), d))
    sparse = {t: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)) for t in rng.sample(subsets, size)}
    raw = {t: rng.uniform(-1, 1) for t in itertools.combinations(range(1, d + 2), d)}
    return {
        "dense": random_admissible_kernel(rng, d, d + 2),
        "star": family_kernel(KernelFamily("star", d), star_n),
        "sparse": Kernel(n, d, sparse),
        "float": make_admissible(raw, d + 1, d),
    }


def square_sum_by_grouping(kernel: Kernel, s: int) -> Fraction:
    """``contraction_square_sum`` by grouping the ordered support on its
    ordered ``s``-suffix and squaring every overlap."""
    d = kernel.d
    den, ints = kernel.int_entries()
    by_suffix: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for t, v in ints.items():
        for p in itertools.permutations(t):
            by_suffix.setdefault(p[d - s :], []).append((p[: d - s], v))
    overlaps: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for group in by_suffix.values():
        for j, vj in group:
            for k, vk in group:
                overlaps[j, k] = overlaps.get((j, k), 0) + vj * vk
    total = sum(v * v for v in overlaps.values())
    return Fraction(total, den**4) * kernel.scale2**2


def square_sum_by_gram(kernel: Kernel, s: int) -> Fraction | None:
    """``contraction_square_sum`` as the squared Frobenius norm of the smaller
    Gram matrix of the dense numerator tensor reshaped to ``n^(d-s) x n^s``,
    in int64 whichever dense tier the engines use; None when the kernel has
    no int64-safe dense tensor."""
    d, n = kernel.d, kernel.n
    tier = dense_tier(kernel, 4, 2 * d)
    if tier is None:
        return None
    tensor = kernel.derived(TIER_TENSORS[tier])
    den, _ = kernel.int_entries()
    m = tensor.astype(np.int64).reshape(n ** (d - s), n**s)
    gram = m.T @ m if s < d - s else m @ m.T
    return Fraction(int((gram * gram).sum()), den**4) * kernel.scale2**2


def classical_slice_sums_by_slicing(kernel: Kernel) -> tuple[Fraction, ...]:
    """``sum over j in [n]^m of E[Q_N(f(j,.))^4]`` for ``m = 1..d``: the Wick
    sum of every slice kernel over m-subsets of the support, times ``m!``
    (slices on repeated indices vanish); ``m = d`` is ``sum f^4`` over the
    ordered support."""
    d = kernel.d
    support = sorted({i for t in kernel.entries for i in t})
    sums = []
    for m in range(1, d):
        total = Fraction(0)
        for subset in itertools.combinations(support, m):
            sl = slice_kernel(kernel, subset)
            if sl.entries:
                total += gaussian_fourth_moment(sl).value
        sums.append(factorial(m) * total)
    quartic = sum((v**4 for v in kernel.entries.values()), Fraction(0))
    sums.append(factorial(d) * quartic * kernel.scale2**2)
    return tuple(sums)


def contraction_fourth_by_grouping(kernel: Kernel) -> Fraction:
    """``2 (sum f^2)^2 + sum_s square_sum_by_grouping(f, s)``."""
    total = 2 * free_second_moment(kernel) ** 2
    for s in range(1, kernel.d):
        total += square_sum_by_grouping(kernel, s)
    return total


def free_slice_moments_by_slicing(kernel: Kernel) -> dict[int, Fraction]:
    """Each nonzero degree-``(d-1)`` slice's semicircular fourth moment by
    the contraction identity, keyed by its index in ascending order."""
    per_k = {}
    for k in range(1, kernel.n + 1):
        sl = slice_kernel(kernel, (k,))
        if sl.entries:
            per_k[k] = contraction_fourth_by_grouping(sl)
    return per_k
