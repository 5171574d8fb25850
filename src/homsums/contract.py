"""Contraction of tensor powers of a kernel along partition blocks.

Every moment engine reduces to sums of the following shape: take ``k`` copies
of a kernel ``f`` of degree ``d``, lay their arguments out on positions
``[k*d]`` (copy ``u`` owns positions ``(u-1)d+1 .. ud``), pick a partition of
the positions that meets each copy at most once per block, and sum
``f(args_1) * ... * f(args_k)`` over all assignments of one index in ``[n]``
per block.

Because the kernel is symmetric, the value of that sum depends only on which
copies each block touches, so partitions are grouped by that incidence type
(canonicalized under copy relabeling) and each distinct type is contracted
once.  A block's size is the number of copies it touches, so a type fixes its
block sizes; ``grouped_types`` builds a class as ``(type, count)`` pairs after
the one ``cap_check`` of its ground set.  Contractions run over the kernel's
stored integer numerators on their common denominator.  The engines read
exact values through one exit, ``KernelContractor.exact`` (with
``exact_marginal`` for a type's full block left open): it sums
``count * contraction`` over ``(type, count)`` pairs in integers and only
then divides the denominator back out and applies the kernel's squared
scale, so results are exact rationals and no other module sees the integers.

``KernelContractor.type_value`` contracts a type by one of three tiers,
chosen from the kernel and the type alone, all running the type's one
greedy pairwise plan (``_pairwise_plan``): as batched ``np.matmul`` steps on
the full numerator tensor, whose intermediates stay within ``DENSE_CAP``,
on a dense tier, and as uncapped dict joins on the sparse one.  A dense
tier needs degree at least 2 and a tensor of at most ``DENSE_CAP`` entries,
at least ``1/DENSE_SPARSITY`` of them nonzero.  Every product and every
partial sum of every step, in any order, is at most
``bound = max|num|^k * n^blocks`` in absolute value, so the tier is:

* float64, when ``bound < 2^53``: the tensor in float64, each step a BLAS
  ``dgemm``.  Every value along the way is an integer below 2^53, which
  float64 holds exactly, so no step rounds, whatever the BLAS blocking, FMA
  use or thread count (the premise of error-free matrix products; Ozaki,
  Ogita, Oishi and Rump, *Numer. Algorithms* 59, 2012);
* int64, when ``2^53 <= bound < 2^63``: the same plan on the int64 tensor,
  which cannot overflow (numpy runs it without BLAS);
* sparse: otherwise, or when a dense plan finds no path within the cap
  (float-mode kernels, with denominators near 2^52, land here), on the
  support's symmetric extension, ``{ordered tuple: num}``, in Python ints.

All three give the same integer, and a dense result converts back to an
exact int.  A type's tier is picked once, when it is first contracted; the
contractor counts the distinct types each tier contracted in
``backend_types``.  Each tier's operand is built once per kernel through
``Kernel.derived``, the first time a type needs that tier.

Exact assembly runs once per block-size profile, not once per type and law:
``profile_sum`` memoizes, per ``(k, sizes, noncrossing, profile)``, the
``exact`` sum over the class's types with that profile, and ``weighted_sum``
multiplies each nonzero-weight profile by its cumulant weight, computed once
per cumulant map and class (``_profile_weights``).  A zero-weight profile
contracts no type.

``type_marginal`` leaves a type's one full block (all ``k`` copies) unsummed,
one integer per index, the plan's last operand, with the same memo and tiers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import HomsumError
from .laws import Number
from .partitions import BlockProfile, IntervalPattern, Partition, cap_check, enumerate_partitions

if TYPE_CHECKING:
    from .kernels import Kernel

TypeKey = tuple[int, ...]

#: The dense tiers run only on kernels whose full tensor has at most
#: DENSE_CAP entries, at least 1/DENSE_SPARSITY of them nonzero (sparser
#: kernels contract faster by dict joins).  DENSE_CAP also bounds every
#: intermediate of a dense plan.
DENSE_CAP = 1 << 22
DENSE_SPARSITY = 32


@lru_cache(maxsize=None)
def _mask_tables(k: int) -> list[list[int]]:
    """For each permutation of the ``k`` copies, the induced action on copy
    bitmasks (one table of 2^k entries per permutation)."""
    tables = []
    for perm in itertools.permutations(range(k)):
        table = [0] * (1 << k)
        for mask in range(1 << k):
            out = 0
            for u in range(k):
                if mask >> u & 1:
                    out |= 1 << perm[u]
            table[mask] = out
        tables.append(table)
    return tables


def canonical_type(masks: Sequence[int], k: int) -> TypeKey:
    """The multiset of per-block copy bitmasks, minimized over relabelings
    of the ``k`` copies: the key under which a type is contracted once."""
    return min(tuple(sorted(table[m] for m in masks)) for table in _mask_tables(k))


def incidence_type(p: Partition, k: int, d: int) -> TypeKey:
    """Canonical incidence type of a partition of ``[k*d]``: the copy sets
    of its blocks as bitmasks, through ``canonical_type``."""
    masks = []
    for b in p.blocks:
        m = 0
        for x in b:
            m |= 1 << ((x - 1) // d)
        masks.append(m)
    return canonical_type(masks, k)


def _copy_blocks(tkey: TypeKey, k: int) -> list[list[int]]:
    """For each of the ``k`` copies, the indices of the type's blocks that
    touch it: its arguments, in any order, the kernel being symmetric."""
    return [[b for b, mask in enumerate(tkey) if mask >> u & 1] for u in range(k)]


def _picker(letters: list[int], wanted: list[int]):
    """Maps an operand's entry (over ``letters``) to its ``wanted`` indices."""
    pos = [letters.index(c) for c in wanted]
    return itemgetter(*pos) if len(pos) > 1 else (lambda t: (t[pos[0]],) if pos else ())


@lru_cache(maxsize=None)
def _pairwise_plan(tkey: TypeKey, k: int, open_block: int | None, n: int | None = None) -> tuple | None:
    """A greedy pairwise contraction order for ``k`` copies of the kernel
    along the type's blocks, summing every block but ``open_block``, compiled
    so that a call re-plans nothing.  Each step contracts the pair whose
    result keeps the fewest blocks, then sums the most (ties to the lowest
    pair), among the pairs that fit (with ``n``, those whose result has at
    most ``DENSE_CAP`` entries; without, all); the result (the batch, then
    each side's kept blocks) replaces the pair at the end of the list.  A step
    holds the operand positions it pops (highest first), then each operand's
    axis order and 3-d shape for ``matmul`` (batch, kept, summed blocks; then
    batch, summed, kept) and the result's shape, or without ``n`` the
    ``_join`` pickers.  None when no pair fits, or a block of one operand
    alone would be summed."""
    operands = _copy_blocks(tkey, k)
    steps = []
    while len(operands) > 1:
        pairs = []
        for j, i in itertools.combinations(range(len(operands)), 2):
            a, b = operands[i], operands[j]
            keep = {open_block}.union(*(o for x, o in enumerate(operands) if x not in (i, j)))
            batch = [c for c in a if c in b and c in keep]
            summed = [c for c in a if c in b and c not in keep]
            left, right = [c for c in a if c not in b], [c for c in b if c not in a]
            result = batch + left + right
            if keep.issuperset(left + right) and (n is None or n ** len(result) <= DENSE_CAP):
                sides = (batch, left, summed), (batch, summed, right)
                pairs.append((len(result), -len(summed), j, i, result, *sides))
        if not pairs:
            return None
        *_, j, i, result, a_axes, b_axes = min(pairs)
        a, b = operands.pop(i), operands.pop(j)
        operands.append(result)
        if n is None:
            (batch, left, summed), (_, _, right) = a_axes, b_axes
            pickers = (a, batch + summed), (a, batch + left), (b, batch + summed), (b, right)
            steps.append(((i, j), *(_picker(*p) for p in pickers)))
            continue
        steps.append((
            (i, j),
            tuple(a.index(c) for axes in a_axes for c in axes),
            tuple(n ** len(axes) for axes in a_axes),
            tuple(b.index(c) for axes in b_axes for c in axes),
            tuple(n ** len(axes) for axes in b_axes),
            (n,) * len(result),
        ))
    return tuple(steps)


def _matmul(a: np.ndarray, b: np.ndarray, a_axes, a_shape, b_axes, b_shape, shape) -> np.ndarray:
    """One compiled matmul step of a dense plan."""
    return np.matmul(a.transpose(a_axes).reshape(a_shape), b.transpose(b_axes).reshape(b_shape)).reshape(shape)


def _join(a: dict, b: dict, a_key, a_base, b_key, b_right) -> dict:
    """One dict-join step of a sparse plan: ``b``'s entries indexed by their
    batch and summed indices (``b_key``); each entry of ``a`` and each match
    on ``a_key`` add their product under ``a``'s batch and kept indices
    (``a_base``) followed by the match's kept ones (``b_right``)."""
    index: dict[tuple[int, ...], list] = {}
    for t, v in b.items():
        index.setdefault(b_key(t), []).append((b_right(t), v))
    out: dict[tuple[int, ...], int] = {}
    for t, v in a.items():
        base = a_base(t)
        for r, w in index.get(a_key(t), ()):
            key = base + r
            out[key] = out.get(key, 0) + v * w
    return out


def _run_steps(operand, k: int, steps: tuple, step):
    """Run a compiled plan from ``k`` copies of ``operand``, each step
    ``step(a, b, *rest)`` on the operands it pops; the one operand left."""
    operands = [operand] * k
    for pops, *rest in steps:
        a, b = (operands.pop(i) for i in pops)
        operands.append(step(a, b, *rest))
    (out,) = operands
    return out


def _dense_top(kernel: Kernel) -> int | None:
    """The largest absolute numerator of a kernel the dense tiers may run
    on; None for degree 1, a tensor above ``DENSE_CAP`` entries, or a
    support filling less than ``1/DENSE_SPARSITY`` of it."""
    n, d = kernel.n, kernel.d
    size = n**d
    if d < 2 or not 0 < size <= DENSE_CAP:
        return None
    if DENSE_SPARSITY * math.factorial(d) * kernel.support_size < size:
        return None
    _, nums = kernel.int_entries()
    return max(map(abs, nums.values()))


def _dense_tensor(kernel: Kernel, dtype) -> np.ndarray:
    """The integer numerators as a full ``n^d`` tensor of ``dtype``
    (symmetric extension, zeros on diagonals)."""
    n, d = kernel.n, kernel.d
    _, nums = kernel.int_entries()
    idx = np.fromiter(itertools.chain.from_iterable(nums), np.intp, len(nums) * d)
    idx = idx.reshape(-1, d) - 1
    vals = np.fromiter(nums.values(), dtype, len(nums))
    tensor = np.zeros((n,) * d, dtype)
    for perm in itertools.permutations(range(d)):
        tensor[tuple(idx[:, list(perm)].T)] = vals
    return tensor


#: Each dense tier's tensor builder, also the key under which
#: ``Kernel.derived`` keeps that tensor.
TIER_TENSORS = {tier: partial(_dense_tensor, dtype=np.dtype(tier)) for tier in ("float64", "int64")}


def sparse_operand(kernel: Kernel) -> dict[tuple[int, ...], int]:
    """The integer numerators' symmetric extension as ``{ordered tuple:
    num}``, ``d!`` entries per support tuple: the sparse tier's operand,
    built once per kernel through ``Kernel.derived``."""
    _, nums = kernel.int_entries()
    return {p: v for t, v in nums.items() for p in itertools.permutations(t)}


def dense_tier(kernel: Kernel, k: int, indices: int) -> str | None:
    """The dense tier that contracts ``k`` copies of the kernel summed over
    ``indices`` index variables exactly: ``"float64"`` when every partial
    sum of every pairwise step, at most ``max|num|^k * n^indices`` in
    absolute value, stays below 2^53, ``"int64"`` below 2^63; else None."""
    top = kernel.derived(_dense_top)
    if top is None:
        return None
    bound = top**k * kernel.n**indices
    if bound < 1 << 53:
        return "float64"
    return "int64" if bound < 1 << 63 else None


def run_plan(tensor: np.ndarray, tkey: TypeKey, k: int, open_block: int | None = None):
    """A type's contraction by its compiled pairwise plan on ``tensor`` (of
    either dense dtype), as an exact int or, with an open block, a tuple of
    ints; None when the planner finds no path.  Exact only when the tensor's
    dtype holds every partial sum (``dense_tier``)."""
    steps = _pairwise_plan(tkey, k, open_block, tensor.shape[0])
    if steps is None:
        return None
    out = _run_steps(tensor, k, steps, _matmul)
    return int(out) if open_block is None else tuple(out.astype(np.int64).tolist())


class KernelContractor:
    """Contraction state for one kernel: its common denominator, a per-type
    memo, and the count of distinct types each tier contracted."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.den, _ = kernel.int_entries()
        self._type_memo: dict[tuple[int, TypeKey, int | None], int | tuple[int, ...]] = {}
        self._profile_memo: dict[tuple[int, frozenset[int], bool, tuple[int, ...]], Fraction] = {}
        self.backend_types: Counter[str] = Counter()

    @classmethod
    def of(cls, kernel: Kernel) -> "KernelContractor":
        """The kernel's contractor, shared so incidence-type contractions are
        computed once per kernel no matter how many laws reuse them."""
        return kernel.derived(cls)

    def _contract_sparse(self, tkey: TypeKey, k: int, open_block: int | None = None) -> int | tuple[int, ...]:
        """The type's integer contraction by its uncapped pairwise plan, run
        as dict joins on the sparse operand in Python ints."""
        steps = _pairwise_plan(tkey, k, open_block)
        if steps is None:
            raise HomsumError(f"type {tkey} has a block on one copy alone, which no pairwise step sums")
        out = _run_steps(self.kernel.derived(sparse_operand), k, steps, _join)
        return out.get((), 0) if open_block is None else tuple(out.get((i,), 0) for i in range(1, self.kernel.n + 1))

    def _contract_dense(self, tkey: TypeKey, k: int, open_block: int | None = None) -> tuple | None:
        """The type's integer contraction by its compiled pairwise plan on
        the tensor of its dense tier, with that tier; None when no dense tier
        may run it (see the module docstring)."""
        tier = dense_tier(self.kernel, k, len(tkey))
        if tier is None:
            return None
        val = run_plan(self.kernel.derived(TIER_TENSORS[tier]), tkey, k, open_block)
        return None if val is None else (val, tier)

    def _contract(self, tkey: TypeKey, k: int, open_block: int | None):
        """Memoized contraction of a type, summed over every block but
        ``open_block``, by the first tier that may run it."""
        memo_key = (k, tkey, open_block)
        val = self._type_memo.get(memo_key)
        if val is None:
            dense = self._contract_dense(tkey, k, open_block)
            val, tier = dense or (self._contract_sparse(tkey, k, open_block), "sparse")
            self.backend_types[tier] += 1
            self._type_memo[memo_key] = val
        return val

    def type_value(self, tkey: TypeKey, k: int) -> int:
        """Memoized integer contraction for an incidence type."""
        return self._contract(tkey, k, None)

    def type_marginal(self, tkey: TypeKey, k: int) -> tuple[int, ...]:
        """The type's integer contraction with its one full block (shared by
        all ``k`` copies) left unsummed: one integer per index in ``[n]``,
        adding up to ``type_value``."""
        full = [b for b, mask in enumerate(tkey) if mask == (1 << k) - 1]
        if len(full) != 1:
            raise HomsumError(f"type {tkey} needs exactly one full block, has {len(full)}")
        return self._contract(tkey, k, full[0])

    def _scale(self, k: int) -> Fraction:
        """The common denominator divided back out of ``k`` copies and the
        squared scale applied (odd ``k`` callers handle the leftover root)."""
        return self.kernel.scale2 ** (k // 2) / self.den**k

    def exact(self, types: Iterable[tuple[TypeKey, int]], k: int) -> Fraction:
        """Exact ``sum of count * contraction`` over ``(type, count)`` pairs,
        summed in integers and rescaled once."""
        return sum(count * self.type_value(tkey, k) for tkey, count in types) * self._scale(k)

    def exact_marginal(self, types: Iterable[tuple[TypeKey, int]], k: int) -> dict[int, Fraction]:
        """``exact`` per index: each type's one full block left unsummed
        (``type_marginal``), as ``{index: value}`` over the indices in
        ``[n]`` where the sum is nonzero."""
        per_index = [0] * self.kernel.n
        for tkey, count in types:
            per_index = [acc + count * v for acc, v in zip(per_index, self.type_marginal(tkey, k))]
        scale = self._scale(k)
        return {i: v * scale for i, v in enumerate(per_index, 1) if v}

    def profile_sum(
        self, k: int, sizes: frozenset[int], noncrossing: bool, profile: tuple[int, ...]
    ) -> Fraction:
        """Memoized ``exact`` sum over the types of the class
        ``grouped_types(d, sizes, k, noncrossing)`` whose sorted block sizes
        are ``profile``: the class's law-independent part for every cumulant
        map with these keys."""
        key = (k, sizes, noncrossing, profile)
        val = self._profile_memo.get(key)
        if val is None:
            types = _profile_types(self.kernel.d, sizes, k, noncrossing)[profile]
            val = self._profile_memo[key] = self.exact(types, k)
        return val


def _counted_types(
    d: int, sizes: frozenset[int], k: int
) -> tuple[tuple[TypeKey, int], ...]:
    """Incidence types and multiplicities of the interval-respecting
    partitions of ``[k*d]`` with block sizes in ``sizes``, counted without
    listing them.

    Such a partition is described by a multiplicity vector M over copy
    bitmasks S with ``popcount(S)`` in ``sizes``, covering every copy exactly
    ``d`` times.  Assigning slots copy by copy gives ``d!^k`` labelings, of
    which each partition is counted ``prod M_S!`` times (blocks on the same
    copy set are interchangeable), so M accounts for ``d!^k / prod M_S!``
    partitions.
    """
    masks = sorted((s for s in range(1, 1 << k) if s.bit_count() in sizes), reverse=True)
    if not masks:
        return ()
    # closing[i]: the copies whose cover is final once masks[i] is chosen
    last = {u: max(i for i, s in enumerate(masks) if s >> u & 1) for u in range(k)}
    closing = [[u for u in range(k) if last[u] == i] for i in range(len(masks))]
    labelings = math.factorial(d) ** k
    agg: dict[TypeKey, int] = {}
    left = [d] * k
    chosen: list[tuple[int, int]] = []

    def rec(i: int) -> None:
        if i == len(masks):
            blocks = [s for s, mult in chosen for _ in range(mult)]
            tkey = canonical_type(blocks, k)
            overcount = math.prod(math.factorial(mult) for _, mult in chosen)
            agg[tkey] = agg.get(tkey, 0) + labelings // overcount
            return
        s = masks[i]
        members = [u for u in range(k) if s >> u & 1]
        for mult in range(min(left[u] for u in members) + 1):
            for u in members:
                left[u] -= mult
            if all(left[u] == 0 for u in closing[i]):
                chosen.append((s, mult))
                rec(i + 1)
                chosen.pop()
            for u in members:
                left[u] += mult

    rec(0)
    return tuple(sorted(agg.items()))


@lru_cache(maxsize=None)
def grouped_types(
    d: int, sizes: frozenset[int], k: int, noncrossing: bool
) -> tuple[tuple[TypeKey, int], ...]:
    """The partitions of ``[k*d]`` with the given block sizes that respect
    the ``k``-interval pattern, grouped as ``(incidence type, multiplicity)``
    in type order; ground sets beyond the cap raise ``GroundCapExceeded``.

    Classes without the non-crossing constraint are counted, not listed
    (their size grows factorially: 18,366,912 partitions at d=4 with block
    sizes {2, 3, 4}); non-crossing classes are enumerated explicitly.
    """
    cap_check(k * d)
    if not noncrossing:
        return _counted_types(d, sizes, k)
    pattern = IntervalPattern(d, k)
    parts = enumerate_partitions(
        k * d, BlockProfile(sizes), respect=pattern, noncrossing=True
    )
    return tuple(sorted(Counter(incidence_type(p, k, d) for p in parts).items()))


def partition_class_size(d: int, sizes: Iterable[int], k: int, noncrossing: bool) -> int:
    """Number of partitions in the class; ``sizes`` may be a cumulant map."""
    return sum(c for _, c in grouped_types(d, frozenset(sizes), k, noncrossing))


def cumulant_weight(cumulants: Mapping[int, Number], sizes: Iterable[int]) -> Number:
    """Product of the blockwise cumulants of a partition with these block
    sizes."""
    w: Number = Fraction(1)
    for s in sizes:
        w *= cumulants[s]
    return w


@lru_cache(maxsize=None)
def _profile_types(
    d: int, sizes: frozenset[int], k: int, noncrossing: bool
) -> dict[tuple[int, ...], tuple[tuple[TypeKey, int], ...]]:
    """The class's ``(incidence type, multiplicity)`` pairs grouped by block-size
    profile (the sorted popcounts of the type's masks), the profiles in order
    of first appearance in ``grouped_types``."""
    groups: dict[tuple[int, ...], list[tuple[TypeKey, int]]] = {}
    for tkey, count in grouped_types(d, sizes, k, noncrossing):
        profile = tuple(sorted(m.bit_count() for m in tkey))
        groups.setdefault(profile, []).append((tkey, count))
    return {sk: tuple(types) for sk, types in groups.items()}


@lru_cache(maxsize=1024)
def _profile_weights(
    d: int, k: int, noncrossing: bool, typed: tuple[tuple[int, type, Number], ...]
) -> tuple[tuple[tuple[int, ...], Number], ...]:
    """The class's nonzero ``cumulant_weight``s, per block-size profile in
    ``_profile_types`` order, for the cumulant map given as sorted
    ``(size, type, cumulant)`` triples: the type keeps a float map's weights
    apart from an equal exact map's (``3.0 == Fraction(3)``)."""
    cumulants = {s: c for s, _, c in typed}
    profiles = _profile_types(d, frozenset(cumulants), k, noncrossing)
    weights = ((sk, cumulant_weight(cumulants, sk)) for sk in profiles)
    return tuple((sk, w) for sk, w in weights if w)


def weighted_sum(
    contractor: KernelContractor,
    k: int,
    cumulants: Mapping[int, Number],
    noncrossing: bool,
) -> tuple[Fraction, dict[tuple[int, ...], Fraction]]:
    """Sum ``product of blockwise cumulants * contraction`` over the class of
    partitions whose block sizes are the keys of ``cumulants``.

    Returns the total plus the per-block-size-profile contributions (the
    oracle's term breakdown).  Each profile's weight multiplies its memoized
    ``profile_sum`` once; zero-weight profiles are skipped without
    contracting.
    """
    sizes = frozenset(cumulants)
    typed = tuple(sorted((s, type(c), c) for s, c in cumulants.items()))
    by_sizes: dict[tuple[int, ...], Fraction] = {}
    for sk, w in _profile_weights(contractor.kernel.d, k, noncrossing, typed):
        by_sizes[sk] = w * contractor.profile_sum(k, sizes, noncrossing, sk)
    return sum(by_sizes.values(), Fraction(0)), by_sizes
