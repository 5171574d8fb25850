"""The contraction engine: incidence-type grouping, the combinatorial
partition-class counts against explicit listing, per-partition assignment
sums against a naive reference, and the dense tiers against the sparse
one."""

import contextlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from homsums import (
    BlockProfile,
    ClassicalLaw,
    FreeLaw,
    GroundCapExceeded,
    HomsumError,
    IntervalPattern,
    Kernel,
    KernelFamily,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    enumerate_partitions,
    family_kernel,
    free_fourth_moment,
    free_fourth_moment_oracle,
    free_third_moment_oracle,
    gaussian_fourth_moment,
    make_admissible,
    random_admissible_kernel,
    semicircular_moment,
    slice_kernel,
)
from homsums import contract
from homsums.contract import (
    KernelContractor,
    dense_tier,
    grouped_types,
    incidence_type,
    weighted_sum,
)


@contextlib.contextmanager
def tier_forced(tier):
    """Inside the block, every type a contractor contracts for the first time
    runs on ``tier`` (a dense one only where its plan fits ``DENSE_CAP``):
    the one seam, ``contract.dense_tier``, patched."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contract, "dense_tier", lambda *args: None if tier == "sparse" else tier)
        yield


def naive_partition_sum(kernel, p, k, by_full_block=False):
    """Assignment sum over a partition of [k*d], one nested loop at a time;
    with ``by_full_block``, the sums per index of the partition's one block
    of size ``k``, as ``{index: value}`` where nonzero."""
    d = kernel.d
    blocks = p.blocks
    full = [len(b) for b in blocks].index(k) if by_full_block else None
    totals = {}
    for assign in itertools.product(range(1, kernel.n + 1), repeat=len(blocks)):
        value_of = {}
        for b, v in zip(blocks, assign):
            for x in b:
                value_of[x] = v
        term = Fraction(1)
        for u in range(k):
            term *= kernel.coeff(tuple(value_of[u * d + j + 1] for j in range(d)))
            if not term:
                break
        key = None if full is None else assign[full]
        totals[key] = totals.get(key, Fraction(0)) + term
    scale = kernel.scale2 ** (k // 2)
    if not by_full_block:
        return totals[None] * scale
    return {i: v * scale for i, v in sorted(totals.items()) if v}


def listed_types(d, sizes, k):
    """The interval-respecting class listed partition by partition and
    grouped by canonical incidence type: the reference for the counter.
    Each partition's block sizes are its type's popcounts."""
    agg = {}
    for p in enumerate_partitions(k * d, BlockProfile(sizes), respect=IntervalPattern(d, k)):
        key = incidence_type(p, k, d)
        assert p.block_sizes() == tuple(sorted(m.bit_count() for m in key)), p
        agg[key] = agg.get(key, 0) + 1
    return tuple(sorted(agg.items()))


@pytest.mark.parametrize("d,k", [(1, 4), (2, 4), (3, 4), (2, 2), (2, 3), (2, 6)])
def test_pairing_class_counts_match_enumeration(d, k):
    assert grouped_types(d, frozenset({2}), k, False) == listed_types(d, {2}, k)


CLASS_CASES = [
    ({2, 4}, 1, 4),
    ({2, 4}, 2, 4),
    ({2, 4}, 3, 4),
    ({2, 4}, 2, 5),
    ({2, 3, 4}, 1, 4),
    ({2, 3, 4}, 2, 3),
    ({2, 3, 4}, 3, 3),
    ({2, 3, 4}, 2, 4),
    ({2, 3, 4}, 3, 4),
]
CLASS_IDS = [f"{''.join(map(str, sorted(s)))}-{d}-{k}" for s, d, k in CLASS_CASES]


@pytest.mark.parametrize("sizes,d,k", CLASS_CASES, ids=CLASS_IDS)
def test_partition_class_counts_match_enumeration(sizes, d, k):
    assert grouped_types(d, frozenset(sizes), k, False) == listed_types(d, sizes, k)


def test_pairing_class_empty_for_odd_ground():
    assert grouped_types(1, frozenset({2}), 3, False) == ()


def test_exact_matches_naive_sum(rng):
    """On a random, a ``star`` and a float-mode kernel of degree 2 and a
    random one of degree 3, both exact exits of both backends equal the
    naive assignment sum partition by partition: ``exact`` on every
    partition, ``exact_marginal`` per index on those with one 4-block.  The
    default contractor runs dense where the kernel allows it, the other is
    forced sparse; a float-mode kernel of degree 3 runs sparse in both.  The
    sparse operand is built once per kernel and holds d! entries per support
    tuple."""
    k4 = 4
    raw = {t: rng.uniform(-1, 1) for t in itertools.combinations(range(1, 4), 2)}
    raw3 = {t: rng.uniform(-1, 1) for t in itertools.combinations(range(1, 5), 3)}
    kernels = [
        random_admissible_kernel(rng, 2, 3),
        family_kernel(KernelFamily("star", 2), 4),
        make_admissible(raw, 3, 2),
        random_admissible_kernel(rng, 3, 4),
        make_admissible(raw3, 4, 3),
    ]
    assert kernels[-1].mode == "float"
    for kernel in kernels:
        d = kernel.d
        default, sparse = KernelContractor(kernel), KernelContractor(kernel)
        pattern = IntervalPattern(d, 4)
        parts = enumerate_partitions(4 * d, BlockProfile({2, 4}), respect=pattern)
        marginals = 0
        for p in parts[:: len(parts) // 6]:  # a spread of shapes, crossing ones included
            types = [(incidence_type(p, k4, d), 1)]
            want = naive_partition_sum(kernel, p, k4)
            with tier_forced("sparse"):
                got = sparse.exact(types, k4)
            assert default.exact(types, k4) == want == got, (kernel, p)
            if p.block_sizes().count(4) == 1:
                marginals += 1
                want = naive_partition_sum(kernel, p, k4, by_full_block=True)
                with tier_forced("sparse"):
                    got = sparse.exact_marginal(types, k4)
                assert default.exact_marginal(types, k4) == want == got, (kernel, p)
        assert marginals
        assert set(sparse.backend_types) == {"sparse"}
        operand = kernel.derived(contract.sparse_operand)
        assert len(operand) == math.factorial(d) * kernel.support_size
        assert kernel._derived[contract.sparse_operand] is operand
    assert set(default.backend_types) == {"sparse"}  # the float-mode d = 3 kernel's, on the default contractor


def test_sparse_join_on_a_disconnected_type():
    """On the sparse tier, the type (3, 3, 12, 12) is two separate 2-copy
    contractions, so its value is the square of the type (3, 3) at k = 2; its
    plan's last step joins two operands with no blocks left.  A type with an
    open full block gives per-index integers adding up to its value.  Both
    equal the dense tier's."""
    kernel = random_admissible_kernel(random.Random(11), 2, 5)
    dense, sparse = KernelContractor(kernel), KernelContractor(kernel)
    *_, (_pops, *pickers) = contract._pairwise_plan((3, 3, 12, 12), 4, None)[2]
    assert all(pick((1, 2)) == () for pick in pickers)
    with tier_forced("sparse"):
        pair = sparse.type_value((3, 3), 2)
        disconnected = sparse.type_value((3, 3, 12, 12), 4)
    assert disconnected == pair**2 == dense.type_value((3, 3, 12, 12), 4)
    assert pair == dense.type_value((3, 3), 2) != 0
    kernel3 = random_admissible_kernel(random.Random(12), 3, 5)
    dense, sparse = KernelContractor(kernel3), KernelContractor(kernel3)
    with tier_forced("sparse"):
        marginal = sparse.type_marginal((3, 3, 12, 12, 15), 4)
        whole = sparse.type_value((3, 3, 12, 12, 15), 4)
    assert marginal == dense.type_marginal((3, 3, 12, 12, 15), 4)
    assert sum(marginal) == whole
    assert set(sparse.backend_types) == {"sparse"} and set(dense.backend_types) == {"float64"}


@pytest.mark.parametrize("tier", ["float64", "sparse"])
def test_type_with_a_lone_block_is_refused(tier):
    """In the type (1, 2, 3) at k = 2 each copy has a block of its own,
    which no pairwise step may sum, so it has no plan: the contractor names
    the type on a kernel the float64 tier would take and on one the fill
    rule sends to the sparse tier, and contracts nothing."""
    kernel = {
        "float64": random_admissible_kernel(random.Random(0), 2, 5),
        "sparse": family_kernel(KernelFamily("star", 2), 100),
    }[tier]
    assert dense_tier(kernel, 2, 3) == (None if tier == "sparse" else tier)
    contractor = KernelContractor(kernel)
    with pytest.raises(HomsumError, match=r"^type \(1, 2, 3\) has a block on one copy alone"):
        contractor.type_value((1, 2, 3), 2)
    assert not contractor.backend_types and not contractor._type_memo


def test_degree_four_product_kernel_wick_value():
    k = family_kernel(KernelFamily("product", 4), 4)
    assert gaussian_fourth_moment(k).value == 81
    k5 = family_kernel(KernelFamily("product", 5), 5)
    assert gaussian_fourth_moment(k5).value == 243


def test_degree_four_formula_matches_brute_expansion(rng):
    from test_classical import brute_fourth_moment

    kernel = random_admissible_kernel(rng, 4, 5)
    for m4 in (Fraction(1), Fraction(9, 2)):
        law = ClassicalLaw.from_fourth_moment(m4)
        assert classical_fourth_moment_formula(kernel, law).value == brute_fourth_moment(
            kernel, law
        )


def test_degree_four_free_formula_matches_oracle(rng):
    kernel = random_admissible_kernel(rng, 4, 5)
    for law in (FreeLaw.free_rademacher(), FreeLaw.from_fourth_moment(3)):
        assert (
            free_fourth_moment(kernel, law).value
            == free_fourth_moment_oracle(kernel, law).value
        )


DENSE_CLASSES = [({2}, False), ({2, 3, 4}, False), ({2}, True), ({2, 4}, True)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dense_contraction_equals_sparse(d):
    """Every type of the classical {2}, {2,3,4} and non-crossing {2}, {2,4}
    classes at k = 2, 3, 4 contracts on its dense tier to the sparse tier's
    integer."""
    kernel = random_admissible_kernel(random.Random(d), d, 6)
    checked = 0
    for (sizes, nc), k in itertools.product(DENSE_CLASSES, (2, 3, 4)):
        for tkey, _ in grouped_types(d, frozenset(sizes), k, nc):
            dense, sparse = KernelContractor(kernel), KernelContractor(kernel)
            value = dense.type_value(tkey, k)
            assert dense.backend_types == {dense_tier(kernel, k, len(tkey)): 1}
            with tier_forced("sparse"):
                assert value == sparse.type_value(tkey, k)
            checked += 1
    assert checked >= 10


def test_type_with_no_pairwise_path_runs_sparse(monkeypatch):
    """With DENSE_CAP at 216 = 6^3 the kernel's tensor still fits, but the
    plan of the type (3, 5, 6, 9, 10, 12) keeps four blocks in a step
    result, 6^4 entries, so the type runs on the sparse tier, to the
    integer the float64 plan gives under the default cap."""
    kernel = random_admissible_kernel(random.Random(0), 3, 6)
    tkey, k = (3, 5, 6, 9, 10, 12), 4
    dense = KernelContractor(kernel)
    want = dense.type_value(tkey, k)
    assert dense.backend_types == {"float64": 1}
    assert contract._pairwise_plan(tkey, k, None)[0] == 4
    monkeypatch.setattr(contract, "DENSE_CAP", 216)
    contractor = KernelContractor(kernel)
    assert dense_tier(kernel, k, len(tkey)) == "float64"
    assert contractor.type_value(tkey, k) == want == 1_196_430
    assert contractor.backend_types == {"sparse": 1}


# The cli-cold kernels' fourth moments under m4 = 9/2 (classical closed form
# and oracle) and free Rademacher entries (free closed form and oracle).
CLI_COLD_FOURTH_MOMENTS = {
    (3, 6): (Fraction(153161253, 3886472), Fraction(114973, 2057544)),
    (4, 7): (Fraction(137171649, 952576), Fraction(39830683, 11110846464)),
}


@pytest.mark.parametrize("d,n", list(CLI_COLD_FOURTH_MOMENTS))
def test_dense_plans_need_no_einsum_path(monkeypatch, d, n):
    """Planning never asks numpy: with ``np.einsum_path`` raising, both
    engines of both regimes still give their pinned values on the cli-cold
    kernels, and every type they contract runs dense."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum_path called")

    monkeypatch.setattr(np, "einsum_path", refuse)
    contract._pairwise_plan.cache_clear()
    try:
        kernel = random_admissible_kernel(random.Random(0), d, n)
        classical, free = CLI_COLD_FOURTH_MOMENTS[d, n]
        m4, free_rademacher = ClassicalLaw.from_fourth_moment(Fraction(9, 2)), FreeLaw.free_rademacher()
        assert classical_fourth_moment_formula(kernel, m4).value == classical
        assert classical_fourth_moment_oracle(kernel, m4).value == classical
        assert free_fourth_moment(kernel, free_rademacher).value == free
        assert free_fourth_moment_oracle(kernel, free_rademacher).value == free
        backends = KernelContractor.of(kernel).backend_types
        assert backends["float64"] > 0 and "sparse" not in backends
    finally:
        contract._pairwise_plan.cache_clear()


def numpy_greedy_cost(tkey, k, open_block, n):
    """The reference planner: ``np.einsum_path``'s greedy order under the
    ``DENSE_CAP`` memory limit, replayed step by step.  The cost is the sum,
    over steps, of batch * kept * summed * kept' entries, as in the compiled
    plan's matmul shapes; None where numpy has no pairwise path or a step
    would sum a letter of one operand alone."""
    letters = [[chr(ord("a") + b) for b in blocks] for blocks in contract._copy_blocks(tkey, k)]
    out = "" if open_block is None else chr(ord("a") + open_block)
    subscripts = ",".join(map("".join, letters)) + "->" + out
    shapes = [np.broadcast_to(np.int64(0), (n,) * len(t)) for t in letters]
    path, _ = np.einsum_path(subscripts, *shapes, optimize=("greedy", contract.DENSE_CAP))
    cost = 0
    for step in path[1:]:
        if len(step) != 2:
            return None
        a, b = (set(letters.pop(i)) for i in sorted(step, reverse=True))
        keep = set(out).union(*letters)
        if not keep.issuperset(a ^ b):
            return None
        cost += n ** len(a | b)
        letters.append(sorted((a | b) & keep))
    return cost


def plan_cost(matmuls, n):
    """Sum over a compiled plan's matmul steps of batch * kept * summed *
    kept' entries at index range ``n``."""
    return sum(n ** sum(counts) for *_, counts in matmuls)


def planner_cases():
    """(type, k, open block) over the classes the engines contract: the
    k = 4 classes {2}, {2,3,4} and non-crossing {2,4}, the free closed
    form's open-block types and the k = 2 and 3 non-crossing classes, each
    at d = 2..6; and the k = 3 non-crossing {1, 2} class at d = 2..4, whose
    singleton blocks no pairwise step may sum."""
    cases = set()
    for d in range(2, 7):
        for sizes, nc in [({2}, False), ({2, 3, 4}, False), ({2, 4}, True)]:
            cases.update((tkey, 4, None) for tkey, _ in grouped_types(d, frozenset(sizes), 4, nc))
        for s in range(d):
            tkey = contract.canonical_type((3,) * s + (12,) * s + (5,) * (d - 1 - s) + (10,) * (d - 1 - s) + (15,), 4)
            cases.add((tkey, 4, tkey.index(15)))
        cases.update((tkey, 2, None) for tkey, _ in grouped_types(d, frozenset({2}), 2, True))
        cases.update((tkey, 3, None) for tkey, _ in grouped_types(d, frozenset({2, 3}), 3, True))
    for d in range(2, 5):
        cases.update((tkey, 3, None) for tkey, _ in grouped_types(d, frozenset({1, 2}), 3, True))
    return sorted(cases, key=repr)


@pytest.mark.parametrize("n", [7, 48])
def test_plan_cost_matches_numpy_greedy(n):
    """On every type of the classes the engines contract, the plan is
    dense-runnable (its widest result within ``DENSE_CAP``) exactly where
    numpy's greedy planner finds a pairwise path under that cap, at no
    greater cost."""
    cases = planner_cases()
    assert len(cases) == 217
    for tkey, k, open_block in cases:
        plan = contract._pairwise_plan(tkey, k, open_block)
        dense = plan is not None and n ** plan[0] <= contract.DENSE_CAP
        want = numpy_greedy_cost(tkey, k, open_block, n)
        assert dense == (want is not None), (tkey, k, open_block)
        if dense:
            cost = plan_cost(plan[1], n)
            assert cost <= want, (tkey, k, open_block, cost, want)


CAP_ENGINES = {  # name -> (degree, moment order, engine)
    "closed form": (7, 4, lambda f: classical_fourth_moment_formula(f, ClassicalLaw.gaussian())),
    "semicircular order 5": (5, 5, lambda f: semicircular_moment(f, 5)),
    "free fourth oracle": (7, 4, lambda f: free_fourth_moment_oracle(f, FreeLaw.semicircle())),
    "free third oracle": (9, 3, lambda f: free_third_moment_oracle(f, FreeLaw.semicircle())),
}


@pytest.mark.parametrize("name", list(CAP_ENGINES))
def test_class_building_engines_refuse_beyond_the_cap(name):
    """An engine whose class lies beyond GROUND_CAP raises where the class is
    built, with the one cap message for its ground set."""
    d, order, engine = CAP_ENGINES[name]
    kernel = random_admissible_kernel(random.Random(d), d, d + 1)
    with pytest.raises(GroundCapExceeded) as err:
        engine(kernel)
    assert str(err.value) == f"ground set [{order * d}] exceeds the cap 24"


def uniform_kernel(n, d, value):
    return Kernel(n, d, {t: value for t in itertools.combinations(range(1, n + 1), d)})


def test_dense_contraction_at_the_int64_bound():
    """Two copies of a degree-2 kernel on n = 3 paired slot by slot: two
    blocks, so the bound is max|num|^2 * 3^2.  Just below 2^53 the type runs
    in float64, just above it in int64; just below 2^63 in int64, just above
    it, and far above (where int64 would wrap), by the sparse walk.  Every
    tier gives the exact n(n-1) v^2; the float64 case's value lies within a
    factor 2 of 2^53."""
    tkey, k = (3, 3), 2
    below53 = math.isqrt((2**53 - 1) // 9)
    below63 = math.isqrt((2**63 - 1) // 9)
    tiers = [
        (below53, "float64"),
        (below53 + 1, "int64"),
        (below63, "int64"),
        (below63 + 1, "sparse"),
        (2**40, "sparse"),
    ]
    for value, tier in tiers:
        kernel = uniform_kernel(3, 2, value)
        contractor = KernelContractor(kernel)
        assert contractor.type_value(tkey, k) == 6 * value**2
        assert contractor.backend_types == {tier: 1}
        assert dense_tier(kernel, k, len(tkey)) == (None if tier == "sparse" else tier)
    assert 6 * below53**2 > 2**52


def cli_cold_kernel(d, n):
    """A kernel of the benchmark's ``cli-cold`` workload: the exact entries of
    a seed-0 random kernel, its normalization dropped."""
    k = random_admissible_kernel(random.Random(0), d, n)
    return Kernel(k.n, k.d, k.entries)


def backends_used(kernel):
    """The backends that contracted the types of the kernel's Wick sum, its
    classical closed form, up to degree 4 its classical oracle, and from
    degree 2 its free closed form and contraction identity."""
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    gaussian_fourth_moment(kernel)
    classical_fourth_moment_formula(kernel, law)
    if kernel.d <= 4:
        classical_fourth_moment_oracle(kernel, law)
    if kernel.d >= 2:
        free_fourth_moment(kernel, FreeLaw.free_rademacher())
    return set(KernelContractor.of(kernel).backend_types)


def test_backend_dispatch():
    # every type of the kernels of both benchmark workloads contracts in
    # float64, through BLAS
    dense = [cli_cold_kernel(3, 6), cli_cold_kernel(4, 7), cli_cold_kernel(5, 7)]
    dense += [family_kernel(KernelFamily("off-diagonal-pair", 2), n) for n in (24, 48)]
    dense += [family_kernel(KernelFamily("free-clt", 3), n) for n in (4, 10)]
    for kernel in dense:
        assert backends_used(kernel) == {"float64"}, kernel
    # the d=3 cli-cold kernel's numerators times 2^8 (the largest 3,072):
    # every type's bound lies in 2^53..2^63, so every type runs in int64
    d3 = cli_cold_kernel(3, 6)
    big = Kernel._derive(d3.n, d3.d, 1, {t: v << 8 for t, v in d3.nums.items()}, 1, "exact")
    assert backends_used(big) == {"int64"}
    degree_one = slice_kernel(cli_cold_kernel(3, 6), (1, 2))
    assert degree_one.d == 1 and degree_one.entries
    rng = random.Random(5)
    raw = {t: rng.uniform(-1, 1) for t in itertools.combinations(range(1, 6), 2)}
    float_mode = make_admissible(raw, 5, 2)
    assert float_mode.mode == "float"
    sparse = [degree_one, family_kernel(KernelFamily("star", 3), 50), float_mode]
    for kernel in sparse:
        assert backends_used(kernel) == {"sparse"}, kernel


def test_type_marginal_is_equal_on_both_backends():
    """The open-block marginal is one integer per index, the same from the
    dense and the sparse backend, and adds up to the type's value."""
    kernel = random_admissible_kernel(random.Random(3), 3, 5)
    dense, sparse = KernelContractor(kernel), KernelContractor(kernel)
    for tkey in ((3, 3, 12, 12, 15), (3, 5, 10, 12, 15)):
        marginal = dense.type_marginal(tkey, 4)
        assert len(marginal) == kernel.n
        with tier_forced("sparse"):
            assert marginal == sparse.type_marginal(tkey, 4)
            whole = sparse.type_value(tkey, 4)
        assert sum(marginal) == dense.type_value(tkey, 4) == whole
    assert dense.backend_types == {"float64": 4}
    assert sparse.backend_types == {"sparse": 4}
    with pytest.raises(HomsumError):
        dense.type_marginal((3, 12, 15, 15), 4)


TIER_KERNELS = {
    "cli-cold-d3": lambda: cli_cold_kernel(3, 6),
    "cli-cold-d4": lambda: cli_cold_kernel(4, 7),
    "cli-cold-d5": lambda: cli_cold_kernel(5, 7),
    "pair-48": lambda: family_kernel(KernelFamily("off-diagonal-pair", 2), 48),
    "star-d3": lambda: family_kernel(KernelFamily("star", 3), 4),
    "free-clt-d3": lambda: family_kernel(KernelFamily("free-clt", 3), 4),
    "random-d3": lambda: random_admissible_kernel(random.Random(7), 3, 6),
    "random-d4": lambda: random_admissible_kernel(random.Random(8), 4, 6),
}


@pytest.mark.parametrize("name", list(TIER_KERNELS))
def test_tiers_agree_type_by_type(name):
    """Every type the engines contract on these kernels, summed whole
    (``type_value``) or with its open block (``type_marginal``), gives the
    same integers on the float64 tensor, on the int64 tensor and on the
    sparse tier; each of them ran in float64."""
    kernel = TIER_KERNELS[name]()
    assert backends_used(kernel) == {"float64"}
    memo = KernelContractor.of(kernel)._type_memo
    assert any(open_block is not None for _, _, open_block in memo)
    assert all(dense_tier(kernel, k, len(tkey)) == "float64" for k, tkey, _ in memo)
    for tier in ("float64", "int64", "sparse"):
        forced = KernelContractor(kernel)
        with tier_forced(tier):
            for (k, tkey, open_block), value in memo.items():
                assert forced._contract(tkey, k, open_block) == value, (tier, k, tkey, open_block)
        assert forced.backend_types == {tier: len(memo)}
    for tier, dtype in (("float64", np.float64), ("int64", np.int64)):
        assert kernel.derived(contract.TIER_TENSORS[tier]).dtype == dtype


def test_float64_equals_int64_on_large_blas_steps():
    """At n = 256 the steps are matrix products large enough for BLAS to
    block and thread them: every type of a random kernel's engines still
    gives the int64 integers in float64, its bounds being below 2^53."""
    kernel = random_admissible_kernel(random.Random(9), 2, 256)
    assert backends_used(kernel) == {"float64"}
    memo = KernelContractor.of(kernel)._type_memo
    for tier in ("int64", "float64"):
        forced = KernelContractor(kernel)
        with tier_forced(tier):
            for (k, tkey, open_block), value in memo.items():
                assert forced._contract(tkey, k, open_block) == value, (tier, k, tkey, open_block)
        assert forced.backend_types == {tier: len(memo)}


F = Fraction
ASSEMBLY_CUMULANTS = {  # k -> cumulant maps, zeros included
    3: [{2: F(1), 3: F(0)}, {2: F(1), 3: F(-1, 2)}, {2: F(0), 3: F(2)}],
    4: [
        {2: F(1)},
        {2: F(1), 4: F(3, 2)},
        {2: F(1), 4: F(0)},
        {2: F(1), 3: F(0), 4: F(-2)},
        {2: F(1), 3: F(1, 3), 4: F(0)},
        {2: F(-1), 3: F(2), 4: F(5, 7)},
    ],
}


def assembly_kernels(d):
    rng = random.Random(10 + d)
    raw = {t: rng.uniform(-1, 1) for t in itertools.combinations(range(1, d + 3), d)}
    return [
        random_admissible_kernel(rng, d, d + 2),
        family_kernel(KernelFamily("star", d), 3),
        make_admissible(raw, d + 2, d),
    ]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_profile_assembly_equals_per_type_reference(d):
    """Per-profile assembly equals the per-type loop exactly, total and
    breakdown, values and key order, on random, ``star`` and float-mode
    kernels, for both classes at k = 3 and 4 and cumulant maps with zeros."""
    from assembly_reference import weighted_sum_reference

    for kernel in assembly_kernels(d):
        contractor = KernelContractor(kernel)
        for (k, maps), nc in itertools.product(ASSEMBLY_CUMULANTS.items(), (False, True)):
            for cumulants in maps:
                want = weighted_sum_reference(contractor, k, cumulants, nc)
                got = weighted_sum(contractor, k, cumulants, nc)
                assert got[0] == want[0], (kernel, k, cumulants, nc)
                assert list(got[1].items()) == list(want[1].items()), (kernel, k, cumulants, nc)


def test_cumulant_weights_once_per_map_and_class(monkeypatch):
    """A cumulant map's profile weights are computed once per class, not per
    kernel or call, and a float map keeps apart from the equal exact map:
    each sum keeps its own number type."""
    calls = []
    real = contract.cumulant_weight
    monkeypatch.setattr(contract, "cumulant_weight", lambda c, sk: calls.append(sk) or real(c, sk))
    contract._profile_weights.cache_clear()
    rng = random.Random(4)
    kernels = [random_admissible_kernel(rng, 2, 5) for _ in range(3)]
    exact, floats = {2: F(1), 4: F(3, 2)}, {2: 1.0, 4: 1.5}
    profiles = list(contract._profile_types(2, frozenset(exact), 4, True))
    for kernel in kernels:
        contractor = KernelContractor(kernel)
        total, by_sizes = weighted_sum(contractor, 4, exact, True)
        float_total, float_by_sizes = weighted_sum(contractor, 4, floats, True)
        assert type(total) is Fraction and type(float_total) is float
        assert float_total == pytest.approx(float(total), rel=1e-12)
        for sk, value in float_by_sizes.items():
            assert value == real(floats, sk) * contractor.profile_sum(4, frozenset(floats), True, sk)
    assert calls == profiles * 2


def three_copy_types(kernel):
    """Contracted types with a block shared by exactly three copies."""
    memo = KernelContractor.of(kernel)._type_memo
    return [tkey for _, tkey, _ in memo if any(m.bit_count() == 3 for m in tkey)]


@pytest.mark.parametrize("d", [3, 4])
def test_zero_weight_profiles_contract_nothing(d):
    """Under a law with chi3 = 0 the oracle contracts no type with a 3-block,
    although its class has such types."""
    types = grouped_types(d, frozenset({2, 3, 4}), 4, False)
    assert any(m.bit_count() == 3 for tkey, _ in types for m in tkey)
    kernel = random_admissible_kernel(random.Random(0), d, 7)
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    assert law.chi(3) == 0
    classical_fourth_moment_oracle(kernel, law)
    assert KernelContractor.of(kernel)._type_memo
    assert three_copy_types(kernel) == []


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_third_moment_contracts_no_zero_weight_type(d):
    """The free third-moment oracle contracts no 3-block type: at even d its
    class has none, at odd d only kappa3 weighs them, and it is 0 here."""
    kernel = random_admissible_kernel(random.Random(0), d, 5)
    law = FreeLaw.free_rademacher()
    assert law.kappa(3) == 0
    free_third_moment_oracle(kernel, law)
    assert three_copy_types(kernel) == []
    if d % 2:
        types = grouped_types(d, frozenset({2, 3}), 3, True)
        assert any(m.bit_count() == 3 for tkey, _ in types for m in tkey)
