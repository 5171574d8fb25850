"""The contraction engine: incidence-type grouping, the combinatorial
partition-class counts against explicit listing, per-partition assignment
sums against a naive reference, and the dense backend against the sparse
walk."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from homsums import (
    BlockProfile,
    ClassicalLaw,
    FreeLaw,
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
    gaussian_fourth_moment,
    make_admissible,
    random_admissible_kernel,
    slice_kernel,
)
from homsums.contract import KernelContractor, grouped_types, incidence_type


def naive_partition_sum(kernel, p, k):
    """Assignment sum over a partition of [k*d], one nested loop at a time."""
    d = kernel.d
    blocks = p.blocks
    total = Fraction(0)
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
        total += term
    return total * kernel.scale2 ** (k // 2)


def listed_types(d, sizes, k):
    """The interval-respecting class listed partition by partition and
    grouped by canonical incidence type: the reference for the counter."""
    agg = {}
    for p in enumerate_partitions(k * d, BlockProfile(sizes), respect=IntervalPattern(d, k)):
        key = (incidence_type(p, k, d), p.block_sizes())
        agg[key] = agg.get(key, 0) + 1
    return tuple((tk, sk, c) for (tk, sk), c in sorted(agg.items()))


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


def test_partition_value_matches_naive_sum(rng):
    """On a random, a ``star`` and a float-mode kernel of degree 2 and a
    random one of degree 3, both backends equal the naive assignment sum
    partition by partition: the default contractor (dense where the kernel
    allows it) and one whose dense backend is off.  The sparse walk builds
    at most d + 1 pattern indexes, one per live-block count."""
    k4 = 4
    raw = {t: rng.uniform(-1, 1) for t in itertools.combinations(range(1, 4), 2)}
    kernels = [
        random_admissible_kernel(rng, 2, 3),
        family_kernel(KernelFamily("star", 2), 4),
        make_admissible(raw, 3, 2),
        random_admissible_kernel(rng, 3, 4),
    ]
    for kernel in kernels:
        d = kernel.d
        default, sparse = KernelContractor(kernel), KernelContractor(kernel)
        sparse._contract_dense = lambda *args: None
        pattern = IntervalPattern(d, 4)
        parts = enumerate_partitions(4 * d, BlockProfile({2, 4}), respect=pattern)
        for p in parts[:: len(parts) // 6]:  # a spread of shapes, crossing ones included
            want = naive_partition_sum(kernel, p, k4)
            assert default.partition_value(p, k4) == want, (kernel, p)
            assert sparse.partition_value(p, k4) == want, (kernel, p)
        assert set(sparse.backend_types) == {"sparse"}
        assert 0 < len(sparse._patterns) <= d + 1


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
    classes at k = 2, 3, 4 contracts densely to the sparse walk's integer."""
    kernel = random_admissible_kernel(random.Random(d), d, 6)
    contractor = KernelContractor(kernel)
    checked = 0
    for (sizes, nc), k in itertools.product(DENSE_CLASSES, (2, 3, 4)):
        for tkey, _, _ in grouped_types(d, frozenset(sizes), k, nc):
            dense = contractor._contract_dense(tkey, k)
            assert dense is not None
            assert dense == contractor._contract_sparse(tkey, k)
            checked += 1
    assert checked >= 10


def uniform_kernel(n, d, value):
    return Kernel(n, d, {t: value for t in itertools.combinations(range(1, n + 1), d)})


def test_dense_contraction_at_the_int64_bound():
    """Two copies of a degree-2 kernel on n = 3 paired slot by slot: two
    blocks, so dense runs iff max|num|^2 * 3^2 < 2^63.  Just below it runs
    dense; just above, and far above (where int64 would wrap), it falls
    back to the sparse walk, and both give the exact n(n-1) v^2."""
    tkey, k = (3, 3), 2
    top = math.isqrt((2**63 - 1) // 9)
    for value, backend in ((top, "dense"), (top + 1, "sparse"), (2**40, "sparse")):
        contractor = KernelContractor(uniform_kernel(3, 2, value))
        assert contractor.type_value(tkey, k) == 6 * value**2
        assert contractor.backend_types == {backend: 1}


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
    # the kernels of both benchmark workloads contract densely
    dense = [cli_cold_kernel(3, 6), cli_cold_kernel(4, 7), cli_cold_kernel(5, 7)]
    dense += [family_kernel(KernelFamily("off-diagonal-pair", 2), n) for n in (24, 48)]
    dense += [family_kernel(KernelFamily("free-clt", 3), n) for n in (4, 10)]
    for kernel in dense:
        assert backends_used(kernel) == {"dense"}, kernel
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
    sparse._contract_dense = lambda *args: None
    for tkey in ((3, 3, 12, 12, 15), (3, 5, 10, 12, 15)):
        marginal = dense.type_marginal(tkey, 4)
        assert len(marginal) == kernel.n
        assert marginal == sparse.type_marginal(tkey, 4)
        assert sum(marginal) == dense.type_value(tkey, 4) == sparse.type_value(tkey, 4)
    assert dense.backend_types == {"dense": 4}
    assert sparse.backend_types == {"sparse": 4}
    with pytest.raises(HomsumError):
        dense.type_marginal((3, 12, 15, 15), 4)
