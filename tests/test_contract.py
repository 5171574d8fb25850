"""The contraction engine: incidence-type grouping, the combinatorial
partition-class counts against explicit listing, and per-partition assignment
sums against a naive reference."""

import itertools
from fractions import Fraction

import pytest

from homsums import (
    BlockProfile,
    ClassicalLaw,
    FreeLaw,
    IntervalPattern,
    KernelFamily,
    classical_fourth_moment_formula,
    enumerate_partitions,
    family_kernel,
    free_fourth_moment,
    free_fourth_moment_oracle,
    gaussian_fourth_moment,
    random_admissible_kernel,
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
    k4 = 4
    kernel = random_admissible_kernel(rng, 2, 3)
    contractor = KernelContractor.of(kernel)
    pattern = IntervalPattern(2, 4)
    parts = enumerate_partitions(8, BlockProfile({2, 4}), respect=pattern)
    for p in parts[::17]:  # a spread of shapes, crossing ones included
        assert contractor.partition_value(p, k4) == naive_partition_sum(kernel, p, k4)


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
