"""Classical fourth-moment engines: Wick sum, closed form, partition oracle,
and the mixture separation identity.

The reference values here are either forced by independence (products of
one-dimensional moments) or recomputed by the brute-force expansions at the
bottom of this file, which share no code with the engines.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from conftest import pair_family_fourth_cumulant
from slicing_reference import classical_slice_sums_by_slicing, reference_kernels
from homsums import classical
from homsums import (
    AssumptionViolation,
    ClassicalLaw,
    GroundCapExceeded,
    Kernel,
    KernelFamily,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    classical_second_moment,
    family_kernel,
    gaussian_fourth_moment,
    mixture_identity_check,
    mixture_t_moment,
    random_admissible_kernel,
    rescaled_kernel,
)
from homsums.contract import KernelContractor, partition_class_size


def brute_fourth_moment(kernel, law):
    """E[Q^4] expanded over 4-tuples of support monomials, using nothing but
    independence and the law's one-dimensional moments."""
    ts = list(kernel.entries)
    total = Fraction(0)
    for combo in itertools.product(ts, repeat=4):
        coeff = Fraction(1)
        counts = {}
        for t in combo:
            coeff *= kernel.entries[t] * factorial(kernel.d)
            for i in t:
                counts[i] = counts.get(i, 0) + 1
        term = coeff
        for i, e in counts.items():
            term *= law.moment(e)
        total += term
    return total * kernel.scale2**2


def pair_kernel():
    return family_kernel(KernelFamily("product", 2), 2)


# -- Gaussian Wick sums ----------------------------------------------------------


@pytest.mark.parametrize("d,expected", [(2, 9), (3, 27)])
def test_gaussian_fourth_moment_of_product_kernel(d, expected):
    k = family_kernel(KernelFamily("product", d), d)
    assert gaussian_fourth_moment(k).value == expected  # E[N^4]^d


def test_gaussian_fourth_moment_star_kernel():
    k = family_kernel(KernelFamily("star", 2), 3)
    assert gaussian_fourth_moment(k).value == 9


def test_gaussian_fourth_moment_uniform_pair_golden():
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), 10)
    assert gaussian_fourth_moment(k).value == Fraction(191, 15)
    assert pair_family_fourth_cumulant(10, 3) + 3 == Fraction(191, 15)


@pytest.mark.parametrize("m4", [Fraction(3), Fraction(9, 2)])
def test_pair_family_closed_form_matches_brute_expansion(m4):
    """The closed form criterion 9a pins the engines to is itself right: it
    equals the independence expansion, which shares no code with them."""
    law = ClassicalLaw.from_fourth_moment(m4)
    for n in (4, 5, 6):
        k = family_kernel(KernelFamily("off-diagonal-pair", 2), n)
        assert pair_family_fourth_cumulant(n, m4) + 3 == brute_fourth_moment(k, law)


@pytest.mark.parametrize("n", [128, 512])
def test_pair_family_closed_form_pinned_at_large_n(n):
    """The engine's closed form equals the pair family's exact fourth
    cumulant (plus 3) well beyond criterion 9a's n = 64."""
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), n)
    for m4 in (Fraction(3), Fraction(9, 2)):
        law = ClassicalLaw.from_fourth_moment(m4)
        value = classical_fourth_moment_formula(k, law).value
        assert value == pair_family_fourth_cumulant(n, m4) + 3


def test_gaussian_fourth_moment_matches_brute_expansion(rng):
    law = ClassicalLaw.gaussian()
    for d, n in ((2, 4), (3, 4)):
        k = random_admissible_kernel(rng, d, n)
        assert gaussian_fourth_moment(k).value == brute_fourth_moment(k, law)


def test_gaussian_fourth_moment_scale_covariance(rng):
    k = random_admissible_kernel(rng, 2, 4)
    c = Fraction(3, 2)
    assert gaussian_fourth_moment(k.scaled(c)).value == c**4 * gaussian_fourth_moment(k).value


def test_gaussian_fourth_moment_cap():
    with pytest.raises(GroundCapExceeded):
        gaussian_fourth_moment(Kernel(7, 7, {tuple(range(1, 8)): Fraction(1)}))


# -- the closed form ---------------------------------------------------------------


def test_formula_reduces_to_wick_when_chi4_vanishes(rng):
    law = ClassicalLaw.gaussian()
    for _ in range(5):
        k = random_admissible_kernel(rng, 2, 5)
        assert classical_fourth_moment_formula(k, law).value == gaussian_fourth_moment(k).value


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [3, 5, 9])
@pytest.mark.parametrize("m4", [Fraction(3), Fraction(9, 2)])
def test_formula_star_identity(d, n, m4):
    k = family_kernel(KernelFamily("star", d), n)
    law = ClassicalLaw.from_fourth_moment(m4)
    assert classical_fourth_moment_formula(k, law).value == m4 * (
        3 + (m4 ** (d - 1) - 3) / (n - 1)
    )


@pytest.mark.parametrize("d", [2, 3])
def test_formula_product_kernel_zero_point(d):
    # at E[X^4] = 3^(1/d) the product kernel's fourth cumulant vanishes
    k = family_kernel(KernelFamily("product", d), d)
    law = ClassicalLaw.from_fourth_moment(3.0 ** (1.0 / d))
    value = classical_fourth_moment_formula(k, law).value
    assert abs(value - 3) <= 1e-12


def test_formula_matches_brute_expansion_for_general_m4(rng):
    for m4 in (Fraction(1), Fraction(2), Fraction(9, 2)):
        law = ClassicalLaw.from_fourth_moment(m4)
        for d, n in ((2, 4), (3, 4)):
            k = random_admissible_kernel(rng, d, n)
            assert classical_fourth_moment_formula(k, law).value == brute_fourth_moment(k, law)


def test_formula_rejects_assumption_violations():
    k = pair_kernel()
    with pytest.raises(AssumptionViolation, match="m3"):
        classical_fourth_moment_formula(k, ClassicalLaw((0, 1, 1, 3)))
    with pytest.raises(AssumptionViolation, match="m2"):
        classical_fourth_moment_formula(k, ClassicalLaw((0, 2, 0, 3)))


def test_formula_detail_terms_sum_to_value(rng):
    k = random_admissible_kernel(rng, 3, 4)
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    rep = classical_fourth_moment_formula(k, law)
    terms = [rep.detail[f"m={m}"] for m in range(0, 4)]
    assert sum(terms) == rep.value


# -- the partition oracle -----------------------------------------------------------


def test_oracle_rademacher_product_pair():
    assert classical_fourth_moment_oracle(pair_kernel(), ClassicalLaw.rademacher()).value == 1


def test_oracle_equals_formula_on_random_kernels(rng):
    for d, n in ((2, 4), (3, 3)):
        for _ in range(10):
            k = random_admissible_kernel(rng, d, n)
            for m4 in (Fraction(1), Fraction(3), Fraction(9, 2)):
                law = ClassicalLaw.from_fourth_moment(m4)
                assert (
                    classical_fourth_moment_oracle(k, law).value
                    == classical_fourth_moment_formula(k, law).value
                )


def test_oracle_equals_formula_on_degree_four_kernels(rng):
    for n in (5, 6, 7):
        k = random_admissible_kernel(rng, 4, n)
        for m4 in (Fraction(1), Fraction(3), Fraction(9, 2)):
            law = ClassicalLaw.from_fourth_moment(m4)
            assert (
                classical_fourth_moment_oracle(k, law).value
                == classical_fourth_moment_formula(k, law).value
            )


def test_oracle_class_size_at_degree_four():
    assert partition_class_size(4, frozenset({2, 3, 4}), 4, False) == 18_366_912


def test_closed_form_builds_no_kernel_and_reuses_its_types(rng, built_kernels):
    # the slice sums are contractions of the parent kernel and
    # law-independent: a second law contracts no new type
    kernel = random_admissible_kernel(rng, 3, 5)
    built_kernels.clear()
    first = classical_fourth_moment_formula(kernel, ClassicalLaw.rademacher()).value
    memo = dict(KernelContractor.of(kernel)._type_memo)
    second = classical_fourth_moment_formula(kernel, ClassicalLaw.from_fourth_moment(9)).value
    assert built_kernels == []
    assert KernelContractor.of(kernel)._type_memo == memo
    assert first != second


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_slice_sums_equal_slice_by_slice_reference(d):
    """Every slice order's parent-kernel type sum equals the Wick sums of the
    slice kernels themselves, on dense, sparse and float-mode kernels."""
    for kernel in reference_kernels(d).values():
        assert classical._slice_fourth_sums(kernel) == classical_slice_sums_by_slicing(kernel)


def test_oracle_handles_third_cumulants_where_formula_cannot():
    # uniform pair kernel on three indices carries a triangle, so blocks of
    # size 3 contribute; frozen values re-derived by brute expansion
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), 3)
    law = ClassicalLaw((0, 1, 1, 3))
    oracle = classical_fourth_moment_oracle(k, law).value
    blind = classical_fourth_moment_formula(k, law, check_assumptions=False).value
    assert oracle == brute_fourth_moment(k, law) == 13
    assert blind == 9
    assert oracle != blind
    half = ClassicalLaw((0, 1, Fraction(1, 2), 3))
    assert classical_fourth_moment_oracle(k, half).value == brute_fourth_moment(k, half) == 10


def test_oracle_detail_partitions_by_block_sizes():
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), 3)
    rep = classical_fourth_moment_oracle(k, ClassicalLaw((0, 1, 1, 3)))
    assert rep.detail["by_block_sizes"]["2 +3 +3"] == 4
    assert sum(rep.detail["by_block_sizes"].values()) == rep.value


def test_oracle_requires_centered_law():
    with pytest.raises(AssumptionViolation):
        classical_fourth_moment_oracle(pair_kernel(), ClassicalLaw((1, 1, 0, 3)))


def test_oracle_degree_cap():
    k = Kernel(5, 5, {tuple(range(1, 6)): Fraction(1)})
    with pytest.raises(GroundCapExceeded):
        classical_fourth_moment_oracle(k, ClassicalLaw.gaussian())


def test_relabeling_invariance(rng):
    k = random_admissible_kernel(rng, 2, 5)
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    perm = {1: 4, 2: 1, 3: 5, 4: 2, 5: 3}
    base = classical_fourth_moment_formula(k, law).value
    assert classical_fourth_moment_formula(k.relabel(perm), law).value == base


def test_second_moment_is_one_for_admissible(rng):
    assert classical_second_moment(random_admissible_kernel(rng, 2, 5)) == 1
    assert classical_second_moment(random_admissible_kernel(rng, 3, 5)) == 1


# -- positivity and monotonicity (sampled; the full populations run in the
#    acceptance suite) ---------------------------------------------------------


def test_gaussian_fourth_cumulant_nonnegative(rng):
    for d in (2, 3):
        for _ in range(25):
            k = random_admissible_kernel(rng, d, 5)
            assert gaussian_fourth_moment(k).value >= 3


def test_monotone_in_entry_fourth_cumulant(rng):
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    for _ in range(25):
        k = random_admissible_kernel(rng, 2, 5)
        assert classical_fourth_moment_formula(k, law).value >= gaussian_fourth_moment(k).value


# -- mixture separation identity ----------------------------------------------------


def test_mixture_identity_trivial_weights(rng):
    k = random_admissible_kernel(rng, 2, 3)
    law = ClassicalLaw.from_fourth_moment(Fraction(2))
    res = mixture_identity_check(k, law, [1, 1, 1])
    assert res["equal"] and res["oracle_agrees"]
    assert res["second_moment"] == 1
    # with unit weights both sides reduce to the fourth cumulant of the sum
    assert res["lhs"] == classical_fourth_moment_formula(k, law).value - 3


def test_mixture_identity_random_weights(rng):
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    for _ in range(10):
        k = random_admissible_kernel(rng, 2, 3)
        t = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        res = mixture_identity_check(k, law, t)
        assert res["equal"] and res["oracle_agrees"]


def test_mixture_identity_huge_weight(rng):
    k = random_admissible_kernel(rng, 2, 3)
    law = ClassicalLaw.from_fourth_moment(Fraction(2))
    res = mixture_identity_check(k, law, [Fraction(10**6), 1, Fraction(1, 10**6)])
    assert res["equal"] and res["oracle_agrees"]


def test_mixture_identity_validation(rng):
    k = random_admissible_kernel(rng, 2, 3)
    law = ClassicalLaw.gaussian()
    with pytest.raises(AssumptionViolation):
        mixture_identity_check(k, law, [1, -1, 1])
    with pytest.raises(AssumptionViolation):
        mixture_identity_check(k, law, [1, 1])


@pytest.mark.parametrize("d,n,q", [(2, 4, 1), (3, 4, 2), (3, 5, 1)])
def test_mixture_route_equals_closed_form(d, n, q):
    """The paper's mixture X = T*Y (Y Gaussian, T = sqrt(V_1...V_q), each V
    two-point on {1 - alpha, 1 + alpha}) computed two ways: the closed form
    under m4 = 3 E[T^4], and the probability-weighted Wick sums of the
    reweighted kernel over every weight configuration.  The second route
    uses only the pairing class, not the slice sums or the closed form's
    coefficients.  At alpha = 24/25 the factors sqrt(V) are 1/5 and 7/5, so
    every weight is rational and both routes are exact."""
    alpha = Fraction(24, 25)
    # T = (1/5)^j (7/5)^(q-j) when j of the q factors are 1 - alpha
    weights = [
        (Fraction(1, 5) ** j * Fraction(7, 5) ** (q - j), Fraction(comb(q, j), 2**q)) for j in range(q + 1)
    ]
    kernel = random_admissible_kernel(random.Random(d * 100 + n * 10 + q), d, n)
    mixed = Fraction(0)
    for config in itertools.product(weights, repeat=n):
        resc = rescaled_kernel(kernel, [t for t, _ in config])
        a, b = gaussian_fourth_moment(resc).value, classical_second_moment(resc)
        assert a - 3 * b * b >= 0
        mixed += prod(p for _, p in config) * a
    law = ClassicalLaw.from_fourth_moment(3 * mixture_t_moment(q, alpha, 4))
    assert mixed == classical_fourth_moment_formula(kernel, law).value


def test_rescaled_kernel_matches_entrywise_product():
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), 3)
    t = [Fraction(2), Fraction(3), Fraction(5)]
    r = rescaled_kernel(k, t)
    assert r.coeff((1, 2)) == k.coeff((1, 2)) * 6
    assert r.coeff((2, 3)) == k.coeff((2, 3)) * 15
    assert r.scale2 == k.scale2
