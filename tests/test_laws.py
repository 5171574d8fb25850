"""Moment/cumulant transforms over the two partition lattices."""

from fractions import Fraction

import pytest

from homsums import (
    AssumptionViolation,
    BlockProfile,
    ClassicalLaw,
    FreeLaw,
    HomsumError,
    MissingCumulant,
    catalan_number,
    cumulants_to_moments_classical,
    enumerate_partitions,
    free_cumulants_to_moments,
    moments_to_cumulants_classical,
    moments_to_free_cumulants,
)

GAUSSIAN_MOMENTS = (0, 1, 0, 3, 0, 15, 0, 105)
SEMICIRCLE_MOMENTS = (0, 1, 0, 2, 0, 5, 0, 14)


def test_gaussian_cumulants_vanish_above_two():
    assert moments_to_cumulants_classical(GAUSSIAN_MOMENTS) == (0, 1, 0, 0, 0, 0, 0, 0)


def test_classical_fourth_cumulant_is_m4_minus_3():
    for t in (Fraction(1), Fraction(2), Fraction(9, 2)):
        chis = moments_to_cumulants_classical((0, 1, 0, t))
        assert chis[3] == t - 3


def test_rademacher_fourth_cumulant():
    assert moments_to_cumulants_classical((0, 1, 0, 1))[3] == -2
    assert ClassicalLaw.rademacher().chi(4) == -2


def test_semicircle_free_cumulants_vanish_above_two():
    assert moments_to_free_cumulants(SEMICIRCLE_MOMENTS) == (0, 1, 0, 0, 0, 0, 0, 0)
    assert FreeLaw.semicircle().moments == SEMICIRCLE_MOMENTS


def test_free_fourth_cumulant_is_m4_minus_2():
    for t in (Fraction(1), Fraction(5, 2), Fraction(3)):
        kappas = moments_to_free_cumulants((0, 1, 0, t))
        assert kappas[3] == t - 2
    assert FreeLaw.free_rademacher().kappa(4) == -1


def test_round_trips_to_order_8(rng):
    for _ in range(10):
        cums = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8))
        assert moments_to_cumulants_classical(cumulants_to_moments_classical(cums)) == cums
        assert moments_to_free_cumulants(free_cumulants_to_moments(cums)) == cums


def lattice_moments(cumulants, order, noncrossing):
    """``m_order`` as the sum over the partition lattice of ``[order]`` (all
    partitions, or the non-crossing ones) of the blockwise cumulants."""
    total = Fraction(0)
    lattice = enumerate_partitions(order, BlockProfile(range(1, order + 1)), noncrossing=noncrossing)
    for p in lattice:
        term = Fraction(1)
        for b in p.blocks:
            term *= cumulants[len(b) - 1]
        total += term
    return total


@pytest.mark.parametrize("noncrossing", [False, True], ids=["classical", "free"])
def test_recursions_match_lattice_sums(rng, noncrossing):
    to_cumulants, to_moments = (
        (moments_to_free_cumulants, free_cumulants_to_moments)
        if noncrossing
        else (moments_to_cumulants_classical, cumulants_to_moments_classical)
    )
    for _ in range(5):
        cums = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8))
        moms = tuple(lattice_moments(cums, k, noncrossing) for k in range(1, 9))
        for K in range(1, 9):
            assert to_moments(cums[:K]) == moms[:K]
            assert to_cumulants(moms[:K]) == cums[:K]


def test_catalan_table_matches_enumeration():
    for k in range(1, 7):
        nc2 = enumerate_partitions(2 * k, BlockProfile({2}), noncrossing=True)
        assert len(nc2) == catalan_number(k)
    assert tuple(catalan_number(k) for k in range(9)) == (1, 1, 2, 5, 14, 42, 132, 429, 1430)
    semicircle = FreeLaw.semicircle()
    for k in range(1, 9):
        assert semicircle.moment(k) == (catalan_number(k // 2) if k % 2 == 0 else 0)
    assert semicircle.moment(4) == 2
    assert semicircle.moment(5) == 0


def test_law_validation():
    with pytest.raises(HomsumError):
        ClassicalLaw((0, 1, 0))  # needs order 4
    law = ClassicalLaw((0, 1, 0, 3))
    with pytest.raises(MissingCumulant):
        law.chi(6)
    with pytest.raises(MissingCumulant):
        law.moment(5)


def test_assumption_checks():
    """``require(what, upto)`` looks at ``m_1..m_upto`` alone and names each
    of them that is off: a law off only in ``m_j`` passes below ``upto = j``
    and fails from ``j`` on.  The standard laws pass."""
    off = {1: "m1 = 1 (need 0)", 2: "m2 = 2 (need 1)", 3: "m3 = 1/2 (need 0)"}
    for law_type in (ClassicalLaw, FreeLaw):
        for j, moments in ((1, (1, 1, 0, 3)), (2, (0, 2, 0, 3)), (3, (0, 1, Fraction(1, 2), 3))):
            law = law_type(moments)
            for upto in range(1, j):
                law.require("engine", upto)
            for upto in range(j, 4):
                with pytest.raises(AssumptionViolation, match=r"^engine needs .*; violated: ") as err:
                    law.require("engine", upto)
                assert str(err.value).endswith("violated: " + off[j])
        with pytest.raises(AssumptionViolation) as err:
            law_type((1, 2, Fraction(1, 2), 3)).require("engine", 3)
        assert str(err.value).endswith("violated: " + "; ".join(off.values()))
    for law in (ClassicalLaw.gaussian(), ClassicalLaw.rademacher(), FreeLaw.semicircle(), FreeLaw.free_rademacher()):
        law.require("engine", 3)
        law.require("engine", 2)


def test_float_moments_flow_through():
    m4 = 3.0 ** (1 / 2)
    law = ClassicalLaw.from_fourth_moment(m4)
    assert law.chi(4) == pytest.approx(m4 - 3)


def power_coefficient_reference(moments, s, j):
    """``[z^j] M(z)^s`` rebuilt from scratch for every ``(s, j)``: the
    recursion before its powers were memoized."""
    power = [Fraction(1)] + [Fraction(0)] * j
    for _ in range(s):
        power = [sum((power[i] * moments[t - i] for i in range(t + 1)), Fraction(0)) for t in range(j + 1)]
    return power[j]


def free_transform_reference(seq, to_cumulants):
    moms, cums = [Fraction(1)], []
    for n in range(1, len(seq) + 1):
        rest = Fraction(0)
        for s in range(1, n):
            rest += cums[s - 1] * power_coefficient_reference(moms, s, n - s)
        if to_cumulants:
            moms.append(seq[n - 1])
            cums.append(seq[n - 1] - rest)
        else:
            cums.append(seq[n - 1])
            moms.append(rest + seq[n - 1])
    return tuple(cums) if to_cumulants else tuple(moms[1:])


@pytest.mark.parametrize("to_cumulants", [True, False])
def test_free_transform_equals_unmemoized_recursion_bit_for_bit(rng, to_cumulants):
    """The memoized powers of M(z) give the same cumulants (or moments) as
    the recursion that rebuilt every power, value and type, bit for bit on
    float sequences, signed zeros included, and exactly on Fractions."""
    transform = moments_to_free_cumulants if to_cumulants else free_cumulants_to_moments
    sequences = [
        (0.0, 1.0, 0.3, 2.7, -0.1, 9.2, 1e-3, 41.5),
        (-0.0, 1.0, -0.0, 3.0 ** 0.5, 0.0, -2.25),
        (0, 1, Fraction(1, 3), 3.0 ** (1 / 3), Fraction(-5, 2), 7.5, 0, 2),
    ]
    sequences += [tuple(rng.uniform(-5, 5) for _ in range(8)) for _ in range(20)]
    sequences += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)) for _ in range(5)]
    for seq in sequences:
        got = transform(seq)
        want = free_transform_reference(seq, to_cumulants)
        assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want], seq


def test_transform_keeps_signed_zeros():
    """``-0.0 == 0.0``, but each of two sequences that differ only in the
    sign of a zero keeps its own signed zeros, in either call order."""
    for first, second in (((0.0, -0.0, 0.0), (0.0, 0.0, -0.0)), ((0.0, 0.0, -0.0), (0.0, -0.0, 0.0))):
        for seq in (first, second):
            assert repr(moments_to_free_cumulants(seq)) == repr(seq)


def test_transform_length_cap():
    with pytest.raises(HomsumError):
        moments_to_cumulants_classical((0,) * 9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_terms_are_rejected(bad):
    for make in (ClassicalLaw.from_fourth_moment, FreeLaw.from_fourth_moment):
        with pytest.raises(HomsumError, match="finite"):
            make(bad)
    with pytest.raises(HomsumError, match="finite"):
        moments_to_free_cumulants((0.0, 1.0, bad))
