"""Partition engine: counts, predicates, canonical order, rho structure."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homsums import (
    BlockProfile,
    ClassicalLaw,
    FreeLaw,
    GroundCapExceeded,
    HomsumError,
    IntervalPattern,
    Partition,
    enumerate_partitions,
    is_noncrossing,
    respects,
    rho_partitions,
)
from homsums.partitions import joint_cumulant_value

PAIRS = BlockProfile({2})


def brute_pairings(elems):
    elems = list(elems)
    if not elems:
        yield []
        return
    a = elems[0]
    for i in range(1, len(elems)):
        rest = elems[1:i] + elems[i + 1 :]
        for tail in brute_pairings(rest):
            yield [(a, elems[i])] + tail


def brute_noncrossing(blocks, m):
    """The quadruple definition, verbatim."""
    owner = {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
    for i, j, k, l in itertools.combinations(range(1, m + 1), 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[j] != owner[k]:
            return False
    return True


def all_partitions_brute(m):
    """Every partition of [m], by recursive placement."""
    if m == 0:
        yield []
        return
    for rest in all_partitions_brute(m - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [m]] + rest[i + 1 :]
        yield rest + [[m]]


def double_factorial(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def test_pairing_counts_are_double_factorials():
    for m in range(2, 11):
        got = len(enumerate_partitions(m, PAIRS))
        assert got == (double_factorial(m - 1) if m % 2 == 0 else 0)


def test_noncrossing_pairing_counts_are_catalan():
    for m in range(2, 13, 2):
        k = m // 2
        got = len(enumerate_partitions(m, PAIRS, noncrossing=True))
        assert got == comb(2 * k, k) // (k + 1)


def test_noncrossing_pairings_of_4():
    got = enumerate_partitions(4, PAIRS, noncrossing=True)
    assert [p.blocks for p in got] == [((1, 2), (3, 4)), ((1, 4), (2, 3))]


def test_respecting_pairings_of_8_match_brute_force():
    pattern = IntervalPattern(2, 4)
    engine = enumerate_partitions(8, PAIRS, respect=pattern)
    brute = [
        Partition(8, bs)
        for bs in brute_pairings(range(1, 9))
        if all((a - 1) // 2 != (b - 1) // 2 for a, b in bs)
    ]
    assert len(list(brute_pairings(range(1, 9)))) == 105
    assert sorted(brute) == engine
    nc_engine = enumerate_partitions(8, PAIRS, respect=pattern, noncrossing=True)
    nc_brute = [p for p in brute if brute_noncrossing(p.blocks, 8)]
    assert sorted(nc_brute) == nc_engine
    assert len(nc_engine) == 3


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition(4, [(1, 3), (2, 4)]))
    assert is_noncrossing(Partition(4, [(1, 4), (2, 3)]))
    assert is_noncrossing(Partition(4, [(1, 2, 3, 4)]))


def test_is_noncrossing_matches_quadruple_definition():
    for blocks in all_partitions_brute(7):
        p = Partition(7, blocks)
        assert is_noncrossing(p) == brute_noncrossing(blocks, 7)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_is_noncrossing_matches_quadruple_definition_fuzzed(labels):
    blocks: dict[int, list[int]] = {}
    for x, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(x)
    p = Partition(len(labels), blocks.values())
    assert is_noncrossing(p) == brute_noncrossing([list(b) for b in p.blocks], len(labels))


def test_respects_examples():
    pattern = IntervalPattern(2, 2)
    assert not respects(Partition(4, [(1, 2), (3, 4)]), pattern)
    assert respects(Partition(4, [(1, 3), (2, 4)]), pattern)
    assert not respects(Partition(4, [(1, 2, 3, 4)]), pattern)


def test_respects_ground_mismatch():
    with pytest.raises(HomsumError, match="mismatch"):
        respects(Partition(4, [(1, 2), (3, 4)]), IntervalPattern(2, 3))


def test_enumeration_is_canonical_and_deterministic():
    profile = BlockProfile({2, 3, 4})
    first = enumerate_partitions(9, profile)
    second = enumerate_partitions(9, profile)
    assert first == second
    assert first == sorted(first, key=lambda p: p.blocks)
    for p in first:
        assert list(p.blocks) == sorted(p.blocks)
        assert all(list(b) == sorted(b) for b in p.blocks)


def test_constrained_enumeration_equals_post_filter():
    pattern = IntervalPattern(2, 4)
    profile = BlockProfile({2, 3, 4})
    direct = enumerate_partitions(8, profile, respect=pattern, noncrossing=True)
    filtered = sorted(
        p
        for p in enumerate_partitions(8, profile)
        if respects(p, pattern) and is_noncrossing(p)
    )
    assert direct == filtered
    direct_r = enumerate_partitions(8, profile, respect=pattern)
    filtered_r = sorted(p for p in enumerate_partitions(8, profile) if respects(p, pattern))
    assert direct_r == filtered_r


def test_enumeration_errors():
    with pytest.raises(HomsumError):
        enumerate_partitions(0, PAIRS)
    with pytest.raises(GroundCapExceeded):
        enumerate_partitions(26, PAIRS)
    with pytest.raises(HomsumError, match="pattern"):
        enumerate_partitions(8, PAIRS, respect=IntervalPattern(2, 3))


def test_partition_validation():
    with pytest.raises(HomsumError):
        Partition(4, [(1, 2), (2, 3, 4)])  # overlap
    with pytest.raises(HomsumError):
        Partition(4, [(1, 2)])  # missing cover
    with pytest.raises(HomsumError):
        Partition(4, [(1, 2, 3, 4), ()])  # empty block
    with pytest.raises(HomsumError):
        Partition(4, [(1, 2), (3, 5)])  # out of range


def test_partition_json_is_sorted():
    p = Partition(4, [(3, 4), (2, 1)])
    assert p.to_json() == [[1, 2], [3, 4]]


def test_joint_cumulant_examples():
    law = ClassicalLaw.gaussian()
    p = Partition(4, [(1, 2), (3, 4)])
    assert joint_cumulant_value(p, (5, 5, 7, 7), law, "classical") == 1
    assert joint_cumulant_value(p, (5, 6, 7, 7), law, "classical") == 0
    free_rad = FreeLaw.free_rademacher()
    full = Partition(4, [(1, 2, 3, 4)])
    assert joint_cumulant_value(full, (5, 5, 5, 5), free_rad, "free") == -1


def test_joint_cumulant_is_multiplicative_over_blocks():
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    p = Partition(6, [(1, 2), (3, 4, 5, 6)])
    idx = {1: 2, 2: 2, 3: 9, 4: 9, 5: 9, 6: 9}
    expected = law.chi(2) * law.chi(4)
    assert joint_cumulant_value(p, idx, law, "classical") == expected
    # relabeling the block values leaves it unchanged
    idx2 = {1: 7, 2: 7, 3: 1, 4: 1, 5: 1, 6: 1}
    assert joint_cumulant_value(p, idx2, law, "classical") == expected


def test_joint_cumulant_missing_order():
    law = ClassicalLaw((0, 1, 0, 1))
    p = Partition(5, [(1, 2, 3, 4, 5)])
    from homsums import MissingCumulant

    with pytest.raises(MissingCumulant):
        joint_cumulant_value(p, (1,) * 5, law, "classical")


def test_rho_partitions_d2_exact():
    rhos = rho_partitions(2)
    assert rhos[0] == Partition(8, [(1, 4, 5, 8), (2, 3), (6, 7)])
    assert rhos[1] == Partition(8, [(2, 3, 6, 7), (1, 8), (4, 5)])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rho_partitions_structure(d):
    rhos = rho_partitions(d)
    pattern = IntervalPattern(d, 4)
    assert len(rhos) == d and len(set(rhos)) == d
    for h, rho in enumerate(rhos, start=1):
        assert is_noncrossing(rho)
        assert respects(rho, pattern)
        assert not rho.is_pairing()
        four = next(b for b in rho.blocks if len(b) == 4)
        assert four == tuple(sorted((h, 2 * d - h + 1, 2 * d + h, 4 * d - h + 1)))


@pytest.mark.parametrize("d", [2, 3])
def test_rho_disjoint_union_counts(d):
    pattern = IntervalPattern(d, 4)
    full = enumerate_partitions(4 * d, BlockProfile({2, 4}), pattern, noncrossing=True)
    pure = enumerate_partitions(4 * d, PAIRS, pattern, noncrossing=True)
    assert len(full) == len(pure) + d
    assert set(full) == set(pure) | set(rho_partitions(d))


def test_rho_degree_validation():
    with pytest.raises(HomsumError):
        rho_partitions(1)
    with pytest.raises(GroundCapExceeded):
        rho_partitions(7)
