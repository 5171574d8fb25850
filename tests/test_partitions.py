"""Partition engine: counts, predicates, canonical order, rho structure."""

import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homsums import (
    BlockProfile,
    GroundCapExceeded,
    HomsumError,
    IntervalPattern,
    Partition,
    enumerate_partitions,
    is_noncrossing,
    respects,
    rho_partitions,
)

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
    """The pruned enumerator equals the brute-force listing of every
    partition (each element joins an earlier block or opens one, as in a
    restricted growth string) filtered by block sizes, interval respect and
    non-crossing: over every m <= 8, every size set within {1..4}, every
    interval length dividing m (or none) and both non-crossing settings."""
    size_sets = [set(c) for r in range(1, 5) for c in itertools.combinations(range(1, 5), r)]
    checked = 0
    for m in range(1, 9):
        every = [Partition(m, blocks) for blocks in all_partitions_brute(m)]
        lengths = [None] + [h for h in range(1, m + 1) if m % h == 0]
        for sizes, length, nc in itertools.product(size_sets, lengths, (False, True)):
            pattern = None if length is None else IntervalPattern(length, m // length)
            want = sorted(
                p
                for p in every
                if all(len(b) in sizes for b in p.blocks)
                and (pattern is None or respects(p, pattern))
                and (not nc or is_noncrossing(p))
            )
            got = enumerate_partitions(m, BlockProfile(sizes), pattern, noncrossing=nc)
            assert got == want, (m, sizes, length, nc)
            checked += 1
    assert checked == 840


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


def test_partition_holds_its_ground_size_and_blocks_alone():
    """No per-partition block map: ``is_noncrossing``, its one reader, builds
    its own."""
    assert Partition.__slots__ == ("ground_size", "blocks")


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
