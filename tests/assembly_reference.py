"""The per-type assembly loop that ``weighted_sum`` replaced: every
incidence type of the class rescaled and weighted on its own.  Kept as the
reference that the per-profile assembly must equal exactly."""

from fractions import Fraction

from homsums.contract import cumulant_weight, grouped_types


def weighted_sum_reference(contractor, k, cumulants, noncrossing):
    d = contractor.kernel.d
    total = Fraction(0)
    by_sizes = {}
    for tkey, count in grouped_types(d, frozenset(cumulants), k, noncrossing):
        sk = tuple(sorted(m.bit_count() for m in tkey))
        w = cumulant_weight(cumulants, sk)
        if not w:
            continue
        contrib = w * contractor.exact([(tkey, count)], k)
        total += contrib
        by_sizes[sk] = by_sizes.get(sk, Fraction(0)) + contrib
    return total, by_sizes
