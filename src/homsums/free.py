"""Moments of free homogeneous sums: ``moment_oracle``, the partition oracle
of orders 2 to 5 in both regimes (here because it builds free reports too),
semicircular moments via non-crossing pairings through its body, the
fourth-moment contraction identity, the nested free-cumulant closed form,
and the free fourth-moment oracle's structural pairs-plus-one-four-block
decomposition, read from the class it contracts.

The closed form's per-index slice moments are parent-kernel types whose
slice index block is left unsummed; no slice kernel is built.

Scaling convention: a homogeneous sum over an admissible kernel has second
moment ``1/d!``, so "target" comparisons use the ``d!``-rescaled sum.  One
builder makes every free report, with the raw value and the ``d!^(k/2)``-scaled
value.  At odd order the scale is irrational: the scaled value is a float, and
so is the value unless ``scale2 = 1``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from math import factorial

from .contract import KernelContractor, canonical_type, grouped_types, partition_class_size, weighted_sum
from .errors import GroundCapExceeded, HomsumError
from .kernels import Kernel, contraction_square_sum
from .laws import ClassicalLaw, FreeLaw
from .reports import MomentReport

#: The classical oracle counts the interval-respecting classes by incidence
#: type instead of listing them, and contracts every type; degrees above this
#: are closed-form territory.  Callers that report an oracle beside a closed
#: form ask this one rule.
ORACLE_MAX_DEGREE = 4


def free_second_moment(kernel: Kernel) -> Fraction:
    """``phi(Q(f)^2) = sum(f^2)`` (note: no ``d!`` here, unlike the classical
    case; only one non-crossing matching of the two index groups survives)."""
    return kernel.sq_norm()


def _partition_sum(kernel: Kernel, order: int, cumulants: dict, noncrossing: bool):
    """The one weighted sum over the group-respecting class of ``order`` copies
    with these blockwise cumulants: the coefficient, the value (an odd order
    applies the scale's outstanding half-power), profile terms, class size."""
    coeff, by_sizes = weighted_sum(KernelContractor.of(kernel), order, cumulants, noncrossing)
    value = coeff
    if order % 2 == 1 and kernel.scale2 != 1:
        value = float(coeff) * math.sqrt(kernel.scale2)
    return coeff, value, by_sizes, partition_class_size(kernel.d, cumulants, order, noncrossing)


def _label(sizes: tuple[int, ...]) -> str:
    """A block-size profile as detail keys show it: ``(2, 2, 4)`` as ``"2 +2 +4"``."""
    return " +".join(map(str, sizes))


def _report(value, kernel: Kernel, order: int, method: str, detail: dict) -> MomentReport:
    """A free report with its ``d!^(k/2)``-scaled value, a float at odd order."""
    if order % 2 == 0:
        scaled = value * factorial(kernel.d) ** (order // 2)
    else:
        scaled = float(value) * float(factorial(kernel.d) ** Fraction(order, 2))
    return MomentReport(value=value, method=method, detail=detail, order=order, scaled_value=scaled)


def moment_oracle(kernel: Kernel, law: ClassicalLaw | FreeLaw, order: int) -> MomentReport:
    """Ground-truth moment of order 2 to 5: the sum over the partitions of the
    ``order * d`` positions that respect the index groups, with block sizes 2
    to ``order`` (non-crossing ones, weighted by free cumulants, for a
    ``FreeLaw``; classical ones up to ``ORACLE_MAX_DEGREE``), of blockwise
    cumulants times the kernel copies contracted.  The law need only be
    centered.  At odd order the detail also holds the value before the
    scale's half-power."""
    if not 2 <= order <= 5:  # the classical order-6 class takes minutes from d = 3
        raise HomsumError(f"moment oracle covers orders 2 to 5, got {order}")
    free = isinstance(law, FreeLaw)
    if not free and kernel.d > ORACLE_MAX_DEGREE:
        raise GroundCapExceeded(f"partition oracle supports degree <= {ORACLE_MAX_DEGREE}, got {kernel.d}")
    law.require("partition oracle", 1)
    cumulant = law.kappa if free else law.chi
    cumulants = {s: cumulant(s) for s in range(2, order + 1)}
    coeff, value, by_sizes, n_partitions = _partition_sum(kernel, order, cumulants, free)
    detail = {"partitions": n_partitions}
    if order % 2 == 1:
        detail["coefficient"] = coeff
    detail["by_block_sizes"] = {_label(sk): v for sk, v in sorted(by_sizes.items())}
    if free:
        return _report(value, kernel, order, "enumeration", detail)
    return MomentReport(value=value, method="enumeration", detail=detail, order=order)


def semicircular_moment(kernel: Kernel, order: int) -> MomentReport:
    """``phi(Q_S(f)^k)`` by enumerating non-crossing pairings of the ``k*d``
    positions that respect the ``k`` index groups: the oracle's body on the
    pairing class."""
    if order < 1:
        raise HomsumError(f"moment order must be >= 1, got {order}")
    coeff, value, _, pairings = _partition_sum(kernel, order, {2: Fraction(1)}, True)
    detail = {"pairings": pairings, "coefficient": coeff, "scale2": kernel.scale2}
    return _report(value, kernel, order, "enumeration", detail)


def semicircular_fourth_moment_contraction(kernel: Kernel) -> MomentReport:
    """``phi(Q_S(f)^4)`` from the contraction identity
    ``2 (sum f^2)^2 + sum_s ||overlap-s contraction||^2``."""
    detail = {"2*(sum f^2)^2": 2 * free_second_moment(kernel) ** 2}
    for s in range(1, kernel.d):
        detail[f"s={s}"] = contraction_square_sum(kernel, s)
    return _report(sum(detail.values(), Fraction(0)), kernel, 4, "closed-form", detail)


def slice_fourth_sum(kernel: Kernel) -> Fraction:
    """``sum over k in [n] of phi(Q_S(f(k,.))^4)`` via the contraction
    identity on each degree-(d-1) slice."""
    if kernel.d < 2:
        raise HomsumError("slice fourth moments need degree >= 2")
    _, per_k = kernel.derived(_free_components)
    return sum(per_k.values(), Fraction(0))


def _free_components(kernel: Kernel) -> tuple[Fraction, dict[int, Fraction]]:
    """Law-independent pieces of the free closed form: the semicircular fourth
    moment and, per index ``k`` of the support, that of the slice ``f(k,.)``.
    The slice's contraction identity is the sum over ``s = 0..e`` of the types
    ``{3^s, 12^s, 5^(e-s), 10^(e-s)}`` (``e = d - 1``; ``s = 0`` and ``s = e``
    are both the pairing term), each with the slice index as one more block,
    of mask 15, left unsummed."""
    e = kernel.d - 1
    types = [
        (canonical_type((3,) * s + (12,) * s + (5,) * (e - s) + (10,) * (e - s) + (15,), 4), 1)
        for s in range(e + 1)
    ]
    # a slice's value is at least 2 (sum f(k,.)^2)^2, so it is nonzero
    # exactly on the support
    per_k = KernelContractor.of(kernel).exact_marginal(types, 4)
    return semicircular_fourth_moment_contraction(kernel).value, per_k


def free_fourth_moment(kernel: Kernel, law: FreeLaw) -> MomentReport:
    """``phi(Q_Y(f)^4)``: the semicircular value plus the fourth free cumulant
    of the law times the slice fourth-moment sum.  No third-moment condition
    is needed."""
    law.require("free closed form", 2, FreeLaw)
    if kernel.d < 2:
        raise HomsumError("free fourth moment needs degree >= 2")
    kappa4 = law.kappa(4)
    semi, per_k = kernel.derived(_free_components)
    correction_per_k = {f"k={k}": kappa4 * v for k, v in per_k.items()}
    total_slices = sum(per_k.values(), Fraction(0))
    value = semi + kappa4 * total_slices
    detail = {
        "semicircular": semi,
        "kappa4": kappa4,
        "slice_fourth_sum": total_slices,
        "correction": correction_per_k,
    }
    return _report(value, kernel, 4, "closed-form", detail)


def free_fourth_moment_oracle(kernel: Kernel, law: FreeLaw) -> MomentReport:
    """Ground-truth ``phi(Q_Y(f)^4)``: ``moment_oracle`` at order 4, whose
    class has no 3-block (at four copies none is non-crossing).  Also
    re-derives the structural decomposition from that class: it must be
    the pure pairings plus exactly ``d`` partitions with one four-block, and
    the latter's contribution must equal ``kappa_4`` times the slice
    fourth-moment sum.
    """
    law.require("free oracle", 2, FreeLaw)
    d = kernel.d
    if d < 2:
        raise HomsumError("free oracle needs degree >= 2")
    report = moment_oracle(kernel, law, 4)
    # every type is checked, zero-weight profiles too
    profiles: Counter = Counter()
    for tkey, count in grouped_types(d, frozenset(range(2, 5)), 4, True):
        profiles[tuple(sorted(m.bit_count() for m in tkey))] += count
    pairing, rho = (2,) * (2 * d), (2,) * (2 * d - 2) + (4,)
    if profiles.keys() - {pairing, rho} or profiles[rho] != d:
        raise HomsumError(f"non-crossing class on [{4 * d}] is not pairings plus {d} rhos (bug)")
    kappa2, kappa4 = law.kappa(2), law.kappa(4)
    terms = report.detail.pop("by_block_sizes")
    # a zero-weight profile is skipped; 0 * kappa_4 keeps the law's number type
    pairing_part, rho_part = (terms.get(_label(sk), 0 * kappa4) for sk in (pairing, rho))
    expected_rho = kappa4 * slice_fourth_sum(kernel) * kappa2 ** (2 * d - 2)
    if rho_part != expected_rho:
        raise HomsumError(
            "rho-partition contribution disagrees with the slice fourth-moment sum"
        )
    report.detail.update(pairings=profiles[pairing], rho_count=d, pairing_part=pairing_part, rho_part=rho_part)
    report.detail["by_block_sizes"] = terms
    return report


def free_third_moment_oracle(kernel: Kernel, law: FreeLaw) -> MomentReport:
    """``phi(Q_Y(f)^3)``: ``moment_oracle`` at order 3.  For even degree its
    class contains no 3-blocks, which is exactly why the third moment
    matches the semicircular one there."""
    law.require("free oracle", 0, FreeLaw)
    return moment_oracle(kernel, law, 3)


def free_difference_identity(kernel: Kernel, law_a: FreeLaw, law_b: FreeLaw) -> dict:
    """Check the two-law difference identity: the gap between the scaled
    fourth cumulants of the two sums equals the gap between the laws' fourth
    moments times the scaled slice fourth-moment sum.  This only restates the
    closed form's shape: both sides read the closed form, and a centered
    unit-variance free law has ``m4 = kappa4 + 2``, so ``lhs - rhs = 0`` for
    any slice sum; only the oracle can catch a closed-form bug."""
    d = kernel.d
    dfact2 = factorial(d) ** 2
    second = free_second_moment(kernel)
    phi_a = free_fourth_moment(kernel, law_a).value
    phi_b = free_fourth_moment(kernel, law_b).value
    kappa_a = phi_a - 2 * second**2
    kappa_b = phi_b - 2 * second**2
    slices = slice_fourth_sum(kernel)
    lhs = dfact2 * kappa_a
    rhs = dfact2 * kappa_b + (law_a.moment(4) - law_b.moment(4)) * dfact2 * slices
    return {
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "kappa4_A": dfact2 * kappa_a,
        "kappa4_B": dfact2 * kappa_b,
        "slice_fourth_sum": slices,
    }
