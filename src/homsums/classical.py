"""Fourth moments of classical homogeneous sums, three independent ways:
the Wick pairing sum for Gaussian entries, the nested-cumulant closed form,
and a full partition-lattice oracle: ``free.moment_oracle`` at order 4,
which under a classical law also gives orders 2, 3 and 5.

A note on the closed form's combinatorial constant: the number of
interval-respecting partitions of the four index groups with ``m`` blocks of
size 4 is ``binom(d,m)^4 * m!^3`` (choose an m-subset of slots in each of the
four groups, then match three of the subsets onto the first), so that is the
multiplier used here.  It is pinned by exact agreement with the partition
oracle and by the product- and star-kernel identities in the test suite.

The slice sums are contractions of the parent kernel with the slice indices
as blocks shared by all four copies (Peccati and Taqqu's diagrams, *Wiener
Chaos: Moments, Cumulants and Diagrams*, 2011); no slice kernel is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Sequence

from .contract import KernelContractor, grouped_types, partition_class_size, weighted_sum
from .errors import AssumptionViolation
from .free import ORACLE_MAX_DEGREE, moment_oracle
from .kernels import Kernel
from .laws import ClassicalLaw
from .reports import MomentReport


def classical_second_moment(kernel: Kernel) -> Fraction:
    """``E[Q(f)^2] = d! * sum(f^2)`` for centered unit-variance entries."""
    return kernel.gamma_norm()


def gaussian_fourth_moment(kernel: Kernel) -> MomentReport:
    """``E[Q_N(f)^4]`` as the Wick sum over interval-respecting pairings of
    the 4d index positions.  Exact for exact kernels; admissibility is not
    required."""
    detail = {
        "pairings": partition_class_size(kernel.d, {2}, 4, False),
        "ground": 4 * kernel.d,
    }
    return MomentReport(value=kernel.derived(_wick_sum), method="enumeration", detail=detail)


def _wick_sum(kernel: Kernel) -> Fraction:
    """The law-independent Wick sum: every interval-respecting pairing of the
    4d positions, each block weighted by the Gaussian cumulant 1."""
    value, _ = weighted_sum(KernelContractor.of(kernel), 4, {2: Fraction(1)}, False)
    return value


def _slice_fourth_sums(kernel: Kernel) -> tuple[Fraction, ...]:
    """The law-independent ``sum over j in [n]^m of E[Q_N(f(j,.))^4]`` for
    ``m = 1..d``: the degree-``(d-m)`` Wick types with ``m`` blocks of mask
    15 appended (the largest mask, fixed by every copy relabeling, so the
    key stays canonical); ``m = d`` is the type ``15^d``."""
    contractor = KernelContractor.of(kernel)
    d = kernel.d
    return tuple(
        contractor.exact([(t + (15,) * m, c) for t, c in grouped_types(d - m, frozenset({2}), 4, False)], 4)
        for m in range(1, d + 1)
    )


def classical_fourth_moment_formula(kernel: Kernel, law: ClassicalLaw) -> MomentReport:
    """``E[Q_X(f)^4]`` by the nested-cumulant closed form: the Gaussian Wick
    term plus fourth-cumulant corrections from lower-order slice moments."""
    law.require("closed form", 3, ClassicalLaw)
    d = kernel.d
    chi4 = law.chi(4)
    base = kernel.derived(_wick_sum)
    slice_sums = kernel.derived(_slice_fourth_sums)
    detail: dict = {"m=0": base}
    value = base
    for m in range(1, d + 1):
        if not chi4:
            detail[f"m={m}"] = Fraction(0)
            continue
        coeff = comb(d, m) ** 4 * factorial(m) ** 3 * chi4**m
        term = coeff * slice_sums[m - 1]
        detail[f"m={m}"] = term
        value = value + term
    detail["chi4"] = chi4
    return MomentReport(value=value, method="closed-form", detail=detail)


def classical_fourth_moment_oracle(kernel: Kernel, law: ClassicalLaw) -> MomentReport:
    """Ground-truth ``E[Q_X(f)^4]``: ``moment_oracle`` at order 4, over
    every partition of the 4d positions that respects the four index groups
    with block sizes in {2, 3, 4}, counted per incidence type."""
    law.require("classical oracle", 0, ClassicalLaw)
    return moment_oracle(kernel, law, 4)


# -- the mixture identity ------------------------------------------------------


def rescaled_kernel(kernel: Kernel, t_values: Sequence) -> Kernel:
    """Entrywise reweighting ``f(i_1..i_d) * t_{i_1} ... t_{i_d}``: symmetric,
    diagonal-vanishing, deliberately not renormalized."""
    t = [Fraction(x) for x in t_values]
    if len(t) != kernel.n:
        raise AssumptionViolation(
            f"need one weight per index: got {len(t)} for n = {kernel.n}"
        )
    if any(x <= 0 for x in t):
        raise AssumptionViolation("mixture weights must be positive")
    # t_i = a_i / b_i over the common denominator L: t_i = (a_i L / b_i) / L
    common = lcm(*(x.denominator for x in t))
    scaled = [x.numerator * (common // x.denominator) for x in t]
    nums = {tup: v * prod(scaled[i - 1] for i in tup) for tup, v in kernel.nums.items()}
    den = kernel.den * common**kernel.d
    return Kernel._derive(kernel.n, kernel.d, den, nums, kernel.scale2, kernel.mode)


def mixture_identity_check(kernel: Kernel, law: ClassicalLaw, t_values: Sequence) -> dict:
    """Check the conditional-moment separation identity behind the mixture
    construction: with ``a = E[Q^4]`` and ``b = E[Q^2]`` conditioned on the
    weights,

        ``a - 6b + 3  ==  (a - 3b^2) + 3(b - 1)^2``

    evaluated exactly on the reweighted kernel.  (Averaging the left side
    over the weights gives back ``E[Q^4] - 3``; the displayed form is the
    pointwise identity under the average.)  Up to ``ORACLE_MAX_DEGREE`` it also
    cross-checks the closed-form fourth moment against the partition oracle
    (``oracle_agrees`` is None elsewhere).
    """
    resc = rescaled_kernel(kernel, t_values)
    b = classical_second_moment(resc)
    a = classical_fourth_moment_formula(resc, law).value
    lhs = a - 6 * b + 3
    rhs = (a - 3 * b * b) + 3 * (b - 1) ** 2
    oracle_agrees = None
    if kernel.d <= ORACLE_MAX_DEGREE:
        oracle_agrees = classical_fourth_moment_oracle(resc, law).value == a
    return {
        "second_moment": b,
        "fourth_moment": a,
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "oracle_agrees": oracle_agrees,
    }
