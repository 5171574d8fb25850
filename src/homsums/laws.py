"""Moment sequences with derived classical and free cumulants.

Both transforms run the standard order-by-order recursions (Nica-Speicher,
*Lectures on the Combinatorics of Free Probability*, Lecture 11), with
``m_0 = 1`` and ``M(z) = sum_j m_j z^j``: classical
``m_n = sum_s binom(n-1, s-1) chi_s m_(n-s)``, free
``m_n = sum_s kappa_s [z^(n-s)] M(z)^s``.  The ``s = n`` term is the order-n
cumulant alone, so each order solves for one unknown.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite
from typing import Sequence

from .errors import AssumptionViolation, HomsumError, MissingCumulant

Number = Fraction | float

MAX_ORDER = 8


def _power_coefficient(
    powers: list[list[Number]], moments: Sequence[Number], s: int, j: int
) -> Number:
    """``[z^j] M(z)^s`` for ``M(z) = sum_i moments[i] z^i`` (``moments[0] = 1``
    and ``j < len(moments)``).  ``powers[r][t]`` memoizes ``[z^t] M(z)^r``
    (start from ``[[Fraction(1)]]``), and ``moments`` may only grow between
    calls: a coefficient of degree ``t`` reads ``moments[:t + 1]`` alone, so
    each one is built once, from those of ``M(z)^(r-1)`` in one fixed order."""
    while len(powers) <= s:
        powers.append([])
    powers[0].extend([Fraction(0)] * (j + 1 - len(powers[0])))
    for prev, row in zip(powers, powers[1 : s + 1]):
        for t in range(len(row), j + 1):
            row.append(sum((prev[i] * moments[t - i] for i in range(t + 1)), Fraction(0)))
    return powers[s][j]


def _transform(seq: Sequence[Number], noncrossing: bool, to_cumulants: bool) -> tuple[Number, ...]:
    """Moments to cumulants (``to_cumulants``) or back, order by order, each
    term keeping its own type (a float sequence gives floats, signed zeros
    included).  A NaN or infinite term is rejected first."""
    if any(isinstance(x, float) and not isfinite(x) for x in seq):
        raise HomsumError(f"moments and cumulants must be finite, got ({', '.join(map(str, seq))})")
    K = len(seq)
    if K < 1 or K > MAX_ORDER:
        what = "moment" if to_cumulants else "cumulant"
        raise HomsumError(f"{what} sequences supported for orders 1..{MAX_ORDER}, got {K}")
    moms: list[Number] = [Fraction(1)]
    cums: list[Number] = []
    powers: list[list[Number]] = [[Fraction(1)]]
    for n in range(1, K + 1):
        rest: Number = Fraction(0)
        for s in range(1, n):
            if noncrossing:
                coeff = _power_coefficient(powers, moms, s, n - s)
            else:
                coeff = comb(n - 1, s - 1) * moms[n - s]
            rest += cums[s - 1] * coeff
        if to_cumulants:
            moms.append(seq[n - 1])
            cums.append(seq[n - 1] - rest)
        else:
            cums.append(seq[n - 1])
            moms.append(rest + seq[n - 1])
    return tuple(cums) if to_cumulants else tuple(moms[1:])


def moments_to_cumulants_classical(moments: Sequence[Number]) -> tuple[Number, ...]:
    """Classical cumulants ``chi_1..chi_K`` of the moments ``m_1..m_K``."""
    return _transform(moments, noncrossing=False, to_cumulants=True)


def cumulants_to_moments_classical(cumulants: Sequence[Number]) -> tuple[Number, ...]:
    return _transform(cumulants, noncrossing=False, to_cumulants=False)


def moments_to_free_cumulants(moments: Sequence[Number]) -> tuple[Number, ...]:
    """Free cumulants ``kappa_1..kappa_K`` of the moments ``m_1..m_K``."""
    return _transform(moments, noncrossing=True, to_cumulants=True)


def free_cumulants_to_moments(cumulants: Sequence[Number]) -> tuple[Number, ...]:
    return _transform(cumulants, noncrossing=True, to_cumulants=False)


def catalan_number(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _as_number(x) -> Number:
    if isinstance(x, float):
        return x
    return Fraction(x)


class _LawBase:
    """Shared moment/cumulant bookkeeping for the two regimes."""

    _noncrossing: bool

    def __init__(self, moments: Sequence):
        moms = tuple(_as_number(m) for m in moments)
        if len(moms) < 4:
            raise HomsumError(f"{type(self).__name__} needs moments at least up to order 4")
        self.moments = moms
        self.cumulants = _transform(moms, self._noncrossing, to_cumulants=True)

    @classmethod
    def from_fourth_moment(cls, m4, m3=0):
        return cls((0, 1, m3, m4))

    @property
    def max_order(self) -> int:
        return len(self.moments)

    def moment(self, j: int) -> Number:
        if not 1 <= j <= self.max_order:
            raise MissingCumulant(f"moment of order {j} not available (have 1..{self.max_order})")
        return self.moments[j - 1]

    def _cumulant(self, j: int) -> Number:
        if not 1 <= j <= self.max_order:
            raise MissingCumulant(
                f"cumulant of order {j} not available (have 1..{self.max_order})"
            )
        return self.cumulants[j - 1]

    def require(self, what: str, upto: int, regime: type | None = None) -> None:
        """Refuse a law not of the ``regime`` given, or unless ``m_1..m_upto``
        are ``(0, 1, 0)[:upto]``: 3 is assumption (A), 2 is (B), 1 centered,
        0 nothing (the regime alone)."""
        if regime is not None and not isinstance(self, regime):
            raise AssumptionViolation(f"{what} needs a {regime.__name__}, got a {type(self).__name__}")
        need = (0, 1, 0)[:upto]
        violated = [f"m{j} = {m} (need {v})" for j, (m, v) in enumerate(zip(self.moments, need), 1) if m != v]
        if violated:
            kind = ("a centered law", "a centered unit-variance law", "a centered unit-variance law with m3 = 0")
            raise AssumptionViolation(f"{what} needs {kind[upto - 1]}; violated: " + "; ".join(violated))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(moments={self.moments!r})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.moments == other.moments


class ClassicalLaw(_LawBase):
    """A classical entry law given by its moments ``m_1..m_K``."""

    _noncrossing = False

    def chi(self, j: int) -> Number:
        return self._cumulant(j)

    @classmethod
    def gaussian(cls) -> "ClassicalLaw":
        return cls((0, 1, 0, 3, 0, 15, 0, 105))

    @classmethod
    def rademacher(cls) -> "ClassicalLaw":
        return cls((0, 1, 0, 1, 0, 1, 0, 1))


class FreeLaw(_LawBase):
    """A non-commutative entry law given by its moments."""

    _noncrossing = True

    def kappa(self, j: int) -> Number:
        return self._cumulant(j)

    @classmethod
    def semicircle(cls) -> "FreeLaw":
        return cls(tuple(catalan_number(j // 2) if j % 2 == 0 else 0 for j in range(1, 9)))

    @classmethod
    def free_rademacher(cls) -> "FreeLaw":
        return cls((0, 1, 0, 1, 0, 1, 0, 1))
