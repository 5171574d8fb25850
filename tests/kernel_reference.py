"""``Fraction``-valued reference constructions of the kernels the package
builds from integer numerators.  Each returns ``(entries, scale2)`` the way
an all-``Fraction`` constructor stores them: zero entries dropped, keys in
sorted order, and a perfect-square ``scale2`` folded into the entries.
Nothing here calls the package's kernel code."""

import itertools
import random
from fractions import Fraction
from math import factorial, isqrt

Entries = dict[tuple[int, ...], Fraction]


def stored(entries, scale2=1) -> tuple[Entries, Fraction]:
    """``entries`` and ``scale2`` as a kernel stores them."""
    s2 = Fraction(scale2)
    clean = {t: Fraction(v) for t, v in sorted(entries.items()) if v}
    pn, pd = isqrt(s2.numerator), isqrt(s2.denominator)
    if pn * pn == s2.numerator and pd * pd == s2.denominator and s2 != 1:
        root = Fraction(pn, pd)
        return {t: v * root for t, v in clean.items()}, Fraction(1)
    return clean, s2


def gamma_norm(entries: Entries, scale2: Fraction, d: int) -> Fraction:
    return factorial(d) ** 2 * scale2 * sum((v * v for v in entries.values()), Fraction(0))


def family(family_id: str, d: int, n: int) -> tuple[Entries, Fraction]:
    if family_id == "off-diagonal-pair":
        entries = {t: Fraction(1) for t in itertools.combinations(range(1, n + 1), 2)}
        return stored(entries, Fraction(1, 2 * n * (n - 1)))
    if family_id == "product":
        return stored({tuple(range(1, d + 1)): Fraction(1, factorial(d))})
    if family_id == "star":
        entries, nxt = {}, 2
        for _ in range(n - 1):
            entries[(1, *range(nxt, nxt + d - 1))] = Fraction(1, factorial(d))
            nxt += d - 1
        return stored(entries, Fraction(1, n - 1))
    entries = {}
    for choices in itertools.product(range(n), repeat=d):
        t = tuple(sorted(j * d + r for r, j in enumerate(choices, start=1)))
        entries[t] = Fraction(1, factorial(d))
    return stored(entries, Fraction(1, n**d))


def random_kernel(rng: random.Random, d: int, n: int, density=0.85, max_num=3, max_den=3):
    """``random_admissible_kernel``'s draws, one ``Fraction`` per entry."""
    entries = {}
    for t in itertools.combinations(range(1, n + 1), d):
        if rng.random() < density:
            v = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            if v:
                entries[t] = v
    if not entries:
        entries[tuple(range(1, d + 1))] = Fraction(1)
    return normalized(*stored(entries), d)


def normalized(entries: Entries, scale2: Fraction, d: int) -> tuple[Entries, Fraction]:
    """``make_admissible`` of a kernel."""
    return stored(entries, scale2 / gamma_norm(entries, scale2, d))


def admissible_from_raw(raw, n: int, d: int) -> tuple[Entries, Fraction]:
    """``make_admissible`` of a raw mapping: symmetrized, diagonals dropped."""
    sums: Entries = {}
    for t, v in raw.items():
        if len(set(t)) == len(t):
            key = tuple(sorted(t))
            sums[key] = sums.get(key, Fraction(0)) + Fraction(v)
    entries = {t: s / factorial(d) for t, s in sums.items() if s}
    return normalized(*stored(entries), d)


def scaled(entries: Entries, scale2: Fraction, c) -> tuple[Entries, Fraction]:
    c = Fraction(c)
    if c == 0:
        return {}, Fraction(1)
    sign = 1 if c > 0 else -1
    return stored({t: sign * v for t, v in entries.items()}, scale2 * c * c)


def relabel(entries: Entries, scale2: Fraction, perm) -> tuple[Entries, Fraction]:
    return stored({tuple(sorted(perm[i] for i in t)): v for t, v in entries.items()}, scale2)


def sliced(entries: Entries, scale2: Fraction, fixed) -> tuple[Entries, Fraction]:
    if len(set(fixed)) != len(fixed):
        return {}, Fraction(1)
    fset = set(fixed)
    new = {tuple(i for i in t if i not in fset): v for t, v in entries.items() if fset <= set(t)}
    return stored(new, scale2)
