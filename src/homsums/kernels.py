"""Symmetric kernels vanishing on diagonals: construction, admissibility,
slices, influences, the overlap contraction, and the named kernel families.

The engines build no slice kernels (their slice sums are parent-kernel
contractions); ``slice_kernel`` is a library helper.  The contraction
tiers, and the numerator tensors and the sparse operand they cache through
``Kernel.derived``, live in ``contract``.

Storage convention: only strictly increasing index tuples are kept, in
sorted order, with the full symmetric extension implied and every diagonal
tuple structurally zero.  A kernel value is ``entry * sqrt(scale2)``.  The
entries are stored as integer numerators ``nums`` over one common
denominator ``den``, the least one (the lcm of the reduced denominators), so
``entry = num / den``; ``scale2`` is an exact rational carrying the squared
normalization constant (e.g. ``1/(2n(n-1))`` for the uniform pair kernel),
so every even-degree moment computed downstream stays an exact rational even
when the kernel values themselves are irrational.  Perfect-square ``scale2``
factors are folded into the numerators and the denominator at construction.
``entries``, the ``Fraction`` view, is built on first read.

The public constructor takes any rational entries and alone holds the rules
on degree, range, mode and index tuples; ``from_json`` checks a file's shape
and builds through it.  Kernels the package derives from another kernel
(families, transforms, slices) are built from numerators directly by
``Kernel._derive``, without re-validation.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from typing import Iterable, Mapping

from .contract import KernelContractor, canonical_type
from .errors import HomsumError, KernelFormatError, NotNormalizable

FLOAT_GAMMA_RTOL = 1e-9

FAMILY_IDS = ("off-diagonal-pair", "product", "star", "free-clt")


def _sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    pn, pd = isqrt(q.numerator), isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None


def _common_denominator(
    fracs: Mapping[tuple[int, ...], Fraction],
) -> tuple[int, dict[tuple[int, ...], int]]:
    """Nonzero rational entries as integer numerators, in sorted key order,
    over their least common denominator."""
    den = lcm(*(v.denominator for v in fracs.values()))
    return den, {t: v.numerator * (den // v.denominator) for t, v in sorted(fracs.items()) if v}


class Kernel:
    """Symmetric degree-``d`` kernel on ``[n]^d`` vanishing on diagonals."""

    __slots__ = ("n", "d", "den", "nums", "scale2", "mode", "_derived")

    def __init__(
        self,
        n: int,
        d: int,
        entries: Mapping[tuple[int, ...], Fraction | int],
        scale2: Fraction | int = 1,
        mode: str = "exact",
    ):
        if d < 1:
            raise HomsumError(f"kernel degree must be >= 1, got {d}")
        if n < 0:
            raise HomsumError(f"kernel index range must be >= 0, got {n}")
        if mode not in ("exact", "float"):
            raise KernelFormatError(f"kernel mode must be 'exact' or 'float', got {mode!r}")
        s2 = Fraction(scale2)
        if s2 <= 0:
            raise HomsumError("scale2 must be positive")
        clean: dict[tuple[int, ...], Fraction] = {}
        for pos, (t, v) in enumerate(entries.items()):
            t = tuple(int(i) for i in t)
            if len(t) != d:
                raise KernelFormatError(f"entry {pos}: index tuple {t} has length {len(t)}, expected {d}")
            if any(t[i] >= t[i + 1] for i in range(d - 1)):
                raise KernelFormatError(
                    f"entry {pos}: index tuple {t} is not strictly increasing "
                    "(diagonal tuples are structurally zero)"
                )
            if t[0] < 1 or t[-1] > n:
                raise KernelFormatError(f"entry {pos}: index tuple {t} out of range [1, {n}]")
            clean[t] = Fraction(v)
        self._store(n, d, *_common_denominator(clean), s2, mode)

    @classmethod
    def _derive(
        cls, n: int, d: int, den: int, nums: dict[tuple[int, ...], int], scale2: Fraction | int, mode: str
    ) -> "Kernel":
        """A kernel built by the package from valid parts: nonzero numerators
        over a positive ``den``, keys strictly increasing and in sorted order.
        Nothing is re-validated; ``den`` need not be the least one."""
        kernel = cls.__new__(cls)
        kernel._store(n, d, den, nums, Fraction(scale2), mode)
        return kernel

    def _store(
        self, n: int, d: int, den: int, nums: dict[tuple[int, ...], int], scale2: Fraction, mode: str
    ) -> None:
        """Fold a perfect-square ``scale2`` into the numerators, reduce to
        the least common denominator, and store."""
        root = _sqrt_exact(scale2)
        if root is not None and root != 1:
            den *= root.denominator
            nums = {t: v * root.numerator for t, v in nums.items()}
            scale2 = Fraction(1)
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {t: v // g for t, v in nums.items()}
        self.n = n
        self.d = d
        self.den = den
        self.nums = nums
        self.scale2 = scale2
        self.mode = mode
        self._derived: dict = {}

    # -- basic queries ------------------------------------------------------

    @property
    def entries(self) -> dict[tuple[int, ...], Fraction]:
        """The entries as reduced ``Fraction``s, in sorted key order."""
        return self.derived(_fraction_entries)

    @property
    def support_size(self) -> int:
        return len(self.nums)

    def coeff(self, idx: Iterable[int]) -> Fraction:
        """Rational part of the kernel value at an arbitrary ordered tuple
        (full symmetric extension; diagonals and missing tuples give 0)."""
        t = tuple(idx)
        if len(set(t)) != len(t):
            return Fraction(0)
        return self.entries.get(tuple(sorted(t)), Fraction(0))

    def value(self, idx: Iterable[int]) -> Fraction | float:
        c = self.coeff(idx)
        if self.scale2 == 1:
            return c
        return float(c) * math.sqrt(self.scale2)

    def sq_norm(self) -> Fraction:
        """Sum of squared values over the full ordered extension."""
        orbit = factorial(self.d)
        squares = sum(v * v for v in self.nums.values())
        return self.scale2 * orbit * Fraction(squares, self.den * self.den)

    def gamma_norm(self) -> Fraction:
        """The admissibility normalization ``d! * sum(f^2)``."""
        return factorial(self.d) * self.sq_norm()

    def derived(self, build):
        """``build(self)``, computed once per kernel and keyed by ``build``
        itself: the one memo for state derived from a kernel, which is
        immutable after construction."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def int_entries(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """Entries over their least common denominator: ``entry = num / den``
        (the stored pair)."""
        return self.den, self.nums

    # -- transforms ---------------------------------------------------------

    def relabel(self, perm: Mapping[int, int]) -> "Kernel":
        """Apply a permutation of ``[n]`` to the kernel indices."""
        if sorted(perm) != list(range(1, self.n + 1)) or sorted(perm.values()) != list(
            range(1, self.n + 1)
        ):
            raise HomsumError("relabeling must be a permutation of [n]")
        new = sorted((tuple(sorted(perm[i] for i in t)), v) for t, v in self.nums.items())
        return Kernel._derive(self.n, self.d, self.den, dict(new), self.scale2, self.mode)

    def scaled(self, c: Fraction | int) -> "Kernel":
        """Kernel with every value multiplied by a rational constant."""
        c = Fraction(c)
        if c == 0:
            return Kernel._derive(self.n, self.d, 1, {}, 1, self.mode)
        nums = self.nums if c > 0 else {t: -v for t, v in self.nums.items()}
        return Kernel._derive(self.n, self.d, self.den, nums, self.scale2 * c * c, self.mode)

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Kernel)
            and (self.n, self.d, self.scale2, self.mode, self.den)
            == (other.n, other.d, other.scale2, other.mode, other.den)
            and self.nums == other.nums
        )

    def __repr__(self) -> str:
        return (
            f"Kernel(n={self.n}, d={self.d}, support={self.support_size}, "
            f"scale2={self.scale2}, mode={self.mode!r})"
        )

    # -- JSON interchange ----------------------------------------------------

    def to_json(self) -> dict:
        """Spec interchange format.  Exact mode writes each entry as
        ``num``/``den`` and, when it is not 1, ``scale2`` as a rational, so
        ``from_json`` gives back an equal kernel; float mode writes ``val``."""
        if self.mode == "exact":
            ents = [
                {"idx": list(t), "num": v.numerator, "den": v.denominator}
                for t, v in self.entries.items()
            ]
            data = {"n": self.n, "d": self.d, "mode": "exact", "entries": ents}
            if self.scale2 != 1:
                data["scale2"] = {"num": self.scale2.numerator, "den": self.scale2.denominator}
            return data
        # num / den rounds the rational once, as float(Fraction) does
        root, den = math.sqrt(self.scale2), self.den
        ents = [{"idx": list(t), "val": v / den * root} for t, v in self.nums.items()]
        return {"n": self.n, "d": self.d, "mode": "float", "entries": ents}

    @classmethod
    def from_json(cls, data: dict) -> "Kernel":
        """Check the shape of a kernel file, then build through the
        constructor, which holds the rules on degree, range, mode and index
        tuples."""
        if not isinstance(data, dict):
            raise KernelFormatError("kernel JSON must be an object")
        for field in ("n", "d", "mode", "entries"):
            if field not in data:
                raise KernelFormatError(f"kernel JSON missing field {field!r}")
        n, d, mode, raw = data["n"], data["d"], data["mode"], data["entries"]
        if not _is_int(n) or not _is_int(d):
            raise KernelFormatError("fields 'n' and 'd' must be integers")
        if not isinstance(raw, list):
            raise KernelFormatError("field 'entries' must be a list")
        entries: dict[tuple[int, ...], Fraction] = {}
        for pos, ent in enumerate(raw):
            idx = ent.get("idx") if isinstance(ent, dict) else None
            if not isinstance(idx, list) or not all(map(_is_int, idx)):
                raise KernelFormatError(f"entry {pos}: must be an object whose 'idx' is a list of integers")
            if tuple(idx) in entries:
                raise KernelFormatError(f"entry {pos}: duplicate idx {idx}")
            entries[tuple(idx)] = _file_value(ent, mode == "exact", f"entry {pos}")
        scale2 = _file_value(data.get("scale2", {"num": 1, "den": 1}), True, "'scale2'")
        return cls(n, d, entries, scale2, mode)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "Kernel":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise KernelFormatError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_json(data)


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool (``bool`` subclasses ``int``)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _file_value(obj, exact: bool, where: str) -> Fraction:
    """A kernel file's value: ``{"num": p, "den": q}`` if exact, else ``{"val": x}``."""
    get = obj.get if isinstance(obj, dict) else {}.get
    num, den, val = get("num"), get("den"), get("val")
    if exact and _is_int(num) and _is_int(den) and den:
        return Fraction(num, den)
    # a float-mode value must fit a finite float; NaN fails the bound too
    if not exact and (_is_int(val) or isinstance(val, float)) and abs(val) <= sys.float_info.max:
        return Fraction(val)
    need = "integer 'num' and nonzero integer 'den'" if exact else "a finite numeric 'val'"
    raise KernelFormatError(f"{where}: needs {need}")


def _fraction_entries(kernel: Kernel) -> dict[tuple[int, ...], Fraction]:
    den = kernel.den
    return {t: Fraction(v, den) for t, v in kernel.nums.items()}


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-property verdicts: ``alpha`` (diagonal vanishing) and ``beta``
    (symmetry) are structural for a constructed kernel; ``gamma`` is the
    computed normalization ``d! * sum(f^2)``."""

    alpha: bool
    beta: bool
    gamma: bool
    gamma_norm: Fraction

    @property
    def ok(self) -> bool:
        return self.alpha and self.beta and self.gamma


def check_admissible(kernel: Kernel) -> AdmissibilityReport:
    norm = kernel.gamma_norm()
    if kernel.mode == "float":
        gamma_ok = abs(float(norm) - 1.0) <= FLOAT_GAMMA_RTOL
    else:
        gamma_ok = norm == 1
    return AdmissibilityReport(alpha=True, beta=True, gamma=gamma_ok, gamma_norm=norm)


def make_admissible(
    raw: Mapping[tuple[int, ...], object] | Kernel,
    n: int | None = None,
    d: int | None = None,
) -> Kernel:
    """Zero diagonals, symmetrize (average over argument permutations) and
    rescale so the normalization holds exactly.

    Accepts either a raw tuple-to-value mapping (with explicit ``n``, ``d``)
    or an existing kernel, and is idempotent.
    """
    if isinstance(raw, Kernel):
        norm = raw.gamma_norm()
        if norm == 0:
            raise NotNormalizable("kernel has no off-diagonal mass")
        return Kernel._derive(raw.n, raw.d, raw.den, raw.nums, raw.scale2 / norm, raw.mode)
    if n is None or d is None:
        raise HomsumError("make_admissible on a raw mapping needs explicit n and d")
    mode = "exact"
    sums: dict[tuple[int, ...], Fraction] = {}
    for t, v in raw.items():
        t = tuple(int(i) for i in t)
        if len(t) != d:
            raise KernelFormatError(f"raw tuple {t} has length {len(t)}, expected {d}")
        if any(i < 1 or i > n for i in t):
            raise KernelFormatError(f"raw tuple {t} out of range [1, {n}]")
        if isinstance(v, float):
            mode = "float"
        if len(set(t)) != len(t):
            continue  # diagonal: structurally zero
        key = tuple(sorted(t))
        sums[key] = sums.get(key, Fraction(0)) + Fraction(v)
    den, nums = _common_denominator(sums)
    if not nums:
        raise NotNormalizable("raw kernel has zero off-diagonal part after symmetrization")
    # the entries are the sums over d!, a factor the normalization absorbs
    return make_admissible(Kernel._derive(n, d, den * factorial(d), nums, 1, mode))


def slice_kernel(kernel: Kernel, fixed: Iterable[int]) -> Kernel:
    """Kernel of degree ``d - m`` obtained by freezing the first ``m``
    arguments.  Not renormalized; repeated fixed indices give the zero
    kernel (diagonal vanishing)."""
    fixed = tuple(int(j) for j in fixed)
    m = len(fixed)
    if m < 1 or m >= kernel.d:
        raise HomsumError(f"slice size must satisfy 1 <= m <= d-1, got m={m}, d={kernel.d}")
    if any(j < 1 or j > kernel.n for j in fixed):
        raise HomsumError(f"slice indices {fixed} out of range [1, {kernel.n}]")
    if len(set(fixed)) != m:
        return Kernel._derive(kernel.n, kernel.d - m, 1, {}, 1, kernel.mode)
    fset = frozenset(fixed)
    # dropping the same values from sorted tuples keeps their order
    new = {
        tuple(i for i in t if i not in fset): v for t, v in kernel.nums.items() if fset <= set(t)
    }
    return Kernel._derive(kernel.n, kernel.d - m, kernel.den, new, kernel.scale2, kernel.mode)


def influence(kernel: Kernel, i: int) -> Fraction:
    """Squared-value mass of all ordered tuples whose first coordinate is
    ``i``, over the full symmetric extension."""
    if i < 1 or i > kernel.n:
        raise HomsumError(f"index {i} out of range [1, {kernel.n}]")
    orbit = factorial(kernel.d - 1)
    acc = sum(v * v for t, v in kernel.nums.items() if i in t)
    return kernel.scale2 * orbit * Fraction(acc, kernel.den * kernel.den)


def influence_max(kernel: Kernel) -> Fraction:
    """The largest ``influence(kernel, i)``, from one pass over the support."""
    if kernel.n == 0:
        return Fraction(0)
    den, nums = kernel.int_entries()
    acc = [0] * kernel.n
    for t, v in nums.items():
        for i in t:
            acc[i - 1] += v * v
    return kernel.scale2 * factorial(kernel.d - 1) * Fraction(max(acc), den * den)


def contraction_square_sum(kernel: Kernel, s: int) -> Fraction:
    """Sum over two free ``(d-s)``-tuples of the squared overlap contraction
    of the kernel with itself along ``s`` shared slots: the one type of four
    copies in which copies 1, 2 and copies 3, 4 share the ``s`` slots (masks
    3, 12) and copies 1, 3 and 2, 4 share the free tuples (masks 5, 10)."""
    d = kernel.d
    if s < 1 or s > d - 1:
        raise HomsumError(f"overlap size must satisfy 1 <= s <= d-1, got s={s}, d={d}")
    tkey = canonical_type((3,) * s + (12,) * s + (5,) * (d - s) + (10,) * (d - s), 4)
    return KernelContractor.of(kernel).exact([(tkey, 1)], 4)


# -- kernel families ---------------------------------------------------------


@dataclass(frozen=True)
class KernelFamily:
    """A named generator of admissible kernels indexed by a size parameter."""

    family_id: str
    d: int

    def __post_init__(self) -> None:
        if self.family_id not in FAMILY_IDS:
            raise HomsumError(f"unknown kernel family {self.family_id!r}; "
                              f"known: {', '.join(FAMILY_IDS)}")
        if self.family_id == "off-diagonal-pair":
            if self.d != 2:
                raise HomsumError("off-diagonal-pair family is degree 2 only")
        elif self.d < 2:
            raise HomsumError(f"family {self.family_id!r} needs degree >= 2")

    def kernel(self, n: int) -> Kernel:
        return family_kernel(self, n)

    @property
    def min_n(self) -> int:
        return {"off-diagonal-pair": 2, "product": self.d, "star": 2, "free-clt": 1}[
            self.family_id
        ]


def family_kernel(family: KernelFamily, n: int) -> Kernel:
    """The ``n``-th admissible kernel of a named family."""
    d = family.d
    if n < family.min_n:
        raise HomsumError(
            f"family {family.family_id!r} (d={d}) needs n >= {family.min_n}, got {n}"
        )
    if family.family_id == "off-diagonal-pair":
        nums = dict.fromkeys(itertools.combinations(range(1, n + 1), 2), 1)
        return Kernel._derive(n, 2, 1, nums, Fraction(1, 2 * n * (n - 1)), "exact")
    if family.family_id == "product":
        return Kernel._derive(n, d, factorial(d), {tuple(range(1, d + 1)): 1}, 1, "exact")
    if family.family_id == "star":
        # hub index 1 plus (n-1) disjoint blocks of d-1 fresh indices
        blocks = range(2, (n - 1) * (d - 1) + 2, d - 1)
        nums = {(1, *range(b, b + d - 1)): 1 for b in blocks}
        return Kernel._derive((n - 1) * (d - 1) + 1, d, factorial(d), nums, Fraction(1, n - 1), "exact")
    # free-clt: block sums over residue classes mod d on [n*d]
    tuples = (
        tuple(sorted(j * d + r for r, j in enumerate(choices, start=1)))
        for choices in itertools.product(range(n), repeat=d)
    )
    nums = dict.fromkeys(sorted(tuples), 1)
    return Kernel._derive(n * d, d, factorial(d), nums, Fraction(1, n**d), "exact")


def random_admissible_kernel(
    rng: random.Random,
    d: int,
    n: int,
    density: float = 0.85,
    max_num: int = 3,
    max_den: int = 3,
) -> Kernel:
    """Random exact-rational admissible kernel: small random rational entries
    with the normalization carried exactly by ``scale2``."""
    if n < d:
        raise HomsumError(f"need n >= d for a non-trivial kernel, got n={n}, d={d}")
    drawn: dict[tuple[int, ...], tuple[int, int]] = {}
    for t in itertools.combinations(range(1, n + 1), d):
        if rng.random() < density:
            num, den = rng.randint(-max_num, max_num), rng.randint(1, max_den)
            if num:
                drawn[t] = num, den
    if not drawn:
        drawn[tuple(range(1, d + 1))] = 1, 1
    den = lcm(*(q for _, q in drawn.values()))
    nums = {t: p * (den // q) for t, (p, q) in drawn.items()}
    return make_admissible(Kernel._derive(n, d, den, nums, 1, "exact"))
