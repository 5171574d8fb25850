"""Randomized verification suites: formula-vs-oracle identities and property
invariants, runnable from the CLI and reused by the acceptance tests.

All identities are exact in exact mode: a check fails on any nonzero
deviation, and the first failing case is serialized for replay.  Every
randomized case runs through one runner, ``VerificationReport.case``, which
counts it on the report's "engines raise no HomsumError" check.  An engine
that raises ``HomsumError`` ends the case and fails that check instead of
stopping the run, and the report lists the check from its first failure on.
In the partitions suite, an error from ``rho_partitions`` fails the rho check.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable

from .classical import (
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    gaussian_fourth_moment,
    mixture_identity_check,
)
from .errors import HomsumError
from .free import (
    free_difference_identity,
    free_fourth_moment,
    free_fourth_moment_oracle,
    semicircular_fourth_moment_contraction,
    semicircular_moment,
)
from .kernels import Kernel, random_admissible_kernel
from .laws import ClassicalLaw, FreeLaw
from .partitions import (
    BlockProfile,
    IntervalPattern,
    enumerate_partitions,
    is_noncrossing,
    respects,
    rho_partitions,
)
from .reports import jsonable

CLASSICAL_M4 = (Fraction(1), Fraction(2), Fraction(3), Fraction(9, 2))
FREE_KAPPA4 = (Fraction(-1), Fraction(0), Fraction(1), Fraction(3))
ENGINES_CHECK = "engines raise no HomsumError"


@dataclass
class IdentityCheck:
    name: str
    cases: int = 0
    failures: int = 0
    max_deviation: float = 0.0
    failing_case: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(
        self, equal: bool, deviation: float = 0.0, case: dict | Callable[[], dict] | None = None
    ) -> None:
        """Count one case.  ``case`` describes it for replay, or is a function
        building that description, called only if this is the first failure."""
        self.cases += 1
        if not equal:
            self.failures += 1
            self.max_deviation = max(self.max_deviation, abs(deviation))
            if self.failing_case is None:
                self.failing_case = case() if callable(case) else case

    def equal(self, a, b, case: Callable[[], dict]) -> None:
        """Count one case of ``a == b``."""
        self.record(a == b, _dev(a, b), case)

    def at_least(self, a, b, case: Callable[[], dict]) -> None:
        """Count one case of ``a >= b``."""
        self.record(a >= b, _dev(a, b), case)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "max_deviation": self.max_deviation,
            "pass": self.ok,
        }
        if self.failing_case is not None:
            out["failing_case"] = jsonable(self.failing_case)
        return out


@dataclass
class VerificationReport:
    scope: str
    checks: list[IdentityCheck] = field(default_factory=list)
    engines: IdentityCheck = field(default_factory=lambda: IdentityCheck(ENGINES_CHECK))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, *names: str) -> list[IdentityCheck]:
        """New checks, listed in this order."""
        checks = [IdentityCheck(name) for name in names]
        self.checks.extend(checks)
        return checks

    @contextmanager
    def case(self, kernel: Kernel, **law):
        """Run one case's engine calls, counted on ``engines``.  The body
        writes the law parameters it is on into the yielded dict.  A
        ``HomsumError`` ends the case and fails ``engines``, with the kernel,
        those parameters and the error text as the replay case; ``engines``
        joins ``checks`` at its first failure."""
        try:
            yield law
        except HomsumError as exc:
            if self.engines.ok:
                self.checks.append(self.engines)
            self.engines.record(False, 0.0, _case(kernel, {**law, "error": str(exc)}))
        else:
            self.engines.record(True)

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "pass": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


def verify_partitions() -> VerificationReport:
    """Counting identities (ground sets up to 10) and predicate cross-checks
    for the partition engine, with the rho decomposition at d = 2, 3."""
    report = VerificationReport("partitions")
    counts, catalan, filt, rho = report.add(
        "pairing count is (m-1)!! for even m, 0 for odd m",
        "non-crossing pairing count is Catalan C_{m/2}",
        "constrained enumeration equals post-filtering",
        "rho partitions: unique completions, disjoint-union counts",
    )
    pairs = BlockProfile({2})
    for m in range(2, 11):
        got = len(enumerate_partitions(m, pairs))
        want = prod(range(m - 1, 0, -2)) if m % 2 == 0 else 0
        counts.record(got == want, abs(got - want), {"m": m, "got": got, "want": want})

    for m in range(2, 11, 2):
        got = len(enumerate_partitions(m, pairs, noncrossing=True))
        k = m // 2
        want = comb(2 * k, k) // (k + 1)
        catalan.record(got == want, abs(got - want), {"m": m, "got": got, "want": want})

    for d, k in ((2, 4), (1, 6), (3, 2)):
        m = d * k
        pattern = IntervalPattern(d, k)
        profile = BlockProfile({2, 3, 4}) if m <= 8 else pairs
        direct = enumerate_partitions(m, profile, respect=pattern, noncrossing=True)
        filtered = [
            p
            for p in enumerate_partitions(m, profile)
            if respects(p, pattern) and is_noncrossing(p)
        ]
        filt.record(direct == sorted(filtered), 0.0, {"d": d, "k": k})

    for d in (2, 3):
        try:
            rhos = rho_partitions(d)  # self-asserts uniqueness and the decomposition
        except HomsumError as exc:
            rho.record(False, 0.0, {"d": d, "error": str(exc)})
            continue
        pattern = IntervalPattern(d, 4)
        full = enumerate_partitions(4 * d, BlockProfile({2, 4}), pattern, noncrossing=True)
        pure = enumerate_partitions(4 * d, pairs, pattern, noncrossing=True)
        ok = (
            len(rhos) == d
            and len(set(rhos)) == d
            and not any(r.is_pairing() for r in rhos)
            and len(full) == len(pure) + d
        )
        rho.record(ok, 0.0, {"d": d})
    return report


def _dev(a, b) -> float:
    try:
        return abs(float(a) - float(b))
    except OverflowError:
        return float("inf")


def _case(kernel: Kernel, extra: dict) -> Callable[[], dict]:
    """The replay description of a case on ``kernel``, built on demand."""
    return lambda: {"kernel": kernel.to_json(), **extra}


def verify_classical(
    d: int = 2,
    n: int = 4,
    cases: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Formula-vs-oracle agreement plus the classical property invariants on
    random exact-rational admissible kernels."""
    rng = random.Random(seed)
    report = VerificationReport("classical")
    agree, positive, monotone, scale_cov, relabel_inv = report.add(
        f"closed form == partition oracle (d={d}, n={n})",
        "Gaussian fourth cumulant of the sum is >= 0",
        "fourth moment monotone in the entry law when chi4 >= 0",
        "scaling the kernel by c scales the fourth moment by c^4",
        "index relabeling leaves the fourth moment unchanged",
    )
    laws = [ClassicalLaw.from_fourth_moment(m4) for m4 in CLASSICAL_M4]
    for _ in range(cases):
        # every draw of the case comes first, so a case that raises leaves
        # the next cases' draws as they are
        kernel = random_admissible_kernel(rng, d, n)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        with report.case(kernel) as on_law:
            gauss = gaussian_fourth_moment(kernel).value
            positive.at_least(gauss, 3, _case(kernel, {"E4_gaussian": gauss}))
            for law in laws:
                on_law["m4"] = law.moment(4)
                lhs = classical_fourth_moment_formula(kernel, law).value
                rhs = classical_fourth_moment_oracle(kernel, law).value
                agree.equal(lhs, rhs, _case(kernel, {**on_law, "formula": lhs, "oracle": rhs}))
                if law.chi(4) >= 0:
                    monotone.at_least(lhs, gauss, _case(kernel, {"m4": law.moment(4)}))
            law = laws[-1]
            scaled = classical_fourth_moment_formula(kernel.scaled(c), law).value
            base = classical_fourth_moment_formula(kernel, law).value
            scale_cov.equal(scaled, c**4 * base, _case(kernel, {"c": c}))
            permuted = kernel.relabel({i + 1: p for i, p in enumerate(perm)})
            relabeled = classical_fourth_moment_formula(permuted, law).value
            relabel_inv.equal(relabeled, base, _case(kernel, {"perm": perm}))
    return report


def verify_free(
    d: int = 2,
    n: int = 4,
    cases: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Free formula-vs-oracle agreement, the contraction identity, and the
    free property invariants."""
    rng = random.Random(seed)
    report = VerificationReport("free")
    agree, contraction, positive, monotone = report.add(
        f"free closed form == non-crossing oracle (d={d}, n={n})",
        "contraction identity == pairing enumeration",
        "semicircular scaled fourth moment >= 2",
        "free fourth moment monotone when kappa4 >= 0",
    )
    laws = [FreeLaw.from_fourth_moment(k4 + 2) for k4 in FREE_KAPPA4]
    dfact2 = factorial(d) ** 2
    for _ in range(cases):
        kernel = random_admissible_kernel(rng, d, n)
        with report.case(kernel) as on_law:
            semi_enum = semicircular_moment(kernel, 4).value
            semi_contr = semicircular_fourth_moment_contraction(kernel).value
            contraction.equal(
                semi_enum, semi_contr, _case(kernel, {"enumeration": semi_enum, "contraction": semi_contr})
            )
            positive.at_least(dfact2 * semi_contr, 2, _case(kernel, {"scaled": dfact2 * semi_contr}))
            for law in laws:
                on_law["phi4"] = law.moment(4)
                lhs = free_fourth_moment(kernel, law).value
                rhs = free_fourth_moment_oracle(kernel, law).value
                agree.equal(lhs, rhs, _case(kernel, {**on_law, "formula": lhs, "oracle": rhs}))
                if law.kappa(4) >= 0:
                    monotone.at_least(lhs, semi_contr, _case(kernel, dict(on_law)))
    return report


def verify_identities(
    d: int = 2,
    n: int = 4,
    cases: int = 25,
    seed: int = 0,
    include: str = "both",
) -> VerificationReport:
    """The mixture separation identity and the two-law difference identity on
    random kernels, weights and laws, each law built once.  The report lists
    only the identities that ran cases."""
    rng = random.Random(seed)
    classical_laws = [ClassicalLaw.from_fourth_moment(m4) for m4 in CLASSICAL_M4]
    free_laws = {j: FreeLaw.from_fourth_moment(Fraction(j, 2)) for j in range(1, 9)}
    report = VerificationReport("identities")
    mixture, difference = report.add(
        "mixture separation identity (exact)",
        "two-law fourth-cumulant difference identity (exact)",
    )
    for _ in range(cases):
        kernel = random_admissible_kernel(rng, d, n)
        if include in ("both", "mixture"):
            law = rng.choice(classical_laws)
            t = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            with report.case(kernel, m4=law.moment(4), t=t) as params:
                res = mixture_identity_check(kernel, law, t)
                ok = res["equal"] and res["oracle_agrees"] in (True, None)
                mixture.record(ok, _dev(res["lhs"], res["rhs"]), _case(kernel, params))
        if include in ("both", "difference"):
            law_a = free_laws[rng.randint(1, 8)]
            law_b = free_laws[rng.randint(1, 8)]
            with report.case(kernel, phi4_A=law_a.moment(4), phi4_B=law_b.moment(4)) as params:
                res = free_difference_identity(kernel, law_a, law_b)
                difference.record(res["equal"], _dev(res["lhs"], res["rhs"]), _case(kernel, params))
    report.checks = [c for c in report.checks if c.cases]
    return report


def run_verification(
    scope: str = "all",
    d: int = 2,
    n: int = 4,
    cases: int = 50,
    seed: int = 0,
) -> list[VerificationReport]:
    """The reports of ``scope``: each suite of the scope, then the identities
    it includes, run at ``min(d, 2)``, ``min(n, 4)``, ``max(cases // 2, 10)``
    cases and seed ``seed + 1``."""
    include = {"all": "both", "classical": "mixture", "free": "difference", "partitions": None}
    if scope not in include:
        raise ValueError(f"unknown scope {scope!r}")
    reports = []
    if scope in ("all", "partitions"):
        reports.append(verify_partitions())
    if scope in ("all", "classical"):
        reports.append(verify_classical(d=d, n=n, cases=cases, seed=seed))
    if scope in ("all", "free"):
        reports.append(verify_free(d=d, n=n, cases=cases, seed=seed))
    if include[scope]:
        reports.append(
            verify_identities(min(d, 2), min(n, 4), max(cases // 2, 10), seed + 1, include[scope])
        )
    return reports
