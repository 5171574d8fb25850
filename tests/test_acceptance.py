"""Acceptance gate: every release criterion, one pass/fail line each.

Criteria are numbered; each test prints (and records for the terminal
summary) ``criterion N: PASS/FAIL`` with the key numbers.  Tolerances:
formula-vs-oracle agreement and the algebraic identities are exact (zero
tolerance); the product-kernel zero point uses 1e-12 because its fourth
moment is an irrational d-th root handled in floating point; Monte Carlo
checks use four standard errors at a million samples with pinned seeds.

Criterion 9a pins the uniform off-diagonal pair family, the standard case
where the fourth cumulant does *not* vanish although the influence does: its
sum converges to the normalized centered chi-square (Z^2 - 1)/sqrt(2), whose
fourth cumulant is 12.  Every entry of its fourth-cumulant column over
n = 4..64 is checked exactly against the closed form in ``conftest.py``.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from conftest import ACCEPTANCE_LINES, pair_family_fourth_cumulant

from homsums import (
    BlockProfile,
    ClassicalLaw,
    FreeLaw,
    IntervalPattern,
    KernelFamily,
    SamplerSpec,
    catalan_number,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    enumerate_partitions,
    estimate_moment,
    family_kernel,
    free_difference_identity,
    free_fourth_moment,
    free_fourth_moment_oracle,
    gaussian_fourth_moment,
    influence_max,
    mixture_identity_check,
    mixture_t_moment,
    moments_to_free_cumulants,
    random_admissible_kernel,
    rho_partitions,
    sample_mixture_t,
    semicircular_fourth_moment_contraction,
    semicircular_moment,
)

CASES = 200
MC_SAMPLES = 1_000_000

#: seeds for every randomized/sampled acceptance case, pinned for replay
MANIFEST = {
    "criterion1": {(2, 3): 101, (2, 4): 102, (2, 5): 103, (3, 3): 104, (3, 4): 105, (3, 5): 106},
    "criterion2": {(2, 3): 201, (2, 4): 202, (2, 5): 203, (3, 3): 204, (3, 4): 205, (3, 5): 206},
    "criterion4": {"classical": 401, "free": 402},
    "criterion5": {"classical": 501, "free": 502},
    "criterion7": 701,
    "criterion8": 801,
    "criterion10": {
        "rademacher-pair": 1001,
        "gaussian-star": 1002,
        "gaussian-offdiag": 1003,
        "product-TX-pair": 1004,
        "mixture-T(1,0.5)": 1011,
        "mixture-T(2,0.5)": 1012,
        "mixture-T(3,0.25)": 1013,
    },
}

CLASSICAL_M4 = (Fraction(1), Fraction(2), Fraction(3), Fraction(9, 2))
FREE_KAPPA4 = (Fraction(-1), Fraction(0), Fraction(1), Fraction(3))


def record(criterion: str, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def test_criterion_1_classical_formula_equals_oracle():
    t0 = time.time()
    checked = failures = 0
    for (d, n), seed in MANIFEST["criterion1"].items():
        rng = random.Random(seed)
        laws = [ClassicalLaw.from_fourth_moment(m4) for m4 in CLASSICAL_M4]
        for _ in range(CASES):
            kernel = random_admissible_kernel(rng, d, n)
            for law in laws:
                lhs = classical_fourth_moment_formula(kernel, law).value
                rhs = classical_fourth_moment_oracle(kernel, law).value
                checked += 1
                if lhs != rhs:
                    failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 60
    record("1", ok, f"{checked} exact comparisons, {failures} mismatches, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed <= 60


def test_criterion_2_free_formula_equals_oracle():
    t0 = time.time()
    checked = contraction_checked = failures = 0
    for (d, n), seed in MANIFEST["criterion2"].items():
        rng = random.Random(seed)
        laws = [FreeLaw.from_fourth_moment(k4 + 2) for k4 in FREE_KAPPA4]
        for _ in range(CASES):
            kernel = random_admissible_kernel(rng, d, n)
            contr = semicircular_fourth_moment_contraction(kernel).value
            contraction_checked += 1
            if contr != semicircular_moment(kernel, 4).value:
                failures += 1
            for law in laws:
                lhs = free_fourth_moment(kernel, law).value
                rhs = free_fourth_moment_oracle(kernel, law).value
                checked += 1
                if lhs != rhs:
                    failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 60
    record(
        "2",
        ok,
        f"{checked} formula/oracle + {contraction_checked} contraction comparisons, "
        f"{failures} mismatches, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed <= 60


def test_criterion_3a_star_kernel_fourth_moment():
    bad = []
    for d, n in itertools.product((2, 3), (3, 5, 9)):
        for m4 in (Fraction(3), Fraction(9, 2)):
            kernel = family_kernel(KernelFamily("star", d), n)
            law = ClassicalLaw.from_fourth_moment(m4)
            got = classical_fourth_moment_formula(kernel, law).value
            want = m4 * (3 + (m4 ** (d - 1) - 3) / (n - 1))
            if got != want:
                bad.append((d, n, m4))
    record("3a", not bad, f"star grid (d,n) in {{2,3}}x{{3,5,9}}, m4 in {{3, 9/2}}, exact; bad={bad}")
    assert not bad


def test_criterion_3b_product_kernel_zero_point():
    worst = 0.0
    for d in (2, 3):
        kernel = family_kernel(KernelFamily("product", d), d)
        law = ClassicalLaw.from_fourth_moment(3.0 ** (1.0 / d))
        chi4 = classical_fourth_moment_formula(kernel, law).value - 3
        worst = max(worst, abs(chi4))
    record("3b", worst <= 1e-12, f"product kernel at m4=3^(1/d), |chi4| <= {worst:.2e} (tol 1e-12, float path)")
    assert worst <= 1e-12


def test_criterion_3c_cumulant_transforms():
    ok = catalan_number(2) == FreeLaw.semicircle().moment(4) == 2
    for t in (Fraction(1), Fraction(3, 2), Fraction(3)):
        kappas = moments_to_free_cumulants((0, 1, 0, t))
        ok = ok and kappas[3] == t - 2
    ok = ok and moments_to_free_cumulants((0, 1, 0, 2))[3] == 0
    record("3c", ok, "phi(S^4)=2 and kappa4 = phi(Y^4) - 2 via the transform")
    assert ok


def test_criterion_4_positivity():
    violations = 0
    for regime in ("classical", "free"):
        rng = random.Random(MANIFEST["criterion4"][regime])
        for i in range(500):
            d = 2 if i % 2 == 0 else 3
            n = 3 + (i % 3)
            kernel = random_admissible_kernel(rng, d, n)
            if regime == "classical":
                if gaussian_fourth_moment(kernel).value < 3:
                    violations += 1
            else:
                scaled = factorial(d) ** 2 * semicircular_fourth_moment_contraction(kernel).value
                if scaled < 2:
                    violations += 1
    record("4", violations == 0, f"1000 kernels, {violations} positivity violations")
    assert violations == 0


def test_criterion_5_monotonicity():
    violations = 0
    law_classical = ClassicalLaw.from_fourth_moment(Fraction(9, 2))  # chi4 = 3/2 >= 0
    law_free = FreeLaw.from_fourth_moment(3)  # kappa4 = 1 >= 0
    for regime in ("classical", "free"):
        rng = random.Random(MANIFEST["criterion5"][regime])
        for i in range(500):
            d = 2 if i % 2 == 0 else 3
            n = 3 + (i % 3)
            kernel = random_admissible_kernel(rng, d, n)
            if regime == "classical":
                if classical_fourth_moment_formula(kernel, law_classical).value < gaussian_fourth_moment(kernel).value:
                    violations += 1
            else:
                if free_fourth_moment(kernel, law_free).value < semicircular_fourth_moment_contraction(kernel).value:
                    violations += 1
    record("5", violations == 0, f"1000 kernels, {violations} monotonicity violations")
    assert violations == 0


def test_criterion_6_structural_decomposition():
    results = {}
    for d in (2, 3, 4):
        pattern = IntervalPattern(d, 4)
        full = enumerate_partitions(4 * d, BlockProfile({2, 4}), pattern, noncrossing=True)
        pure = enumerate_partitions(4 * d, BlockProfile({2}), pattern, noncrossing=True)
        rhos = rho_partitions(d)  # construction re-verifies unique completion
        results[d] = (len(full), len(pure), len(rhos))
    ok = all(full == pure + d and rho == d for d, (full, pure, rho) in results.items())
    record("6", ok, f"|NC24*([4d])| = |NC2*([4d])| + d for d=2,3,4: {results}")
    assert ok


def test_criterion_7_mixture_identity():
    rng = random.Random(MANIFEST["criterion7"])
    failures = 0
    for i in range(50):
        n = 3 + (i % 2)
        kernel = random_admissible_kernel(rng, 2, n)
        law = ClassicalLaw.from_fourth_moment(rng.choice(CLASSICAL_M4))
        t = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        res = mixture_identity_check(kernel, law, t)
        if not (res["equal"] and res["oracle_agrees"]):
            failures += 1
    record("7", failures == 0, f"50 random (kernel, weight) pairs, {failures} failures, exact")
    assert failures == 0


def test_criterion_8_free_difference_identity():
    rng = random.Random(MANIFEST["criterion8"])
    failures = 0
    for i in range(50):
        kernel = random_admissible_kernel(rng, 2, 3 + (i % 2))
        law_a = FreeLaw.from_fourth_moment(Fraction(rng.randint(2, 12), 4))
        law_b = FreeLaw.from_fourth_moment(Fraction(rng.randint(2, 12), 4))
        if not free_difference_identity(kernel, law_a, law_b)["equal"]:
            failures += 1
    record("8", failures == 0, f"50 random (kernel, lawA, lawB) triples, {failures} failures, exact")
    assert failures == 0


def test_criterion_9a_pair_family_diagnostics():
    family = KernelFamily("off-diagonal-pair", 2)
    ns = range(4, 65)
    kernels = {n: family.kernel(n) for n in ns}
    influence_exact = all(
        influence_max(kernels[n]) == Fraction(1, 2 * n) for n in ns
    )
    columns = {}
    for m4 in (Fraction(3), Fraction(9, 2)):
        law = ClassicalLaw.from_fourth_moment(m4)
        columns[m4] = [
            classical_fourth_moment_formula(kernels[n], law).value - 3 for n in ns
        ]
    positive = all(v > 0 for col in columns.values() for v in col)
    mismatches = [
        (str(m4), n)
        for m4, col in columns.items()
        for n, v in zip(ns, col)
        if v != pair_family_fourth_cumulant(n, m4)
    ]
    # first n from which each column is strictly increasing
    rise_from = {}
    for m4, col in columns.items():
        i = len(col) - 1
        while i > 0 and col[i - 1] < col[i]:
            i -= 1
        rise_from[m4] = ns[i]
    increasing = all(n0 <= 7 for n0 in rise_from.values())
    # away from 0 (the Gaussian value) and within 1/2 of the chi-square limit
    gaps = {m4: 12 - col[-1] for m4, col in columns.items()}
    near_limit = all(v >= 7 for col in columns.values() for v in col) and all(
        0 < gap < Fraction(1, 2) for gap in gaps.values()
    )
    ok = influence_exact and positive and not mismatches and increasing and near_limit
    rises = {str(m4): n0 for m4, n0 in rise_from.items()}
    tails = {str(m4): f"{float(gap):.5f}" for m4, gap in gaps.items()}
    record(
        "9a",
        ok,
        f"pair family n=4..64: influence==1/(2n): {influence_exact}, positive: {positive}, "
        f"closed form exact at {2 * len(ns) - len(mismatches)}/{2 * len(ns)} points, "
        f"strictly increasing from n={rises}, 12-final={tails}",
    )
    assert influence_exact
    assert positive
    assert not mismatches, f"column differs from the closed form at (m4, n) = {mismatches}"
    assert increasing, f"column strictly increasing only from n={rises}"
    assert near_limit, f"12 - final = {tails}"


def test_criterion_9b_free_clt_family_sign():
    family = KernelFamily("free-clt", 2)
    law = FreeLaw.free_rademacher()  # the extreme kappa4 = -1
    values = {}
    for n in range(2, 17):
        kernel = family.kernel(n)
        phi4 = free_fourth_moment(kernel, law).value
        phi2 = kernel.sq_norm()
        values[n] = 4 * (phi4 - 2 * phi2**2)
    n0 = next(n for n in values if all(values[m] > 0 for m in values if m >= n))
    ok = n0 <= 16
    record(
        "9b",
        ok,
        f"free-clt d=2, kappa4=-1: scaled fourth cumulant positive for n >= {n0} "
        f"(values: n=2: {float(values[2]):.4f}, n=3: {float(values[3]):.4f}, "
        f"n=16: {float(values[16]):.4f})",
    )
    assert ok


def _mc_case(name, kernel, law_spec, order, exact):
    seed = MANIFEST["criterion10"][name]
    spec = SamplerSpec(seed=seed, sample_count=MC_SAMPLES, **law_spec)
    est = estimate_moment(kernel, spec, order)
    err = abs(est.mean - float(exact))
    budget = max(4 * est.stderr, 1e-12)  # degenerate stderr=0 cases are exact
    return name, err <= budget, err, est.stderr


def test_criterion_10_monte_carlo_consistency():
    pair = family_kernel(KernelFamily("product", 2), 2)
    star = family_kernel(KernelFamily("star", 2), 3)
    offdiag = family_kernel(KernelFamily("off-diagonal-pair", 2), 6)
    composite_m4 = mixture_t_moment(2, Fraction(1, 2), 4) * 3  # E[(TX)^4], gaussian base
    cases = [
        _mc_case("rademacher-pair", pair, {"law": "rademacher"}, 4, 1),
        _mc_case("gaussian-star", star, {"law": "gaussian"}, 4, gaussian_fourth_moment(star).value),
        _mc_case(
            "gaussian-offdiag",
            offdiag,
            {"law": "gaussian"},
            4,
            gaussian_fourth_moment(offdiag).value,
        ),
        _mc_case(
            "product-TX-pair",
            pair,
            {"law": "product-TX", "q": 2, "alpha": 0.5, "base": "gaussian"},
            4,
            classical_fourth_moment_formula(
                pair, ClassicalLaw.from_fourth_moment(composite_m4)
            ).value,
        ),
    ]
    for q, alpha in ((1, 0.5), (2, 0.5), (3, 0.25)):
        name = f"mixture-T({q},{alpha})"
        spec = SamplerSpec(
            law="mixture-T",
            seed=MANIFEST["criterion10"][name],
            sample_count=MC_SAMPLES,
            alpha=alpha,
            q=q,
        )
        t4 = sample_mixture_t(spec) ** 4
        mean = float(t4.mean())
        stderr = float(t4.std(ddof=1)) / MC_SAMPLES**0.5
        exact = float(mixture_t_moment(q, Fraction(alpha), 4))
        cases.append((name, abs(mean - exact) <= 4 * stderr, abs(mean - exact), stderr))
    failures = [c[0] for c in cases if not c[1]]
    detail = ", ".join(f"{name}: |err|={err:.2e} (4se={4*se:.2e})" for name, _, err, se in cases)
    record("10", not failures, f"{MC_SAMPLES} samples/case; {detail}")
    assert not failures
