"""Free moment engines: non-crossing pairing sums, the contraction identity,
the nested free-cumulant closed form, the non-crossing oracle with its
structural decomposition, and the two-law difference identity.

The brute references enumerate pairings and set partitions by plain
recursion and test crossings by the raw quadruple definition, sharing no code
with the engines.
"""

import ast
import inspect
import itertools
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from homsums import (
    AssumptionViolation,
    ClassicalLaw,
    FreeLaw,
    GroundCapExceeded,
    HomsumError,
    Kernel,
    KernelFamily,
    MissingCumulant,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    family_kernel,
    free_difference_identity,
    free_fourth_moment,
    free_fourth_moment_oracle,
    free_second_moment,
    free_third_moment_oracle,
    moment_oracle,
    random_admissible_kernel,
    rho_partitions,
    semicircular_fourth_moment_contraction,
    semicircular_moment,
    slice_fourth_sum,
)
from homsums import contract, free, partitions
from homsums.contract import (
    KernelContractor,
    cumulant_weight,
    incidence_type,
    partition_class_size,
    weighted_sum,
)
from slicing_reference import free_slice_moments_by_slicing, reference_kernels


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


def brute_semicircular_moment(kernel, order):
    """phi(Q_S^k) from scratch: ``brute_semicircular_coefficient`` times the
    outstanding half-power of the scale at odd order."""
    total = brute_semicircular_coefficient(kernel, order)
    if order % 2 == 1 and kernel.scale2 != 1:
        return total * float(kernel.scale2) ** 0.5
    return total


def brute_semicircular_coefficient(kernel, order):
    """phi(Q_S^k) before the half-power of the scale, from scratch: enumerate
    pairings of [k*d], keep those that avoid same-copy pairs and
    quadruple-definition crossings, and sum the products of kernel values
    over pair-constant assignments."""
    d, n = kernel.d, kernel.n
    m = order * d
    total = Fraction(0)
    for pairs in brute_pairings(range(1, m + 1)):
        if any((a - 1) // d == (b - 1) // d for a, b in pairs):
            continue
        owner = {}
        for bi, (a, b) in enumerate(pairs):
            owner[a] = bi
            owner[b] = bi
        crossing = False
        for i, j, k, l in itertools.combinations(range(1, m + 1), 4):
            if owner[i] == owner[k] and owner[j] == owner[l] and owner[j] != owner[k]:
                crossing = True
                break
        if crossing:
            continue
        for assign in itertools.product(range(1, n + 1), repeat=len(pairs)):
            vals = {}
            for bi, (a, b) in enumerate(pairs):
                vals[a] = assign[bi]
                vals[b] = assign[bi]
            term = Fraction(1)
            for u in range(order):
                tup = tuple(vals[u * d + j + 1] for j in range(d))
                term *= kernel.coeff(tup)
                if term == 0:
                    break
            total += term
    return total * kernel.scale2 ** (order // 2)


def brute_set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in brute_set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def brute_free_third_coefficient(kernel, law):
    """The free third-moment oracle's coefficient from scratch: set partitions
    of [3d] with blocks of 2 or 3 elements, each meeting every copy at most
    once, no two blocks crossing by the quadruple definition; each weighted by
    kappa_2^pairs kappa_3^triples and summed over block-constant assignments,
    then multiplied by scale2."""
    d, n = kernel.d, kernel.n
    m = 3 * d
    total = Fraction(0)
    for blocks in brute_set_partitions(list(range(1, m + 1))):
        if any(len(b) not in (2, 3) or len({(a - 1) // d for a in b}) < len(b) for b in blocks):
            continue
        owner = {a: bi for bi, b in enumerate(blocks) for a in b}
        if any(
            owner[i] == owner[k] and owner[j] == owner[l] and owner[i] != owner[j]
            for i, j, k, l in itertools.combinations(range(1, m + 1), 4)
        ):
            continue
        weight = Fraction(1)
        for b in blocks:
            weight *= law.kappa(len(b))
        for assign in itertools.product(range(1, n + 1), repeat=len(blocks)):
            vals = {a: assign[owner[a]] for a in owner}
            term = weight
            for u in range(3):
                term *= kernel.coeff(tuple(vals[u * d + j + 1] for j in range(d)))
                if term == 0:
                    break
            total += term
    return total * kernel.scale2


def pair_kernel():
    return family_kernel(KernelFamily("product", 2), 2)


# -- semicircular moments -----------------------------------------------------


def test_second_moment_is_inverse_factorial(rng):
    for d in (2, 3):
        k = random_admissible_kernel(rng, d, 5)
        assert free_second_moment(k) == Fraction(1, factorial(d))
        assert semicircular_moment(k, 2).value == Fraction(1, factorial(d))


def test_product_pair_fourth_moment():
    rep = semicircular_moment(pair_kernel(), 4)
    assert rep.value == Fraction(5, 8)
    assert rep.scaled_value == Fraction(5, 2)


def test_semicircular_moment_one_index_kernel_vanishes():
    k = Kernel(1, 2, {})
    for order in (1, 2, 3, 4):
        assert semicircular_moment(k, order).value == 0


def test_semicircular_moments_match_brute_force(rng):
    for d, n, order in ((2, 3, 2), (2, 3, 3), (2, 3, 4), (3, 4, 2)):
        k = random_admissible_kernel(rng, d, n)
        assert semicircular_moment(k, order).value == brute_semicircular_moment(k, order)


def test_sixth_moment_matches_brute_force(rng):
    k = random_admissible_kernel(rng, 2, 3)
    assert semicircular_moment(k, 6).value == brute_semicircular_moment(k, 6)


def test_odd_moment_of_triangle_kernel():
    k = Kernel(3, 2, {(1, 2): Fraction(1, 3), (1, 3): Fraction(1, 3), (2, 3): Fraction(1, 3)})
    rep = semicircular_moment(k, 3)
    assert rep.value == Fraction(2, 9) == brute_semicircular_moment(k, 3)


def test_odd_moment_of_product_kernel_is_rational():
    rep = semicircular_moment(pair_kernel(), 3)
    assert isinstance(rep.value, Fraction) and rep.value == 0


def test_odd_moment_with_irrational_scale_is_float():
    k = family_kernel(KernelFamily("star", 2), 3)
    rep = semicircular_moment(k, 3)
    assert isinstance(rep.value, float)
    assert rep.detail["coefficient"] * float(k.scale2) ** 0.5 == pytest.approx(rep.value)


def test_semicircular_moment_cap():
    k = random_admissible_kernel(random.Random(0), 3, 4)
    with pytest.raises(HomsumError):
        semicircular_moment(k, 9)


# -- contraction identity -------------------------------------------------------


def test_contraction_identity_product_pair():
    rep = semicircular_fourth_moment_contraction(pair_kernel())
    assert rep.value == Fraction(5, 8)
    assert rep.detail["2*(sum f^2)^2"] == Fraction(1, 2)
    assert rep.detail["s=1"] == Fraction(1, 8)


def test_contraction_identity_first_term(rng):
    for d in (2, 3):
        k = random_admissible_kernel(rng, d, 5)
        rep = semicircular_fourth_moment_contraction(k)
        assert rep.detail["2*(sum f^2)^2"] == Fraction(2, factorial(d) ** 2)


def test_contraction_identity_zero_kernel():
    assert semicircular_fourth_moment_contraction(Kernel(3, 2, {})).value == 0


def test_contraction_equals_pairing_enumeration(rng):
    for d, n in ((2, 5), (3, 4)):
        for _ in range(10):
            k = random_admissible_kernel(rng, d, n)
            assert (
                semicircular_fourth_moment_contraction(k).value
                == semicircular_moment(k, 4).value
            )


# -- the free closed form ----------------------------------------------------------


def test_free_fourth_moment_semicircular_law(rng):
    k = random_admissible_kernel(rng, 2, 4)
    assert free_fourth_moment(k, FreeLaw.semicircle()).value == semicircular_moment(k, 4).value


def test_free_fourth_moment_product_pair_values():
    k = pair_kernel()
    assert free_fourth_moment(k, FreeLaw.free_rademacher()).value == Fraction(3, 8)
    assert free_fourth_moment(k, FreeLaw.from_fourth_moment(3)).value == Fraction(7, 8)
    rep = free_fourth_moment(k, FreeLaw.free_rademacher())
    assert rep.scaled_value == Fraction(3, 2)


def test_free_fourth_moment_rejects_bad_law():
    with pytest.raises(AssumptionViolation):
        free_fourth_moment(pair_kernel(), FreeLaw((0, 2, 0, 3)))


def test_free_fourth_moment_allows_nonzero_third_moment(rng):
    # no third-moment condition in the free setting
    k = random_admissible_kernel(rng, 2, 4)
    skew = FreeLaw((0, 1, Fraction(1, 2), 2))
    plain = FreeLaw((0, 1, 0, 2))
    assert free_fourth_moment(k, skew).value == free_fourth_moment(k, plain).value
    assert free_fourth_moment_oracle(k, skew).value == free_fourth_moment(k, skew).value


# -- the non-crossing oracle ---------------------------------------------------------


def test_oracle_agrees_with_formula(rng):
    for d, n in ((2, 5), (3, 4)):
        for _ in range(10):
            k = random_admissible_kernel(rng, d, n)
            for kappa4 in (Fraction(-1), Fraction(0), Fraction(1), Fraction(3)):
                law = FreeLaw.from_fourth_moment(kappa4 + 2)
                assert (
                    free_fourth_moment_oracle(k, law).value
                    == free_fourth_moment(k, law).value
                )


def test_oracle_semicircular_reduces_to_pairings(rng):
    k = random_admissible_kernel(rng, 2, 4)
    rep = free_fourth_moment_oracle(k, FreeLaw.semicircle())
    assert rep.detail["rho_part"] == 0
    assert rep.detail["pairing_part"] == rep.value


def test_oracle_decomposition_counts():
    k = pair_kernel()
    rep = free_fourth_moment_oracle(k, FreeLaw.free_rademacher())
    assert rep.detail["partitions"] == rep.detail["pairings"] + rep.detail["rho_count"]


def test_rho_contributions_symmetric_in_h(rng):
    # the first and last single-4-block partitions contract to the same value
    for d in (2, 3):
        k = random_admissible_kernel(rng, d, 4)
        contractor = KernelContractor.of(k)
        rhos = rho_partitions(d)
        first, last = ([(incidence_type(rho, 4, d), 1)] for rho in (rhos[0], rhos[-1]))
        assert contractor.exact(first, 4) == contractor.exact(last, 4)


def oracle_detail_by_two_classes(kernel, law):
    """The free oracle's detail as assembled before it read the split from
    its one class's profiles: the pairings as a second class, and the rho
    part one contraction per rho partition."""
    d = kernel.d
    kappa = {2: law.kappa(2), 4: law.kappa(4)}
    contractor = KernelContractor.of(kernel)
    _, by_sizes = weighted_sum(contractor, 4, kappa, True)
    pairing_part, _ = weighted_sum(contractor, 4, {2: kappa[2]}, True)
    rho_part = Fraction(0)
    for rho in rho_partitions(d):
        w = cumulant_weight(kappa, rho.block_sizes())
        rho_part += w * contractor.exact([(incidence_type(rho, 4, d), 1)], 4)
    return {
        "partitions": partition_class_size(d, kappa, 4, True),
        "pairings": partition_class_size(d, {2}, 4, True),
        "rho_count": d,
        "pairing_part": pairing_part,
        "rho_part": rho_part,
        "by_block_sizes": {" +".join(map(str, k)): v for k, v in sorted(by_sizes.items())},
    }


def test_free_oracle_contracts_one_class(monkeypatch):
    """The oracle makes one ``weighted_sum`` call and reads the pairings and
    the rho part from its block-size profiles; its detail keeps every key,
    value, number type and the key order of the two-class assembly, also
    where kappa_4 = 0 drops the rho profile (exactly or as a float)."""
    for d in (2, 3, 4):
        profiles = contract._profile_types(d, frozenset({2, 4}), 4, True)
        rho = (2,) * (2 * d - 2) + (4,)
        assert set(profiles) == {(2,) * (2 * d), rho}
        assert sum(c for _, c in profiles[rho]) == len(rho_partitions(d))
    calls = []
    real = free.weighted_sum
    monkeypatch.setattr(free, "weighted_sum", lambda *a: calls.append(a) or real(*a))
    laws = (FreeLaw.free_rademacher(), FreeLaw.semicircle(), FreeLaw((0.0, 1.0, 0.0, 2.0)))
    assert [law.kappa(4) for law in laws] == [-1, 0, 0.0]
    rng = random.Random(17)
    for d in (2, 3):
        for kernel in (random_admissible_kernel(rng, d, 4), random_admissible_kernel(rng, d, 5)):
            for law in laws:
                calls.clear()
                rep = free_fourth_moment_oracle(kernel, law)
                assert len(calls) == 1
                assert repr(rep.detail) == repr(oracle_detail_by_two_classes(kernel, law))


def test_free_oracle_counts_rhos_in_the_class_it_contracts(monkeypatch):
    """``free`` imports nothing from ``partitions``: with the partition-level
    rho listing patched to raise, the oracle's detail is still the two-class
    assembly's, rho count included, also where kappa_4 = 0."""
    imports = {n.module for n in ast.walk(ast.parse(inspect.getsource(free))) if isinstance(n, ast.ImportFrom)}
    assert "partitions" not in imports
    laws = (FreeLaw.free_rademacher(), FreeLaw.semicircle(), FreeLaw.from_fourth_moment(3))
    draws = [(d, n, law) for d in (2, 3, 4) for n in (4, 5) for law in laws]
    kernel = lambda d, n: random_admissible_kernel(random.Random(d * n), d, n)
    want = [repr(oracle_detail_by_two_classes(kernel(d, n), law)) for d, n, law in draws]

    def refuse(d):
        raise AssertionError("the oracle listed the rho partitions")

    monkeypatch.setattr(partitions, "rho_partitions", refuse)
    assert [repr(free_fourth_moment_oracle(kernel(d, n), law).detail) for d, n, law in draws] == want


@pytest.mark.parametrize("rhos", [(((15, 15), 2),), ()], ids=["two-four-blocks", "no-rhos"])
def test_free_oracle_refuses_a_class_not_pairs_plus_rhos(monkeypatch, rhos):
    """The split is checked on the whole class, so a semicircular law, whose
    zero-weight rho profile is never contracted, is refused too: a type with
    two four-blocks (mask 15) fails though the rho count is d, and a class
    without its rhos fails on the count."""
    real = contract.grouped_types

    def grouped_types(d, sizes, k, noncrossing):
        return tuple((t, c) for t, c in real(d, sizes, k, noncrossing) if 15 not in t) + rhos

    monkeypatch.setattr(free, "grouped_types", grouped_types)
    kernel = random_admissible_kernel(random.Random(3), 2, 4)
    for law in (FreeLaw.free_rademacher(), FreeLaw.semicircle()):
        with pytest.raises(HomsumError, match=r"class on \[8\] is not pairings plus 2 rhos \(bug\)"):
            free_fourth_moment_oracle(kernel, law)


@pytest.mark.parametrize("d, n", [(5, 6), (5, 8), (6, 7)])
def test_oracle_equals_closed_form_at_high_degree(d, n):
    """Both free routes agree exactly up to the ground cap 4d = 24."""
    k = random_admissible_kernel(random.Random(d * n), d, n)
    for law in (FreeLaw.free_rademacher(), FreeLaw.from_fourth_moment(Fraction(7, 2))):
        assert free_fourth_moment_oracle(k, law).value == free_fourth_moment(k, law).value


def test_rho_part_equals_slice_fourth_sum(rng):
    k = random_admissible_kernel(rng, 2, 4)
    law = FreeLaw.free_rademacher()
    rep = free_fourth_moment_oracle(k, law)
    assert rep.detail["rho_part"] == law.kappa(4) * slice_fourth_sum(k)


# -- third moments ---------------------------------------------------------------------


def test_free_third_moment_equals_semicircular_at_even_degree(rng):
    # at d=2 the size-{2,3} non-crossing class contains no 3-blocks
    skew = FreeLaw((0, 1, Fraction(2, 3), 2))
    for _ in range(10):
        k = random_admissible_kernel(rng, 2, 4)
        rep = free_third_moment_oracle(k, skew)
        assert rep.value == semicircular_moment(k, 3).value
        assert "2 +2 +2" in rep.detail["by_block_sizes"] or rep.value == 0


def test_free_third_moment_equals_brute_reference_at_odd_degree():
    """At d = 3 the {2, 3} class has 3-blocks, so the third moment is not the
    semicircular one; the oracle's coefficient equals the brute sum, nonzero
    on these kernels."""
    skew = FreeLaw((0, 1, Fraction(1, 2), 4))
    for seed in (0, 3, 5):
        k = random_admissible_kernel(random.Random(seed), 3, 4)
        rep = free_third_moment_oracle(k, skew)
        assert rep.detail["coefficient"] == brute_free_third_coefficient(k, skew) != 0


def test_free_third_oracle_refuses_uncentered_law():
    """phi(Y^3) = m3 for a one-entry degree-1 kernel: the oracle weighs by
    kappa_3, which equals m3 only for a centered law, so an uncentered law
    is refused; a centered one needs no unit variance here."""
    k = Kernel(1, 1, {(1,): 1})
    with pytest.raises(AssumptionViolation, match="m1 = 1 \\(need 0\\)"):
        free_third_moment_oracle(k, FreeLaw((1, 2, 5, 20)))
    rep = free_third_moment_oracle(k, FreeLaw((0, 2, 5, 20)))
    assert rep.value == 5 and type(rep.value) is Fraction


# -- the moment oracle ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_order_five_equals_the_brute_pairing_sum(n):
    """Under the semicircle law only the pairings weigh, so the oracle's
    order-5 coefficient equals the brute pairing sum, nonzero at d = 2."""
    kernel = random_admissible_kernel(random.Random(n + 2), 2, n)
    rep = moment_oracle(kernel, FreeLaw.semicircle(), 5)
    assert rep.detail["coefficient"] == brute_semicircular_coefficient(kernel, 5) != 0
    assert rep.scaled_value == pytest.approx(rep.value * factorial(2) ** 2.5)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_moment_oracle_at_order_four_equals_the_free_engines(d):
    """On the reference kernels (dense, star, sparse and float-mode), order 4
    over block sizes 2 to 4 has the {2, 4} class's size and profile terms and
    equals both free fourth-moment routes."""
    for kernel in reference_kernels(d).values():
        for law in (FreeLaw.free_rademacher(), FreeLaw((0, 1, Fraction(1, 2), 4))):
            rep, oracle = moment_oracle(kernel, law, 4), free_fourth_moment_oracle(kernel, law)
            assert rep.value == oracle.value == free_fourth_moment(kernel, law).value
            assert rep.scaled_value == oracle.scaled_value
            for key in ("partitions", "by_block_sizes"):
                assert rep.detail[key] == oracle.detail[key]


def test_moment_oracle_refusals():
    """Orders outside 2 to 5 are refused in both regimes, as are order 5
    under a law known only to its fourth moment, the classical regime above
    degree 4, a free class beyond the ground cap and an uncentered law."""
    kernel = random_admissible_kernel(random.Random(0), 2, 4)
    for law in (ClassicalLaw.gaussian(), FreeLaw.semicircle()):
        for order in (0, 1, 6):
            with pytest.raises(HomsumError, match=f"moment oracle covers orders 2 to 5, got {order}"):
                moment_oracle(kernel, law, order)
    for law in (ClassicalLaw.from_fourth_moment(3), FreeLaw.from_fourth_moment(3)):
        with pytest.raises(MissingCumulant, match=r"cumulant of order 5 not available \(have 1..4\)"):
            moment_oracle(kernel, law, 5)
    degree5 = random_admissible_kernel(random.Random(5), 5, 6)
    with pytest.raises(GroundCapExceeded, match="partition oracle supports degree <= 4, got 5"):
        moment_oracle(degree5, ClassicalLaw.gaussian(), 3)
    assert moment_oracle(degree5, FreeLaw.semicircle(), 4).value == semicircular_moment(degree5, 4).value
    with pytest.raises(GroundCapExceeded, match=r"ground set \[25\] exceeds the cap 24"):
        moment_oracle(degree5, FreeLaw.semicircle(), 5)
    for law in (ClassicalLaw((1, 1, 0, 3)), FreeLaw((1, 2, 5, 20))):
        with pytest.raises(AssumptionViolation, match=r"partition oracle needs a centered law"):
            moment_oracle(kernel, law, 3)


@pytest.mark.parametrize(
    "engine, law, needs",
    [
        (classical_fourth_moment_oracle, FreeLaw.semicircle(), "classical oracle needs a ClassicalLaw, got a FreeLaw"),
        (classical_fourth_moment_formula, FreeLaw.semicircle(), "closed form needs a ClassicalLaw, got a FreeLaw"),
        (free_third_moment_oracle, ClassicalLaw.rademacher(), "free oracle needs a FreeLaw, got a ClassicalLaw"),
        (free_fourth_moment_oracle, ClassicalLaw.rademacher(), "free oracle needs a FreeLaw, got a ClassicalLaw"),
        (free_fourth_moment, ClassicalLaw.gaussian(), "free closed form needs a FreeLaw, got a ClassicalLaw"),
    ],
    ids=["classical-oracle", "classical-closed-form", "free-third-oracle", "free-fourth-oracle", "free-closed-form"],
)
def test_fixed_regime_engines_refuse_the_other_regime(engine, law, needs):
    """An engine of one regime refuses a law of the other by name, instead of
    answering in the law's regime; ``moment_oracle`` alone takes both."""
    kernel = random_admissible_kernel(random.Random(1), 2, 4)
    with pytest.raises(AssumptionViolation, match=f"^{needs}$"):
        engine(kernel, law)
    assert moment_oracle(kernel, law, 4).method == "enumeration"


# -- pinned reports ---------------------------------------------------------------------


def test_free_reports_are_pinned():
    """Whole JSON payloads, key order included, of free reports no benchmark
    input reaches: odd orders with an irrational scale, a 3-block profile,
    and a float law's rho part beside an exact pairing part."""
    k2 = random_admissible_kernel(random.Random(4), 2, 5)
    k3 = random_admissible_kernel(random.Random(1), 3, 5)
    assert (k2.scale2, k3.scale2) == (Fraction(1, 87), Fraction(1, 805))
    float_law = FreeLaw.from_fourth_moment(3.25)
    reports = (
        semicircular_moment(k2, 3),
        semicircular_moment(k2, 5),
        free_third_moment_oracle(k3, FreeLaw((0, 1, Fraction(1, 2), 4))),
        free_fourth_moment_oracle(k3, float_law),
        free_fourth_moment(k3, float_law),
    )
    want = (
        '{"value": -0.024030108539467816, "method": "enumeration", "detail": {"pairings": 1, '
        '"coefficient": "-13/58", "scale2": "1/87"}, "scaled_value": -0.06796741080362582}',
        '{"value": -0.07107933298827994, "method": "enumeration", "detail": {"pairings": 6, '
        '"coefficient": "-40145/60552", "scale2": "1/87"}, "scaled_value": -0.4020854268658353}',
        '{"value": -0.00039404760196597345, "method": "enumeration", "detail": {"partitions": 1, '
        '"coefficient": "-9/805", "by_block_sizes": {"2 +2 +2 +3": "-9/805"}}, '
        '"scaled_value": -0.005791293355103763}',
        '{"value": 0.09366364073459671, "method": "enumeration", "detail": {"partitions": 7, '
        '"pairings": 4, "rho_count": 3, "pairing_part": "1268954/17496675", "rho_part": 0.02113820375871416, '
        '"by_block_sizes": {"2 +2 +2 +2 +2 +2": "1268954/17496675", "2 +2 +2 +2 +4": 0.02113820375871416}}, '
        '"scaled_value": 3.3718910664454818}',
        '{"value": 0.09366364073459671, "method": "closed-form", "detail": {"semicircular": "1268954/17496675", '
        '"kappa4": 1.25, "slice_fourth_sum": "338147/19996200", "correction": {"k=1": 0.007989175681474718, '
        '"k=2": 0.002264573126036804, "k=3": 0.008640918560240731, "k=4": 0.00034093680180186613, '
        '"k=5": 0.0019025995891600357}}, "scaled_value": 3.3718910664454818}',
    )
    assert [json.dumps(r.to_json()) for r in reports] == list(want)


# -- difference identity ------------------------------------------------------------------


def test_difference_identity_same_law(rng):
    k = random_admissible_kernel(rng, 2, 4)
    law = FreeLaw.from_fourth_moment(Fraction(5, 2))
    res = free_difference_identity(k, law, law)
    assert res["equal"] and res["lhs"] == res["rhs"]


def test_difference_identity_product_pair_values():
    k = pair_kernel()
    res = free_difference_identity(k, FreeLaw.free_rademacher(), FreeLaw.semicircle())
    assert res["equal"]
    assert res["kappa4_A"] == Fraction(-1, 2)
    assert res["kappa4_B"] == Fraction(1, 2)
    assert res["slice_fourth_sum"] == Fraction(1, 4)


def test_difference_identity_random(rng):
    for _ in range(10):
        k = random_admissible_kernel(rng, 2, 4)
        law_a = FreeLaw.from_fourth_moment(Fraction(rng.randint(1, 10), 2))
        law_b = FreeLaw.from_fourth_moment(Fraction(rng.randint(1, 10), 2))
        assert free_difference_identity(k, law_a, law_b)["equal"]


def test_closed_form_builds_no_kernel_and_reuses_its_types(rng, built_kernels):
    # the per-index slice moments are contractions of the parent kernel and
    # law-independent: a second law contracts no new type
    kernel = random_admissible_kernel(rng, 3, 5)
    built_kernels.clear()
    first = free_fourth_moment(kernel, FreeLaw.free_rademacher()).value
    memo = dict(KernelContractor.of(kernel)._type_memo)
    second = free_fourth_moment(kernel, FreeLaw.from_fourth_moment(5)).value
    assert slice_fourth_sum(kernel) == (second - first) / 4
    assert built_kernels == []
    assert KernelContractor.of(kernel)._type_memo == memo


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_slice_moments_equal_slice_by_slice_reference(d):
    """Every index's marginal of the parent-kernel types equals the
    contraction identity on the slice kernel itself, with the same indices
    in the same order, on dense, sparse and float-mode kernels."""
    for kernel in reference_kernels(d).values():
        _, per_k = free._free_components(kernel)
        want = free_slice_moments_by_slicing(kernel)
        assert list(per_k.items()) == list(want.items())
        assert slice_fourth_sum(kernel) == sum(want.values())


# -- positivity and monotonicity (sampled) ----------------------------------------------


def test_semicircular_scaled_fourth_moment_at_least_two(rng):
    for d in (2, 3):
        for _ in range(25):
            k = random_admissible_kernel(rng, d, 5)
            assert factorial(d) ** 2 * semicircular_fourth_moment_contraction(k).value >= 2


def test_free_monotonicity(rng):
    law = FreeLaw.from_fourth_moment(3)  # kappa4 = 1
    for _ in range(25):
        k = random_admissible_kernel(rng, 2, 5)
        assert (
            free_fourth_moment(k, law).value
            >= semicircular_fourth_moment_contraction(k).value
        )
