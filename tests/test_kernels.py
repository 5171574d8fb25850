"""Kernel construction, admissibility, slices, influences, contractions,
families and the JSON interchange."""

import itertools
import json
import random
from fractions import Fraction
from math import factorial, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsums import (
    ClassicalLaw,
    HomsumError,
    Kernel,
    KernelFamily,
    KernelFormatError,
    NotNormalizable,
    check_admissible,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    contraction_square_sum,
    family_kernel,
    influence,
    influence_max,
    make_admissible,
    random_admissible_kernel,
    slice_kernel,
)
import kernel_reference as ref
from homsums.contract import KernelContractor, dense_tier
from slicing_reference import reference_kernels, square_sum_by_gram, square_sum_by_grouping


def pair_kernel():
    return family_kernel(KernelFamily("product", 2), 2)


# -- construction and admissibility ------------------------------------------


def test_make_admissible_single_entry():
    k = make_admissible({(1, 2): 1}, n=2, d=2)
    assert k.entries == {(1, 2): Fraction(1, 2)}
    assert k.scale2 == 1
    assert check_admissible(k).ok


def test_make_admissible_symmetrizes():
    k = make_admissible({(1, 2): 1, (2, 1): 0}, n=2, d=2)
    assert k.entries == {(1, 2): Fraction(1, 2)}
    assert check_admissible(k).ok
    k2 = make_admissible({(2, 1): Fraction(1, 3)}, n=3, d=2)
    assert check_admissible(k2).ok


def test_make_admissible_idempotent():
    raw = {(1, 2): Fraction(2, 3), (1, 3): Fraction(-1, 5), (2, 3): 4}
    k = make_admissible(raw, n=3, d=2)
    assert make_admissible(k) == k


def test_make_admissible_drops_diagonals_and_rejects_pure_diagonal():
    k = make_admissible({(1, 1): 5, (1, 2): 1}, n=2, d=2)
    assert (1, 1) not in k.entries
    with pytest.raises(NotNormalizable):
        make_admissible({(1, 1): 5, (2, 2): 1}, n=2, d=2)


def test_make_admissible_float_mode():
    k = make_admissible({(1, 2): 0.25, (1, 3): 0.5}, n=3, d=2)
    assert k.mode == "float"
    assert check_admissible(k).ok


def test_uniform_pair_kernel_is_admissible():
    # f(i,j) = 1/sqrt(2n(n-1)) off the diagonal, here n=3
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), 3)
    rep = check_admissible(k)
    assert rep.ok and rep.gamma_norm == 1


def test_check_admissible_reports_gamma_norm():
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), 3)
    doubled = k.scaled(2)
    rep = check_admissible(doubled)
    assert not rep.gamma and rep.gamma_norm == 4
    assert rep.alpha and rep.beta
    empty = Kernel(3, 2, {})
    rep = check_admissible(empty)
    assert not rep.gamma and rep.gamma_norm == 0


def test_kernel_validation():
    with pytest.raises(KernelFormatError):
        Kernel(3, 2, {(2, 1): Fraction(1)})  # unsorted
    with pytest.raises(KernelFormatError):
        Kernel(3, 2, {(1, 1): Fraction(1)})  # diagonal
    with pytest.raises(KernelFormatError):
        Kernel(3, 2, {(1, 4): Fraction(1)})  # out of range
    with pytest.raises(HomsumError):
        Kernel(3, 0, {})
    with pytest.raises(KernelFormatError, match="mode"):
        Kernel(3, 2, {}, mode="triple")
    with pytest.raises(KernelFormatError, match="entry 1: index tuple \\(1,\\) has length 1"):
        Kernel(3, 2, {(1, 2): 1, (1,): 1})


def test_value_lookup_uses_symmetric_extension():
    k = pair_kernel()
    assert k.value((1, 2)) == Fraction(1, 2)
    assert k.value((2, 1)) == Fraction(1, 2)
    assert k.value((1, 1)) == 0
    star = family_kernel(KernelFamily("star", 2), 3)
    assert star.value((2, 1)) == pytest.approx(1 / (2 * 2**0.5))


# -- slices -------------------------------------------------------------------


def test_slice_of_pair_kernel():
    sl = slice_kernel(pair_kernel(), (1,))
    assert sl.d == 1 and sl.entries == {(2,): Fraction(1, 2)}


def test_slice_with_repeated_fixed_indices_is_zero():
    k = family_kernel(KernelFamily("product", 3), 3)
    sl = slice_kernel(k, (1, 1))
    assert sl.entries == {}


def test_slice_of_star_kernel_keeps_block_structure():
    k = family_kernel(KernelFamily("star", 3), 3)  # hub 1, blocks (2,3), (4,5)
    sl = slice_kernel(k, (1,))
    assert sl.entries == {(2, 3): Fraction(1, 6), (4, 5): Fraction(1, 6)}
    assert sl.scale2 == Fraction(1, 2)
    leaf = slice_kernel(k, (2,))
    assert leaf.entries == {(1, 3): Fraction(1, 6)}


def test_slice_errors():
    k = pair_kernel()
    with pytest.raises(HomsumError):
        slice_kernel(k, (1, 2))  # m == d
    with pytest.raises(HomsumError):
        slice_kernel(k, (7,))


# -- influence and contraction -------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 10])
def test_influence_of_uniform_pair_kernel(n):
    k = family_kernel(KernelFamily("off-diagonal-pair", 2), n)
    for i in range(1, n + 1):
        assert influence(k, i) == Fraction(1, 2 * n)
    assert influence_max(k) == Fraction(1, 2 * n)


def test_influence_edge_cases():
    assert influence(Kernel(3, 2, {}), 1) == 0
    prod = family_kernel(KernelFamily("product", 2), 3)  # support {1,2} inside [3]
    assert influence(prod, 3) == 0
    with pytest.raises(HomsumError):
        influence(prod, 4)


def test_influence_max_is_the_largest_influence():
    rng = random.Random(11)
    cases = [random_admissible_kernel(rng, d, 6) for d in (2, 3, 4)]
    cases += [family_kernel(KernelFamily("star", d), 9) for d in (2, 3)]
    cases += [family_kernel(KernelFamily("off-diagonal-pair", 2), n) for n in (2, 7)]
    cases.append(Kernel(4, 2, {(1, 2): Fraction(-3, 7), (2, 4): Fraction(5, 2)}, 3))
    for k in cases:
        assert influence_max(k) == max(influence(k, i) for i in range(1, k.n + 1)), k


def test_influences_sum_to_sq_norm():
    rng = random.Random(7)
    for d in (2, 3):
        k = random_admissible_kernel(rng, d, 5)
        total = sum(influence(k, i) for i in range(1, k.n + 1))
        assert total == k.sq_norm() == Fraction(1, factorial(d))


def test_contraction_square_sum_pair_kernel():
    assert contraction_square_sum(pair_kernel(), 1) == Fraction(1, 8)


def test_contraction_square_sum_errors_and_zero():
    with pytest.raises(HomsumError):
        contraction_square_sum(pair_kernel(), 2)
    assert contraction_square_sum(Kernel(4, 3, {}), 1) == 0


def test_contraction_square_sum_relabel_invariant(rng):
    k = random_admissible_kernel(rng, 3, 5)
    perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    for s in (1, 2):
        assert contraction_square_sum(k, s) == contraction_square_sum(k.relabel(perm), s)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dense_square_sum_equals_dict_grouping(d):
    """The dense type contraction, the Gram-matrix reference and the
    d!-permutation dict grouping give the same exact value at every overlap
    size."""
    kernel = random_admissible_kernel(random.Random(d), d, 6)
    assert dense_tier(kernel, 4, 2 * d) is not None
    for s in range(1, d):
        typed = contraction_square_sum(kernel, s)
        assert typed == square_sum_by_gram(kernel, s) == square_sum_by_grouping(kernel, s)
    assert set(KernelContractor.of(kernel).backend_types) == {"float64"}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_square_sum_equals_references_on_every_backend(d):
    """Per overlap size, the one type contraction equals the dict grouping on
    dense, sparse and float-mode kernels, and the Gram matrix where the
    kernel has an int64-safe dense tensor."""
    for name, kernel in reference_kernels(d).items():
        gram_ok = dense_tier(kernel, 4, 2 * d) is not None
        assert gram_ok == (name == "dense"), name
        for s in range(1, d):
            typed = contraction_square_sum(kernel, s)
            assert typed == square_sum_by_grouping(kernel, s), (name, s)
            if gram_ok:
                assert typed == square_sum_by_gram(kernel, s), (name, s)


def test_dense_square_sum_at_the_int64_bound():
    """On n = 3 at degree 2 the sum runs over 2d = 4 indices of 4 factors:
    dense iff max|num|^4 * 3^4 < 2^63.  Either side gives the exact
    18 v^4 of a uniform kernel of value v."""
    top = isqrt(isqrt((2**63 - 1) // 81))
    for value, dense in ((top, True), (top + 1, False)):
        kernel = Kernel(3, 2, {t: value for t in itertools.combinations(range(1, 4), 2)})
        assert (dense_tier(kernel, 4, 4) is not None) == dense
        assert contraction_square_sum(kernel, 1) == 18 * value**4


def test_slice_commutes_with_relabeling(rng):
    k = random_admissible_kernel(rng, 3, 5)
    perm = {1: 2, 2: 4, 3: 3, 4: 5, 5: 1}
    for j in range(1, 6):
        assert slice_kernel(k.relabel(perm), (perm[j],)) == slice_kernel(k, (j,)).relabel(perm)


# -- families -------------------------------------------------------------------


def test_product_family():
    k = family_kernel(KernelFamily("product", 3), 3)
    assert k.entries == {(1, 2, 3): Fraction(1, 6)}
    assert check_admissible(k).ok


def test_off_diagonal_pair_n2_equals_product():
    assert family_kernel(KernelFamily("off-diagonal-pair", 2), 2) == pair_kernel()


def test_star_kernel_d2_n3():
    # X1 (X2 + X3) / sqrt(2) as a kernel on three indices
    k = family_kernel(KernelFamily("star", 2), 3)
    assert k.entries == {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2)}
    assert k.scale2 == Fraction(1, 2)
    assert check_admissible(k).ok


def test_free_clt_family_layout():
    k = family_kernel(KernelFamily("free-clt", 2), 3)
    assert k.n == 6 and k.support_size == 9
    # every support tuple mixes the two residue classes mod 2
    assert all((t[0] - t[1]) % 2 == 1 for t in k.entries)
    assert check_admissible(k).ok


@pytest.mark.parametrize("family_id", ["off-diagonal-pair", "product", "star", "free-clt"])
def test_families_generate_admissible_kernels(family_id):
    d_values = (2,) if family_id == "off-diagonal-pair" else (2, 3)
    for d in d_values:
        fam = KernelFamily(family_id, d)
        for n in range(fam.min_n, fam.min_n + 3):
            assert check_admissible(fam.kernel(n)).ok


def test_family_validation():
    with pytest.raises(HomsumError):
        KernelFamily("off-diagonal-pair", 3)
    with pytest.raises(HomsumError):
        KernelFamily("starlike", 2)
    with pytest.raises(HomsumError):
        family_kernel(KernelFamily("star", 2), 1)
    with pytest.raises(HomsumError):
        family_kernel(KernelFamily("product", 3), 2)


# -- integer storage against the Fraction references ---------------------------------


def assert_stores(kernel, want):
    """The kernel's ``Fraction`` view and scale equal a reference
    construction, and its stored pair is those entries over their least
    common denominator."""
    entries, scale2 = want
    assert list(kernel.entries.items()) == list(entries.items())
    assert kernel.scale2 == scale2
    den, nums = kernel.int_entries()
    assert den == lcm(*(v.denominator for v in entries.values()))
    assert list(nums.items()) == [(t, int(v * den)) for t, v in entries.items()]


FAMILY_CASES = (
    [("off-diagonal-pair", 2, n) for n in (2, 3, 9, 10, 50)]
    + [("product", d, d + 1) for d in (2, 3, 4)]
    + [("star", d, n) for d in (2, 3, 4) for n in (2, 5)]
    + [("free-clt", d, n) for d in (2, 3) for n in (1, 2, 4)]
)


@pytest.mark.parametrize("family_id,d,n", FAMILY_CASES)
def test_family_entries_equal_fraction_reference(family_id, d, n):
    assert_stores(family_kernel(KernelFamily(family_id, d), n), ref.family(family_id, d, n))


def test_random_kernel_entries_equal_fraction_reference():
    for seed, d, n, kwargs in [
        (0, 2, 4, {}),
        (1, 3, 6, {}),
        (2, 4, 7, {}),
        (3, 5, 7, {}),
        (4, 3, 6, {"max_num": 9, "max_den": 12}),
        (5, 2, 5, {"density": 0.01}),
    ]:
        got = random_admissible_kernel(random.Random(seed), d, n, **kwargs)
        assert_stores(got, ref.random_kernel(random.Random(seed), d, n, **kwargs))


def reference_cases():
    rng = random.Random(23)
    cases = [(family_kernel(KernelFamily(f, d), n), ref.family(f, d, n)) for f, d, n in FAMILY_CASES[::3]]
    for d, n in ((2, 5), (3, 6), (4, 6)):
        seed = rng.random()
        kernel = random_admissible_kernel(random.Random(seed), d, n, max_den=7)
        cases.append((kernel, ref.random_kernel(random.Random(seed), d, n, max_den=7)))
    return cases


def test_transforms_keep_entries_equal_fraction_reference():
    """``scaled``, ``relabel``, ``slice_kernel``, ``make_admissible`` and a
    JSON round trip of each family and random kernel equal the same
    transform on ``Fraction`` entries."""
    rng = random.Random(29)
    for kernel, want in reference_cases():
        n, d = kernel.n, kernel.d
        assert_stores(kernel, want)
        for c in (Fraction(3, 2), Fraction(-2), 0, Fraction(1, 3), 7):
            assert_stores(kernel.scaled(c), ref.scaled(*want, c))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        perm = {i + 1: p for i, p in enumerate(perm)}
        assert_stores(kernel.relabel(perm), ref.relabel(*want, perm))
        fixed_sets = [(1,), (n,), (2, 1), (1, 1)] if d >= 3 else [(1,), (n,)]
        for fixed in fixed_sets:
            assert_stores(slice_kernel(kernel, fixed), ref.sliced(*want, fixed))
        tripled = ref.scaled(*want, 3)
        assert_stores(make_admissible(kernel.scaled(3)), ref.normalized(*tripled, d))
        loaded = Kernel.from_json(json.loads(json.dumps(kernel.to_json())))
        assert loaded == kernel
        assert_stores(loaded, want)


def test_make_admissible_of_raw_values_equals_fraction_reference():
    rng = random.Random(31)
    for d, n in ((2, 4), (3, 5)):
        for floats in (False, True):
            raw = {}
            for t in itertools.product(range(1, n + 1), repeat=d):
                if rng.random() < 0.4:
                    raw[t] = rng.uniform(-2, 2) if floats else Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            assert_stores(make_admissible(raw, n, d), ref.admissible_from_raw(raw, n, d))


# -- JSON interchange ------------------------------------------------------------


def test_json_round_trip_exact(tmp_path):
    k = pair_kernel()
    path = tmp_path / "kernel.json"
    k.dump(str(path))
    loaded = Kernel.load(str(path))
    assert loaded == k
    data = json.loads(path.read_text())
    assert list(data) == ["n", "d", "mode", "entries"]  # no "scale2" when it is 1
    assert data["mode"] == "exact"
    assert data["entries"] == [{"idx": [1, 2], "num": 1, "den": 2}]


def test_json_export_of_irrational_scale_stays_exact(tmp_path):
    k = family_kernel(KernelFamily("star", 2), 3)
    data = k.to_json()
    assert data["mode"] == "exact"
    assert data["entries"][0] == {"idx": [1, 2], "num": 1, "den": 2}
    assert list(data)[-1] == "scale2" and data["scale2"] == {"num": 1, "den": 2}
    path = tmp_path / "star.json"
    k.dump(str(path))
    assert Kernel.load(str(path)) == k
    # a float-mode kernel still exports its rounded values
    floats = make_admissible({(1, 2): 0.5, (2, 3): 1.5}, 3, 2)
    data = floats.to_json()
    assert data["mode"] == "float" and "scale2" not in data
    assert data["entries"][0]["val"] == pytest.approx(float(floats.value((1, 2))))


def round_trip_cases():
    rng = random.Random(41)
    bases = [family_kernel(KernelFamily(f, d), n) for f, d, n in FAMILY_CASES]
    bases += [random_admissible_kernel(random.Random(seed), d, d + 2) for seed in range(3) for d in range(2, 6)]
    for kernel in bases:
        perm = list(range(1, kernel.n + 1))
        rng.shuffle(perm)
        yield from (kernel, kernel.scaled(Fraction(-2, 3)), kernel.relabel(dict(zip(range(1, kernel.n + 1), perm))))
        yield make_admissible(kernel.scaled(5))


def test_json_round_trip_is_exact_for_families_and_random_kernels():
    kernels = list(round_trip_cases())
    assert sum(k.scale2 != 1 for k in kernels) > len(kernels) // 3
    for kernel in kernels:
        assert Kernel.from_json(json.loads(json.dumps(kernel.to_json()))) == kernel


def test_reloaded_kernel_runs_on_the_same_tiers():
    kernel = random_admissible_kernel(random.Random(0), 4, 7)
    loaded = Kernel.from_json(json.loads(json.dumps(kernel.to_json())))
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    for k in (kernel, loaded):
        assert classical_fourth_moment_formula(k, law).value == classical_fourth_moment_oracle(k, law).value
    assert classical_fourth_moment_formula(loaded, law).value == classical_fourth_moment_formula(kernel, law).value
    tiers = [KernelContractor.of(k).backend_types for k in (kernel, loaded)]
    assert tiers[0] == tiers[1] == {"float64": 11}


@pytest.mark.parametrize(
    "entry",
    [
        {"idx": [2, 1], "num": 1, "den": 2},
        {"idx": [1, 1], "num": 1, "den": 2},
        {"idx": [1, 9], "num": 1, "den": 2},
        {"idx": [1], "num": 1, "den": 2},
        {"idx": [1, 2], "num": 1, "den": 0},
        {"idx": [1, 2]},
        {"idx": [1, 2], "num": 1.5, "den": 2},
        {"idx": [1, 2], "val": 0.5},
        {"idx": [1, "2"], "num": 1, "den": 2},
        [1, 2],
    ],
)
def test_json_rejects_bad_entries(entry):
    data = {"n": 3, "d": 2, "mode": "exact", "entries": [entry]}
    with pytest.raises(KernelFormatError, match="entry 0"):
        Kernel.from_json(data)


@pytest.mark.parametrize("val", [float("nan"), float("inf"), "1/2", None])
def test_json_rejects_bad_float_values(val):
    data = {"n": 3, "d": 2, "mode": "float", "entries": [{"idx": [1, 2], "val": val}]}
    with pytest.raises(KernelFormatError, match="entry 0"):
        Kernel.from_json(data)


@pytest.mark.parametrize(
    "scale2,error",
    [
        ({"num": 1, "den": 0}, KernelFormatError),
        ({"num": 1}, KernelFormatError),
        (0.5, KernelFormatError),
        ({"num": -1, "den": 2}, HomsumError),
        ({"num": 0, "den": 2}, HomsumError),
    ],
)
def test_json_rejects_bad_scale2(scale2, error):
    data = {"n": 3, "d": 2, "mode": "exact", "entries": [{"idx": [1, 2], "num": 1, "den": 2}], "scale2": scale2}
    with pytest.raises(error, match="scale2"):
        Kernel.from_json(data)


def test_json_rejects_bad_headers():
    with pytest.raises(KernelFormatError):
        Kernel.from_json({"n": 3, "d": 2, "mode": "exact"})
    with pytest.raises(KernelFormatError):
        Kernel.from_json({"n": 3, "d": 2, "mode": "triple", "entries": []})
    with pytest.raises(KernelFormatError):
        Kernel.from_json([1, 2, 3])
    with pytest.raises(KernelFormatError, match="'entries' must be a list"):
        Kernel.from_json({"n": 3, "d": 2, "mode": "exact", "entries": 5})
    with pytest.raises(KernelFormatError, match="integers"):
        Kernel.from_json({"n": 3.0, "d": 2, "mode": "exact", "entries": []})
    with pytest.raises(HomsumError, match="degree"):
        Kernel.from_json({"n": 3, "d": 0, "mode": "exact", "entries": []})


def test_json_rejects_duplicate_idx():
    data = {
        "n": 3,
        "d": 2,
        "mode": "exact",
        "entries": [
            {"idx": [1, 2], "num": 1, "den": 2},
            {"idx": [1, 2], "num": 1, "den": 3},
        ],
    }
    with pytest.raises(KernelFormatError, match="duplicate"):
        Kernel.from_json(data)


# -- randomized properties ---------------------------------------------------------


def test_random_admissible_kernels_are_admissible(rng):
    for d in (2, 3):
        for _ in range(20):
            k = random_admissible_kernel(rng, d, 5)
            assert check_admissible(k).ok
            assert k.gamma_norm() == 1


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=8,
    )
)
def test_make_admissible_always_normalizes_or_raises(raw):
    try:
        k = make_admissible(raw, n=4, d=2)
    except NotNormalizable:
        off_diagonal = {t: v for t, v in raw.items() if t[0] != t[1]}
        sym = {}
        for (a, b), v in off_diagonal.items():
            sym[(min(a, b), max(a, b))] = sym.get((min(a, b), max(a, b)), Fraction(0)) + v
        assert all(v == 0 for v in sym.values())
        return
    assert check_admissible(k).ok
