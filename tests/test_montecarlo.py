"""Monte Carlo sampling: determinism, mixture weights, estimator accuracy."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from homsums import montecarlo

from homsums import (
    ClassicalLaw,
    Estimate,
    HomsumError,
    Kernel,
    KernelFamily,
    SamplerSpec,
    UnknownSampler,
    classical_fourth_moment_formula,
    estimate_moment,
    family_kernel,
    gaussian_fourth_moment,
    mixture_t_moment,
    moment_oracle,
    random_admissible_kernel,
    sample_mixture_t,
)
from montecarlo_reference import formula_entries, gather_sum, sorted_prefix_counts, tuple_weights
from slicing_reference import reference_kernels

N_SMOKE = 200_000


def pair_kernel():
    return family_kernel(KernelFamily("product", 2), 2)


def test_spec_validation():
    with pytest.raises(UnknownSampler):
        SamplerSpec(law="cauchy", seed=1, sample_count=10)
    with pytest.raises(HomsumError):
        SamplerSpec(law="two-point", seed=1, sample_count=10, alpha=1.0)
    with pytest.raises(HomsumError):
        SamplerSpec(law="mixture-T", seed=1, sample_count=10, q=0)
    with pytest.raises(HomsumError):  # codes hold at most 16 bits
        SamplerSpec(law="product-TX", seed=1, sample_count=10, q=16)
    with pytest.raises(UnknownSampler):
        SamplerSpec(law="product-TX", seed=1, sample_count=10, base="poisson")


@pytest.mark.parametrize(
    "fields",
    [{"seed": 1.5}, {"seed": 1.9}, {"seed": True}, {"sample_count": True}, {"sample_count": 10.0},
     {"q": 2.0}, {"q": True}],
    ids=["seed=1.5", "seed=1.9", "seed=True", "count=True", "count=10.0", "q=2.0", "q=True"],
)
def test_spec_refuses_non_int_fields(fields):
    """A float or bool seed would draw the stream of its int value while the
    estimate records the value given; a bool count is one sample."""
    with pytest.raises(HomsumError, match="must be an int"):
        SamplerSpec(**{"law": "product-TX", "seed": 1, "sample_count": 10, **fields})


def test_seed_determinism_bit_for_bit():
    spec = SamplerSpec(law="gaussian", seed=99, sample_count=5000)
    k = family_kernel(KernelFamily("star", 2), 3)
    a = estimate_moment(k, spec, 4)
    b = estimate_moment(k, spec, 4)
    assert a == b
    c = estimate_moment(k, SamplerSpec(law="gaussian", seed=100, sample_count=5000), 4)
    assert c.mean != a.mean


def test_mixture_t_degenerate_alpha_zero():
    spec = SamplerSpec(law="mixture-T", seed=3, sample_count=1000, alpha=0.0, q=3)
    t = sample_mixture_t(spec)
    assert np.all(t == 1.0)


def test_mixture_t_lower_bound():
    alpha, q = 0.5, 2
    spec = SamplerSpec(law="mixture-T", seed=4, sample_count=50_000, alpha=alpha, q=q)
    t = sample_mixture_t(spec)
    assert np.all(t >= (1 - alpha) ** (q / 2) - 1e-12)


def test_alpha_for_moment_ratio_inverts_fourth_moment():
    from homsums import alpha_for_moment_ratio

    theta, q = 0.5, 3
    alpha = alpha_for_moment_ratio(theta, q)
    assert 0 <= alpha < 1
    assert (1 + alpha**2) ** q == pytest.approx(1 + theta)
    with pytest.raises(HomsumError):
        alpha_for_moment_ratio(5.0, 1)  # alpha would reach sqrt(5) > 1
    with pytest.raises(HomsumError):
        alpha_for_moment_ratio(-0.1, 2)


def test_mixture_t_moment_closed_form():
    assert mixture_t_moment(2, Fraction(1, 2), 4) == Fraction(25, 16)
    assert mixture_t_moment(1, Fraction(1, 2), 2) == 1
    with pytest.raises(HomsumError):
        mixture_t_moment(2, Fraction(1, 2), 6)


@pytest.mark.parametrize("q,alpha", [(1, 0.5), (2, 0.5), (3, 0.25)])
def test_mixture_t_fourth_moment_estimate(q, alpha):
    spec = SamplerSpec(law="mixture-T", seed=11, sample_count=N_SMOKE, alpha=alpha, q=q)
    t = sample_mixture_t(spec)
    vals = t**4
    mean = vals.mean()
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    exact = float(mixture_t_moment(q, Fraction(alpha), 4))
    assert abs(mean - exact) <= 4 * stderr


def test_rademacher_product_pair_fourth_power_is_constant():
    spec = SamplerSpec(law="rademacher", seed=5, sample_count=2000)
    est = estimate_moment(pair_kernel(), spec, 4)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_gaussian_star_estimate_matches_exact():
    k = family_kernel(KernelFamily("star", 2), 3)
    spec = SamplerSpec(law="gaussian", seed=12, sample_count=N_SMOKE)
    est = estimate_moment(k, spec, 4)
    exact = float(gaussian_fourth_moment(k).value)
    assert exact == 9
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_second_moment_estimate_near_one(rng):
    from homsums import random_admissible_kernel

    k = random_admissible_kernel(rng, 2, 4)
    spec = SamplerSpec(law="rademacher", seed=21, sample_count=N_SMOKE)
    est = estimate_moment(k, spec, 2)
    assert abs(est.mean - 1.0) <= 4 * est.stderr


def test_product_tx_estimate_matches_composite_law():
    # entries T*X have fourth moment (1+alpha^2)^q * E[X^4]
    k = pair_kernel()
    q, alpha = 2, 0.5
    spec = SamplerSpec(
        law="product-TX", seed=31, sample_count=N_SMOKE, alpha=alpha, q=q, base="gaussian"
    )
    est = estimate_moment(k, spec, 4)
    m4 = mixture_t_moment(q, Fraction(1, 2), 4) * 3
    exact = float(classical_fourth_moment_formula(k, ClassicalLaw.from_fourth_moment(m4)).value)
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_order_three_estimate_matches_the_moment_oracle():
    """Monte Carlo is an independent route at order 3: on a dense d = 2
    kernel, whose triangles make E[Q^3] nonzero under Rademacher entries,
    the estimate lies within 6 standard errors of the exact oracle value."""
    k = random_admissible_kernel(random.Random(5), 2, 6)
    exact = moment_oracle(k, ClassicalLaw.rademacher(), 3).value
    est = estimate_moment(k, SamplerSpec(law="rademacher", seed=2703, sample_count=2**16), 3)
    assert exact != 0 and est.stderr > 0
    assert abs(est.mean - exact) <= 6 * est.stderr


def test_estimate_order_validation():
    spec = SamplerSpec(law="gaussian", seed=1, sample_count=100)
    with pytest.raises(HomsumError):
        estimate_moment(pair_kernel(), spec, 5)


def test_estimate_json_fields():
    est = Estimate(mean=1.0, stderr=0.1, sample_count=10, seed=3)
    assert est.to_json() == {"mean": 1.0, "stderr": 0.1, "n": 10, "seed": 3}


def test_estimate_moment_memory_is_bounded():
    """Entries are made per row chunk from one byte per entry and factor:
    on the pair kernel one 65,536-row batch stays under 16 MiB at n = 32
    and under 32 MiB at n = 96 (a whole batch of float64 entries, made
    before the sum, peaked at 32 / 18 / 64 MiB and 96 / 50 / 192 MiB)."""
    for n, bound_mib in ((32, 16), (96, 32)):
        kernel = family_kernel(KernelFamily("off-diagonal-pair", 2), n)
        for fields in ({"law": "rademacher"}, {"law": "gaussian"}, {"law": "product-TX", "q": 2}):
            estimate_moment(kernel, SamplerSpec(seed=1, sample_count=1, **fields), 4)  # builds the plan
            tracemalloc.start()
            try:
                estimate_moment(kernel, SamplerSpec(seed=1, sample_count=65_536, **fields), 4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, (n, fields)


def test_estimate_memory_does_not_grow_with_the_sample_count():
    """Each batch's mean and centered sum of squares merge into running
    totals, and no sample is kept: on the free-clt kernel of the benchmark
    the peak stays under 8 MiB at 2^20 and at 2^22 samples (keeping every
    sample peaked at 17 and 65 MiB)."""
    kernel = family_kernel(KernelFamily("free-clt", 3), 4)
    estimate_moment(kernel, SamplerSpec(law="rademacher", seed=1, sample_count=1), 4)  # builds the plan
    for count in (1 << 20, 1 << 22):
        spec = SamplerSpec(law="product-TX", base="rademacher", q=2, seed=1, sample_count=count)
        tracemalloc.start()
        try:
            estimate_moment(kernel, spec, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, count


def averaged_sums(monkeypatch, kernel, spec, order):
    """The estimate and every ``Q(f; x)`` it averaged, in draw order."""
    sums = []
    real = montecarlo._homogeneous_sum
    monkeypatch.setattr(montecarlo, "_homogeneous_sum", lambda *args: sums.append(real(*args)) or sums[-1])
    est = estimate_moment(kernel, spec, order)
    monkeypatch.setattr(montecarlo, "_homogeneous_sum", real)
    return np.concatenate(sums), est


@pytest.mark.parametrize("law", ["rademacher", "gaussian", "product-TX"])
def test_one_batch_estimate_is_numpy_mean_and_std_bit_for_bit(law, monkeypatch):
    """Up to one batch of samples, the running mean and sum of squares are
    ``np.mean`` and ``np.std(ddof=1)`` of the powers of Q, bit for bit."""
    kernel = family_kernel(KernelFamily("off-diagonal-pair", 2), 12)
    for count, order in itertools.product((montecarlo._BATCH, 1000, 2), (2, 3, 4)):
        spec = SamplerSpec(law=law, seed=count + order, sample_count=count, q=2, base="rademacher")
        q, est = averaged_sums(monkeypatch, kernel, spec, order)
        v = {2: q * q, 3: q * q * q, 4: (q * q) * (q * q)}[order]
        assert repr(est.mean) == repr(float(np.mean(v))), (count, order)
        assert repr(est.stderr) == repr(float(np.std(v, ddof=1) / math.sqrt(count))), (count, order)


def test_row_chunking_moves_only_the_last_bits(monkeypatch):
    kernel = family_kernel(KernelFamily("off-diagonal-pair", 2), 12)
    spec = SamplerSpec(law="gaussian", seed=3, sample_count=4096)
    monkeypatch.setattr(montecarlo, "_GATHER_BUDGET", 12 * 512)  # 8 chunks of 512 rows
    chunked = estimate_moment(kernel, spec, 4)
    monkeypatch.setattr(montecarlo, "_GATHER_BUDGET", 1 << 40)  # one chunk
    whole = estimate_moment(kernel, spec, 4)
    assert chunked.mean == pytest.approx(whole.mean, rel=1e-12)
    assert chunked.stderr == pytest.approx(whole.stderr, rel=1e-12)


def nested_sum_kernels(d):
    """Every kernel shape the nested evaluation must handle at degree d."""
    rng = random.Random(100 + d)
    kernels = {"empty": Kernel(d + 2, d, {}), "random": random_admissible_kernel(rng, d, d + 3)}
    if d >= 2:
        kernels.update(reference_kernels(d))
        kernels["free-clt"] = family_kernel(KernelFamily("free-clt", d), 3)
    if d == 2:
        kernels["pair"] = family_kernel(KernelFamily("off-diagonal-pair", 2), 24)
    return kernels


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("budget", [montecarlo._GATHER_BUDGET, 1])
def test_nested_sum_matches_gather_reference(d, budget, monkeypatch):
    """Per row, the nested prefix evaluation equals the tuple-by-tuple
    gather up to rounding: within 1e-12 of the sum of the terms' absolute
    values, in one chunk and with one row per chunk."""
    monkeypatch.setattr(montecarlo, "_GATHER_BUDGET", budget)
    for name, kernel in nested_sum_kernels(d).items():
        x = np.random.default_rng(d).standard_normal((300, kernel.n))
        q = montecarlo._homogeneous_sum(kernel, len(x), lambda lo, hi: x[lo:hi].T)
        ref, scale = gather_sum(kernel, x)
        assert np.all(np.abs(q - ref) <= 1e-12 * scale), name


def trie_paths(levels) -> list[tuple[int, ...]]:
    """The indices on the path to each node of depth d-1, by a walk of the
    plan's levels from the root: a node's parent is the last node whose
    first child is at or before it."""
    paths = [()]
    for last, starts, _ in reversed(levels):
        parent = np.searchsorted(starts, np.arange(len(last)), side="right") - 1
        paths = [paths[p] + (i,) for p, i in zip(parent.tolist(), last.tolist())]
    return paths


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_plan_weights_equal_the_fraction_formula_bit_for_bit(d):
    """Each weight of the nested plan, built from the integer numerators,
    is ``float(entry) * sqrt(scale2) * d!`` on the ``Fraction`` entry, bit
    for bit, on exact, irrational-scale and float-mode kernels: it sits at
    the row of the trie node on its tuple's path and the column of the
    path's last index."""
    for name, kernel in nested_sum_kernels(d).items():
        weights, levels = montecarlo._horner_plan(kernel)
        idx, want = tuple_weights(kernel)
        paths = trie_paths(levels)
        rows, cols = np.nonzero(weights)
        got = {tuple(sorted(paths[r] + (c,))): weights[r, c] for r, c in zip(rows.tolist(), cols.tolist())}
        assert len(rows) == len(got) == len(want), name
        assert np.array_equal(np.array([got[t] for t in map(tuple, idx.tolist())]), want), name


def band_kernel(n: int) -> Kernel:
    """Pairs at distance one or two: every sorted prefix but the last has
    children, while the greedy trie needs only every third index or so."""
    return Kernel(n, 2, {(i, j): 1 for i in range(1, n) for j in range(i + 1, min(i + 2, n) + 1)})


def test_greedy_trie_sizes():
    """The greedy trie's pinned sizes, and never a level wider than the
    sorted-support trie's: free-clt d = 3, n = 4 has 16 matmul rows (37
    sorted); the complete pair kernel keeps the sorted trie exactly, row i
    holding the weights of the pairs (i, j), so its estimates keep their
    bits."""
    weights, levels = montecarlo._horner_plan(family_kernel(KernelFamily("free-clt", 3), 4))
    assert len(weights) == 16 and [len(last) for last, _, _ in levels] == [16, 4]

    pair = family_kernel(KernelFamily("off-diagonal-pair", 2), 24)
    weights, [(last, starts, runs)] = montecarlo._horner_plan(pair)
    idx, w = tuple_weights(pair)
    sorted_weights = np.zeros((23, 24))
    sorted_weights[idx[:, 0], idx[:, 1]] = w
    assert np.array_equal(weights, sorted_weights)
    assert last.tolist() == list(range(23)) and starts.tolist() == [0] and runs == [(0, 0, 23)]

    band = band_kernel(200)
    assert (len(montecarlo._horner_plan(band)[0]), sorted_prefix_counts(band)[0]) == (133, 199)
    kernels = [("band", band)] + [(f"{name}/d{d}", k) for d in range(1, 6) for name, k in nested_sum_kernels(d).items()]
    for name, kernel in kernels:
        if not kernel.entries:  # the zero plan
            continue
        weights, levels = montecarlo._horner_plan(kernel)
        got = [len(weights)] + [len(last) for last, _, _ in levels]
        want = sorted_prefix_counts(kernel)
        assert len(got) == len(want) and all(g <= s for g, s in zip(got, want)), (name, got, want)


def philox_state(rng: np.random.Generator) -> tuple:
    """Everything the generator carries between draws, spare half word
    (``has_uint32``, ``uinteger``) included."""
    s = rng.bit_generator.state
    return (*(s["state"][k].tolist() for k in ("counter", "key")), s["buffer"].tolist(), s["buffer_pos"],
            s["has_uint32"], s["uinteger"])


def test_bits_are_the_bool_draw_at_word_boundaries():
    """Consecutive runs of bits read from whole words equal numpy's bool
    draws of the same lengths, and leave the generator where they leave it,
    at and around every word boundary."""
    mine, ref = montecarlo._generator(5), montecarlo._generator(5)
    for count in [1, 31, 32, 33, 63, 64, 65, *(1285 * q for q in (1, 2, 3, 4))] * 2:
        bits = montecarlo._bits(mine, count)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, ref.integers(0, 2, size=count, dtype=np.bool_)), count
        assert philox_state(mine) == philox_state(ref), count
    assert mine.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_fields_pack_the_bool_draw(width):
    """Each field holds ``width`` consecutive bool draws, the first in its
    low bit, shifted by ``shift``; the generator ends where the bool draw
    leaves it."""
    mine, ref = montecarlo._generator(6), montecarlo._generator(6)
    for count, shift in itertools.product((1, 7, 33, 1285), (0, 3, 8)):
        dtype = np.min_scalar_type((1 << (width + shift)) - 1)
        got = montecarlo._fields(mine, count, width, shift, dtype)
        bits = ref.integers(0, 2, size=(count, width), dtype=np.bool_)
        assert got.dtype == dtype
        assert np.array_equal(got, (bits.astype(np.int64) << np.arange(width)).sum(axis=1) << shift)
        assert philox_state(mine) == philox_state(ref), (count, shift)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("base", montecarlo.BASE_IDS)
@pytest.mark.parametrize("law", montecarlo.LAW_IDS)
def test_entries_equal_the_formulas_bit_for_bit(law, base, q):
    for alpha in (0.5, 0.3):
        spec = SamplerSpec(law=law, seed=q, sample_count=1, alpha=alpha, q=q, base=base)
        drawn = montecarlo._entries(montecarlo._generator(q), spec, (257, 5))
        assert np.array_equal(drawn, formula_entries(montecarlo._generator(q), spec, (257, 5)))


def drawn_entries(monkeypatch, kernel, spec):
    """The entries ``estimate_moment`` feeds the sum, row by row."""
    chunks = []
    real = montecarlo._homogeneous_sum

    def spy(kernel, count, chunk):
        return real(kernel, count, lambda lo, hi: chunks.append(chunk(lo, hi)) or chunks[-1])

    monkeypatch.setattr(montecarlo, "_homogeneous_sum", spy)
    est = estimate_moment(kernel, spec, 4)
    monkeypatch.setattr(montecarlo, "_homogeneous_sum", real)
    return np.concatenate([c.T for c in chunks]), est


SPECS = [{"law": law} for law in ("rademacher", "gaussian", "two-point")] + [
    {"law": "mixture-T", "q": 3},
    {"law": "product-TX", "q": 2, "base": "gaussian"},
    {"law": "product-TX", "q": 2, "base": "rademacher"},
]


@pytest.mark.parametrize("fields", SPECS, ids=lambda f: "-".join(map(str, f.values())))
def test_stream_depends_on_neither_kernel_nor_chunking(fields, monkeypatch):
    """The entries are the same whatever ``_GATHER_BUDGET`` and for two
    kernels with the same n; the estimates move only in their last bits
    (one row per chunk runs a matrix-vector product, not a matmul)."""
    spec = SamplerSpec(seed=7, sample_count=3000, alpha=0.3, **fields)
    pair = family_kernel(KernelFamily("off-diagonal-pair", 2), 12)
    runs = []
    for budget in (1, 12 * 512, montecarlo._GATHER_BUDGET):
        monkeypatch.setattr(montecarlo, "_GATHER_BUDGET", budget)
        runs.append(drawn_entries(monkeypatch, pair, spec))
    for x, est in runs[:2]:
        assert np.array_equal(x, runs[2][0])
        assert est.mean == pytest.approx(runs[2][1].mean, rel=1e-12)
        assert est.stderr == pytest.approx(runs[2][1].stderr, rel=1e-12)
    star = family_kernel(KernelFamily("star", 2), 12)
    assert np.array_equal(drawn_entries(monkeypatch, star, spec)[0], runs[2][0])


@pytest.mark.parametrize("batch, count", [(montecarlo._BATCH, montecarlo._BATCH + 1000), (1003, 3 * 1003 + 500)])
@pytest.mark.parametrize(
    "fields", [{"law": "product-TX", "q": 2, "base": "rademacher"}, {"law": "two-point"}], ids=["product-TX", "two-point"]
)
def test_two_valued_stream_spans_batches(fields, batch, count, monkeypatch):
    """Across batches, two-valued entries are the formulas' draws batch by
    batch, bit for bit.  A draw of an odd number of 32-bit words leaves a
    spare half of a 64-bit Philox output, which the next draw starts on.
    With 2^16-row batches that happens only inside the last batch, between
    product-TX's weight and sign bits; with 1003-row batches of 5 entries
    it also happens across batch boundaries, under both laws."""
    monkeypatch.setattr(montecarlo, "_BATCH", batch)
    n = 5
    spec = SamplerSpec(seed=13, sample_count=count, alpha=0.3, **fields)
    x, _ = drawn_entries(monkeypatch, family_kernel(KernelFamily("off-diagonal-pair", 2), n), spec)
    rng = montecarlo._generator(13)
    sizes = [min(batch, count - lo) for lo in range(0, count, batch)]
    assert np.array_equal(x, np.concatenate([formula_entries(rng, spec, (size, n)) for size in sizes]))


def test_gaussian_stream_is_one_normal_draw(monkeypatch):
    """Across batches and chunks, Gaussian entries are one draw of the
    whole sample from Philox keyed by the seed, bit for bit."""
    count, n = montecarlo._BATCH + 1000, 4
    kernel = family_kernel(KernelFamily("off-diagonal-pair", 2), n)
    x, _ = drawn_entries(monkeypatch, kernel, SamplerSpec(law="gaussian", seed=9, sample_count=count))
    assert np.array_equal(x, np.random.Generator(np.random.Philox(key=9)).standard_normal((count, n)))


# chi-square 0.999 quantiles for 2^(q+1) - 1 degrees of freedom
CHI2_999 = {1: 16.266, 2: 24.322, 3: 37.697, 4: 61.098}


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_product_tx_codes_are_uniform(q):
    spec = SamplerSpec(law="product-TX", seed=40 + q, sample_count=1, q=q, base="rademacher")
    code = montecarlo._codes(montecarlo._generator(spec.seed), spec, (4096, 16))
    counts = np.bincount(code.ravel(), minlength=2 ** (q + 1))
    assert len(counts) == 2 ** (q + 1)
    expected = code.size / len(counts)
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_999[q]
