import itertools

import numpy as np
import pytest

from margnet.domain import Dataset
from margnet.marginals import (
    Marginal,
    compute_marginal,
    fidelity_error,
    l1_distance,
    marginal_spec,
    query_error,
    selection_candidates,
    tvd,
)

from conftest import brute_force_marginal, random_dataset


def make_ds(rows, cards):
    return Dataset(rows=np.array(rows), cards=tuple(cards))


# ---------------------------------------------------------- compute_marginal

def test_two_way_hand_count():
    ds = make_ds([(0, 1), (0, 1), (1, 0)], (2, 2))
    m = compute_marginal(ds, marginal_spec(ds, (0, 1)))
    # flattening: index = a*2 + b
    assert m.counts.tolist() == [0, 2, 1, 0]


def test_one_way_hand_count():
    ds = make_ds([(0, 1), (0, 1), (1, 0)], (2, 2))
    m = compute_marginal(ds, marginal_spec(ds, (0,)))
    assert m.counts.tolist() == [2, 1]


def test_empty_dataset_zero_counts():
    ds = Dataset(rows=np.zeros((0, 2), dtype=int), cards=(2, 3))
    m = compute_marginal(ds, marginal_spec(ds, (0, 1)))
    assert m.counts.tolist() == [0] * 6


def test_spec_out_of_range():
    ds = make_ds([(0, 1)], (2, 2))
    with pytest.raises(ValueError, match=r"attribute index out of range for d=2: \(0, 5\)"):
        marginal_spec(ds, (0, 5))


def test_counts_sum_to_n():
    ds = random_dataset((3, 4, 2), 777, seed=0)
    for attrs in [(0,), (1, 2), (0, 1, 2)]:
        m = compute_marginal(ds, marginal_spec(ds, attrs))
        assert m.counts.sum() == 777


def test_brute_force_oracle_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        cards = tuple(int(rng.integers(2, 5)) for _ in range(d))
        n = int(rng.integers(0, 300))
        ds = random_dataset(cards, n, seed=int(rng.integers(1 << 30)))
        order = int(rng.integers(1, min(3, d) + 1))
        attrs = tuple(sorted(rng.choice(d, size=order, replace=False)))
        got = compute_marginal(ds, marginal_spec(ds, attrs)).counts
        want = brute_force_marginal(ds, attrs, cards)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("layout, dtype", [
    pytest.param(layout, dtype, id=layout if dtype is np.int64 else f"{layout}-{dtype.__name__}")
    for dtype in (np.int64, np.uint8, np.uint16) for layout in ("C", "F", "sliced")])
def test_counts_match_brute_force_in_any_memory_layout(layout, dtype):
    # Dataset stores its rows column-major in its code dtype; compute_marginal
    # must rely on neither
    cards = (3, 4, 2, 5)
    base = random_dataset(cards, 400, seed=31).rows.astype(dtype)
    wide = np.zeros((800, 8), dtype=dtype)
    wide[::2, ::2] = base
    rows = {"C": np.ascontiguousarray(base), "F": np.asfortranarray(base),
            "sliced": wide[::2, ::2]}[layout]
    assert np.array_equal(rows, base)
    ds = Dataset(rows=base, cards=cards)
    ds.rows = rows
    for order in (1, 2, 3):
        for attrs in itertools.combinations(range(len(cards)), order):
            got = compute_marginal(ds, marginal_spec(ds, attrs)).counts
            assert np.array_equal(got, brute_force_marginal(ds, attrs, cards))


@pytest.mark.parametrize("cards", [(256, 257), (256, 256), (1, 256)],
                         ids=["uint32-index", "uint16-index", "card-equals-cells"])
def test_counts_at_the_index_dtype_edges(cards):
    # 256 x 257 cells need a uint32 flat index, 256 x 256 fill uint16, and
    # (1, 256) multiplies a uint8 index by 256
    rng = np.random.default_rng(5)
    rows = np.stack([rng.integers(0, c, size=300) for c in cards], axis=1)
    rows[:2] = [[0] * len(cards), [c - 1 for c in cards]]
    ds = Dataset(rows=rows, cards=cards)
    got = compute_marginal(ds, marginal_spec(ds, (0, 1))).counts
    assert np.array_equal(got, brute_force_marginal(ds, (0, 1), cards))


def test_marginalization_consistency():
    ds = random_dataset((3, 4), 500, seed=7)
    two = compute_marginal(ds, marginal_spec(ds, (0, 1))).counts.reshape(3, 4)
    one_a = compute_marginal(ds, marginal_spec(ds, (0,))).counts
    one_b = compute_marginal(ds, marginal_spec(ds, (1,))).counts
    assert np.array_equal(two.sum(axis=1), one_a)
    assert np.array_equal(two.sum(axis=0), one_b)


# -------------------------------------------------------------- distances

def pair(c0, c1, attrs=(0,), cards=(2,)):
    spec = marginal_spec(cards, attrs)
    return Marginal(spec, np.array(c0, dtype=float)), Marginal(spec, np.array(c1, dtype=float))


def test_l1_distance():
    a, b = pair([1, 0], [1, 0])
    assert l1_distance(a, b) == 0
    a, b = pair([1, 0], [0, 1])
    assert l1_distance(a, b) == 2
    a, b = pair([3, 1], [1, 2])
    assert l1_distance(a, b) == 3


def test_spec_mismatch():
    a = Marginal(marginal_spec((2, 2), (0,)), np.array([1.0, 0.0]))
    b = Marginal(marginal_spec((2, 2), (1,)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"specs differ: \(0,\) vs \(1,\)"):
        l1_distance(a, b)


def test_tvd_values():
    a, b = pair([5, 5], [5, 5])
    assert tvd(a, b) == 0
    a, b = pair([1, 0], [0, 1])
    assert tvd(a, b) == 1
    a, b = pair([2, 2], [3, 1])
    assert tvd(a, b) == pytest.approx(0.25)


def test_tvd_clips_negative_noise():
    a, b = pair([2, -1, 3], [1, 1, 2], attrs=(0,), cards=(3,))
    # a clips to [2,0,3] -> [0.4, 0, 0.6]; b -> [0.25, 0.25, 0.5]
    assert tvd(a, b) == pytest.approx(0.5 * (0.15 + 0.25 + 0.1))


def test_tvd_zero_mass():
    a, b = pair([-1, -2], [1, 1])
    with pytest.raises(ValueError, match="marginal has no mass after clipping negatives"):
        tvd(a, b)


def test_tvd_metric_properties():
    rng = np.random.default_rng(3)
    spec = marginal_spec((5,), (0,))
    for _ in range(50):
        x = Marginal(spec, rng.random(5))
        y = Marginal(spec, rng.random(5))
        z = Marginal(spec, rng.random(5))
        assert tvd(x, y) == pytest.approx(tvd(y, x))
        assert tvd(x, z) <= tvd(x, y) + tvd(y, z) + 1e-12
        assert 0 <= tvd(x, y) <= 1
    same = Marginal(spec, np.array([1, 2, 3, 4, 5.0]))
    scaled = Marginal(spec, np.array([2, 4, 6, 8, 10.0]))
    assert tvd(same, scaled) == 0  # equal after normalization


# ------------------------------------------------------------ fidelity error

def test_fidelity_identity():
    ds = random_dataset((3, 3, 3), 200, seed=1)
    assert fidelity_error(ds, ds) == 0


def test_fidelity_d2_equals_single_tvd():
    real = random_dataset((3, 4), 300, seed=2)
    synth = random_dataset((3, 4), 300, seed=9)
    spec = marginal_spec(real, (0, 1))
    expect = tvd(compute_marginal(real, spec), compute_marginal(synth, spec))
    assert fidelity_error(real, synth) == pytest.approx(expect)


def test_fidelity_d3_mean_of_pairs_oracle():
    real = random_dataset((2, 3, 4), 400, seed=5)
    synth = random_dataset((2, 3, 4), 400, seed=6)
    pairs = [(0, 1), (0, 2), (1, 2)]
    vals = []
    for p in pairs:
        spec = marginal_spec(real, p)
        vals.append(tvd(compute_marginal(real, spec), compute_marginal(synth, spec)))
    assert fidelity_error(real, synth) == pytest.approx(np.mean(vals))


def test_fidelity_row_permutation_invariant():
    real = random_dataset((3, 3), 200, seed=12)
    perm = Dataset(rows=real.rows[::-1].copy(), cards=real.cards)
    synth = random_dataset((3, 3), 200, seed=13)
    assert fidelity_error(real, synth) == fidelity_error(perm, synth)


# -------------------------------------------------------------- query error

def test_query_identity_and_determinism():
    real = random_dataset((2, 3, 2, 4), 300, seed=8)
    synth = random_dataset((2, 3, 2, 4), 300, seed=14)
    assert query_error(real, real, 50, seed=0) == 0
    a = query_error(real, synth, 50, seed=123)
    b = query_error(real, synth, 50, seed=123)
    assert a == b


def test_query_error_single_spec_oracle():
    # d=3: only one 3-way spec exists, so the metric equals the brute-force
    # mean absolute frequency difference over that spec's cells.
    cards = (2, 2, 2)
    real = Dataset(rows=np.array([[0, 0, 0]]), cards=cards)
    synth = Dataset(rows=np.array([[1, 1, 1]]), cards=cards)
    # each table puts all mass in one cell; 8 cells, two differ by 1
    expect = (1.0 + 1.0) / 8
    assert query_error(real, synth, 10, seed=0) == pytest.approx(expect)


def reference_query_error(real_ds, synth_ds, n_queries, seed):
    """query_error before counting each drawn spec once, kept as its oracle."""
    all_specs = list(itertools.combinations(range(real_ds.d), 3))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    replace = len(all_specs) < n_queries
    picks = rng.choice(len(all_specs), size=n_queries, replace=replace)
    n_real = max(real_ds.n_records, 1)
    n_synth = max(synth_ds.n_records, 1)
    errs = []
    for p in picks:
        spec = marginal_spec(real_ds, all_specs[p])
        fr = compute_marginal(real_ds, spec).counts / n_real
        fs = compute_marginal(synth_ds, spec).counts / n_synth
        errs.append(np.abs(fr - fs).mean())
    return float(np.mean(errs))


@pytest.mark.parametrize("d,n_queries", [(5, 300), (12, 100)], ids=["replace", "no-replace"])
def test_query_error_equals_uncached_loop(d, n_queries):
    # d=5 has 10 three-way specs, so 300 draws repeat them; d=12 has 220 > 100
    cards = tuple(2 + a % 4 for a in range(d))
    real = random_dataset(cards, 500, seed=d)
    synth = random_dataset(cards, 350, seed=d + 100)
    for seed in range(3):
        assert query_error(real, synth, n_queries, seed) == \
            reference_query_error(real, synth, n_queries, seed)


def test_query_error_needs_three_attrs():
    ds = random_dataset((2, 2), 10, seed=0)
    with pytest.raises(ValueError, match="query error needs at least 3 attributes"):
        query_error(ds, ds, 5, seed=0)


def test_selection_candidates_order_and_cell_cap():
    assert [s.attrs for s in selection_candidates((2, 3, 4))] == [(0, 1), (0, 2), (1, 2)]
    # the pair (0, 1) has 4000 * 3000 = 12M cells, above the 10M cap
    assert [s.attrs for s in selection_candidates((4000, 3000, 2))] == [(0, 2), (1, 2)]
