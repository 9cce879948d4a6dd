import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from margnet import generator
from margnet.errors import CheckpointError
from margnet.generator import (
    TrainContext,
    _segment_softmax,
    adam_step,
    fold_targets,
    forward,
    gram_layout,
    gram_marginals,
    init_generator,
    load_checkpoint,
    loss_and_grad,
    sample_hard,
    save_checkpoint,
    soft_marginal,
)
from margnet.marginals import (Marginal, compute_marginal, l1_distance, marginal_spec,
                               selection_candidates)
from margnet.synthesis import Measurement, train

from conftest import exact_index, loss_and_grad_on_copy, random_dataset


# DENSE_SLACK settings that force each layout of G: one square block, or one
# block row per first attribute
LAYOUTS = {"one-block": 10**9, "block-rows": 0}


@pytest.fixture(params=sorted(LAYOUTS))
def layout_slack(request, monkeypatch):
    monkeypatch.setattr(generator, "DENSE_SLACK", LAYOUTS[request.param])


def tiny_model(cards=(2, 3), hidden=(8,), latent=3, batch=4, seed=7, dtype=np.float64):
    return init_generator(cards, list(hidden), latent, batch, seed, dtype)


def make_targets(cards, specs, counts_list, weight=1.0):
    targets = []
    for attrs, counts in zip(specs, counts_list):
        spec = marginal_spec(cards, attrs)
        targets.append(Measurement(spec=spec, noisy=Marginal(spec, np.asarray(counts, float)),
                                   rho_m=0.5, sigma=1.0, weight=weight))
    return targets


# ---------------------------------------------------------------- structure

def test_init_deterministic():
    a = tiny_model(seed=5)
    b = tiny_model(seed=5)
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)
    assert np.array_equal(a.Z, b.Z)


def test_output_width():
    m = tiny_model(cards=(2, 3))
    assert m.layers[-1][0].shape[1] == 5
    assert m.out_width == 5


def test_z_shape_and_frozen():
    m = tiny_model(latent=6, batch=9)
    assert m.Z.shape == (9, 6)
    assert not m.Z.flags.writeable


# ------------------------------------------------------------------ forward

def test_forward_zero_head_is_uniform():
    m = tiny_model(cards=(2, 4))
    W, b = m.layers[-1]
    m.layers[-1] = (np.zeros_like(W), np.zeros_like(b))
    probs = forward(m)
    assert np.allclose(probs[:, m.segment(0)], 0.5)
    assert np.allclose(probs[:, m.segment(1)], 0.25)


def test_forward_rows_on_simplex():
    m = tiny_model(cards=(3, 5, 2), batch=17)
    probs = forward(m)
    for a in range(3):
        seg = probs[:, m.segment(a)]
        assert np.all(seg >= 0)
        assert np.allclose(seg.sum(axis=1), 1.0, atol=1e-6)


def test_segment_softmax_mixed_cardinalities_on_simplex():
    cards = (1, 3, 1, 5, 2)
    offsets = tuple(int(o) for o in np.cumsum((0,) + cards[:-1]))
    logits = np.random.default_rng(3).normal(0, 30, size=(9, sum(cards)))
    probs = _segment_softmax(logits.copy(), generator.segment_plan(cards))
    for off, c in zip(offsets, cards):
        seg = probs[:, off:off + c]
        assert np.all(seg >= 0)
        assert np.allclose(seg.sum(axis=1), 1.0, atol=1e-12)
        e = np.exp(logits[:, off:off + c] - logits[:, off:off + c].max(axis=1, keepdims=True))
        assert np.allclose(seg, e / e.sum(axis=1, keepdims=True), rtol=1e-12, atol=0)
    assert np.all(probs[:, [0, 4]] == 1.0)


def reduceat_per_segment(ufunc, x, cards, offsets):
    """The segment reduction before per-run views, kept as an oracle: `ufunc`
    reduced over each row's segments with reduceat, repeated back over the
    segment's columns."""
    columns = np.repeat(np.arange(len(cards)), cards)
    return np.take(ufunc.reduceat(x, offsets, axis=1), columns, axis=1, mode="clip")


def reduceat_softmax(logits, cards, offsets):
    e = np.exp(logits - reduceat_per_segment(np.maximum, logits, cards, offsets))
    return e / reduceat_per_segment(np.add, e, cards, offsets)


# card layouts for the oracle tests: uniform cards, alternating cards, a
# repeated mixed pattern, a binary run before and after a 10-bin attribute, a
# card above 128 and cards of 1
SEGMENT_LAYOUTS = {
    "uniform": (10,) * 12,
    "alternating": (2, 3) * 10,
    "mixed-repeated": (2, 2, 8, 3, 12) * 3,
    "binary-then-10": (2,) * 12 + (10,),
    "10-then-binary": (10,) + (2,) * 12,
    "card-300": (300,),
    "cards-of-1": (1,) * 9 + (3, 1, 7),
}


def segment_offsets(cards):
    return tuple(int(o) for o in np.cumsum((0,) + cards[:-1]))


def spread_values(rng, shape, dtype):
    """Normal values scaled over 6 orders of magnitude, signs mixed."""
    return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)


def test_segment_plan_views_only_long_runs():
    # a run of n attributes of card k is a view when n >= max(8, k); the
    # other columns form one reduceat stretch per gap between views
    plan = generator.segment_plan((10,) + (2,) * 12 + (3, 3) + (2,) * 8)
    assert [(p.cols, p.view) for p in plan] == [
        (slice(0, 10), None), (slice(10, 34), (12, 2)), (slice(34, 40), None),
        (slice(40, 56), (8, 2))]
    assert plan[2].offsets.tolist() == [0, 3] and plan[2].columns.tolist() == [0] * 3 + [1] * 3
    for cards in [(10,) * 9, (41,) * 8 + (3,), (2, 3) * 30]:
        (part,) = generator.segment_plan(cards)
        assert part.view is None and part.offsets.tolist() == list(segment_offsets(cards))
    assert [p.view for p in generator.segment_plan((10,) * 10 + (1,) * 8)] == [(10, 10), (8, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_view_reductions_pin_reduceat_order(dtype):
    # the written-out pairwise sum equals np.add.reduceat bit for bit, and the
    # running max np.maximum.reduceat, for k up to 300: a running sum below
    # 8 terms, 8 accumulators up to 128, the recursive split above. A numpy
    # release that reorders reduceat fails here.
    rng = np.random.default_rng(17)
    b, n = 3, 2
    for k in range(1, 301):
        x = spread_values(rng, (b, n * k), dtype)
        offsets = np.arange(0, n * k, k)
        x3 = x.reshape(b, n, k)
        assert np.array_equal(generator._view_sum(x3), np.add.reduceat(x, offsets, axis=1)), k
        assert np.array_equal(generator._view_max(x3), np.maximum.reduceat(x, offsets, axis=1)), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", sorted(SEGMENT_LAYOUTS))
def test_segment_softmax_matches_reduceat_oracle(layout, dtype):
    cards = SEGMENT_LAYOUTS[layout]
    logits = spread_values(np.random.default_rng(5), (33, sum(cards)), dtype) / 100
    want = reduceat_softmax(logits, cards, segment_offsets(cards))
    assert same_bits(_segment_softmax(logits, generator.segment_plan(cards)), want)


def test_forward_fixed_input_repeatable():
    m = tiny_model()
    assert np.array_equal(forward(m), forward(m))


# ------------------------------------------------------------ soft marginal

def test_soft_marginal_single_outer_product():
    m = tiny_model(cards=(2, 2), batch=1)
    probs = np.array([[1.0, 0.0, 0.0, 1.0]])
    got = soft_marginal(m, probs, marginal_spec(m.cards, (0, 1)), scale=10.0)
    assert got.counts.tolist() == [0.0, 10.0, 0.0, 0.0]


def test_soft_marginal_uniform():
    m = tiny_model(cards=(2, 2), batch=3)
    probs = np.full((3, 4), 0.5)
    got = soft_marginal(m, probs, marginal_spec(m.cards, (0, 1)), scale=4.0)
    assert np.allclose(got.counts, 1.0)


def test_soft_marginal_marginalizes_exactly():
    m = tiny_model(cards=(3, 4), batch=11, seed=2)
    probs = forward(m)
    two = soft_marginal(m, probs, marginal_spec(m.cards, (0, 1)), 7.0).counts.reshape(3, 4)
    one = soft_marginal(m, probs, marginal_spec(m.cards, (0,)), 7.0).counts
    assert np.allclose(two.sum(axis=1), one, atol=1e-12)


@pytest.mark.parametrize("pairs", [
    list(itertools.combinations(range(4), 2)),
    [(0, 1), (0, 3)],  # partners 1 and 3 are not adjacent columns
    [(0, 2), (1, 3)],
], ids=["all-pairs", "one-row-gap", "disjoint"])
def test_soft_marginals_blocks_match_per_spec(layout_slack, pairs):
    m = tiny_model(cards=(3, 1, 4, 2), hidden=(10,), batch=13, seed=6)
    specs = [marginal_spec(m.cards, attrs) for attrs in [(a,) for a in range(4)] + pairs]
    probs = forward(m)
    soft = gram_marginals(probs, 37.0, gram_layout(m, pairs))
    for spec in specs:
        assert np.allclose(soft.marginal(spec).counts, soft_marginal(m, probs, spec, 37.0).counts,
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_candidate_l1_equals_per_spec_l1_to_the_bit(layout_slack, dtype):
    # mixed cards give 21 cell-count groups, some past the 128 cells where
    # numpy's pairwise sum starts to split; the oracle is a gather and an
    # `l1_distance` per candidate
    cards = (3, 1, 4, 2, 5, 3, 20, 13)
    m = tiny_model(cards=cards, hidden=(16,), batch=13, seed=5, dtype=dtype)
    other = tiny_model(cards=cards, hidden=(16,), batch=13, seed=6, dtype=dtype)
    ds = random_dataset(cards, 500, seed=13)
    candidates = selection_candidates(cards)
    exact = {s.attrs: compute_marginal(ds, s) for s in candidates}
    index = exact_index(m, ds)
    assert index.specs == candidates and len(index.groups) == 21
    assert all(index.exact[s.attrs].counts.tolist() == exact[s.attrs].counts.tolist()
               for s in candidates)
    soft = gram_marginals(forward(m), 500.0, index.layout)
    soft_other = gram_marginals(forward(other), 500.0, index.layout)
    assert generator.candidate_l1(soft, index).tolist() == [
        l1_distance(soft.marginal(s), exact[s.attrs]) for s in candidates]
    assert generator.candidate_l1(soft, index, soft_other).tolist() == [
        l1_distance(soft.marginal(s), soft_other.marginal(s)) for s in candidates]


@pytest.mark.parametrize("chunk", [1, 7, 40, 200])
def test_candidate_l1_chunks_keep_every_sum(monkeypatch, chunk):
    # chunks of one row, of a few rows with a short last chunk, and of rows
    # wider than the chunk: every candidate's sum is still `l1_distance`'s
    monkeypatch.setattr(generator, "L1_CHUNK_CELLS", chunk)
    cards = (3, 1, 4, 2, 5, 3, 20, 13)
    m = tiny_model(cards=cards, hidden=(16,), batch=13, seed=5, dtype=np.float32)
    other = tiny_model(cards=cards, hidden=(16,), batch=13, seed=6, dtype=np.float32)
    ds = random_dataset(cards, 500, seed=13)
    index = exact_index(m, ds)
    soft, soft_other = (gram_marginals(forward(g), 500.0, index.layout) for g in (m, other))
    assert generator.candidate_l1(soft, index).tolist() == [
        l1_distance(soft.marginal(s), index.exact[s.attrs]) for s in index.specs]
    assert generator.candidate_l1(soft, index, soft_other).tolist() == [
        l1_distance(soft.marginal(s), soft_other.marginal(s)) for s in index.specs]


def test_candidate_index_and_l1_memory_stay_near_the_counts():
    # 40 attributes of 32 bins: 780 candidates of 1024 cells, 6.4 MB of
    # counts and 6.4 MB of gather index in one group. Building the index
    # holds little past them, and candidate_l1 reads the group in chunks.
    cards = (32,) * 40
    m = tiny_model(cards=cards, hidden=(16,), batch=8, seed=3, dtype=np.float32)
    ds = random_dataset(cards, 300, seed=4)
    specs = selection_candidates(cards)
    tracemalloc.start()
    try:
        index = generator.candidate_index(m, specs, (compute_marginal(ds, s).counts for s in specs))
        _, index_peak = tracemalloc.get_traced_memory()
        soft = gram_marginals(forward(m), 300.0, index.layout)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        generator.candidate_l1(soft, index)
        _, l1_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(gather.nbytes + counts.nbytes for *_, gather, counts in index.groups)
    assert held == 780 * 1024 * 16
    assert index_peak < 1.1 * held
    assert l1_peak - before < 4 * 8 * generator.L1_CHUNK_CELLS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gram_marginals_equal_per_block_products(layout_slack, dtype):
    # the in-place writer gives each cell the bits of c * (P_rows^T P_cols),
    # formed block by block and concatenated after g1 = c * P's column sums
    m = tiny_model(cards=(3, 1, 4, 2, 5), hidden=(10,), batch=13, seed=8, dtype=dtype)
    layout = gram_layout(m, [(0, 1), (0, 3), (1, 4), (2, 3), (2, 4)])
    probs = forward(m)
    c = 37.0 / probs.shape[0]
    blocks = []
    for blk in layout.blocks:
        p_rows = probs[:, blk.rows]
        p_cols = p_rows if blk.cols is blk.rows else probs[:, blk.cols]
        blocks.append((c * (p_rows.T @ p_cols)).ravel())
    want = np.concatenate([c * probs.sum(axis=0), *blocks])
    assert same_bits(gram_marginals(probs, 37.0, layout).cells, want)


def test_candidate_l1_needs_the_other_marginals_at_the_index_layout():
    m = tiny_model(cards=(2, 3, 2))
    index = exact_index(m, random_dataset(m.cards, 5, seed=2))
    soft = gram_marginals(forward(m), 5.0, index.layout)
    elsewhere = gram_marginals(forward(m), 5.0, gram_layout(m, [s.attrs for s in index.specs]))
    with pytest.raises(ValueError, match="not at the candidates' layout"):
        generator.candidate_l1(soft, index, elsewhere)


def test_gram_layout_one_block_for_compact_pairs():
    m = tiny_model(cards=(10,) * 24)
    layout = gram_layout(m, list(itertools.combinations(range(24), 2)))
    assert [blk.shape for blk in layout.blocks] == [(240, 240)]


def test_gram_layout_block_rows_hold_only_requested_cells():
    # a 500-category attribute: one square block would be ~100x the pairs' cells
    m = tiny_model(cards=(500, 2, 3, 4))
    pairs = list(itertools.combinations(range(4), 2))
    layout = gram_layout(m, pairs)
    assert [blk.shape for blk in layout.blocks] == [(500, 9), (2, 7), (3, 4)]
    targets = make_targets(m.cards, [(0, 2)], [np.ones(1500)])
    folded = fold_targets(m, targets, 1.0)
    assert [w.shape for w in folded.layout.parts(folded.weight)[1:]] == [(500, 3)]


def test_soft_marginal_rejects_three_way():
    m = tiny_model(cards=(2, 2, 2))
    with pytest.raises(ValueError, match="support order 1 and 2 only"):
        soft_marginal(m, forward(m), marginal_spec(m.cards, (0, 1, 2)), 1.0)


def test_soft_batch_rank_at_most_b():
    # the implied two-way joint table of a b-row soft batch has rank <= b
    for b in (1, 2, 4):
        m = tiny_model(cards=(6, 7), hidden=(16,), batch=b, seed=b)
        joint = soft_marginal(m, forward(m), marginal_spec(m.cards, (0, 1)), 100.0).counts
        svals = np.linalg.svd(joint.reshape(6, 7), compute_uv=False)
        assert np.all(svals[b:] < 1e-8)


# --------------------------------------------------------------- loss/grad

def finite_difference_check(model, targets, scale, h=1e-5):
    _, grads = loss_and_grad_on_copy(model, fold_targets(model, targets, scale))
    worst = 0.0
    for l, (W, b) in enumerate(model.layers):
        for arr, g in ((W, grads[l][0]), (b, grads[l][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = loss_and_grad_on_copy(model, fold_targets(model, targets, scale))
                arr[idx] = orig - h
                lm, _ = loss_and_grad_on_copy(model, fold_targets(model, targets, scale))
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(g[idx]), 1e-6)
                worst = max(worst, abs(fd - g[idx]) / denom)
    return worst


def test_gradient_matches_finite_differences():
    m = tiny_model(cards=(2, 3), hidden=(8,), latent=3, batch=4, seed=1)
    rng = np.random.default_rng(0)
    targets = make_targets(m.cards, [(0,), (1,), (0, 1)],
                           [rng.normal(3, 1, 2), rng.normal(3, 1, 3), rng.normal(3, 1, 6)],
                           weight=1.3)
    assert finite_difference_check(m, targets, scale=10.0) < 1e-4


def repeated_spec_targets(model, seed):
    """One- and two-way targets over cards (3, 1, 4); spec (0, 2) is measured
    twice with different weights and spec (1,) twice with equal weights."""
    rng = np.random.default_rng(seed)
    specs = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 2), (1,)]
    targets = []
    for attrs in specs:
        spec = marginal_spec(model.cards, attrs)
        targets.append(Measurement(spec=spec, noisy=Marginal(spec, rng.normal(4, 2, spec.n_cells)),
                                   rho_m=0.5, sigma=1.0, weight=float(rng.uniform(0.5, 3.0))))
    targets[-1].weight = targets[1].weight
    return targets


def reference_loss_and_grad(model, targets, scale):
    """The per-target loop the Gram-matrix operator replaced, kept as an oracle:
    per-segment softmax, one loss term and one gradient update per target."""
    h = model.Z
    acts = [h]
    for l, (W, b) in enumerate(model.layers):
        h = h @ W + b
        if l < len(model.layers) - 1:
            h = np.maximum(h, 0.0)
        acts.append(h)
    probs = np.empty_like(h)
    for off, c in zip(model.seg_offsets, model.cards):
        e = np.exp(h[:, off:off + c] - h[:, off:off + c].max(axis=1, keepdims=True))
        probs[:, off:off + c] = e / e.sum(axis=1, keepdims=True)
    b = probs.shape[0]
    loss = 0.0
    dprobs = np.zeros_like(probs)
    for t in targets:
        if t.spec.order == 1:
            seg = model.segment(t.spec.attrs[0])
            resid = scale * probs[:, seg].mean(axis=0) - t.noisy.counts
            loss += t.weight * float(resid @ resid)
            dprobs[:, seg] += (2.0 * t.weight * scale / b) * resid[None, :]
        else:
            s1, s2 = model.segment(t.spec.attrs[0]), model.segment(t.spec.attrs[1])
            U, V = probs[:, s1], probs[:, s2]
            resid = (scale / b) * (U.T @ V) - t.noisy.counts.reshape(t.spec.cards)
            loss += t.weight * float((resid * resid).sum())
            g = 2.0 * t.weight * (scale / b) * resid
            dprobs[:, s1] += V @ g.T
            dprobs[:, s2] += U @ g
    dh = np.empty_like(dprobs)
    for off, c in zip(model.seg_offsets, model.cards):
        p, g = probs[:, off:off + c], dprobs[:, off:off + c]
        dh[:, off:off + c] = p * (g - (g * p).sum(axis=1, keepdims=True))
    grads = [None] * len(model.layers)
    for l in range(len(model.layers) - 1, -1, -1):
        if l < len(model.layers) - 1:
            dh = dh * (acts[l + 1] > 0)
        grads[l] = (acts[l].T @ dh, dh.sum(axis=0))
        dh = dh @ model.layers[l][0].T
    return loss, grads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_and_grad_matches_per_target_oracle(layout_slack, seed):
    m = tiny_model(cards=(3, 1, 4), hidden=(12, 9), latent=5, batch=7, seed=seed)
    targets = repeated_spec_targets(m, seed)
    loss, grads = loss_and_grad_on_copy(m, fold_targets(m, targets, 11.0))
    want_loss, want_grads = reference_loss_and_grad(m, targets, 11.0)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(grads, want_grads):
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_gradient_matches_finite_differences_repeated_specs(layout_slack):
    m = tiny_model(cards=(3, 1, 4), hidden=(6,), latent=3, batch=5, seed=4)
    assert finite_difference_check(m, repeated_spec_targets(m, 5), scale=10.0) < 1e-4


def per_spec_fold(model, targets):
    """The per-spec fold the one-scatter fold replaced, kept as an oracle:
    per spec, Python sums over its targets in target order give the total
    weight, the weighted mean and the constant; the first two are written to
    the spec's cells in the model's dtype. Returns (weight, mean, const)."""
    groups: dict = {}
    for t in targets:
        groups.setdefault(t.spec.attrs, []).append(t)
    layout = gram_layout(model, [attrs for attrs in groups if len(attrs) == 2])
    weight, mean = np.zeros(layout.size, model.dtype), np.zeros(layout.size, model.dtype)
    const = 0.0
    for attrs, group in groups.items():
        total = sum(t.weight for t in group)
        if total == 0:
            continue
        ybar = sum(t.weight * t.noisy.counts for t in group) / total
        const += sum(t.weight * float(((t.noisy.counts - ybar) ** 2).sum()) for t in group)
        weight[layout.cells[attrs]] = total
        mean[layout.cells[attrs]] = ybar
    return weight, mean, const


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1])
def test_fold_targets_equal_the_per_spec_fold_to_the_bit(layout_slack, dtype, seed):
    # spec (0, 2) is measured four times, once with zero weight, so its sums
    # have three terms and their order shows; spec (1,) twice; spec (1, 2)'s
    # only measurement has zero weight
    m = tiny_model(cards=(3, 1, 4), hidden=(6,), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    targets = repeated_spec_targets(m, seed)
    for weight in (0.0, 2.7):
        targets += make_targets(m.cards, [(0, 2)], [rng.normal(4, 2, 12)], weight=weight)
    targets[5].weight = 0.0
    folded = fold_targets(m, targets, 13.0)
    weight, mean, const = per_spec_fold(m, targets)
    assert same_bits(folded.weight, weight) and same_bits(folded.mean, mean)
    assert not folded.weight[folded.layout.cells[(1, 2)]].any()
    assert folded.const == pytest.approx(const, rel=1e-12, abs=0)


def test_fold_targets_rejects_three_way():
    m = tiny_model(cards=(2, 2, 2))
    targets = make_targets(m.cards, [(0, 1, 2)], [np.ones(8)])
    with pytest.raises(ValueError, match="must be one- or two-way marginals"):
        fold_targets(m, targets, 1.0)


def test_perfect_fit_zero_loss_zero_grad():
    m = tiny_model(cards=(2, 3), seed=3)
    probs = forward(m)
    specs = [(0,), (1,), (0, 1)]
    counts = [soft_marginal(m, probs, marginal_spec(m.cards, s), 5.0).counts for s in specs]
    targets = make_targets(m.cards, specs, counts)
    loss, grads = loss_and_grad_on_copy(m, fold_targets(m, targets, 5.0))
    assert loss < 1e-20
    for gW, gb in grads:
        assert np.max(np.abs(gW)) < 1e-10
        assert np.max(np.abs(gb)) < 1e-10


def test_loss_linear_in_weights():
    m = tiny_model(cards=(2, 3), seed=4)
    rng = np.random.default_rng(1)
    specs = [(0,), (0, 1)]
    counts = [rng.normal(2, 1, 2), rng.normal(2, 1, 6)]
    t1 = make_targets(m.cards, specs, counts, weight=1.0)
    t2 = make_targets(m.cards, specs, counts, weight=2.0)
    l1, g1 = loss_and_grad_on_copy(m, fold_targets(m, t1, 5.0))
    l2, g2 = loss_and_grad_on_copy(m, fold_targets(m, t2, 5.0))
    assert l2 == pytest.approx(2 * l1)
    for (gW1, gb1), (gW2, gb2) in zip(g1, g2):
        assert np.allclose(gW2, 2 * gW1)
        assert np.allclose(gb2, 2 * gb1)


# --------------------------------------------------------------------- adam

def context_with_grads(model, grads):
    """A context bound to `model` whose gradient block holds `grads`."""
    ctx = TrainContext(model)
    for (gW, gb), (W, b) in zip(ctx.grads, grads):
        gW[...] = W
        gb[...] = b
    return ctx


def test_adam_zero_grad_fixed_point():
    m = tiny_model()
    before = [W.copy() for W, _ in m.layers]
    zero = [(np.zeros_like(W), np.zeros_like(b)) for W, b in m.layers]
    adam_step(context_with_grads(m, zero), lr=0.1)
    for (W, _), Wb in zip(m.layers, before):
        assert np.array_equal(W, Wb)


def test_adam_first_step_is_signed_lr():
    m = tiny_model(seed=9)
    rng = np.random.default_rng(2)
    grads = [(rng.normal(0, 1, W.shape), rng.normal(0, 1, b.shape)) for W, b in m.layers]
    before = [(W.copy(), b.copy()) for W, b in m.layers]
    adam_step(context_with_grads(m, grads), lr=1e-3)
    for (W, b), (W0, b0), (gW, gb) in zip(m.layers, before, grads):
        assert np.allclose(W - W0, -1e-3 * np.sign(gW), atol=1e-6)
        assert np.allclose(b - b0, -1e-3 * np.sign(gb), atol=1e-6)


def test_adam_zero_lr():
    m = tiny_model(seed=10)
    grads = [(np.ones_like(W), np.ones_like(b)) for W, b in m.layers]
    before = [W.copy() for W, _ in m.layers]
    adam_step(context_with_grads(m, grads), lr=0.0)
    for (W, _), W0 in zip(m.layers, before):
        assert np.array_equal(W, W0)


# --------------------------------------------------------- training context

def reference_adam_step(model, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-layer Adam update the context's whole-block step replaced,
    kept as an oracle; `state` is {"m": [...], "v": [...], "t": int}."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for l, (W, b) in enumerate(model.layers):
        for k, (param, g) in enumerate(zip((W, b), grads[l])):
            m = state["m"][l][k]
            v = state["v"][l][k]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def training_setup(dtype, seed):
    m = tiny_model(cards=(3, 1, 4), hidden=(12, 9), latent=5, batch=7, seed=seed, dtype=dtype)
    return m, fold_targets(m, repeated_spec_targets(m, seed), 13.0)


def fresh_array_loss_and_grad(model, targets):
    """The step as it was before the training context, every array allocated
    afresh, kept as an oracle of the context's arithmetic and reduction order."""
    def per_segment(ufunc, x):
        return reduceat_per_segment(ufunc, x, model.cards, model.seg_offsets)

    h = model.Z
    acts = [h]
    for l, (W, b) in enumerate(model.layers):
        a = h @ W + b
        h = np.maximum(a, 0.0) if l < len(model.layers) - 1 else a
        acts.append(h)
    e = np.exp(h - per_segment(np.maximum, h))
    probs = e / per_segment(np.add, e)
    b = probs.shape[0]
    c = targets.scale / b
    weight1, *weight2 = targets.layout.parts(targets.weight)
    mean1, *mean2 = targets.layout.parts(targets.mean)
    err1 = c * probs.sum(axis=0) - mean1
    resid1 = weight1 * err1
    loss = targets.const + float((resid1 * err1).sum(dtype=np.float64))
    dprobs = np.repeat(resid1[None, :], b, axis=0)
    for blk, weight, mean in zip(targets.layout.blocks, weight2, mean2):
        p_rows = probs[:, blk.rows]
        p_cols = p_rows if blk.cols is blk.rows else probs[:, blk.cols]
        err = c * (p_rows.T @ p_cols) - mean
        resid = weight * err
        loss += float((resid * err).sum(dtype=np.float64))
        if blk.cols is blk.rows:
            dprobs[:, blk.rows] += p_rows @ (resid + resid.T)
        else:
            dprobs[:, blk.rows] += p_cols @ resid.T
            dprobs[:, blk.cols] += p_rows @ resid
    dprobs *= 2.0 * c
    dh = probs * (dprobs - per_segment(np.add, dprobs * probs))
    grads = [None] * len(model.layers)
    for l in range(len(model.layers) - 1, -1, -1):
        if l < len(model.layers) - 1:
            dh = dh * (acts[l + 1] > 0)
        grads[l] = (acts[l].T @ dh, dh.sum(axis=0))
        if l > 0:
            dh = dh @ model.layers[l][0].T
    return loss, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_context_steps_match_fresh_array_steps(layout_slack, dtype):
    # K steps through one context leave the weights, to the bit, where K steps
    # of the fresh-array step and the per-layer Adam update leave them
    m, targets = training_setup(dtype, seed=1)
    oracle = m.copy()
    state = {"m": [(np.zeros_like(W), np.zeros_like(b)) for W, b in oracle.layers],
             "v": [(np.zeros_like(W), np.zeros_like(b)) for W, b in oracle.layers], "t": 0}
    ctx = TrainContext(m)
    for _ in range(6):
        loss, grads = loss_and_grad(m, targets, ctx)
        want_loss, want_grads = fresh_array_loss_and_grad(oracle, targets)
        assert loss == want_loss
        for pair, want in zip(grads, want_grads):
            for g, w in zip(pair, want):
                assert same_bits(g, w)
        adam_step(ctx, lr=3e-3)
        forward(m, ctx)
        reference_adam_step(oracle, want_grads, state, lr=3e-3)
    for (W, b), (W0, b0) in zip(m.layers, oracle.layers):
        assert same_bits(W, W0) and same_bits(b, b0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", sorted(SEGMENT_LAYOUTS))
def test_loss_and_grad_matches_reduceat_oracle(layout, dtype):
    # per-run views in the softmax and its backward leave the loss and every
    # gradient as the reduceat reductions give them, to the bit
    cards = SEGMENT_LAYOUTS[layout]
    m = tiny_model(cards=cards, hidden=(12,), latent=5, batch=24, seed=3, dtype=dtype)
    rng = np.random.default_rng(4)
    d = len(cards)
    pairs = [(a, c) for a, c in itertools.combinations(range(d), 2) if (a + c) % 3 == 0]
    measurements = []
    for attrs in [(a,) for a in range(d)] + pairs:
        spec = marginal_spec(cards, attrs)
        measurements.append(Measurement(spec=spec, noisy=Marginal(spec, rng.normal(4, 2, spec.n_cells)),
                                        rho_m=0.5, sigma=1.0, weight=float(rng.uniform(0.5, 3.0))))
    targets = fold_targets(m, measurements, 50.0)
    loss, grads = loss_and_grad_on_copy(m, targets)
    want_loss, want_grads = fresh_array_loss_and_grad(m, targets)
    assert loss == want_loss
    for pair, want in zip(grads, want_grads):
        for g, w in zip(pair, want):
            assert same_bits(g, w)


def count_forwards(monkeypatch):
    calls = []
    real = generator.forward
    monkeypatch.setattr(generator, "forward", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def assert_cold_step(m, targets, loss, grads):
    """`loss` and `grads` equal a step with a forward pass of its own."""
    want_loss, want_grads = loss_and_grad_on_copy(m, targets)
    assert loss == want_loss
    for pair, want in zip(grads, want_grads):
        for g, w in zip(pair, want):
            assert same_bits(g, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_context_holds_the_forward_of_its_weights(layout_slack, monkeypatch, dtype):
    # from construction and after every training pass, the context's softmax
    # buffer is the forward pass of its weights, and a step runs none of its own
    m = tiny_model(cards=(3, 1, 4), hidden=(12, 9), latent=5, batch=7, seed=2, dtype=dtype)
    measurements = repeated_spec_targets(m, 2)
    targets = fold_targets(m, measurements, 13.0)
    ctx = TrainContext(m)
    calls = count_forwards(monkeypatch)
    for iters in (0, 1, 3):
        if iters:
            train(m, ctx, measurements, 13.0, iters, lr=1e-2)
        assert same_bits(ctx.probs, forward(m.copy()))
        calls.clear()
        loss, grads = loss_and_grad(m, targets, ctx)
        assert calls == []
        assert_cold_step(m, targets, loss, grads)


def test_context_keeps_the_weights_and_rejects_other_models():
    m = tiny_model(cards=(3, 2), hidden=(8, 6), seed=24, dtype=np.float32)
    before = [(W.copy(), b.copy()) for W, b in m.layers]
    ctx = TrainContext(m)
    assert m.layers is ctx.layers
    for (W, b), (W0, b0) in zip(m.layers, before):
        assert same_bits(W, W0) and same_bits(b, b0)
    assert same_bits(forward(m, ctx), forward(m))
    with pytest.raises(ValueError):
        forward(m.copy(), ctx)


# ------------------------------------------------------------------ sampling

def test_sample_hard_one_hot_degenerate():
    m = tiny_model(cards=(3, 2), batch=2, seed=11)
    W, b = m.layers[-1]
    m.layers[-1] = (np.zeros_like(W), np.array([50.0, 0, 0, 0, 50.0]))
    ds = sample_hard(m, forward(m), 100, seed=0)
    assert np.all(ds.rows[:, 0] == 0)
    assert np.all(ds.rows[:, 1] == 1)


def test_sample_hard_matches_soft_marginals():
    m = tiny_model(cards=(3, 4), hidden=(16,), batch=8, seed=12)
    n = 100_000
    probs = forward(m)
    ds = sample_hard(m, probs, n, seed=5)
    for a in range(2):
        spec = marginal_spec(m.cards, (a,))
        emp = compute_marginal(ds, spec).counts / n
        soft = soft_marginal(m, probs, spec, 1.0).counts
        assert np.max(np.abs(emp - soft)) < 0.01


def test_sample_hard_deterministic():
    m = tiny_model(seed=13)
    a = sample_hard(m, forward(m), 500, seed=3)
    b = sample_hard(m, forward(m), 500, seed=3)
    assert np.array_equal(a.rows, b.rows)


def per_pick_sample(model, probs, n_rows, seed):
    """sample_hard as it drew before prefix sums over the batch, kept as an
    oracle: each segment's cumsum over the gathered rows."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    probs = probs.astype(np.float64, copy=False)
    picks = rng.integers(0, probs.shape[0], size=n_rows)
    cols = []
    for off, c in zip(model.seg_offsets, model.cards):
        cum = np.cumsum(probs[picks, off:off + c], axis=1)
        u = rng.random(n_rows) * cum[:, -1]
        cols.append((cum < u[:, None]).sum(axis=1))
    return np.stack(cols).T


B = generator.SAMPLE_BLOCK_ROWS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows", [5, 300, B - 1, B, B + 1, 2 * B + 5])
def test_sample_hard_matches_per_pick_oracle(dtype, n_rows):
    m = tiny_model(cards=(3, 1, 12, 2, 2, 7), hidden=(16,), batch=32, seed=21, dtype=dtype)
    probs = forward(m)
    assert probs.dtype == dtype
    for seed in range(3):
        assert np.array_equal(sample_hard(m, probs, n_rows, seed).rows,
                              per_pick_sample(m, probs, n_rows, seed))


def test_sample_hard_sums_float32_probabilities_in_float64():
    # a float32 running sum over 1000 categories drifts far enough from the
    # float64 one to move some draws across a category edge
    m = tiny_model(cards=(1000,), hidden=(16,), batch=32, seed=6, dtype=np.float32)
    probs = forward(m)
    assert np.array_equal(sample_hard(m, probs, 50_000, seed=2).rows,
                          sample_hard(m, probs.astype(np.float64), 50_000, seed=2).rows)


def test_sample_hard_memory_stays_below_one_gathered_block():
    # gathering every row's prefix sums for a 50-card attribute would take
    # n_rows * 50 * 8 B = 40 MB; the uint8 codes themselves take 0.1 MB
    m = tiny_model(cards=(50,), hidden=(16,), batch=32, seed=4)
    probs = forward(m)
    tracemalloc.start()
    try:
        ds = sample_hard(m, probs, 100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.rows.itemsize == 1
    assert peak < 40e6 / 4


# --------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    m = tiny_model(cards=(2, 3), seed=14)
    prev = tiny_model(cards=(2, 3), seed=15)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, prev)
    back, back_prev = load_checkpoint(p)
    assert np.array_equal(forward(back), forward(m))
    for (Wa, ba), (Wb, bb) in zip(back_prev.layers, prev.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)
    assert np.array_equal(back.Z, m.Z)
    for got in (back, back_prev):
        assert got.seg_offsets == m.seg_offsets == (0, 2)
        assert got.latent_dim == m.latent_dim


@pytest.mark.parametrize("cards", [(7,), (1, 3, 1, 1, 4), (1,)])
def test_seg_offsets_are_the_cumulative_cards(cards):
    m = tiny_model(cards=cards, seed=24)
    assert m.seg_offsets == tuple(int(o) for o in np.concatenate([[0], np.cumsum(cards)[:-1]]))
    assert all(type(o) is int for o in m.seg_offsets)
    assert m.latent_dim == m.Z.shape[1] and m.copy().seg_offsets == m.seg_offsets


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    m = tiny_model(seed=16)
    p = tmp_path / "trunc.ckpt"
    save_checkpoint(p, m, m)
    data = p.read_bytes()
    for cut in (10, 40, len(data) - 8):
        p.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, where, value):
    # the first stored weight or the last latent entry, in the stored dtype
    p = tmp_path / "model.ckpt"
    for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        save_checkpoint(p, tiny_model(seed=21, dtype=dtype), tiny_model(seed=22, dtype=dtype))
        data = bytearray(p.read_bytes())
        (hlen,) = struct.unpack("<Q", data[8:16])
        at = 16 + hlen if where == "first" else len(data) - dtype.itemsize
        data[at:at + dtype.itemsize] = np.array(value, dtype.newbyteorder("<")).tobytes()
        p.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"not a finite {dtype.name}$"):
            load_checkpoint(p)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_reader_is_the_writers_inverse(tmp_path, dtype):
    p, q = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p, tiny_model(cards=(2, 3, 4), hidden=(8, 5), seed=25, dtype=dtype),
                    tiny_model(cards=(2, 3, 4), hidden=(8, 5), seed=26, dtype=dtype))
    save_checkpoint(q, *load_checkpoint(p))
    assert q.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_stores_each_array_once_in_the_model_dtype(tmp_path, dtype):
    m = tiny_model(cards=(2, 3, 4), hidden=(8, 5), latent=6, batch=7, seed=27, dtype=dtype)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, m.copy())
    data = p.read_bytes()
    (hlen,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + hlen])
    assert header == {"version": 2, "cards": [2, 3, 4], "hidden": [8, 5], "latent_dim": 6,
                      "batch_size": 7, "dtype": np.dtype(dtype).name}
    count = 2 * sum(W.size + b.size for W, b in m.layers) + m.Z.size
    assert count == 2 * (6 * 8 + 8 + 8 * 5 + 5 + 5 * 9 + 9) + 7 * 6
    assert len(data) == 16 + hlen + np.dtype(dtype).itemsize * count
    assert m.hidden == load_checkpoint(p)[0].hidden == (8, 5)


def _rewrite_header(path, edit):
    """Rewrite a checkpoint's JSON header with `edit`, keeping its arrays."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<Q", data[8:16])
    blob = json.dumps(edit(json.loads(data[16:16 + hlen]))).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])


def test_checkpoint_round_trip_float32(tmp_path):
    m = tiny_model(cards=(2, 3), seed=17, dtype=np.float32)
    prev = tiny_model(cards=(2, 3), seed=18, dtype=np.float32)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, prev)
    back, back_prev = load_checkpoint(p)
    for got, want in ((back, m), (back_prev, prev)):
        assert got.dtype == np.float32
        for (Wa, ba), (Wb, bb) in zip(got.layers, want.layers):
            assert Wa.dtype == ba.dtype == np.float32
            assert Wa.tobytes() == Wb.tobytes() and ba.tobytes() == bb.tobytes()
    assert back.Z.dtype == np.float32 and back.Z.tobytes() == m.Z.tobytes()
    assert forward(back).tobytes() == forward(m).tobytes()


def test_checkpoint_version_1_is_rejected(tmp_path):
    m = tiny_model(seed=28)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, m)
    _rewrite_header(p, lambda h: {**h, "version": 1})
    with pytest.raises(CheckpointError, match="^unsupported checkpoint version: 1$"):
        load_checkpoint(p)


def test_checkpoint_without_dtype_is_rejected(tmp_path):
    m = tiny_model(seed=19, dtype=np.float32)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, m)
    _rewrite_header(p, lambda h: {k: v for k, v in h.items() if k != "dtype"})
    with pytest.raises(CheckpointError, match="checkpoint header lacks dtype"):
        load_checkpoint(p)


@pytest.mark.parametrize("dtype", ["float16", "int64", 32, None])
def test_checkpoint_rejects_unknown_dtype(tmp_path, dtype):
    p = tmp_path / "model.ckpt"
    m = tiny_model(seed=20)
    save_checkpoint(p, m, m)
    _rewrite_header(p, lambda h: {**h, "dtype": dtype})
    with pytest.raises(CheckpointError, match="dtype must be one of float32, float64"):
        load_checkpoint(p)


# ------------------------------------------------------------------ float32

def fitted_targets(model, seed, scale=1000.0):
    """Noisy-looking one- and two-way targets over every attribute of `model`."""
    rng = np.random.default_rng(seed)
    d = len(model.cards)
    specs = [(a,) for a in range(d)] + list(itertools.combinations(range(d), 2))
    targets = []
    for attrs in specs:
        spec = marginal_spec(model.cards, attrs)
        targets.append(Measurement(
            spec=spec, noisy=Marginal(spec, rng.normal(scale / spec.n_cells, 20, spec.n_cells)),
            rho_m=0.5, sigma=1.0, weight=float(rng.uniform(0.5, 3.0))))
    return fold_targets(model, targets, scale)


def as_float64(model):
    """The same weights and latent batch as `model`, upcast (exactly) to float64."""
    Z = model.Z.astype(np.float64)
    Z.flags.writeable = False
    return generator.GeneratorModel(
        layers=[(W.astype(np.float64), b.astype(np.float64)) for W, b in model.layers],
        cards=model.cards, Z=Z)


def test_init_float32_is_the_float64_draw_rounded():
    m32 = tiny_model(seed=21, dtype=np.float32)
    m64 = tiny_model(seed=21)
    assert m32.dtype == np.float32 and not m32.Z.flags.writeable
    assert np.array_equal(m32.Z, m64.Z.astype(np.float32))
    for (W32, b32), (W64, b64) in zip(m32.layers, m64.layers):
        assert W32.dtype == b32.dtype == np.float32
        assert np.array_equal(W32, W64.astype(np.float32))
        assert np.array_equal(b32, b64.astype(np.float32))


def test_float32_step_never_upcasts():
    # one float64 operand anywhere in a step turns its GEMMs back into float64
    m = tiny_model(cards=(3, 2, 4), hidden=(8, 8), seed=22, dtype=np.float32)
    targets = fitted_targets(m, seed=0)
    for arr in (targets.weight, targets.mean):
        assert arr.dtype == np.float32
    ctx = TrainContext(m)
    assert ctx.params.dtype == ctx.m.dtype == ctx.v.dtype == ctx.probs.dtype == np.float32
    for _ in range(2):
        loss, grads = loss_and_grad(m, targets, ctx)
        assert isinstance(loss, float)
        assert all(g.dtype == np.float32 for pair in grads for g in pair)
        adam_step(ctx, lr=1e-3)
        forward(m, ctx)
        assert all(p.dtype == np.float32 for pair in m.layers for p in pair)
    assert m.copy().dtype == np.float32


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_float32_loss_and_grad_match_float64(seed):
    # Over 20 seeds of this setup the float32 loss was within 2.3e-7 of the
    # float64 loss (relative) and every gradient within 5.3e-7 of its layer's
    # largest float64 entry; the bounds below are 10x those.
    m32 = tiny_model(cards=(4, 3, 5, 2), hidden=(32, 32), latent=8, batch=64, seed=seed,
                     dtype=np.float32)
    m64 = as_float64(m32)
    l32, g32 = loss_and_grad_on_copy(m32, fitted_targets(m32, seed))
    l64, g64 = loss_and_grad_on_copy(m64, fitted_targets(m64, seed))
    assert abs(l32 - l64) <= 2.3e-6 * abs(l64)
    for pair32, pair64 in zip(g32, g64):
        for g, want in zip(pair32, pair64):
            assert np.abs(g - want).max() <= 5.3e-6 * np.abs(want).max()


def test_sample_hard_float32_matches_soft_marginals():
    m = tiny_model(cards=(3, 4, 7), hidden=(16,), batch=8, seed=23, dtype=np.float32)
    n = 100_000
    ds = sample_hard(m, forward(m), n, seed=6)
    soft = gram_marginals(forward(m), 1.0, gram_layout(m, []))
    for a in range(3):
        spec = marginal_spec(m.cards, (a,))
        emp = compute_marginal(ds, spec).counts / n
        # a cell's frequency has standard deviation at most 0.5/sqrt(n) = 1.6e-3
        assert np.max(np.abs(emp - soft.marginal(spec).counts)) < 0.01
