"""MLP generator with per-attribute softmax heads and exact analytic gradients.

The generator maps a fixed latent batch Z (sampled once at initialization) to a
"soft batch" P (b rows, out_width columns): every row carries one probability
vector per attribute. Every soft marginal of the generated data is read from
one operator: each two-way marginal is a block of the Gram matrix
G = (S/b) P^T P and each one-way marginal is a segment of the column sums
g1 = (S/b) 1^T P, with S the record scale. Only the blocks of G that the
requested marginals need are formed (see `gram_layout`). g1 and those blocks
lie end to end in one flat cell vector, so each marginal is one gather.

The weighted squared-error loss against noisy targets folds, in one scatter,
into a weight and a weighted-mean target per cell of that vector: (w1, t1) in
g1's part and (W2, T2) in the blocks', plus a constant for repeated
measurements of one spec. With R = W2 * (G - T2)
and r1 = w1 * (g1 - t1) the gradient is dP = (2S/b) (P (R + R^T) + 1 r1^T):
two GEMMs per block, one block for a compact target set. Backpropagation is
written out by hand; no autograd.

Every step follows the dtype of the model's arrays (float32 or float64): the
folded targets are allocated in it, so no float64 operand upcasts a GEMM.
Only the returned loss is summed in float64. Marginals leave the generator as
float64 `Marginal`s, and checkpoints store every array little-endian in the
model's dtype, which the header records.

Training runs through a `TrainContext`: one allocation holding the weights
(the model's layers become views of it), the gradient, Adam's state and every
buffer of a step, filled in place. Its buffers always hold the forward pass
of its current weights: the constructor runs one, and whoever changes the
weights runs the next. `forward` without a context allocates.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import Dataset, code_dtype
from .errors import CheckpointError
from .marginals import Marginal, MarginalSpec

CHECKPOINT_MAGIC = b"MGNETCK1"
CHECKPOINT_VERSION = 2
_CHECKPOINT_KEYS = ("cards", "hidden", "latent_dim", "batch_size", "dtype")
# dtypes a model may be trained and checkpointed in
_CHECKPOINT_DTYPES = ("float32", "float64")

# A set of two-way marginals is read from one square block of G over all the
# attributes it touches while that block has at most DENSE_SLACK times as many
# cells as the marginals themselves; past that, each attribute's pairs get a
# block row of their own, which holds exactly the requested cells.
DENSE_SLACK = 8

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# A run of n consecutive attributes sharing one card k is reduced on a (b, n, k)
# view, one ufunc call per column slice, when n >= max(VIEW_MIN_RUN, k); the
# other columns keep reduceat + take. On 2 cores (numpy 2.4.6, float32,
# b = 256) views cut g24-wide's `synth_s` by 7%, and views on every run made
# `synth --iters 10` 11-21% slower on mixed tables, where runs of 2 and 3 bins
# win only from n = 8 and 8 x 41 bins lose (1.38-1.48x), hence the k term. Per
# layer (softmax plus backward sum, us, views / reduceat): 24 x 10 454 / 1107,
# 32 x 32 2368 / 3287, 50 x 50 5746 / 6071, 64 x 32 7773 / 6365, 100 x 100
# 32959 / 21744; no cap on n * k has been measured end to end.
VIEW_MIN_RUN = 8

# cells candidate_l1 reads at once, so its float64 temporary stays at 512 KiB
# however many candidates share a cell count
L1_CHUNK_CELLS = 65536

SAMPLE_BLOCK_ROWS = 4096  # output rows sample_hard gathers at once: its temporaries are O(block * k)


def _segment(cards, offsets, attr: int) -> slice:
    """Columns of attribute `attr` in a layout where it starts at offsets[attr]."""
    return slice(offsets[attr], offsets[attr] + cards[attr])


@dataclass
class GeneratorModel:
    layers: list  # [(W, b), ...]; last layer's width == sum(cards)
    cards: tuple[int, ...]
    Z: np.ndarray  # (batch_size, latent_dim), frozen
    seg_offsets: tuple = field(init=False, repr=False, compare=False)  # attributes' first columns
    segments: tuple = field(init=False, repr=False, compare=False)  # segment_plan(cards)

    def __post_init__(self):
        self.seg_offsets = tuple(itertools.accumulate(self.cards[:-1], initial=0))
        self.segments = segment_plan(self.cards)

    @property
    def latent_dim(self) -> int:
        return self.Z.shape[1]

    @property
    def batch_size(self) -> int:
        return self.Z.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.Z.dtype

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(W.shape[1] for W, _ in self.layers[:-1])

    @property
    def out_width(self) -> int:
        return int(sum(self.cards))

    def copy(self) -> "GeneratorModel":
        return GeneratorModel([(W.copy(), b.copy()) for W, b in self.layers], self.cards, self.Z)

    def segment(self, attr: int) -> slice:
        return _segment(self.cards, self.seg_offsets, attr)


def _layer_shapes(latent_dim: int, hidden, cards) -> list[tuple[tuple[int, int], tuple[int]]]:
    """Each layer's ((fan_in, fan_out), (fan_out,)), from latent_dim through
    the hidden widths to sum(cards)."""
    widths = [latent_dim, *hidden, int(sum(cards))]
    return [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in zip(widths[:-1], widths[1:])]


def init_generator(
    cards: tuple[int, ...], hidden: list[int], latent_dim: int, batch_size: int, seed: int,
    dtype=np.float64,
) -> GeneratorModel:
    """He-style scaled-uniform init; Z drawn once from N(0, 1) and frozen.

    Draws in float64 from one stream and then casts Z and every (W, b) to
    `dtype`, so a seed gives the same weights, rounded, in either dtype."""
    if not hidden:
        raise ValueError("need at least one hidden layer")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    if min(hidden) < 1:
        raise ValueError("every hidden width must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    layers = []
    for (fan_in, fan_out), b_shape in _layer_shapes(latent_dim, hidden, cards):
        limit = np.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype, copy=False)
        layers.append((W, np.zeros(b_shape, dtype=dtype)))
    Z = rng.standard_normal((batch_size, latent_dim)).astype(dtype, copy=False)
    Z.flags.writeable = False
    return GeneratorModel(layers, tuple(cards), Z)


class SegmentPart(NamedTuple):
    """Output columns `cols` whose segments are reduced one way: a run of n
    attributes of card k read as a (b, n, k) view when `view` is (n, k), else
    reduceat at `offsets` (relative to cols.start) repeated over `columns`."""
    cols: slice
    view: tuple[int, int] | None
    offsets: np.ndarray | None = None
    columns: np.ndarray | None = None


def segment_plan(cards) -> tuple[SegmentPart, ...]:
    """How the segments of `cards` are reduced: each run of consecutive
    equal-card attributes that passes the VIEW_MIN_RUN rule is one view, and
    each maximal stretch of the other columns one reduceat. A layout with no
    such run is one reduceat over all its columns."""
    parts, stretch = [], []  # stretch: the cards of the columns not yet planned

    def close_stretch(end):
        if stretch:
            offsets = np.cumsum([0] + stretch[:-1])
            columns = np.repeat(np.arange(len(stretch)), stretch)
            parts.append(SegmentPart(slice(end - sum(stretch), end), None, offsets, columns))
            stretch.clear()

    end = 0
    for k, run in itertools.groupby(int(c) for c in cards):
        n = len(list(run))
        if n >= max(VIEW_MIN_RUN, k):
            close_stretch(end)
            parts.append(SegmentPart(slice(end, end + n * k), (n, k)))
        else:
            stretch += [k] * n
        end += n * k
    close_stretch(end)
    return tuple(parts)


def _view_max(x3: np.ndarray) -> np.ndarray:
    """Max over the last axis of (b, n, k) `x3` as a fresh (b, n) array: a
    running np.maximum over its k column slices, exact like np.maximum.reduceat."""
    if x3.shape[2] == 1:
        return x3[:, :, 0].copy()
    m = np.maximum(x3[:, :, 0], x3[:, :, 1])
    for j in range(2, x3.shape[2]):
        np.maximum(m, x3[:, :, j], out=m)
    return m


def _pairwise(x3: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x3[:, :, lo:hi] summed over the last axis in numpy's pairwise order, as
    a fresh array: a running sum below 8 terms; up to 128, eight strided
    accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    tail in order; above, the two halves split at n/2 rounded down to a
    multiple of 8."""
    n = hi - lo
    if n == 1:
        return x3[:, :, lo].copy()
    if n < 8:
        total = x3[:, :, lo] + x3[:, :, lo + 1]
        for j in range(lo + 2, hi):
            total += x3[:, :, j]
        return total
    if n <= 128:
        tail = hi - n % 8
        if tail - lo > 8:
            r = [x3[:, :, j] + x3[:, :, j + 8] for j in range(lo, lo + 8)]
            for i in range(lo + 16, tail, 8):
                for j in range(8):
                    r[j] += x3[:, :, i + j]
        else:
            r = [x3[:, :, j] for j in range(lo, lo + 8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for j in range(tail, hi):
            total += x3[:, :, j]
        return total
    half = n // 2 - (n // 2) % 8
    total = _pairwise(x3, lo, lo + half)
    total += _pairwise(x3, lo + half, hi)
    return total


def _view_sum(x3: np.ndarray) -> np.ndarray:
    """Sum over the last axis of (b, n, k) `x3` as a fresh (b, n) array, to
    the bit as np.add.reduceat sums a segment: its first column plus the
    pairwise sum of the rest (float addition commutes exactly)."""
    if x3.shape[2] == 1:
        return x3[:, :, 0].copy()
    total = _pairwise(x3, 1, x3.shape[2])
    total += x3[:, :, 0]
    return total


_VIEW_REDUCE = {np.maximum: _view_max, np.add: _view_sum}


def _per_segment(ufunc, x: np.ndarray, op, a: np.ndarray, out: np.ndarray, plan) -> None:
    """out = op(a, r), with r `ufunc` (np.maximum or np.add) reduced over each
    row's segments of `x` and repeated back over the segment's columns. A
    view's (b, n) result is repeated, not broadcast as (b, n, 1): on a run of
    100 binary attributes beside a 10-bin one, a broadcast op took 400-800 us
    against 120-280 us for the repeat and a 2-D op."""
    for part in plan:
        xs = x[:, part.cols]
        if part.view is None:
            r = np.take(ufunc.reduceat(xs, part.offsets, axis=1), part.columns, axis=1,
                        mode="clip")
        else:
            n, k = part.view
            r = np.repeat(_VIEW_REDUCE[ufunc](xs.reshape(-1, n, k)), k, axis=1)
        op(a[:, part.cols], r, out=out[:, part.cols])


def _segment_softmax(x: np.ndarray, plan) -> np.ndarray:
    """Softmax over each row's segments of the segment plan `plan`, in place in `x`."""
    _per_segment(np.maximum, x, np.subtract, x, x, plan)
    np.exp(x, out=x)
    _per_segment(np.add, x, np.divide, x, x, plan)
    return x


# Every buffer of a TrainContext starts a multiple of this many elements into
# its allocation, a 64-byte boundary in float32.
_ALIGN = 16


def _offsets(shapes, start: int = 0) -> list[int]:
    """Where buffers of `shapes` start when laid out back to back from
    `start`, each on a multiple of _ALIGN; the last entry is where they end."""
    offsets = [start]
    for shape in shapes:
        offsets.append(offsets[-1] + -(-math.prod(shape) // _ALIGN) * _ALIGN)
    return offsets


def _views(buf: np.ndarray, shapes, start: int = 0) -> list[np.ndarray]:
    return [buf[o:o + math.prod(s)].reshape(s) for o, s in zip(_offsets(shapes, start), shapes)]


class TrainContext:
    """Every array a training run needs, carved from one allocation.

    Five blocks laid out alike come first: the parameters (the bound model's
    `layers` become views of this block), the gradient, Adam's first and
    second moments and a scratch block, so one Adam step is a few ufunc
    calls over whole blocks. Then each layer's output (the last becomes P in
    place) and backward buffer and a work buffer. `forward`, `loss_and_grad`
    and `adam_step` write into them with `out=`, keeping the arithmetic of
    each element and the order of each reduction, so results are the same to
    the bit as with fresh arrays.

    The buffers hold the forward pass of the current weights from
    construction on, so a step and a read of the soft marginals share it.
    Whoever changes the weights (an Adam step, an edit in place) runs
    `forward(model, ctx)` next. Edit a bound model's weights in place only;
    a replaced array leaves the block.
    """

    def __init__(self, model: GeneratorModel):
        b = model.batch_size
        param_shapes = [s for W, bias in model.layers for s in (W.shape, bias.shape)]
        widths = [W.shape[1] for W, _ in model.layers]
        buf_shapes = [(b, w) for w in widths] * 2 + [(b * max(widths),)]
        n = _offsets(param_shapes)[-1]
        self._buf = np.zeros(_offsets(buf_shapes, 5 * n)[-1], model.dtype)
        self.params, self.grad, self.m, self.v, self.scratch = (
            self._buf[k * n:(k + 1) * n] for k in range(5))
        params = _views(self.params, param_shapes)
        grads = _views(self.grad, param_shapes)
        self.layers = list(zip(params[0::2], params[1::2]))
        self.grads = list(zip(grads[0::2], grads[1::2]))
        for (W, bias), (W_view, b_view) in zip(model.layers, self.layers):
            W_view[...] = W
            b_view[...] = bias
        bufs = _views(self._buf, buf_shapes, 5 * n)
        n_layers = len(widths)
        self.outputs = bufs[:n_layers]  # each layer's output; the last is the logits, then P
        self.backward = bufs[n_layers:2 * n_layers]  # the loss's gradient wrt each output
        self.probs, self._work = self.outputs[-1], bufs[-1]
        self.t = 0
        model.layers = self.layers
        forward(model, self)

    def work(self, width: int) -> np.ndarray:
        """The work buffer as a (batch, width) array."""
        b = self.probs.shape[0]
        return self._work[:b * width].reshape(b, width)

    def reset_adam(self) -> None:
        """Zero the moments and the step count, as a fresh optimizer has them."""
        self.m[...] = 0
        self.v[...] = 0
        self.t = 0


def _check_bound(model: GeneratorModel, ctx: TrainContext) -> None:
    if model.layers is not ctx.layers:
        raise ValueError("the model is not bound to this training context")


def forward(model: GeneratorModel, ctx: TrainContext | None = None) -> np.ndarray:
    """The soft batch P (batch_size, sum(cards)) from the frozen latent Z.
    The softmax overwrites the logits. Through a context, every layer's
    output stays in its buffers for the backward pass, and P is the last
    one, overwritten by the next pass; without one, every array is fresh."""
    if ctx is None:
        outputs = [np.empty((model.batch_size, W.shape[1]), model.dtype) for W, _ in model.layers]
    else:
        _check_bound(model, ctx)
        outputs = ctx.outputs
    h = model.Z
    last = len(model.layers) - 1
    for l, ((W, b), out) in enumerate(zip(model.layers, outputs)):
        h = np.matmul(h, W, out=out)
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
    return _segment_softmax(h, model.segments)


def soft_marginal(model: GeneratorModel, probs: np.ndarray, spec: MarginalSpec,
                  scale: float) -> Marginal:
    """Differentiable marginal estimate of `model`'s soft batch `probs`,
    scaled to `scale` records."""
    b = probs.shape[0]
    if spec.order == 1:
        counts = scale * probs[:, model.segment(spec.attrs[0])].mean(axis=0)
    elif spec.order == 2:
        U = probs[:, model.segment(spec.attrs[0])]
        V = probs[:, model.segment(spec.attrs[1])]
        counts = (scale / b) * (U.T @ V).reshape(-1)
    else:
        raise ValueError("soft marginals support order 1 and 2 only")
    return Marginal(spec, counts)


class GramBlock(NamedTuple):
    """Rows x cols of G (slices or index arrays of output columns), row-major from `start`."""
    rows: slice | np.ndarray
    cols: slice | np.ndarray
    shape: tuple[int, int]
    start: int


def _columns(cards, offsets, attrs):
    """The output columns of ascending `attrs` back to back (a slice when the
    attributes are adjacent), their count, and where each attribute starts."""
    widths = [cards[a] for a in attrs]
    starts = dict(zip(attrs, (int(s) for s in np.cumsum([0] + widths[:-1]))))
    if list(attrs) == list(range(attrs[0], attrs[-1] + 1)):
        cols = slice(offsets[attrs[0]], offsets[attrs[-1]] + cards[attrs[-1]])
    else:
        cols = np.concatenate([np.arange(offsets[a], offsets[a] + cards[a]) for a in attrs])
    return cols, sum(widths), starts


@dataclass
class GramLayout:
    """One flat cell vector over the operator: g1 = (S/b) 1^T P, then each of
    `blocks` of G = (S/b) P^T P, `size` cells in all. cells[attrs] holds the
    flat positions of the marginal over `attrs`, row-major like its counts,
    for every one-way marginal and every two-way one the blocks hold."""

    blocks: list[GramBlock]
    cells: dict
    size: int

    def parts(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a flat cell vector: its g1 part, then each block."""
        ends = [blk.start for blk in self.blocks] + [self.size]
        return [flat[:ends[0]]] + [flat[blk.start:end].reshape(blk.shape)
                                   for blk, end in zip(self.blocks, ends[1:])]


def gram_layout(model: GeneratorModel, pairs) -> GramLayout:
    """The blocks of G that hold the two-way marginals over `pairs`.

    One square block over every attribute the pairs touch, unless it would
    have more than DENSE_SLACK times the pairs' cells; then one block row per
    first attribute, over the columns of that attribute's partners.
    """
    cards, offsets = model.cards, model.seg_offsets
    pairs = sorted(set(pairs))
    attrs = sorted({a for pair in pairs for a in pair})
    width = sum(cards[a] for a in attrs)
    if pairs and width * width <= DENSE_SLACK * sum(cards[a] * cards[c] for a, c in pairs):
        groups = [(attrs, attrs, pairs)]
    else:
        partners: dict = {}
        for a, c in pairs:
            partners.setdefault(a, []).append(c)
        groups = [([a], cs, [(a, c) for c in cs]) for a, cs in partners.items()]
    cells = {(a,): np.arange(o, o + card) for a, (o, card) in enumerate(zip(offsets, cards))}
    blocks = []
    start = model.out_width
    for row_attrs, col_attrs, owned in groups:
        rows, n_rows, row_starts = _columns(cards, offsets, row_attrs)
        cols, n_cols, col_starts = (rows, n_rows, row_starts) if col_attrs is row_attrs \
            else _columns(cards, offsets, col_attrs)
        for a, c in owned:  # row-major positions in the block, whose grid is never formed
            at_rows = np.arange(row_starts[a], row_starts[a] + cards[a])
            at_cols = np.arange(col_starts[c], col_starts[c] + cards[c])
            cells[(a, c)] = (start + n_cols * at_rows[:, None] + at_cols).ravel()
        blocks.append(GramBlock(rows, cols, (n_rows, n_cols), start))
        start += n_rows * n_cols
    return GramLayout(blocks, cells, start)


def gram_cells(probs: np.ndarray, layout: GramLayout, scale: float, out: np.ndarray) -> np.ndarray:
    """`layout`'s flat cell vector over the soft batch `probs`, written into `out`: each part into
    its view, then one scaling by c = scale / b, so each cell is a fresh c * (P_rows^T P_cols)."""
    g1, *grams = layout.parts(out)
    np.sum(probs, axis=0, out=g1)
    for blk, gram in zip(layout.blocks, grams):
        p_rows = probs[:, blk.rows]
        np.matmul(p_rows.T, p_rows if blk.cols is blk.rows else probs[:, blk.cols], out=gram)
    out *= scale / probs.shape[0]
    return out


@dataclass
class SoftMarginals:
    """One- and two-way soft marginals of one soft batch P at one scale S, as
    the flat cell vector of `layout`: g1 = (S/b) 1^T P, then its blocks of
    G = (S/b) P^T P. Each marginal is one gather."""

    layout: GramLayout
    cells: np.ndarray

    def marginal(self, spec: MarginalSpec) -> Marginal:
        return Marginal(spec, self.cells[self.layout.cells[spec.attrs]])


def gram_marginals(probs: np.ndarray, scale: float, layout: GramLayout) -> SoftMarginals:
    """The flat cell vector of `layout` over the soft batch `probs`."""
    cells = np.empty(layout.size, probs.dtype)
    return SoftMarginals(layout, gram_cells(probs, layout, scale, cells))


@dataclass
class CandidateIndex:
    """The two-way `specs` over the flat cell vector of `layout`, grouped by
    cell count: per group the cell count, the specs' positions, a (k, n_cells)
    gather index and the exact counts, whose rows `exact` (attrs -> Marginal)
    views."""

    layout: GramLayout
    specs: list[MarginalSpec]
    exact: dict
    groups: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


def candidate_index(model: GeneratorModel, specs, counts) -> CandidateIndex:
    """The two-way `specs` over one `gram_layout`. `counts` yields each spec's
    exact counts, in spec order, as the caller counts them; each is copied
    into its row of its group as it comes, so no two of them need be held."""
    specs = list(specs)
    layout = gram_layout(model, [s.attrs for s in specs])
    by_cells: dict = {}
    for i, spec in enumerate(specs):
        by_cells.setdefault(spec.n_cells, []).append(i)
    # layout.cells and exact view rows of the group arrays, so each is held
    # once; a group's counts are allocated once the layout's own copies of its
    # cells are gone
    exact, groups, rows = {}, [], [None] * len(specs)
    for n, group in by_cells.items():
        gather = np.empty((len(group), n), np.intp)
        for i, cells in zip(group, gather):
            cells[...] = layout.cells[specs[i].attrs]
            layout.cells[specs[i].attrs] = cells
        group_counts = np.empty((len(group), n))
        for i, row in zip(group, group_counts):
            exact[specs[i].attrs], rows[i] = Marginal(specs[i], row), row
        groups.append((n, np.array(group), gather, group_counts))
    for row, spec_counts in zip(rows, counts, strict=True):
        row[...] = spec_counts
    return CandidateIndex(layout, specs, exact, groups)


def candidate_l1(soft: SoftMarginals, index: CandidateIndex,
                 other: SoftMarginals | None = None) -> np.ndarray:
    """Per candidate i, ||M_i(soft) - M_i||_1 against the exact counts, or
    against `other`'s marginal when it is given; both soft vectors must be at
    `index.layout`. Each cell-count group is read in chunks of at most
    L1_CHUNK_CELLS cells (whole rows), each one gather and one float64 row
    sum, whose sums equal `l1_distance` per candidate to the bit."""
    if any(s.layout is not index.layout for s in (soft, other) if s is not None):
        raise ValueError("soft marginals are not at the candidates' layout")
    l1 = np.empty(len(index.specs))
    for n, positions, gather, exact in index.groups:
        step = max(1, L1_CHUNK_CELLS // n)
        for start in range(0, len(positions), step):
            rows = slice(start, start + step)
            diff = soft.cells[gather[rows]].astype(np.float64, copy=False)
            diff -= exact[rows] if other is None else other.cells[gather[rows]]
            l1[positions[rows]] = np.abs(diff, out=diff).sum(axis=1)
    return l1


@dataclass
class MarginalTargets:
    """A weighted target set folded onto the operator's flat cell vector.

    sum_j w_j ||est - y_j||^2 over the measurements of one spec equals
    W ||est - ybar||^2 + sum_j w_j ||y_j - ybar||^2 with W = sum_j w_j and ybar
    the W-weighted mean, so the whole set is one weight and one mean per cell
    plus a constant.
    """

    scale: float
    layout: GramLayout
    weight: np.ndarray  # a spec's cells hold its W, every other cell 0
    mean: np.ndarray  # a spec's cells hold its ybar, every other cell 0
    const: float = 0.0
    err: np.ndarray = field(init=False, repr=False)  # a step's work vectors: the error,
    resid: np.ndarray = field(init=False, repr=False)  # the residual weight * error,
    work_parts: list = field(init=False, repr=False)  # and their views per part, made once

    def __post_init__(self):
        self.err, self.resid = np.empty_like(self.weight), np.empty_like(self.weight)
        self.work_parts = list(zip(self.layout.parts(self.err), self.layout.parts(self.resid)))


def fold_targets(model: GeneratorModel, targets, scale: float) -> MarginalTargets:
    """Fold targets (objects with .spec of order <= 2, .noisy and .weight)
    into per-cell weights and weighted means in the model's dtype: one float64
    scatter in target order sums each cell as a per-spec loop over them would."""
    if any(t.spec.order > 2 for t in targets):
        raise ValueError("training targets must be one- or two-way marginals")
    layout = gram_layout(model, [t.spec.attrs for t in targets if t.spec.order == 2])
    at = np.concatenate([layout.cells[t.spec.attrs] for t in targets])
    w = np.repeat([t.weight for t in targets], [t.spec.n_cells for t in targets])
    y = np.concatenate([t.noisy.counts for t in targets])
    total = np.bincount(at, w, layout.size)
    mean = np.divide(np.bincount(at, w * y, layout.size), total,
                     out=np.zeros(layout.size), where=total != 0)
    const = float(w @ (y - mean[at]) ** 2)
    dtype = model.dtype
    return MarginalTargets(scale, layout, total.astype(dtype), mean.astype(dtype), const)


def loss_and_grad(model: GeneratorModel, targets: MarginalTargets, ctx: TrainContext):
    """Weighted marginal-matching loss and its exact gradient.

    Loss = sum_i w_i * ||soft_marginal_i - noisy_i||_F^2 over the folded
    targets (see `fold_targets`). Returns (loss, grads) with grads shaped and
    typed like model.layers, the views of the context's gradient block; the
    loss is summed in float64. The forward pass is the one the context holds.
    """
    _check_bound(model, ctx)
    probs = ctx.probs
    err = gram_cells(probs, targets.layout, targets.scale, targets.err)
    err -= targets.mean
    np.multiply(targets.weight, err, out=targets.resid)
    err *= targets.resid  # each cell's term of the loss
    (terms1, resid1), *block_parts = targets.work_parts
    loss = targets.const + float(terms1.sum(dtype=np.float64))
    dprobs = ctx.backward[-1]
    dprobs[...] = resid1
    for blk, (terms, resid) in zip(targets.layout.blocks, block_parts):
        loss += float(terms.sum(dtype=np.float64))
        p_rows = probs[:, blk.rows]
        if blk.cols is blk.rows:
            dprobs[:, blk.rows] += p_rows @ (resid + resid.T)
        else:
            dprobs[:, blk.rows] += probs[:, blk.cols] @ resid.T
            dprobs[:, blk.cols] += p_rows @ resid
    dprobs *= 2.0 * targets.scale / probs.shape[0]

    # softmax backward per segment: dz = p * (g - sum(g * p))
    work = ctx.work(model.out_width)
    np.multiply(dprobs, probs, out=work)
    _per_segment(np.add, work, np.subtract, dprobs, dprobs, model.segments)
    dprobs *= probs

    inputs = [model.Z] + ctx.outputs[:-1]
    last = len(model.layers) - 1
    for l in range(last, -1, -1):
        dh = ctx.backward[l]
        if l < last:
            dh *= np.greater(ctx.outputs[l], 0.0, out=ctx.work(dh.shape[1]))  # ReLU mask
        gW, gb = ctx.grads[l]
        np.matmul(inputs[l].T, dh, out=gW)
        np.sum(dh, axis=0, out=gb)
        if l > 0:
            np.matmul(dh, model.layers[l][0].T, out=ctx.backward[l - 1])
    return loss, ctx.grads


def adam_step(ctx: TrainContext, lr: float) -> None:
    """One Adam update of the bound model's weights from the context's
    gradient block, in place: param -= lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS),
    element for element as in that expression, over whole blocks. The scratch
    block and then the spent gradient hold the temporaries. The caller runs
    `forward(model, ctx)` next, so the buffers follow the new weights."""
    ctx.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** ctx.t
    bc2 = 1.0 - ADAM_BETA2 ** ctx.t
    m, v, g, s = ctx.m, ctx.v, ctx.grad, ctx.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2
    s = np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    s *= g
    v += s
    s = np.divide(m, bc1, out=s)
    s *= lr
    root = np.sqrt(np.divide(v, bc2, out=g), out=g)
    root += ADAM_EPS
    s /= root
    ctx.params -= s


def sample_hard(model: GeneratorModel, probs: np.ndarray, n_rows: int, seed: int) -> Dataset:
    """Draw a discrete dataset from `model`'s soft batch `probs` (its forward
    pass, which this function does not run).

    Each output row picks one of the b soft rows uniformly, then samples every
    attribute independently from that row's categorical segment, which makes
    the expected empirical marginal equal the soft marginal. The draw inverts
    each segment's float64 CDF, scaled to end at the segment's total, so a
    float32 model's rounding neither biases the last category nor grows in
    the running sum. The codes go straight into the column-major output
    matrix, `SAMPLE_BLOCK_ROWS` rows at a time, so no (n_rows, k) block of
    prefix sums is ever gathered whole.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    picks = rng.integers(0, probs.shape[0], size=n_rows)
    rows = np.empty((n_rows, len(model.cards)), dtype=code_dtype(model.cards), order="F")
    for j, (off, c) in enumerate(zip(model.seg_offsets, model.cards)):
        # row by row, as if after the gather; the float64 upcast is exact
        cum = np.cumsum(probs[:, off:off + c], axis=1, dtype=np.float64)
        u = rng.random(n_rows) * cum[picks, -1]
        for start in range(0, n_rows, SAMPLE_BLOCK_ROWS):
            block = slice(start, start + SAMPLE_BLOCK_ROWS)
            # u <= the row's total: at most c - 1
            rows[block, j] = (cum[picks[block]] < u[block, None]).sum(axis=1)
    return Dataset(rows=rows, cards=model.cards)


def save_checkpoint(path, model: GeneratorModel, prev_model: GeneratorModel) -> None:
    """Binary checkpoint: magic, header length, JSON header, then the arrays
    little-endian in the model's dtype: the model's weights, `prev_model`'s,
    then Z.

    `prev_model` (the state before the final selection round) shares Z and
    architecture with `model`; only its weights are stored in addition. The
    layer shapes follow from the header's cards, hidden widths and latent_dim.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "cards": list(model.cards),
        "hidden": list(model.hidden),
        "latent_dim": model.latent_dim,
        "batch_size": model.batch_size,
        "dtype": model.dtype.name,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    stored = model.dtype.newbyteorder("<")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for arr in [a for m in (model, prev_model) for layer in m.layers for a in layer] + [model.Z]:
            f.write(np.ascontiguousarray(arr, dtype=stored).tobytes())


def _check_header(header: dict) -> None:
    """Raise CheckpointError unless the header describes a loadable model:
    positive int sizes, non-empty lists of them for cards and hidden, and a
    dtype of float32 or float64."""
    def is_size(v):
        return isinstance(v, int) and not isinstance(v, bool) and v > 0

    for key in ("latent_dim", "batch_size"):
        if not is_size(header[key]):
            raise CheckpointError(f"checkpoint header: {key} must be a positive int, "
                                  f"got {header[key]!r}")
    for key in ("cards", "hidden"):
        if not (isinstance(header[key], list) and header[key] and all(map(is_size, header[key]))):
            raise CheckpointError(f"checkpoint header: {key} must be a non-empty list of "
                                  f"positive ints, got {header[key]!r}")
    if header["dtype"] not in _CHECKPOINT_DTYPES:
        raise CheckpointError(f"checkpoint header: dtype must be one of "
                              f"{', '.join(_CHECKPOINT_DTYPES)}, got {header['dtype']!r}")


def load_checkpoint(path):
    """Returns (model, prev_model), in the dtype the header records: the exact
    inverse of `save_checkpoint`.

    The header length and the array sizes the header implies are checked
    against the file's size before any read, so a corrupt size ends in a
    CheckpointError, never in a huge allocation or a silently short model."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a generator checkpoint (bad magic header): {path}")
        try:
            (hlen,) = struct.unpack("<Q", f.read(8))
            if hlen > size - f.tell():
                raise CheckpointError(f"corrupt checkpoint header: its length {hlen} runs "
                                      f"past the end of the {size}-byte file")
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError("corrupt checkpoint header: not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version: {header.get('version')}")
        missing = [k for k in _CHECKPOINT_KEYS if k not in header]
        if missing:
            raise CheckpointError(f"checkpoint header lacks {', '.join(missing)}")
        _check_header(header)
        dtype = np.dtype(header["dtype"])
        latent_dim, batch_size = header["latent_dim"], header["batch_size"]
        layer_shapes = _layer_shapes(latent_dim, header["hidden"], header["cards"])
        shapes = [s for layer in layer_shapes for s in layer] * 2 + [(batch_size, latent_dim)]
        counts = [math.prod(s) for s in shapes]
        need = dtype.itemsize * sum(counts)
        if need != size - f.tell():
            raise CheckpointError(f"checkpoint size mismatch: its arrays need {need} bytes, "
                                  f"{size - f.tell()} follow the header")
        values = np.frombuffer(f.read(need), dtype=dtype.newbyteorder("<")).astype(dtype)
    if not np.isfinite(values).all():
        raise CheckpointError(f"checkpoint holds a value that is not a finite {dtype.name}")
    arrays = iter(a.reshape(s) for a, s in zip(np.split(values, np.cumsum(counts)[:-1]), shapes))
    layers = [(next(arrays), next(arrays)) for _ in layer_shapes]
    prev_layers = [(next(arrays), next(arrays)) for _ in layer_shapes]
    Z = next(arrays)
    Z.flags.writeable = False
    cards = tuple(header["cards"])
    return GeneratorModel(layers, cards, Z), GeneratorModel(prev_layers, cards, Z)
