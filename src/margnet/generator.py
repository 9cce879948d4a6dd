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
float64 `Marginal`s, and checkpoints store every array as float64 (exact for
float32) with the model's dtype in the header.

Training runs through a `TrainContext`: one allocation holding the weights
(the model's layers become views of it), the gradient, Adam's state and every
buffer of a step, filled in place. Its buffers always hold the forward pass
of its current weights: the constructor runs one, and whoever changes the
weights runs the next. `loss_and_grad` without a context makes one of its
own over a copy of the model; `forward` without one allocates.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import Dataset, Domain
from .errors import CheckpointError, UnsupportedOrder
from .marginals import Marginal, MarginalSpec

CHECKPOINT_MAGIC = b"MGNETCK1"
_CHECKPOINT_KEYS = ("cards", "latent_dim", "batch_size", "layer_shapes", "has_prev")
# dtypes a model may be trained and checkpointed in; a header without "dtype"
# is float64
_CHECKPOINT_DTYPES = ("float32", "float64")

# A set of two-way marginals is read from one square block of G over all the
# attributes it touches while that block has at most DENSE_SLACK times as many
# cells as the marginals themselves; past that, each attribute's pairs get a
# block row of their own, which holds exactly the requested cells.
DENSE_SLACK = 8

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _segment(cards, offsets, attr: int) -> slice:
    """Columns of attribute `attr` in a layout where it starts at offsets[attr]."""
    return slice(offsets[attr], offsets[attr] + cards[attr])


@dataclass
class GeneratorModel:
    layers: list  # [(W, b), ...]; last layer's width == sum(cards)
    cards: tuple[int, ...]
    seg_offsets: tuple[int, ...]  # per-attribute start column in the output
    latent_dim: int
    Z: np.ndarray  # (batch_size, latent_dim), frozen

    @property
    def batch_size(self) -> int:
        return self.Z.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.Z.dtype

    @property
    def out_width(self) -> int:
        return int(sum(self.cards))

    def copy(self) -> "GeneratorModel":
        return GeneratorModel(
            layers=[(W.copy(), b.copy()) for W, b in self.layers],
            cards=self.cards,
            seg_offsets=self.seg_offsets,
            latent_dim=self.latent_dim,
            Z=self.Z,
        )

    def segment(self, attr: int) -> slice:
        return _segment(self.cards, self.seg_offsets, attr)


def init_generator(
    domain: Domain, hidden: list[int], latent_dim: int, batch_size: int, seed: int,
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
    cards = domain.cards
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    widths = [latent_dim] + list(hidden) + [int(sum(cards))]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype, copy=False)
        layers.append((W, np.zeros(fan_out, dtype=dtype)))
    Z = rng.standard_normal((batch_size, latent_dim)).astype(dtype, copy=False)
    Z.flags.writeable = False
    offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(cards)[:-1]]))
    return GeneratorModel(layers=layers, cards=cards, seg_offsets=offsets, latent_dim=latent_dim, Z=Z)


def _per_segment(ufunc, x: np.ndarray, cards, offsets, out=None) -> np.ndarray:
    """`ufunc` reduced over each row's segments, repeated back over the
    segment's columns (into `out`, which may be `x`, when given)."""
    columns = np.repeat(np.arange(len(cards)), cards)
    return np.take(ufunc.reduceat(x, offsets, axis=1), columns, axis=1, out=out, mode="clip")


def _segment_softmax(logits: np.ndarray, cards, offsets, out=None, work=None) -> np.ndarray:
    """Softmax over each row's segments, into `out` (not `logits`); `work`
    holds the repeated segment sums."""
    shifted = _per_segment(np.maximum, logits, cards, offsets, out=out)
    np.subtract(logits, shifted, out=shifted)
    e = np.exp(shifted, out=shifted)
    return np.divide(e, _per_segment(np.add, e, cards, offsets, out=work), out=e)


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
    calls over whole blocks. Then each layer's output and backward buffer,
    the softmax output and a work buffer. `forward`, `loss_and_grad` and
    `adam_step` write into them with `out=`, keeping the arithmetic of each
    element and the order of each reduction, so results are the same to the
    bit as with fresh arrays.

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
        buf_shapes = [(b, w) for w in widths] * 2 + [(b, widths[-1]), (b * max(widths),)]
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
        self.outputs = bufs[:n_layers]  # each layer's output; the last is the logits
        self.backward = bufs[n_layers:2 * n_layers]  # the loss's gradient wrt each output
        self.probs, self._work = bufs[-2:]
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
    Through a context, every layer's output stays in its buffers for the
    backward pass, and P is its softmax buffer, overwritten by the next pass;
    without one, every array is fresh."""
    if ctx is None:
        outputs = [np.empty((model.batch_size, W.shape[1]), model.dtype) for W, _ in model.layers]
        probs, work = np.empty_like(outputs[-1]), None
    else:
        _check_bound(model, ctx)
        outputs, probs, work = ctx.outputs, ctx.probs, ctx.work(model.out_width)
    h = model.Z
    last = len(model.layers) - 1
    for l, ((W, b), out) in enumerate(zip(model.layers, outputs)):
        h = np.matmul(h, W, out=out)
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
    return _segment_softmax(h, model.cards, model.seg_offsets, out=probs, work=work)


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
        raise UnsupportedOrder("soft marginals support order 1 and 2 only")
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
        grid = np.arange(start, start + n_rows * n_cols).reshape(n_rows, n_cols)
        for a, c in owned:
            cells[(a, c)] = grid[_segment(cards, row_starts, a),
                                 _segment(cards, col_starts, c)].ravel()
        blocks.append(GramBlock(rows, cols, (n_rows, n_cols), start))
        start += grid.size
    return GramLayout(blocks, cells, start)


def _gram_blocks(probs: np.ndarray, layout: GramLayout, c: float):
    """Per block of `layout`: the block, its row and column slabs of P, and
    c P_rows^T P_cols."""
    for blk in layout.blocks:
        p_rows = probs[:, blk.rows]
        p_cols = p_rows if blk.cols is blk.rows else probs[:, blk.cols]
        yield blk, p_rows, p_cols, c * (p_rows.T @ p_cols)


@dataclass
class SoftMarginals:
    """One- and two-way soft marginals of one soft batch P at one scale S, as
    the flat cell vector of `layout`: g1 = (S/b) 1^T P, then its blocks of
    G = (S/b) P^T P. Each marginal is one gather."""

    layout: GramLayout
    cells: np.ndarray

    def marginal(self, spec: MarginalSpec) -> Marginal:
        return Marginal(spec, self.cells[self.layout.cells[spec.attrs]])


def soft_marginals(model: GeneratorModel, scale: float, specs) -> SoftMarginals:
    """The soft marginals of `specs` (order <= 2) from one forward pass."""
    if any(s.order > 2 for s in specs):
        raise UnsupportedOrder("soft marginals support order 1 and 2 only")
    layout = gram_layout(model, [s.attrs for s in specs if s.order == 2])
    return gram_marginals(forward(model), scale, layout)


def gram_marginals(probs: np.ndarray, scale: float, layout: GramLayout) -> SoftMarginals:
    """The flat cell vector of `layout` over the soft batch `probs`."""
    c = scale / probs.shape[0]
    grams = [gram.ravel() for *_, gram in _gram_blocks(probs, layout, c)]
    return SoftMarginals(layout, np.concatenate([c * probs.sum(axis=0), *grams]))


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
    parts: list = field(init=False, repr=False)  # views: g1's (w1, t1), each block's (W2, T2)

    def __post_init__(self):
        self.parts = list(zip(self.layout.parts(self.weight), self.layout.parts(self.mean)))


def fold_targets(model: GeneratorModel, targets, scale: float) -> MarginalTargets:
    """Fold targets (objects with .spec of order <= 2, .noisy and .weight)
    into per-cell weights and weighted means in the model's dtype: one float64
    scatter in target order sums each cell as a per-spec loop over them would."""
    if any(t.spec.order > 2 for t in targets):
        raise UnsupportedOrder("training targets must be one- or two-way marginals")
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


def loss_and_grad(model: GeneratorModel, targets: MarginalTargets,
                  ctx: TrainContext | None = None):
    """Weighted marginal-matching loss and its exact gradient.

    Loss = sum_i w_i * ||soft_marginal_i - noisy_i||_F^2 over the folded
    targets (see `fold_targets`). Returns (loss, grads) with grads shaped and
    typed like model.layers, the views of the context's gradient block; the
    loss is summed in float64. The forward pass is the one the context holds.
    """
    if ctx is None:
        model = model.copy()  # a context of its own leaves `model` unbound
        ctx = TrainContext(model)
    _check_bound(model, ctx)
    probs = ctx.probs
    b = probs.shape[0]
    c = targets.scale / b
    (weight1, mean1), *block_targets = targets.parts
    err1 = c * probs.sum(axis=0) - mean1
    resid1 = weight1 * err1
    loss = targets.const + float((resid1 * err1).sum(dtype=np.float64))
    dprobs = ctx.backward[-1]
    dprobs[...] = resid1
    blocks = _gram_blocks(probs, targets.layout, c)
    for (blk, p_rows, p_cols, gram), (weight, mean) in zip(blocks, block_targets):
        err = gram - mean
        resid = weight * err
        loss += float((resid * err).sum(dtype=np.float64))
        if blk.cols is blk.rows:
            dprobs[:, blk.rows] += p_rows @ (resid + resid.T)
        else:
            dprobs[:, blk.rows] += p_cols @ resid.T
            dprobs[:, blk.cols] += p_rows @ resid
    dprobs *= 2.0 * c

    # softmax backward per segment: dz = p * (g - sum(g * p))
    work = ctx.work(model.out_width)
    np.multiply(dprobs, probs, out=work)
    dprobs -= _per_segment(np.add, work, model.cards, model.seg_offsets, out=work)
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
    the running sum.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    probs = probs.astype(np.float64, copy=False)
    b = probs.shape[0]
    picks = rng.integers(0, b, size=n_rows)
    cols = []
    for a, c in enumerate(model.cards):
        seg = probs[picks, model.seg_offsets[a] : model.seg_offsets[a] + c]
        cum = np.cumsum(seg, axis=1)
        u = rng.random(n_rows) * cum[:, -1]
        cols.append((cum < u[:, None]).sum(axis=1))  # u <= cum[:, -1]: at most c - 1
    rows = np.stack(cols).T if cols else np.zeros((n_rows, 0), dtype=np.int64)
    return Dataset(rows=rows, cards=model.cards)


def _model_arrays(model: GeneratorModel) -> list[np.ndarray]:
    arrs = []
    for W, b in model.layers:
        arrs.extend([W, b])
    return arrs


def save_checkpoint(path, model: GeneratorModel, prev_model: GeneratorModel | None = None) -> None:
    """Binary checkpoint: magic, JSON header, then raw float64 arrays.

    `prev_model` (the state before the final selection round) shares Z and
    architecture with `model`; only its weights are stored in addition. The
    header records the model's dtype; float32 arrays are stored upcast, which
    is exact.
    """
    header = {
        "version": 1,
        "cards": list(model.cards),
        "latent_dim": model.latent_dim,
        "batch_size": model.batch_size,
        "layer_shapes": [[list(W.shape), list(b.shape)] for W, b in model.layers],
        "has_prev": prev_model is not None,
        "dtype": model.dtype.name,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = _model_arrays(model)
    if prev_model is not None:
        arrays += _model_arrays(prev_model)
    arrays.append(np.asarray(model.Z))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _check_header(header: dict) -> None:
    """Raise CheckpointError unless the header describes a loadable model:
    positive int sizes, a bool has_prev, an optional dtype of float32 or
    float64, and [[fan_in, fan_out], [fan_out]] layer shapes chaining from
    latent_dim to sum(cards)."""
    def is_size(v):
        return isinstance(v, int) and not isinstance(v, bool) and v > 0

    def is_sizes(v, n=None):
        return isinstance(v, list) and all(map(is_size, v)) and (n is None or len(v) == n)

    for key in ("latent_dim", "batch_size"):
        if not is_size(header[key]):
            raise CheckpointError(f"checkpoint header: {key} must be a positive int, "
                                  f"got {header[key]!r}")
    if not is_sizes(header["cards"]) or not header["cards"]:
        raise CheckpointError(f"checkpoint header: cards must be a non-empty list of "
                              f"positive ints, got {header['cards']!r}")
    if not isinstance(header["has_prev"], bool):
        raise CheckpointError(f"checkpoint header: has_prev must be a bool, "
                              f"got {header['has_prev']!r}")
    if header.get("dtype", "float64") not in _CHECKPOINT_DTYPES:
        raise CheckpointError(f"checkpoint header: dtype must be one of "
                              f"{', '.join(_CHECKPOINT_DTYPES)}, got {header['dtype']!r}")
    shapes = header["layer_shapes"]
    width = header["latent_dim"]
    if not isinstance(shapes, list) or not shapes:
        raise CheckpointError(f"checkpoint header: layer_shapes must be a non-empty list, "
                              f"got {shapes!r}")
    for shape in shapes:
        if not (isinstance(shape, list) and len(shape) == 2 and is_sizes(shape[0], 2)
                and shape[0][0] == width and shape[1] == shape[0][1:]):
            raise CheckpointError(f"checkpoint header: layer shape {shape!r} is not "
                                  f"[[{width}, n], [n]]")
        width = shape[0][1]
    if width != sum(header["cards"]):
        raise CheckpointError(f"checkpoint header: output width {width} != sum(cards) "
                              f"{sum(header['cards'])}")


def load_checkpoint(path):
    """Returns (model, prev_model_or_None), in the dtype the header records.

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
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError("corrupt checkpoint header: not a JSON object")
        if header.get("version") != 1:
            raise CheckpointError(f"unsupported checkpoint version: {header.get('version')}")
        missing = [k for k in _CHECKPOINT_KEYS if k not in header]
        if missing:
            raise CheckpointError(f"checkpoint header lacks {', '.join(missing)}")
        _check_header(header)
        dtype = np.dtype(header.get("dtype", "float64"))
        shapes = [s for layer in header["layer_shapes"] for s in layer]
        shapes = shapes * (1 + header["has_prev"]) + [[header["batch_size"], header["latent_dim"]]]
        need = 8 * sum(map(math.prod, shapes))
        if need != size - f.tell():
            raise CheckpointError(f"checkpoint size mismatch: its arrays need {need} bytes, "
                                  f"{size - f.tell()} follow the header")

        def read_arr(shape):
            arr = np.frombuffer(f.read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not (np.abs(arr) <= np.finfo(dtype).max).all():  # false for NaN too
                raise CheckpointError(f"checkpoint holds a value that is not a finite {dtype.name}")
            return arr.astype(dtype)

        def read_layers():
            layers = []
            for w_shape, b_shape in header["layer_shapes"]:
                layers.append((read_arr(w_shape), read_arr(b_shape)))
            return layers

        layers = read_layers()
        prev_layers = read_layers() if header["has_prev"] else None
        Z = read_arr([header["batch_size"], header["latent_dim"]])
        Z.flags.writeable = False
    cards = tuple(header["cards"])
    offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(cards)[:-1]]))
    model = GeneratorModel(layers=layers, cards=cards, seg_offsets=offsets,
                           latent_dim=header["latent_dim"], Z=Z)
    prev = None
    if prev_layers is not None:
        prev = GeneratorModel(layers=prev_layers, cards=cards, seg_offsets=offsets,
                              latent_dim=header["latent_dim"], Z=Z)
    return model, prev
