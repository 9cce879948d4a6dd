"""MLP generator with per-attribute softmax heads and exact analytic gradients.

The generator maps a fixed latent batch Z (sampled once at initialization) to a
"soft batch": every row carries one probability vector per attribute. One- and
two-way marginals of the generated data are then differentiable functions of
the network output — a one-way marginal is a scaled column mean of a segment,
a two-way marginal is the scaled batch-mean of row-wise outer products — so the
weighted squared-error loss against noisy target marginals can be minimized by
plain gradient descent. Backpropagation is written out by hand; no autograd.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .domain import Dataset, Domain
from .errors import CheckpointError, UnsupportedOrder
from .marginals import Marginal, MarginalSpec

CHECKPOINT_MAGIC = b"MGNETCK1"
_CHECKPOINT_KEYS = ("cards", "latent_dim", "batch_size", "layer_shapes", "has_prev")


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
        off = self.seg_offsets[attr]
        return slice(off, off + self.cards[attr])


@dataclass
class SoftBatch:
    probs: np.ndarray  # (batch_size, sum(cards))
    cards: tuple[int, ...]
    seg_offsets: tuple[int, ...]

    def segment(self, attr: int) -> np.ndarray:
        off = self.seg_offsets[attr]
        return self.probs[:, off : off + self.cards[attr]]


def init_generator(
    domain: Domain, hidden: list[int], latent_dim: int, batch_size: int, seed: int
) -> GeneratorModel:
    """He-style scaled-uniform init; Z drawn once from N(0, 1) and frozen."""
    if not hidden:
        raise ValueError("need at least one hidden layer")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cards = domain.cards
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    widths = [latent_dim] + list(hidden) + [int(sum(cards))]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append((W, b))
    Z = rng.standard_normal((batch_size, latent_dim))
    Z.flags.writeable = False
    offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(cards)[:-1]]))
    return GeneratorModel(layers=layers, cards=cards, seg_offsets=offsets, latent_dim=latent_dim, Z=Z)


def _segment_softmax(logits: np.ndarray, cards, offsets) -> np.ndarray:
    probs = np.empty_like(logits)
    for off, c in zip(offsets, cards):
        seg = logits[:, off : off + c]
        shifted = seg - seg.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs[:, off : off + c] = e / e.sum(axis=1, keepdims=True)
    return probs


def _forward_full(model: GeneratorModel, z: np.ndarray | None = None):
    """Forward pass keeping intermediates for backprop.

    Returns (activations, probs): activations[l] is the input to layer l,
    activations[-1] is the pre-softmax logits.
    """
    h = model.Z if z is None else z
    acts = [h]
    n_layers = len(model.layers)
    for l, (W, b) in enumerate(model.layers):
        a = h @ W + b
        if l < n_layers - 1:
            h = np.maximum(a, 0.0)
        else:
            h = a
        acts.append(h)
    probs = _segment_softmax(acts[-1], model.cards, model.seg_offsets)
    return acts, probs


def forward(model: GeneratorModel, z: np.ndarray | None = None) -> SoftBatch:
    """Soft batch from the frozen latent Z (or an explicit latent batch)."""
    _, probs = _forward_full(model, z)
    return SoftBatch(probs=probs, cards=model.cards, seg_offsets=model.seg_offsets)


def soft_marginal(batch: SoftBatch, spec: MarginalSpec, scale: float) -> Marginal:
    """Differentiable marginal estimate of the soft batch, scaled to `scale` records."""
    b = batch.probs.shape[0]
    if spec.order == 1:
        counts = scale * batch.segment(spec.attrs[0]).mean(axis=0)
    elif spec.order == 2:
        U = batch.segment(spec.attrs[0])
        V = batch.segment(spec.attrs[1])
        counts = (scale / b) * (U.T @ V).reshape(-1)
    else:
        raise UnsupportedOrder("soft marginals support order 1 and 2 only")
    return Marginal(spec, counts)


def loss_and_grad(model: GeneratorModel, targets, scale: float, z: np.ndarray | None = None):
    """Weighted marginal-matching loss and its exact gradient.

    targets: iterable of objects with .spec (order <= 2), .noisy (Marginal)
    and .weight. Loss = sum_i w_i * ||soft_marginal_i - noisy_i||_F^2.
    Returns (loss, grads) with grads shaped like model.layers.
    """
    acts, probs = _forward_full(model, z)
    b = probs.shape[0]
    loss = 0.0
    dprobs = np.zeros_like(probs)
    for t in targets:
        spec = t.spec
        if spec.order == 1:
            seg = model.segment(spec.attrs[0])
            est = scale * probs[:, seg].mean(axis=0)
            resid = est - t.noisy.counts
            loss += t.weight * float(resid @ resid)
            dprobs[:, seg] += (2.0 * t.weight * scale / b) * resid[None, :]
        elif spec.order == 2:
            s1 = model.segment(spec.attrs[0])
            s2 = model.segment(spec.attrs[1])
            U, V = probs[:, s1], probs[:, s2]
            est = (scale / b) * (U.T @ V)
            resid = est - t.noisy.counts.reshape(est.shape)
            loss += t.weight * float((resid * resid).sum())
            g = 2.0 * t.weight * (scale / b) * resid
            dprobs[:, s1] += V @ g.T
            dprobs[:, s2] += U @ g
        else:
            raise UnsupportedOrder("training targets must be one- or two-way marginals")

    # softmax backward per segment: dz = p * (g - sum(g * p))
    dlogits = np.empty_like(dprobs)
    for off, c in zip(model.seg_offsets, model.cards):
        sl = slice(off, off + c)
        p, g = probs[:, sl], dprobs[:, sl]
        dlogits[:, sl] = p * (g - (g * p).sum(axis=1, keepdims=True))

    grads = [None] * len(model.layers)
    dh = dlogits
    for l in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[l]
        h_in = acts[l]
        if l < len(model.layers) - 1:
            dh = dh * (acts[l + 1] > 0)  # ReLU mask
        grads[l] = (h_in.T @ dh, dh.sum(axis=0))
        if l > 0:
            dh = dh @ W.T
    return loss, grads


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_model(cls, model: GeneratorModel) -> "AdamState":
        return cls(
            m=[(np.zeros_like(W), np.zeros_like(b)) for W, b in model.layers],
            v=[(np.zeros_like(W), np.zeros_like(b)) for W, b in model.layers],
            t=0,
        )


def adam_step(model: GeneratorModel, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam update, in place."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for l, (W, b) in enumerate(model.layers):
        for k, (param, g) in enumerate(zip((W, b), grads[l])):
            m = state.m[l][k]
            v = state.v[l][k]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def sample_hard(model: GeneratorModel, n_rows: int, seed: int) -> Dataset:
    """Draw a discrete dataset from the fitted soft batch.

    Each output row picks one of the b soft rows uniformly, then samples every
    attribute independently from that row's categorical segment, which makes
    the expected empirical marginal equal the soft marginal.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    probs = forward(model).probs
    b = probs.shape[0]
    picks = rng.integers(0, b, size=n_rows)
    cols = []
    for a, c in enumerate(model.cards):
        seg = probs[picks, model.seg_offsets[a] : model.seg_offsets[a] + c]
        cum = np.cumsum(seg, axis=1)
        u = rng.random(n_rows)
        idx = (cum < u[:, None]).sum(axis=1)
        cols.append(np.minimum(idx, c - 1))
    rows = np.stack(cols, axis=1) if cols else np.zeros((n_rows, 0), dtype=np.int64)
    return Dataset(rows=rows, cards=model.cards)


def _model_arrays(model: GeneratorModel) -> list[np.ndarray]:
    arrs = []
    for W, b in model.layers:
        arrs.extend([W, b])
    return arrs


def save_checkpoint(path, model: GeneratorModel, prev_model: GeneratorModel | None = None) -> None:
    """Binary checkpoint: magic, JSON header, then raw float64 arrays.

    `prev_model` (the state before the final selection round) shares Z and
    architecture with `model`; only its weights are stored in addition.
    """
    header = {
        "version": 1,
        "cards": list(model.cards),
        "latent_dim": model.latent_dim,
        "batch_size": model.batch_size,
        "layer_shapes": [[list(W.shape), list(b.shape)] for W, b in model.layers],
        "has_prev": prev_model is not None,
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


def load_checkpoint(path):
    """Returns (model, prev_model_or_None)."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a generator checkpoint (bad magic header): {path}")
        try:
            (hlen,) = struct.unpack("<Q", f.read(8))
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

        def read_arr(shape):
            n = int(np.prod(shape)) if shape else 1
            buf = f.read(8 * n)
            if len(buf) != 8 * n:
                raise CheckpointError("checkpoint truncated")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

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
