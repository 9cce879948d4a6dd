"""Marginal counts over attribute subsets, plus the distances built on them.

Flattening convention (used everywhere, including serialized traces): cells
are indexed row-major over the spec's attributes in ascending order, last
attribute fastest-varying. For a two-way spec over attributes (i, j) with
cardinalities (ci, cj), the tuple (a, b) maps to index a * cj + b.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import Dataset


@dataclass(frozen=True)
class MarginalSpec:
    attrs: tuple[int, ...]
    cards: tuple[int, ...]

    def __post_init__(self):
        if len(self.attrs) not in (1, 2, 3):
            raise ValueError("marginals of order 1, 2 or 3 only")
        if list(self.attrs) != sorted(set(self.attrs)):
            raise ValueError("attribute indices must be strictly ascending")
        if len(self.cards) != len(self.attrs):
            raise ValueError("one cardinality per attribute")

    @property
    def n_cells(self) -> int:
        return math.prod(self.cards)

    @property
    def order(self) -> int:
        return len(self.attrs)


def marginal_spec(ds_or_cards, attrs) -> MarginalSpec:
    """Build a MarginalSpec for `attrs` against a Dataset or a card tuple."""
    cards = ds_or_cards.cards if isinstance(ds_or_cards, Dataset) else tuple(ds_or_cards)
    attrs = tuple(int(a) for a in attrs)
    if any(a < 0 or a >= len(cards) for a in attrs):
        raise ValueError(f"attribute index out of range for d={len(cards)}: {attrs}")
    return MarginalSpec(attrs=attrs, cards=tuple(cards[a] for a in attrs))


@dataclass
class Marginal:
    spec: MarginalSpec
    counts: np.ndarray  # length spec.n_cells; float (noisy ones may be negative)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float).reshape(-1)
        if self.counts.shape[0] != self.spec.n_cells:
            raise ValueError("count vector length does not match the spec's cell count")


def compute_marginal(ds: Dataset, spec: MarginalSpec) -> Marginal:
    """Exact frequency counts of the dataset projected onto spec.attrs."""
    if any(a >= ds.d for a in spec.attrs):
        raise ValueError(f"spec {spec.attrs} out of range for d={ds.d}")
    if tuple(ds.cards[a] for a in spec.attrs) != spec.cards:
        raise ValueError("spec cardinalities do not match the dataset")
    if ds.n_records == 0:
        return Marginal(spec, np.zeros(spec.n_cells))
    # row-major flat index by Horner's rule, one contiguous column at a time, in
    # place in the narrowest dtype that holds the codes, every index and every
    # multiplier (a card equals n_cells when the cards before it are all 1)
    dtype = np.promote_types(ds.rows.dtype,
                             np.min_scalar_type(max((spec.n_cells - 1,) + spec.cards[1:])))
    if dtype.itemsize >= np.dtype(np.intp).itemsize:
        dtype = np.dtype(np.intp)
    flat = ds.rows[:, spec.attrs[0]].astype(dtype)
    for a, c in zip(spec.attrs[1:], spec.cards[1:]):
        flat *= c
        flat += ds.rows[:, a]
    counts = np.bincount(flat, minlength=spec.n_cells).astype(float)
    return Marginal(spec, counts)


def _check_same_spec(a: Marginal, b: Marginal):
    if a.spec.attrs != b.spec.attrs or a.spec.cards != b.spec.cards:
        raise ValueError(f"specs differ: {a.spec.attrs} vs {b.spec.attrs}")


def l1_distance(a: Marginal, b: Marginal) -> float:
    _check_same_spec(a, b)
    return float(np.abs(a.counts - b.counts).sum())


def _normalize(counts: np.ndarray) -> np.ndarray:
    # Standard post-processing for noisy counts: clip negatives, renormalize.
    clipped = np.clip(counts, 0.0, None)
    total = clipped.sum()
    if total <= 0:
        raise ValueError("marginal has no mass after clipping negatives")
    return clipped / total


def tvd(a: Marginal, b: Marginal) -> float:
    """Total variation distance between the normalized frequency vectors."""
    _check_same_spec(a, b)
    return float(0.5 * np.abs(_normalize(a.counts) - _normalize(b.counts)).sum())


def _check_same_domain(real: Dataset, synth: Dataset):
    if real.cards != synth.cards:
        raise ValueError(f"datasets have different domains: {real.cards} vs {synth.cards}")


def fidelity_error(real_ds: Dataset, synth_ds: Dataset) -> float:
    """Mean TVD over all two-way marginals."""
    _check_same_domain(real_ds, synth_ds)
    d = real_ds.d
    if d < 2:
        raise ValueError("fidelity error needs at least 2 attributes")
    vals = []
    for pair in itertools.combinations(range(d), 2):
        spec = marginal_spec(real_ds, pair)
        vals.append(tvd(compute_marginal(real_ds, spec), compute_marginal(synth_ds, spec)))
    return float(np.mean(vals))


def query_error(real_ds: Dataset, synth_ds: Dataset, n_queries: int, seed: int) -> float:
    """Mean absolute normalized-frequency difference over sampled 3-way marginals.

    One query = one 3-way marginal, scored by the mean absolute difference of
    its normalized cell frequencies. Specs are sampled uniformly without
    replacement when enough distinct 3-way subsets exist, with replacement
    otherwise.
    """
    _check_same_domain(real_ds, synth_ds)
    d = real_ds.d
    if d < 3:
        raise ValueError("query error needs at least 3 attributes")
    if n_queries < 1:
        raise ValueError(f"need at least one query, got {n_queries}")
    all_specs = list(itertools.combinations(range(d), 3))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    replace = len(all_specs) < n_queries
    picks = rng.choice(len(all_specs), size=n_queries, replace=replace)
    n_real = max(real_ds.n_records, 1)
    n_synth = max(synth_ds.n_records, 1)
    err = {}
    for p in np.unique(picks):  # a spec drawn more than once is counted once
        spec = marginal_spec(real_ds, all_specs[p])
        fr = compute_marginal(real_ds, spec).counts / n_real
        fs = compute_marginal(synth_ds, spec).counts / n_synth
        err[p] = np.abs(fr - fs).mean()
    return float(np.mean([err[p] for p in picks]))


#: Largest candidate marginal (in cells) the selection loop will consider.
MAX_CANDIDATE_CELLS = 10_000_000


def selection_candidates(cards) -> list[MarginalSpec]:
    """The two-way specs the selection loop chooses among, and the
    unselected-marginal bound ranges over: every pair within the cell cap,
    in lexicographic attribute order."""
    pairs = (marginal_spec(cards, p) for p in itertools.combinations(range(len(cards)), 2))
    return [s for s in pairs if s.n_cells <= MAX_CANDIDATE_CELLS]
