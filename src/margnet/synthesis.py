"""End-to-end synthesis: budget split, one-way warm-up, adaptive two-way
selection under the privacy filter, weighted marginal training, and sampling.

The selection loop alternates exponential-mechanism selection (budget rho_s
per round) with Gaussian measurement (rho_m per round) and a training pass.
In adaptive mode both per-round budgets double when a first-time-selected
marginal improves the model by less than the expected noise level, and the
last round absorbs whatever budget remains. Fixed-round mode (no doubling,
equal budget per round) is the ablation of that schedule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .domain import Dataset, Domain
from .errors import InsufficientBudget
from .generator import (
    GeneratorModel,
    GramLayout,
    SoftMarginals,
    TrainContext,
    adam_step,
    fold_targets,
    forward,
    gram_layout,
    gram_marginals,
    init_generator,
    loss_and_grad,
    sample_hard,
)
from .marginals import (Marginal, MarginalSpec, compute_marginal, l1_distance, marginal_spec,
                        selection_candidates)
from .privacy import (SCORE_SENSITIVITY, Accountant, NoiseParams, expected_noise_l1,
                      exponential_mechanism, gaussian_mechanism)

# Relative budget headroom left unspent so float rounding can never push the
# ledger total past the budget.
_BUDGET_SLACK = 1e-9

# The generator trains in float32, about half the cost of a float64 step.
# Measurements, noise, scores, improvements and the accountant stay float64.
TRAIN_DTYPE = np.float32


@dataclass
class SynthConfig:
    rho_total: float
    c: float | None = None  # selection-granularity parameter; defaults to 16*d
    train_iters: int = 200
    lr: float = 1e-3
    batch_size: int = 256
    hidden: tuple[int, ...] = (256, 256)
    latent_dim: int = 64
    fixed_rounds: int | None = None  # None: adaptive; K: K equal-budget rounds
    seed: int = 0

    def __post_init__(self):
        if self.train_iters < 1:
            raise ValueError(f"train_iters must be >= 1, got {self.train_iters}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.fixed_rounds is not None and self.fixed_rounds < 1:
            raise ValueError(f"fixed-round mode needs at least one round, got {self.fixed_rounds}")

    def resolved_c(self, d: int) -> float:
        c = 16.0 * d if self.c is None else float(self.c)
        if not d <= c < math.inf:
            raise ValueError(f"c={c} must be finite and at least d={d} so the warm-up is affordable")
        return c

    def to_json_dict(self, d: int) -> dict:
        return {
            "rho_total": self.rho_total,
            "c": self.resolved_c(d),
            "train_iters": self.train_iters,
            "lr": self.lr,
            "batch_size": self.batch_size,
            "hidden": list(self.hidden),
            "latent_dim": self.latent_dim,
            "mode": "adaptive" if self.fixed_rounds is None else "fixed_round",
            "fixed_rounds": self.fixed_rounds,
            "seed": self.seed,
            "dtype": np.dtype(TRAIN_DTYPE).name,
        }


@dataclass
class Measurement:
    spec: MarginalSpec
    noisy: Marginal
    rho_m: float
    sigma: float
    weight: float = 1.0
    round: int = 0  # 0 = warm-up
    newly_selected: bool = False

    def to_json_dict(self) -> dict:
        return {
            "attrs": list(self.spec.attrs),
            "counts": [float(c) for c in self.noisy.counts],
            "rho_m": self.rho_m,
            "sigma": self.sigma,
            "round": self.round,
        }


@dataclass
class RoundRecord:
    round: int
    attrs: tuple[int, ...]
    rho_s: float
    rho_m: float
    score: float
    improvement: float
    noise_floor: float
    doubled: bool

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "attrs": list(self.attrs),
            "rho_s": self.rho_s,
            "rho_m": self.rho_m,
            "score": self.score,
            "improvement": self.improvement,
            "noise_floor": self.noise_floor,
            "doubled": self.doubled,
        }


@dataclass
class SelectionTrace:
    warmup: list[Measurement] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    measurements: list[Measurement] = field(default_factory=list)  # adaptive-phase only
    n_estimate: float = 0.0
    rho_budget: float = 0.0
    ledger: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "format": "margnet-trace-v1",
            "config": self.config,
            "seed": self.seed,
            "n_estimate": self.n_estimate,
            "rho_budget": self.rho_budget,
            "warmup": [m.to_json_dict() for m in self.warmup],
            "rounds": [r.to_json_dict() for r in self.rounds],
            "measurements": [m.to_json_dict() for m in self.measurements],
            "ledger": [[label, rho] for label, rho in self.ledger],
        }


def _positive(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _spec(cards, attrs, order: int) -> MarginalSpec:
    # marginal_spec then requires ascending indices, all in range
    if not (isinstance(attrs, list) and len(attrs) == order
            and all(type(a) is int for a in attrs)):
        raise ValueError(f"attrs must be a list of {order} attribute indices, got {attrs!r}")
    return marginal_spec(cards, attrs)


def trace_from_json_dict(obj: dict, cards) -> SelectionTrace:
    """Rebuild a SelectionTrace (as far as diagnostics need it) from its JSON.

    Every budget and noise scale must be a positive finite number, every count
    finite, every warm-up marginal one-way and every selected one two-way."""
    if not isinstance(obj, dict):
        raise ValueError(f"a trace is a JSON object, got {type(obj).__name__}")
    if obj.get("format") != "margnet-trace-v1":
        raise ValueError(f"not a synthesis trace: format={obj.get('format')!r}")
    n_estimate = _positive("n_estimate", obj["n_estimate"])

    def meas(entry: dict, order: int) -> Measurement:
        spec = _spec(cards, entry["attrs"], order)
        noisy = Marginal(spec, np.asarray(entry["counts"]))
        if not np.isfinite(noisy.counts).all():
            raise ValueError(f"counts of {list(spec.attrs)} must be finite")
        return Measurement(spec=spec, noisy=noisy, rho_m=_positive("rho_m", entry["rho_m"]),
                           sigma=_positive("sigma", entry["sigma"]), round=entry["round"])

    trace = SelectionTrace(
        warmup=[meas(e, 1) for e in obj.get("warmup", [])],
        measurements=[meas(e, 2) for e in obj.get("measurements", [])],
        n_estimate=n_estimate,
        rho_budget=obj.get("rho_budget", 0.0),
        ledger=[(label, rho) for label, rho in obj.get("ledger", [])],
        config=obj.get("config", {}),
        seed=obj.get("seed", 0),
    )
    for e in obj.get("rounds", []):
        trace.rounds.append(RoundRecord(
            round=e["round"], attrs=_spec(cards, e["attrs"], 2).attrs,
            rho_s=_positive("rho_s", e["rho_s"]), rho_m=_positive("rho_m", e["rho_m"]),
            score=e["score"], improvement=e["improvement"],
            noise_floor=e.get("noise_floor", 0.0), doubled=e["doubled"],
        ))
    return trace


def split_budget(rho: float, c: float) -> tuple[float, float]:
    """Per-round (rho_s, rho_m) = (0.1, 0.9) * rho / c: selection gets a tenth
    of a round's budget, measurement the rest.

    rho_m is computed as the exact complement so rho_s + rho_m == rho / c.
    """
    if rho <= 0 or c <= 0:
        raise ValueError("rho and c must be positive")
    unit = rho / c
    rho_s = 0.1 * unit
    return rho_s, unit - rho_s


def compute_weights(measurements: list[Measurement], d: int) -> None:
    """Training weights: sqrt(rho_m) base, amplified d-fold for the newly
    selected measurement, then scaled so the maximum weight equals d."""
    if not measurements:
        raise ValueError("no measurements to weight")
    base = np.array([math.sqrt(m.rho_m) * (d if m.newly_selected else 1.0) for m in measurements])
    base *= d / base.max()
    for m, w in zip(measurements, base):
        m.weight = float(w)


def train(model: GeneratorModel, ctx: TrainContext, measurements: list[Measurement],
          scale: float, iters: int, lr: float) -> float:
    """Run `iters` gradient steps on the weighted marginal loss; returns the
    final loss. Every pass starts Adam afresh, with zeroed moments, and ends
    with the context holding the forward pass of the trained weights."""
    ctx.reset_adam()
    targets = fold_targets(model, measurements, scale)
    loss = 0.0
    for _ in range(iters):
        loss, _ = loss_and_grad(model, targets, ctx)
        adam_step(ctx, lr)
        forward(model, ctx)
    return loss


@dataclass
class CandidateIndex:
    """Where the candidates' cells sit in the flat cell vector of `layout`,
    grouped by cell count: per group the cell count, the candidates'
    positions, a (k, n_cells) gather index and the exact counts in the same
    shape."""

    layout: GramLayout
    size: int
    groups: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


def candidate_index(model: GeneratorModel, candidates: list[MarginalSpec],
                    exact: dict) -> CandidateIndex:
    layout = gram_layout(model, [s.attrs for s in candidates])
    by_cells: dict = {}
    for i, spec in enumerate(candidates):
        by_cells.setdefault(spec.n_cells, []).append(i)
    groups = [(n, np.array(group), np.stack([layout.cells[candidates[i].attrs] for i in group]),
               np.stack([exact[candidates[i].attrs].counts for i in group]))
              for n, group in by_cells.items()]
    return CandidateIndex(layout, len(candidates), groups)


def candidate_scores(soft: SoftMarginals, index: CandidateIndex, rho_m: float) -> np.ndarray:
    """Selection scores: expected estimation improvement minus expected noise.

    q_i = ||M_i(G) - M_i||_1 - n_i / sqrt(pi * rho_m), with M_i(G) the model's
    soft marginal (read from `soft`, which must be at `index.layout`), M_i
    the exact marginal and the last term `expected_noise_l1`. Each cell-count
    group is one gather and one row sum, whose sums equal `l1_distance` per
    candidate to the bit.
    """
    if soft.layout is not index.layout:
        raise ValueError("soft marginals are not at the candidates' layout")
    scores = np.empty(index.size)
    for n_cells, positions, gather, exact in index.groups:
        est = soft.cells[gather].astype(np.float64)
        scores[positions] = np.abs(est - exact).sum(axis=1) - expected_noise_l1(n_cells, rho_m)
    return scores


def warmup(ds: Dataset, domain: Domain, model: GeneratorModel, ctx: TrainContext,
           acct: Accountant, rho_m: float, config: SynthConfig,
           rng_measure) -> tuple[list[Measurement], float]:
    """Measure every one-way marginal, estimate the record count, fit the model.

    Returns (measurements, n_estimate). Charges d * rho_m to the accountant;
    raises InsufficientBudget up front if that does not fit.
    """
    d = domain.d
    if d * rho_m > acct.remaining:
        raise InsufficientBudget(
            f"warm-up needs {d * rho_m:.6g} but only {acct.remaining:.6g} remains"
        )
    sigma = NoiseParams(rho_m).sigma
    measurements = []
    for a in range(d):
        spec = marginal_spec(ds, (a,))
        noisy = gaussian_mechanism(compute_marginal(ds, spec).counts, rho_m, rng_measure)
        acct.spend(rho_m, f"warmup:one-way:{a}")
        measurements.append(Measurement(spec=spec, noisy=Marginal(spec, noisy),
                                        rho_m=rho_m, sigma=sigma, round=0))
    n_estimate = max(1.0, float(np.median([m.noisy.counts.sum() for m in measurements])))
    compute_weights(measurements, d)
    train(model, ctx, measurements, n_estimate, config.train_iters, config.lr)
    return measurements, n_estimate


def selection_loop(ds: Dataset, domain: Domain, model: GeneratorModel, ctx: TrainContext,
                   measurements: list[Measurement], acct: Accountant, rho_total: float,
                   rho_s: float, rho_m: float, config: SynthConfig, scale: float,
                   rng_select, rng_measure, trace: SelectionTrace) -> GeneratorModel:
    """Select-measure-train rounds over the two-way candidates.

    The modes differ only in the per-round budget schedule. Adaptive mode
    starts at (rho_s, rho_m), doubles both when a first-time-selected marginal
    improves the model by less than the expected noise, and stops once the
    phase budget rho_total is spent. Fixed-round mode runs exactly
    config.fixed_rounds equal-budget rounds and never doubles.

    Returns the model state before the final round (needed by the unselected-
    marginal diagnostics); `model` itself is trained in place.
    """
    d = domain.d
    fixed = config.fixed_rounds is not None
    if fixed:
        rho_s, rho_m = split_budget(rho_total * (1.0 - _BUDGET_SLACK), config.fixed_rounds)
    candidates = selection_candidates(domain.cards)
    if not candidates:
        return model.copy()
    exact = {s.attrs: compute_marginal(ds, s) for s in candidates}
    index = candidate_index(model, candidates, exact)
    selected_before: set = set()
    spent = 0.0
    tol = _BUDGET_SLACK * rho_total
    prev_model = model.copy()
    soft = gram_marginals(ctx.probs, scale, index.layout)
    k = 0
    while (k < config.fixed_rounds) if fixed else (spent < rho_total - tol):
        k += 1
        # a round the remaining budget cannot cover gets all of it instead,
        # less a sliver so float rounding in the running sums cannot overspend
        if not fixed and spent + rho_s + rho_m > rho_total * (1.0 - _BUDGET_SLACK):
            rho_s, rho_m = split_budget((rho_total - spent) * (1.0 - _BUDGET_SLACK), 1.0)
        prev_model = model.copy()

        scores = candidate_scores(soft, index, rho_m)
        idx = exponential_mechanism(scores, SCORE_SENSITIVITY, rho_s, rng_select)
        acct.spend(rho_s, f"select:round:{k}")
        chosen = candidates[idx]

        est_before = soft.marginal(chosen)
        noisy = gaussian_mechanism(exact[chosen.attrs].counts, rho_m, rng_measure)
        acct.spend(rho_m, f"measure:round:{k}")
        for m in measurements:
            m.newly_selected = False
        measurements.append(Measurement(spec=chosen, noisy=Marginal(chosen, noisy),
                                        rho_m=rho_m, sigma=NoiseParams(rho_m).sigma,
                                        round=k, newly_selected=True))
        compute_weights(measurements, d)
        train(model, ctx, measurements, scale, config.train_iters, config.lr)
        spent += rho_s + rho_m

        # the trained model's marginals: this round's improvement, next
        # round's scores
        soft = gram_marginals(ctx.probs, scale, index.layout)
        improvement = l1_distance(soft.marginal(chosen), est_before)
        noise_floor = expected_noise_l1(chosen.n_cells, rho_m)
        doubled = (not fixed and improvement < noise_floor
                   and chosen.attrs not in selected_before)
        selected_before.add(chosen.attrs)
        trace.rounds.append(RoundRecord(
            round=k, attrs=chosen.attrs, rho_s=rho_s, rho_m=rho_m,
            score=float(scores[idx]), improvement=improvement,
            noise_floor=noise_floor, doubled=doubled,
        ))
        if doubled:
            rho_s *= 2.0
            rho_m *= 2.0

    # closing pass over everything measured, always for the full iteration
    # count (training never early-stops)
    train(model, ctx, measurements, scale, config.train_iters, config.lr)
    return prev_model


@dataclass
class SynthResult:
    synth: Dataset
    trace: SelectionTrace
    model: GeneratorModel
    prev_model: GeneratorModel
    accountant: Accountant
    n_estimate: float
    wall_clock_seconds: float
    decode_seed: int


def run_margnet(ds: Dataset, domain: Domain, config: SynthConfig) -> SynthResult:
    """Full pipeline: split, warm-up, selection loop, sample."""
    t0 = time.perf_counter()
    d = domain.d
    c = config.resolved_c(d)
    rho = config.rho_total
    rho_s, rho_m = split_budget(rho, c)

    ss = np.random.SeedSequence(config.seed)
    # kids[3] is unused but still spawned, so the sample and decode seeds stay
    # on kids[4] and a seed reproduces the outputs of traces already written
    kids = ss.spawn(5)
    rng_init_seed = int(kids[0].generate_state(1)[0])
    rng_measure = np.random.Generator(np.random.PCG64(kids[1]))
    rng_select = np.random.Generator(np.random.PCG64(kids[2]))
    tail = kids[4].generate_state(2)
    sample_seed, decode_seed = int(tail[0]), int(tail[1])

    acct = Accountant(rho_budget=rho)
    model = init_generator(domain, list(config.hidden), config.latent_dim,
                           config.batch_size, rng_init_seed, dtype=TRAIN_DTYPE)
    trace = SelectionTrace(rho_budget=rho, config=config.to_json_dict(d), seed=config.seed)

    # one context serves every training pass and scoring forward pass; the
    # weights leave it once training ends, so it is freed before sampling
    ctx = TrainContext(model)
    measurements, n_estimate = warmup(ds, domain, model, ctx, acct, rho_m, config, rng_measure)
    trace.warmup = list(measurements)
    trace.n_estimate = n_estimate

    # the loop's phase budget is what the warm-up left: rho - d * rho_m
    prev_model = selection_loop(ds, domain, model, ctx, measurements, acct, acct.remaining,
                                rho_s, rho_m, config, n_estimate,
                                rng_select, rng_measure, trace)
    model = model.copy()
    del ctx

    trace.measurements = [m for m in measurements if m.round > 0]
    trace.ledger = list(acct.ledger)

    n_rows = int(round(n_estimate))
    synth = sample_hard(model, n_rows, sample_seed)
    return SynthResult(
        synth=synth, trace=trace, model=model, prev_model=prev_model,
        accountant=acct, n_estimate=n_estimate,
        wall_clock_seconds=time.perf_counter() - t0, decode_seed=decode_seed,
    )

