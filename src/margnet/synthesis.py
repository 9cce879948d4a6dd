"""End-to-end synthesis: budget split, one-way warm-up, adaptive two-way
selection under the privacy filter, weighted marginal training, and sampling.

`run_margnet` holds the whole run. After the warm-up, each round is
exponential-mechanism selection (budget rho_s), Gaussian measurement (rho_m)
and a training pass that amplifies the newest measurement; a closing pass
follows the last round. In adaptive mode both per-round budgets double when
a first-time-selected marginal improves the model by less than the expected
noise level, and the last round absorbs whatever budget the warm-up left.
Fixed-round mode (no doubling, equal budget per round) is the ablation of
that schedule. Sampling draws from the final forward pass, which the
training context already holds. `PrivateTable` alone reads the real table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .domain import Dataset
from .errors import InsufficientBudget
from .generator import (
    CandidateIndex,
    GeneratorModel,
    SoftMarginals,
    TrainContext,
    adam_step,
    candidate_index,
    candidate_l1,
    fold_targets,
    forward,
    gram_cells,
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

    def to_json_dict(self) -> dict:
        return {
            "attrs": list(self.spec.attrs),
            "rho_m": self.rho_m,
            "sigma": self.sigma,
            "counts": [float(c) for c in self.noisy.counts],
        }


@dataclass
class RoundRecord:
    """One round: its selection, the measurement it chose and what training on it changed."""

    measurement: Measurement
    rho_s: float
    improvement: float
    noise_floor: float
    doubled: bool

    @property
    def attrs(self) -> tuple[int, ...]:
        return self.measurement.spec.attrs

    @property
    def rho_m(self) -> float:
        return self.measurement.rho_m

    def to_json_dict(self) -> dict:
        m = self.measurement.to_json_dict()
        return {"round": self.measurement.round, "attrs": m.pop("attrs"), "rho_s": self.rho_s,
                **m, "improvement": self.improvement, "noise_floor": self.noise_floor,
                "doubled": self.doubled}


TRACE_FORMAT = "margnet-trace-v2"


@dataclass
class SelectionTrace:
    warmup: list[Measurement] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    n_estimate: float = 0.0
    rho_budget: float = 0.0
    ledger: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "format": TRACE_FORMAT,
            "config": self.config,
            "n_estimate": self.n_estimate,
            "rho_budget": self.rho_budget,
            "warmup": [m.to_json_dict() for m in self.warmup],
            "rounds": [r.to_json_dict() for r in self.rounds],
            "ledger": [[label, rho] for label, rho in self.ledger],
        }


def _positive(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _measurement(entry: dict, cards, order: int, round_: int = 0) -> Measurement:
    attrs = entry["attrs"]
    # marginal_spec then requires ascending indices, all in range
    if not (isinstance(attrs, list) and len(attrs) == order
            and all(type(a) is int for a in attrs)):
        raise ValueError(f"attrs must be a list of {order} attribute indices, got {attrs!r}")
    spec = marginal_spec(cards, attrs)
    noisy = Marginal(spec, np.asarray(entry["counts"]))
    if not np.isfinite(noisy.counts).all():
        raise ValueError(f"counts of {attrs} must be finite")
    return Measurement(spec=spec, noisy=noisy, rho_m=_positive("rho_m", entry["rho_m"]),
                       sigma=_positive("sigma", entry["sigma"]), round=round_)


def trace_from_json_dict(obj: dict, cards) -> SelectionTrace:
    """Rebuild a SelectionTrace from its JSON, the inverse of `to_json_dict`.

    Every budget and noise scale must be a positive finite number, every count
    finite, every warm-up marginal one-way and every round's two-way, each
    round's `round` its 1-based position and its `doubled` a bool."""
    if not isinstance(obj, dict):
        raise ValueError(f"a trace is a JSON object, got {type(obj).__name__}")
    if obj.get("format") != TRACE_FORMAT:
        raise ValueError(f"format is {obj.get('format')!r}, not {TRACE_FORMAT!r}")
    rounds = []
    for k, e in enumerate(obj["rounds"], 1):
        if type(e["round"]) is not int or e["round"] != k:
            raise ValueError(f"round {k} is numbered {e['round']!r}")
        if type(e["doubled"]) is not bool:
            raise ValueError(f"doubled of round {k} must be a bool, got {e['doubled']!r}")
        rounds.append(RoundRecord(_measurement(e, cards, 2, k), _positive("rho_s", e["rho_s"]),
                                  e["improvement"], e["noise_floor"], e["doubled"]))
    return SelectionTrace(
        warmup=[_measurement(e, cards, 1) for e in obj["warmup"]],
        rounds=rounds,
        n_estimate=_positive("n_estimate", obj["n_estimate"]),
        rho_budget=obj["rho_budget"],
        ledger=[(label, rho) for label, rho in obj["ledger"]],
        config=obj["config"],
    )


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
    """Training weights: sqrt(rho_m) base, amplified d-fold for the newest
    measurement (the list's last) when a round selected it, then scaled so
    the maximum weight equals d."""
    if not measurements:
        raise ValueError("no measurements to weight")
    base = np.array([math.sqrt(m.rho_m) for m in measurements])
    if measurements[-1].round > 0:
        base[-1] *= d
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


def candidate_scores(soft: SoftMarginals, index: CandidateIndex, rho_m: float) -> np.ndarray:
    """Selection scores: expected estimation improvement minus expected noise.

    q_i = ||M_i(G) - M_i||_1 - n_i / sqrt(pi * rho_m), with M_i(G) the model's
    soft marginal (read from `soft`, which must be at `index.layout`), M_i
    the exact marginal and the last term `expected_noise_l1`. Each cell-count
    group is one gather and one row sum, whose sums equal `l1_distance` per
    candidate to the bit.
    """
    scores = candidate_l1(soft, index)
    for n_cells, positions, *_ in index.groups:
        scores[positions] -= expected_noise_l1(n_cells, rho_m)
    return scores


class PrivateTable:
    """The run's one reader of the real table: each method that reads it charges
    `acct` and returns only a mechanism's output. `cards`, `layout`, `specs` are public."""

    def __init__(self, ds: Dataset, model: GeneratorModel, rho_budget: float):
        self._ds, self.cards, self.acct = ds, ds.cards, Accountant(rho_budget=rho_budget)
        specs = selection_candidates(ds.cards)
        self._index = candidate_index(model, specs, (compute_marginal(ds, s).counts for s in specs))
        self.layout, self.specs = self._index.layout, self._index.specs

    def measure(self, spec: MarginalSpec, rho_m: float, rng, round_: int = 0) -> Measurement:
        """`spec`'s counts through the Gaussian mechanism at rho_m, charged to
        round `round_` (0: the warm-up, which measures one-way marginals)."""
        exact = self._index.exact.get(spec.attrs) or compute_marginal(self._ds, spec)
        noisy = gaussian_mechanism(exact.counts, rho_m, rng)
        self.acct.spend(rho_m, f"measure:round:{round_}" if round_
                        else f"warmup:one-way:{spec.attrs[0]}")
        return Measurement(spec=spec, noisy=Marginal(spec, noisy), rho_m=rho_m,
                           sigma=NoiseParams(rho_m).sigma, round=round_)

    def select(self, soft: SoftMarginals, rho_s: float, rho_m: float, rng,
               round_: int) -> MarginalSpec:
        """The exponential mechanism at rho_s over the candidates' scores at
        rho_m, charged to round `round_`. Only the chosen spec leaves."""
        scores = candidate_scores(soft, self._index, rho_m)
        idx = exponential_mechanism(scores, SCORE_SENSITIVITY, rho_s, rng)
        self.acct.spend(rho_s, f"select:round:{round_}")
        return self.specs[idx]


def warmup(data: PrivateTable, model: GeneratorModel, ctx: TrainContext, rho_m: float,
           config: SynthConfig, rng_measure) -> tuple[list[Measurement], float]:
    """Measure every one-way marginal, estimate the record count, fit the model.

    Returns (measurements, n_estimate). Charges d * rho_m to the accountant;
    raises InsufficientBudget up front if that does not fit.
    """
    d = len(data.cards)
    if d * rho_m > data.acct.remaining:
        raise InsufficientBudget(f"warm-up needs {d * rho_m:.6g} but only "
                                 f"{data.acct.remaining:.6g} remains")
    measurements = [data.measure(marginal_spec(data.cards, (a,)), rho_m, rng_measure)
                    for a in range(d)]
    # post-processing of the noisy counts, so the estimate costs no budget
    n_estimate = max(1.0, float(np.median([m.noisy.counts.sum() for m in measurements])))
    compute_weights(measurements, d)
    train(model, ctx, measurements, n_estimate, config.train_iters, config.lr)
    return measurements, n_estimate


@dataclass
class SynthResult:
    synth: Dataset
    trace: SelectionTrace
    model: GeneratorModel
    prev_model: GeneratorModel
    accountant: Accountant
    wall_clock_seconds: float
    decode_seed: int


def run_margnet(ds: Dataset, config: SynthConfig) -> SynthResult:
    """Full pipeline: split, warm-up, select-measure-train rounds, closing
    pass, sample. `prev_model` is the model before the final round, which the
    unselected-marginal diagnostics need; a table with no two-way candidate
    runs no round, and its `prev_model` is the warm-up model."""
    t0 = time.perf_counter()
    d = ds.d
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

    model = init_generator(ds.cards, list(config.hidden), config.latent_dim,
                           config.batch_size, rng_init_seed, dtype=TRAIN_DTYPE)
    data = PrivateTable(ds, model, rho)  # counting the candidates draws no randomness
    trace = SelectionTrace(rho_budget=rho, config=config.to_json_dict(d))

    # one context serves every training pass, scoring read and the sampling
    # draw; the weights leave it once sampling ends, so it is freed before
    # decoding
    ctx = TrainContext(model)
    measurements, n_estimate = warmup(data, model, ctx, rho_m, config, rng_measure)
    trace.warmup = list(measurements)
    trace.n_estimate = n_estimate

    # the rounds' budget is what the warm-up left: rho - d * rho_m
    rounds_budget = data.acct.remaining
    fixed = config.fixed_rounds is not None
    if fixed:
        rho_s, rho_m = split_budget(rounds_budget * (1.0 - _BUDGET_SLACK), config.fixed_rounds)
    spent = 0.0
    tol = _BUDGET_SLACK * rounds_budget
    prev_model = model.copy()
    soft = gram_marginals(ctx.probs, n_estimate, data.layout)
    k = 0
    while data.specs and ((k < config.fixed_rounds) if fixed else (spent < rounds_budget - tol)):
        k += 1
        # a round the remaining budget cannot cover gets all of it instead,
        # less a sliver so float rounding in the running sums cannot overspend
        if not fixed and spent + rho_s + rho_m > rounds_budget * (1.0 - _BUDGET_SLACK):
            rho_s, rho_m = split_budget((rounds_budget - spent) * (1.0 - _BUDGET_SLACK), 1.0)
        prev_model = model.copy()

        chosen = data.select(soft, rho_s, rho_m, rng_select, k)
        est_before = soft.marginal(chosen)
        measurements.append(data.measure(chosen, rho_m, rng_measure, k))
        compute_weights(measurements, d)
        train(model, ctx, measurements, n_estimate, config.train_iters, config.lr)
        spent += rho_s + rho_m

        # the trained model's marginals, written over the last round's: this
        # round's improvement, next round's scores
        gram_cells(ctx.probs, data.layout, n_estimate, soft.cells)
        improvement = l1_distance(soft.marginal(chosen), est_before)
        noise_floor = expected_noise_l1(chosen.n_cells, rho_m)
        doubled = (not fixed and improvement < noise_floor
                   and all(r.attrs != chosen.attrs for r in trace.rounds))
        trace.rounds.append(RoundRecord(measurements[-1], rho_s, improvement, noise_floor,
                                        doubled))
        if doubled:
            rho_s *= 2.0
            rho_m *= 2.0

    # closing pass over everything measured, always for the full iteration
    # count (training never early-stops)
    if k:
        train(model, ctx, measurements, n_estimate, config.train_iters, config.lr)
    synth = sample_hard(model, ctx.probs, int(round(n_estimate)), sample_seed)
    model = model.copy()
    del ctx

    trace.ledger = list(data.acct.ledger)
    return SynthResult(synth=synth, trace=trace, model=model, prev_model=prev_model,
                       accountant=data.acct, wall_clock_seconds=time.perf_counter() - t0,
                       decode_seed=decode_seed)
