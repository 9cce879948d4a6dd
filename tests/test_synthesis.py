import inspect
import json
import math
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from margnet.domain import Dataset, decode, write_csv
from margnet.errors import InsufficientBudget
from margnet import generator, synthesis
from margnet.generator import TrainContext, forward, gram_layout, gram_marginals, init_generator
from margnet.marginals import (Marginal, MarginalSpec, compute_marginal, l1_distance,
                               marginal_spec, selection_candidates, tvd)
from margnet.synthesis import (
    Measurement,
    PrivateTable,
    SynthConfig,
    candidate_scores,
    compute_weights,
    run_margnet,
    split_budget,
    trace_from_json_dict,
    warmup,
)
from margnet.generator import soft_marginal

from conftest import categorical_domain, exact_index, random_dataset


def tiny_config(**kw):
    base = dict(rho_total=0.05, c=8.0, train_iters=12, lr=5e-3, batch_size=16,
                hidden=(16,), latent_dim=8, seed=0)
    base.update(kw)
    return SynthConfig(**base)


# ------------------------------------------------------------- split budget

def test_split_budget_paper_defaults():
    rho_s, rho_m = split_budget(1.0, 160.0)  # c = 16*d with d=10
    assert rho_s == pytest.approx(0.000625)
    assert rho_m == pytest.approx(0.005625)


def test_split_budget_unit():
    rho_s, rho_m = split_budget(160.0, 160.0)
    assert rho_s == pytest.approx(0.1)
    assert rho_m == pytest.approx(0.9)


def test_split_budget_exact_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        rho = float(rng.uniform(1e-6, 50))
        c = float(rng.uniform(1, 400))
        rho_s, rho_m = split_budget(rho, c)
        unit = rho / c
        assert abs((rho_s + rho_m) - unit) <= np.spacing(unit)  # within 1 ulp


# ------------------------------------------------------------------ weights

def mk_measurement(cards, attrs, rho_m, round_=0):
    spec = marginal_spec(cards, attrs)
    return Measurement(spec=spec, noisy=Marginal(spec, np.zeros(spec.n_cells)),
                       rho_m=rho_m, sigma=1.0, round=round_)


def test_weights_new_gets_d_times_old():
    cards = (2, 2, 2, 2)
    d = 4
    ms = [mk_measurement(cards, (i,), 0.1) for i in range(3)]
    ms.append(mk_measurement(cards, (0, 1), 0.1, round_=1))
    compute_weights(ms, d)
    assert ms[3].weight == pytest.approx(d)
    for m in ms[:3]:
        assert m.weight == pytest.approx(1.0)


def test_weights_sqrt_rho():
    cards = (2, 2)
    ms = [mk_measurement(cards, (0,), 0.1), mk_measurement(cards, (1,), 0.4)]
    compute_weights(ms, 2)
    assert ms[1].weight == pytest.approx(2 * ms[0].weight)  # rho x4 -> weight x2
    assert max(m.weight for m in ms) == pytest.approx(2.0)  # max == d


def test_weights_single_new():
    cards = (2, 2, 2)
    ms = [mk_measurement(cards, (0, 1), 0.1, round_=1)]
    compute_weights(ms, 3)
    assert ms[0].weight == pytest.approx(3.0)


def test_weights_warmup_only_gets_no_multiplier():
    # the warm-up's last measurement is not a round's, so nothing is amplified
    cards = (2, 2, 2)
    ms = [mk_measurement(cards, (i,), 0.1) for i in range(3)]
    compute_weights(ms, 3)
    assert [m.weight for m in ms] == [3.0, 3.0, 3.0]


def test_weights_spec_selected_twice_amplified_at_its_last_measurement_only():
    cards = (2, 2, 2)
    d = 3
    ms = [mk_measurement(cards, (i,), 0.1) for i in range(3)]
    ms += [mk_measurement(cards, (0, 1), 0.1, round_=1), mk_measurement(cards, (0, 1), 0.1, round_=2)]
    compute_weights(ms, d)
    assert ms[4].weight == pytest.approx(d)
    assert [m.weight for m in ms[:4]] == pytest.approx([1.0] * 4)


# ------------------------------------------------------------------- warmup

def test_warmup_charges_d_rho_m():
    dom = categorical_domain([2, 3, 2])
    ds = random_dataset(dom.cards, 200, seed=3)
    cfg = tiny_config(train_iters=2)
    model = init_generator(dom.cards, [8], 4, 8, seed=0)
    data = PrivateTable(ds, model, 1.0)
    acct = data.acct
    rng = np.random.default_rng(0)
    warmup(data, model, TrainContext(model), 0.01, cfg, rng)
    assert acct.rho_used == pytest.approx(0.03)
    assert [lab for lab, _ in acct.ledger] == [f"warmup:one-way:{i}" for i in range(3)]


@pytest.mark.parametrize("cards", [(2, 3, 2), (2, 3, 2, 4)], ids=["odd-d", "even-d"])
def test_warmup_estimate_is_np_median_of_the_totals(cards):
    # the warm-up's median must keep np.median's bits, in particular the mean
    # of the two middle totals when d is even
    ds = random_dataset(cards, 200, seed=3)
    cfg = tiny_config(train_iters=1)
    for seed in range(5):
        model = init_generator(cards, [8], 4, 8, seed=0)
        rng = np.random.default_rng(seed)
        measurements, n_est = warmup(PrivateTable(ds, model, 1.0), model, TrainContext(model),
                                     0.001, cfg, rng)
        assert n_est == float(np.median([m.noisy.counts.sum() for m in measurements]))


def test_warmup_insufficient_budget_before_noise():
    dom = categorical_domain([2, 3, 2])
    ds = random_dataset(dom.cards, 200, seed=3)
    model = init_generator(dom.cards, [8], 4, 8, seed=0)
    data = PrivateTable(ds, model, 0.02)
    acct = data.acct
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientBudget):
        warmup(data, model, TrainContext(model), 0.01, tiny_config(), rng)
    assert acct.rho_used == 0.0
    assert acct.ledger == []


@pytest.fixture
def noise_free(monkeypatch):
    """Measure without noise: the exact counts, as a fresh float64 copy."""
    monkeypatch.setattr(synthesis, "gaussian_mechanism",
                        lambda counts, rho, rng: np.asarray(counts, dtype=float).copy())


def test_warmup_noise_free_training_converges(noise_free):
    dom = categorical_domain([3, 3])
    rng = np.random.default_rng(8)
    rows = np.stack([rng.integers(0, 3, 400), rng.integers(0, 3, 400)], axis=1)
    ds = Dataset(rows=rows, cards=dom.cards)
    cfg = tiny_config(train_iters=300, lr=1e-2)
    model = init_generator(dom.cards, [16], 8, 32, seed=1)
    rng_m = np.random.default_rng(1)
    _, n_est = warmup(PrivateTable(ds, model, 1.0), model, TrainContext(model), 0.01, cfg, rng_m)
    assert n_est == 400.0  # noise-free sums are exact
    probs = forward(model)
    for a in range(2):
        spec = marginal_spec(ds, (a,))
        soft = soft_marginal(model, probs, spec, n_est)
        assert tvd(soft, compute_marginal(ds, spec)) < 0.05


# ---------------------------------------------------------------- scoring

def scores_of(model, scale, index, rho_m):
    return candidate_scores(gram_marginals(forward(model), scale, index.layout), index, rho_m)


def per_spec_scores(model, scale, exact, candidates, rho_m):
    """The per-spec loop that one gather per cell count replaced, kept as an
    oracle: a block read, an `l1_distance` and the noise term per candidate."""
    soft = gram_marginals(forward(model), scale, gram_layout(model, [s.attrs for s in candidates]))
    return np.array([l1_distance(soft.marginal(s), exact[s.attrs])
                     - s.n_cells / math.sqrt(math.pi * rho_m) for s in candidates])


def test_candidate_scores_perfect_fit():
    dom = categorical_domain([2, 2])
    ds = random_dataset(dom.cards, 100, seed=5)
    model = init_generator(dom.cards, [8], 4, 8, seed=2)
    spec = marginal_spec(ds, (0, 1))
    # make the "exact" marginal equal the model's soft marginal
    soft = soft_marginal(model, forward(model), spec, 100.0)
    index = exact_index(model, ds, [spec])
    index.exact[spec.attrs].counts[:] = soft.counts  # a row of the index's exact counts
    rho_m = 0.25
    scores = scores_of(model, 100.0, index, rho_m)
    assert scores[0] == pytest.approx(-spec.n_cells / math.sqrt(math.pi * rho_m))


def test_candidate_scores_arithmetic():
    dom = categorical_domain([2, 2])
    ds = random_dataset(dom.cards, 50, seed=6)
    model = init_generator(dom.cards, [8], 4, 8, seed=3)
    spec = marginal_spec(ds, (0, 1))
    exact = {spec.attrs: compute_marginal(ds, spec)}
    rho_m = 1.0 / math.pi  # noise term becomes exactly n_i
    scores = scores_of(model, 50.0, exact_index(model, ds, [spec]), rho_m)
    gap = l1_distance(soft_marginal(model, forward(model), spec, 50.0), exact[spec.attrs])
    assert scores[0] == pytest.approx(gap - 4.0)


def test_candidate_scores_match_per_spec_soft_marginals():
    # scores read from the Gram blocks equal per-spec soft marginals + L1
    dom = categorical_domain([3, 1, 4, 2, 5])
    ds = random_dataset(dom.cards, 400, seed=12)
    model = init_generator(dom.cards, [12], 5, 11, seed=4)
    candidates = selection_candidates(dom.cards)
    exact = {s.attrs: compute_marginal(ds, s) for s in candidates}
    rho_m, scale = 0.07, 400.0
    scores = scores_of(model, scale, exact_index(model, ds), rho_m)
    probs = forward(model)
    want = [l1_distance(soft_marginal(model, probs, s, scale), exact[s.attrs])
            - s.n_cells / math.sqrt(math.pi * rho_m) for s in candidates]
    assert len(scores) == 10
    assert np.max(np.abs(scores - np.array(want))) <= 1e-9


@pytest.mark.parametrize("dense_slack", [None, 0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_candidate_scores_equal_per_spec_l1_to_the_bit(monkeypatch, dense_slack, dtype):
    # mixed cardinalities give 21 cell-count groups, some past the 128 cells
    # where numpy's pairwise sum starts to split; DENSE_SLACK = 0 puts every
    # first attribute's pairs in a block row of their own
    if dense_slack is not None:
        monkeypatch.setattr(generator, "DENSE_SLACK", dense_slack)
    dom = categorical_domain([3, 1, 4, 2, 5, 3, 20, 13])
    ds = random_dataset(dom.cards, 500, seed=13)
    model = init_generator(dom.cards, [16], 5, 13, seed=5, dtype=dtype)
    candidates = selection_candidates(dom.cards)
    exact = {s.attrs: compute_marginal(ds, s) for s in candidates}
    index = exact_index(model, ds)
    assert len(index.groups) == len({s.n_cells for s in candidates}) == 21
    assert len(index.layout.blocks) == (1 if dense_slack is None else 7)
    scores = scores_of(model, 500.0, index, 0.03)
    assert scores.tolist() == per_spec_scores(model, 500.0, exact, candidates, 0.03).tolist()


def test_candidate_scores_on_a_sparse_layout():
    # a few pairs over many attributes are past DENSE_SLACK by themselves
    dom = categorical_domain([4, 3, 5, 2, 6, 3, 4, 5, 2, 3])
    ds = random_dataset(dom.cards, 300, seed=14)
    model = init_generator(dom.cards, [16], 5, 9, seed=6, dtype=np.float32)
    candidates = [marginal_spec(dom.cards, p) for p in [(0, 7), (0, 9), (2, 5), (3, 8), (6, 9)]]
    exact = {s.attrs: compute_marginal(ds, s) for s in candidates}
    index = exact_index(model, ds, candidates)
    assert len(index.layout.blocks) == 4
    scores = scores_of(model, 300.0, index, 0.2)
    assert scores.tolist() == per_spec_scores(model, 300.0, exact, candidates, 0.2).tolist()


def test_candidate_scores_need_the_index_layout():
    dom = categorical_domain([2, 3, 2])
    model = init_generator(dom.cards, [8], 4, 8, seed=7)
    candidates = selection_candidates(dom.cards)
    ds = random_dataset(dom.cards, 50, seed=15)
    index = exact_index(model, ds)
    with pytest.raises(ValueError):
        candidate_scores(gram_marginals(forward(model), 50.0,
                                        gram_layout(model, [s.attrs for s in candidates])),
                         index, 0.1)


# ---------------------------------------------------------------- full runs

def test_run_filter_and_structure():
    dom = categorical_domain([3, 2, 4])
    ds = random_dataset(dom.cards, 800, seed=9)
    res = run_margnet(ds, tiny_config(seed=5))
    acct = res.accountant
    assert math.fsum(r for _, r in acct.ledger) <= acct.rho_budget
    assert acct.rho_used <= acct.rho_budget
    # output dataset satisfies its invariants (Dataset validates on build)
    assert res.synth.cards == dom.cards
    assert res.synth.rows.min() >= 0
    assert np.all(res.synth.rows.max(axis=0) < np.array(dom.cards))


def test_ledger_decomposition_exact():
    dom = categorical_domain([3, 3, 3])
    ds = random_dataset(dom.cards, 500, seed=10)
    res = run_margnet(ds, tiny_config(seed=6))
    ledger = res.accountant.ledger
    d = dom.d
    warm = [rho for lab, rho in ledger if lab.startswith("warmup")]
    assert len(warm) == d
    per_round = [rho for lab, rho in ledger if not lab.startswith("warmup")]
    assert len(per_round) == 2 * len(res.trace.rounds)  # select + measure each round
    total = math.fsum(warm) + math.fsum(per_round)
    assert total == pytest.approx(res.accountant.rho_used, abs=1e-15)
    assert total <= res.accountant.rho_budget
    # trace's per-round budgets match the ledger entries
    for rec, (s_lab, s_rho), (m_lab, m_rho) in zip(
        res.trace.rounds, per_round_entries(ledger)[0::2], per_round_entries(ledger)[1::2]
    ):
        assert rec.rho_s == s_rho
        assert rec.rho_m == m_rho


def per_round_entries(ledger):
    return [(lab, rho) for lab, rho in ledger if not lab.startswith("warmup")]


def test_doubling_at_most_once_per_spec():
    dom = categorical_domain([2, 2, 2, 2])
    ds = random_dataset(dom.cards, 300, seed=11)
    for seed in range(5):
        res = run_margnet(ds, tiny_config(seed=seed, rho_total=0.02, c=10.0))
        doubled_specs = [r.attrs for r in res.trace.rounds if r.doubled]
        assert len(doubled_specs) == len(set(doubled_specs))
        first_seen = set()
        for r in res.trace.rounds:
            if r.doubled:
                assert r.attrs not in first_seen
            first_seen.add(r.attrs)


def test_rho_m_nondecreasing_until_last():
    dom = categorical_domain([3, 3, 3])
    ds = random_dataset(dom.cards, 600, seed=12)
    for seed in range(5):
        res = run_margnet(ds, tiny_config(seed=seed))
        rho_ms = [r.rho_m for r in res.trace.rounds]
        for a, b in zip(rho_ms[:-2], rho_ms[1:-1]):
            assert b >= a - 1e-15


def test_generous_budget_measures_all_pairs():
    # with plenty of budget the selector should cover every two-way marginal
    dom = categorical_domain([3, 3, 3])
    ok = 0
    for seed in range(10):
        ds = random_dataset(dom.cards, 1000, seed=100 + seed)
        res = run_margnet(ds, tiny_config(seed=seed, rho_total=5.0, c=12.0, train_iters=8))
        seen = {r.attrs for r in res.trace.rounds}
        if seen == {(0, 1), (0, 2), (1, 2)}:
            ok += 1
    assert ok >= 9


def test_trace_replay_byte_identical():
    dom = categorical_domain([3, 2, 3])
    ds = random_dataset(dom.cards, 400, seed=13)
    cfg = tiny_config(seed=21)
    a = run_margnet(ds, cfg)
    b = run_margnet(ds, cfg)
    assert json.dumps(a.trace.to_json_dict()) == json.dumps(b.trace.to_json_dict())
    assert np.array_equal(a.synth.rows, b.synth.rows)


def test_run_trains_in_float32_and_measures_in_float64():
    dom = categorical_domain([3, 2, 3])
    ds = random_dataset(dom.cards, 400, seed=13)
    res = run_margnet(ds, tiny_config(seed=23))
    assert res.trace.to_json_dict()["config"]["dtype"] == "float32"
    for model in (res.model, res.prev_model):
        assert model.dtype == np.float32
        assert all(p.dtype == np.float32 for pair in model.layers for p in pair)
    assert all(m.noisy.counts.dtype == np.float64
               for m in res.trace.warmup + [r.measurement for r in res.trace.rounds])
    assert all(type(r.improvement) is float for r in res.trace.rounds)


def count_forward_calls(monkeypatch) -> list:
    """Record a call of `generator.forward` under every name a margnet module
    binds it to."""
    calls = []
    real = generator.forward
    for name, module in list(sys.modules.items()):
        if name == "margnet" or name.startswith("margnet."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr,
                                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("fixed_rounds", [None, 3], ids=["adaptive", "fixed-3"])
def test_run_runs_one_forward_per_weight_state(monkeypatch, fixed_rounds):
    # the context's constructor, then one after each Adam step of the warm-up,
    # of every round's pass and of the closing pass; sample_hard runs none and
    # draws from the last one
    calls = count_forward_calls(monkeypatch)
    dom = categorical_domain([2, 3, 2])
    ds = random_dataset(dom.cards, 300, seed=4)
    iters = 3
    res = run_margnet(ds, tiny_config(train_iters=iters, fixed_rounds=fixed_rounds))
    rounds = len(res.trace.rounds)
    assert rounds >= 1
    assert len(calls) == 1 + iters * (rounds + 2)


def test_one_attribute_run_has_no_round_and_no_closing_pass(monkeypatch):
    # no two-way candidate: the warm-up's pass is the only one, and the
    # pre-final-round model is the warm-up model itself
    calls = count_forward_calls(monkeypatch)
    dom = categorical_domain([4])
    ds = random_dataset(dom.cards, 200, seed=5)
    iters = 3
    res = run_margnet(ds, tiny_config(train_iters=iters))
    assert len(calls) == 1 + iters
    assert res.trace.rounds == []
    assert [label for label, _ in res.accountant.ledger] == ["warmup:one-way:0"]
    for (W, b), (W_prev, b_prev) in zip(res.model.layers, res.prev_model.layers):
        assert np.array_equal(W, W_prev) and np.array_equal(b, b_prev)


def test_trace_json_round_trip():
    dom = categorical_domain([3, 2, 3])
    ds = random_dataset(dom.cards, 400, seed=13)
    res = run_margnet(ds, tiny_config(seed=22))
    obj = json.loads(json.dumps(res.trace.to_json_dict()))
    back = trace_from_json_dict(obj, dom.cards)
    assert back.n_estimate == res.trace.n_estimate
    assert len(back.rounds) == len(res.trace.rounds)
    assert [r.attrs for r in back.rounds] == [r.attrs for r in res.trace.rounds]
    assert np.allclose(back.rounds[0].measurement.noisy.counts,
                       res.trace.rounds[0].measurement.noisy.counts)


@pytest.mark.parametrize("cards,fixed_rounds", [([3, 2, 3], None), ([3, 2, 3], 3), ([4], None)],
                         ids=["adaptive", "fixed-3", "no-pairs"])
def test_trace_reader_inverts_writer(cards, fixed_rounds):
    # one module owns the schema both ways: every written fact reads back
    dom = categorical_domain(cards)
    ds = random_dataset(dom.cards, 400, seed=13)
    res = run_margnet(ds, tiny_config(seed=22, fixed_rounds=fixed_rounds))
    obj = json.loads(json.dumps(res.trace.to_json_dict()))
    assert bool(obj["rounds"]) == (len(cards) > 1)
    assert fixed_rounds is None or len(obj["rounds"]) == fixed_rounds
    assert trace_from_json_dict(obj, dom.cards).to_json_dict() == obj


def test_trace_reader_ignores_the_score_of_older_v2_traces():
    # v2 traces written before the score left the trace carry one per round
    dom = categorical_domain([3, 2, 3])
    res = run_margnet(random_dataset(dom.cards, 400, seed=13), tiny_config(seed=22))
    obj = json.loads(json.dumps(res.trace.to_json_dict()))
    older = json.loads(json.dumps(obj))
    for entry in older["rounds"]:
        entry["score"] = 1.5
    assert older["rounds"]
    assert trace_from_json_dict(older, dom.cards).to_json_dict() == obj


def test_round_record_holds_its_measurement_once():
    dom = categorical_domain([3, 2, 3])
    ds = random_dataset(dom.cards, 400, seed=13)
    res = run_margnet(ds, tiny_config(seed=22))
    for k, (rec, entry) in enumerate(zip(res.trace.rounds, res.trace.to_json_dict()["rounds"]), 1):
        assert rec.measurement.round == entry["round"] == k
        assert list(entry) == ["round", "attrs", "rho_s", "rho_m", "sigma", "counts",
                               "improvement", "noise_floor", "doubled"]
    assert all("round" not in entry for entry in res.trace.to_json_dict()["warmup"])


def test_em_scores_use_pre_round_model(monkeypatch):
    # the final round's score of its choice must be reproducible from the
    # persisted pre-round model state (G^{K-1}), i.e. scores are computed
    # before that round's measurement and training
    scored = []
    real = synthesis.candidate_scores
    monkeypatch.setattr(synthesis, "candidate_scores",
                        lambda *a: scored.append(real(*a)) or scored[-1])
    dom = categorical_domain([3, 3, 3])
    ds = random_dataset(dom.cards, 600, seed=14)
    cfg = tiny_config(seed=30, rho_total=0.06, c=9.0)
    res = run_margnet(ds, cfg)
    assert len(res.trace.rounds) >= 1
    assert len(scored) == len(res.trace.rounds)
    final = res.trace.rounds[-1]
    score = scored[-1][[s.attrs for s in selection_candidates(dom.cards)].index(final.attrs)]
    spec = marginal_spec(ds, final.attrs)
    est = soft_marginal(res.prev_model, forward(res.prev_model), spec, res.trace.n_estimate)
    gap = l1_distance(est, compute_marginal(ds, spec))
    recomputed = gap - spec.n_cells / math.sqrt(math.pi * final.rho_m)
    assert recomputed == pytest.approx(score, rel=1e-12)


# --------------------------------------------------------------- fixed mode

def test_fixed_round_k1():
    dom = categorical_domain([2, 3, 2])
    ds = random_dataset(dom.cards, 300, seed=15)
    res = run_margnet(ds, tiny_config(seed=7, fixed_rounds=1))
    assert len(res.trace.rounds) == 1


def test_fixed_round_budget_arithmetic():
    dom = categorical_domain([2, 3, 2])
    ds = random_dataset(dom.cards, 300, seed=16)
    cfg = tiny_config(seed=8, rho_total=0.04, c=6.0)
    k = 5
    res = run_margnet(ds, replace(cfg, fixed_rounds=k))
    assert len(res.trace.rounds) == k
    d = dom.d
    _, rho_m_warm = split_budget(cfg.rho_total, 6.0)
    per_round = res.trace.rounds[0]
    total = d * rho_m_warm + k * (per_round.rho_s + per_round.rho_m)
    assert res.accountant.rho_used == pytest.approx(total, abs=1e-10)
    assert res.accountant.rho_used <= cfg.rho_total


def test_fixed_round_deterministic():
    dom = categorical_domain([2, 3, 2])
    ds = random_dataset(dom.cards, 300, seed=17)
    cfg = tiny_config(seed=9)
    cfg = replace(cfg, fixed_rounds=3)
    a = run_margnet(ds, cfg)
    b = run_margnet(ds, cfg)
    assert json.dumps(a.trace.to_json_dict()) == json.dumps(b.trace.to_json_dict())


def test_multiset_reselection_allowed():
    # re-selected specs append separate measurements
    dom = categorical_domain([2, 2])
    ds = random_dataset(dom.cards, 500, seed=18)
    cfg = tiny_config(seed=10, rho_total=0.1, c=4.0, fixed_rounds=6)
    res = run_margnet(ds, cfg)
    assert len(res.trace.rounds) == 6  # single candidate selected 6 times
    assert all(r.measurement.spec.attrs == (0, 1) for r in res.trace.rounds)
    assert len({id(r.measurement) for r in res.trace.rounds}) == 6


# --------------------------------------------------------- private boundary

_PRIVATE_CODE = {f.__code__ for f in vars(PrivateTable).values()
                 if isinstance(f, types.FunctionType)}


class GuardedDataset(Dataset):
    """A Dataset whose codes, once `guard` is set, read only while a
    `PrivateTable` method is on the call stack."""

    guard = False

    @property
    def rows(self):
        frame = sys._getframe(1)
        while self.guard and frame.f_code not in _PRIVATE_CODE:
            frame = frame.f_back
            if frame is None:
                raise AssertionError("the real table's codes were read outside PrivateTable")
        return self.__dict__["rows"]

    @rows.setter
    def rows(self, value):
        self.__dict__["rows"] = value


@pytest.mark.parametrize("fixed_rounds", [None, 3], ids=["adaptive", "fixed-3"])
def test_run_reads_the_table_only_through_private_table(tmp_path, fixed_rounds):
    dom = categorical_domain([3, 2, 4, 2])
    plain = random_dataset(dom.cards, 500, seed=19)
    guarded = GuardedDataset(rows=plain.rows, cards=plain.cards)
    guarded.guard = True
    with pytest.raises(AssertionError, match="outside PrivateTable"):
        guarded.n_records
    cfg = tiny_config(seed=31, fixed_rounds=fixed_rounds)
    outputs = []
    for k, ds in enumerate((plain, guarded)):
        res = run_margnet(ds, cfg)
        write_csv(tmp_path / f"{k}.csv", decode(res.synth, dom, res.decode_seed))
        outputs.append(((tmp_path / f"{k}.csv").read_bytes(),
                        json.dumps(res.trace.to_json_dict())))
    assert json.loads(outputs[0][1])["rounds"]
    assert outputs[1] == outputs[0]


def test_each_release_adds_one_labelled_ledger_entry(monkeypatch):
    # every ledger entry comes from one measure or select call, which adds
    # exactly that entry under the label its round gives
    calls = []
    for name in ("measure", "select"):
        def wrapped(self, *a, _real=getattr(PrivateTable, name), **kw):
            bound = inspect.signature(_real).bind(self, *a, **kw)
            bound.apply_defaults()
            before = len(self.acct.ledger)
            out = _real(self, *a, **kw)
            calls.append((_real.__name__, bound.arguments, out, self.acct.ledger[before:]))
            return out
        monkeypatch.setattr(PrivateTable, name, wrapped)
    dom = categorical_domain([3, 2, 3])
    res = run_margnet(random_dataset(dom.cards, 400, seed=20), tiny_config(seed=32))
    assert res.trace.rounds
    assert [e for *_, entries in calls for e in entries] == res.accountant.ledger
    for name, args, out, entries in calls:
        k = args["round_"]
        if name == "select":
            assert type(out) is MarginalSpec
            assert entries == [(f"select:round:{k}", args["rho_s"])]
        else:
            label = f"measure:round:{k}" if k else f"warmup:one-way:{args['spec'].attrs[0]}"
            assert entries == [(label, args["rho_m"])] and out.round == k
    assert [n for n, *_ in calls] == ["measure"] * 3 + ["select", "measure"] * len(res.trace.rounds)
