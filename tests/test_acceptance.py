"""Acceptance gate: one test per release criterion, each printing a PASS line
with its measured numbers (run with `pytest -s` to see them as they complete).

Synthesis-heavy criteria use deliberately small network configurations; the
checked properties (filter exactness, bound directions, utility trends) do not
depend on network capacity.
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from margnet.cli import main as cli_main
from margnet.domain import Dataset, auto_numeric_domain, encode, gen_gaussian_dataset
from margnet.generator import (fold_targets, forward, gram_layout, gram_marginals, init_generator,
                               soft_marginal)
from margnet.marginals import Marginal, compute_marginal, fidelity_error, marginal_spec
from margnet.privacy import dp_to_zcdp_rho, exponential_mechanism, gaussian_mechanism, zcdp_to_dp_epsilon
from margnet import synthesis
from margnet.bounds import selected_lower_bound, selected_upper_bound, unselected_bound
from margnet.synthesis import Measurement, SynthConfig, run_margnet

from conftest import (brute_force_marginal, categorical_domain, loss_and_grad_on_copy,
                      random_dataset, unselected_inputs)

warnings.filterwarnings("ignore", message="zCDP->DP conversion")

# zCDP budgets for the epsilon grid used throughout (delta = 1e-5)
RHO = {eps: dp_to_zcdp_rho(eps, 1e-5) for eps in (0.2, 1.0, 10.0)}


def tiny_cfg(rho, d, **kw):
    base = dict(rho_total=rho, c=4.0 * d, train_iters=8, lr=5e-3, batch_size=16,
                hidden=(16,), latent_dim=8, seed=0)
    base.update(kw)
    return SynthConfig(**base)


def report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------- criterion 1

def test_criterion_1_privacy_filter_exactness():
    """50 full runs; the ledger total never exceeds the budget. Zero tolerance."""
    rng = np.random.default_rng(20240817)
    worst_margin = math.inf
    for i in range(50):
        d = int(rng.integers(3, 6))
        cards = tuple(int(rng.integers(2, 6)) for _ in range(d))
        ds = random_dataset(cards, 2000, seed=int(rng.integers(1 << 30)))
        eps = float(rng.choice([0.2, 1.0, 10.0]))
        cfg = tiny_cfg(RHO[eps], d, seed=int(rng.integers(1 << 30)))
        res = run_margnet(ds, cfg)
        total = math.fsum(rho for _, rho in res.accountant.ledger)
        assert total <= res.accountant.rho_budget
        assert res.accountant.rho_used <= res.accountant.rho_budget
        worst_margin = min(worst_margin, res.accountant.rho_budget - total)
    report("criterion 1: privacy filter", True,
           f"50/50 runs with ledger <= budget (smallest margin {worst_margin:.3e})")


# -------------------------------------------------------------- criterion 2

def finite_difference_max_rel_error(model, targets, scale, h=1e-5):
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


def test_criterion_2_gradient_correctness():
    """20 random tiny generators: analytic vs central differences < 1e-4."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 4))
        cards = tuple(int(rng.integers(2, 5)) for _ in range(d))
        dom = categorical_domain(cards)
        model = init_generator(dom.cards, [int(rng.integers(4, 10))], int(rng.integers(2, 6)),
                               int(rng.integers(1, 6)), seed=i)
        specs = [(a,) for a in range(d)] + list(itertools.combinations(range(d), 2))
        targets = []
        for attrs in specs:
            spec = marginal_spec(cards, attrs)
            targets.append(Measurement(
                spec=spec, noisy=Marginal(spec, rng.normal(5, 2, spec.n_cells)),
                rho_m=0.5, sigma=1.0, weight=float(rng.uniform(0.5, 3.0))))
        worst = max(worst, finite_difference_max_rel_error(model, targets, scale=12.0))
    report("criterion 2: gradients", worst < 1e-4, f"max relative error {worst:.3e} < 1e-4")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_marginal_oracle_equivalence():
    """compute_marginal == brute-force nested loop on 200 random datasets."""
    rng = np.random.default_rng(3)
    for i in range(200):
        d = int(rng.integers(1, 5))
        cards = tuple(int(rng.integers(2, 6)) for _ in range(d))
        n = int(rng.integers(0, 1001))
        ds = random_dataset(cards, n, seed=int(rng.integers(1 << 30)))
        order = int(rng.integers(1, min(3, d) + 1))
        attrs = tuple(sorted(rng.choice(d, size=order, replace=False)))
        got = compute_marginal(ds, marginal_spec(ds, attrs)).counts
        want = brute_force_marginal(ds, attrs, cards)
        assert np.array_equal(got, want), f"mismatch at dataset {i}, attrs {attrs}"
    report("criterion 3: marginal oracle", True, "200/200 exact matches vs brute force")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_mechanism_statistics():
    rng = np.random.default_rng(44)
    noised = gaussian_mechanism(np.zeros(1_000_000), rho=0.5, rng=rng)
    var = float(noised.var())
    ok_var = 0.98 <= var <= 1.02

    rng = np.random.default_rng(45)
    picks = [exponential_mechanism([2.0, 2.0], 1.0, 0.5, rng) for _ in range(100_000)]
    frac = float(np.mean(picks))
    ok_em = abs(frac - 0.5) <= 0.01

    scores = np.array([0.0, 0.7, 1.9, 2.0])
    n = 100_000
    rng_a, rng_b = np.random.default_rng(46), np.random.default_rng(46)
    a = np.bincount([exponential_mechanism(scores, 1.0, 0.4, rng_a) for _ in range(n)],
                    minlength=4) / n
    b = np.bincount([exponential_mechanism(scores + 123.0, 1.0, 0.4, rng_b) for _ in range(n)],
                    minlength=4) / n
    shift_tvd = float(0.5 * np.abs(a - b).sum())
    ok_shift = shift_tvd < 0.01

    report("criterion 4: mechanisms", ok_var and ok_em and ok_shift,
           f"variance {var:.4f} in [0.98,1.02]; equal-score pick rate {frac:.4f} in "
           f"[0.49,0.51]; shift-invariance TVD {shift_tvd:.4f} < 0.01")


# -------------------------------------------------------------- criterion 5

def oracle_epsilon(rho, delta, alpha_hi=1e8):
    """Bisection on epsilon over a grid search for min over alpha of the
    log-delta expression: 40,000 log-spaced alphas up to alpha_hi, then
    10,001 points across the best grid point's two neighbouring cells. The
    optimal alpha grows as rho shrinks (above 1e4 at rho = 1.73e-8), so the
    grid reaches 1e8."""
    alphas = 1.0 + np.logspace(-5, np.log10(alpha_hi), 40_000)
    target = math.log(delta)

    def f(a, eps):
        return (a - 1) * (a * rho - eps) + a * np.log1p(-1 / a) - np.log(a - 1)

    def min_log_delta(eps):
        coarse = f(alphas, eps)
        i = int(np.argmin(coarse))
        fine = np.linspace(alphas[max(i - 1, 0)], alphas[min(i + 1, alphas.size - 1)], 10_001)
        return min(coarse.min(), f(fine, eps).min())

    lo, hi = rho, rho + 4 * math.sqrt(rho * math.log(1 / delta))
    if min_log_delta(lo) <= target:
        return lo
    for _ in range(60):
        mid = (lo + hi) / 2
        if min_log_delta(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_5_conversion_correctness():
    points = [(1e-3, 1e-5), (5e-3, 1e-6), (0.0156, 1e-5), (0.05, 1e-4), (0.1, 1e-5),
              (0.25, 1e-7), (0.5, 1e-5), (1.0, 1e-6), (2.0, 1e-5), (10.0, 1e-9)]
    # small budgets (epsilon about 3e-4 and 1e-3), checked relative to epsilon
    small = [(1.73e-8, 1e-5), (1.2015e-7, 1e-5)]
    worst = worst_rel = 0.0
    for rho, delta in points + small:
        eps = zcdp_to_dp_epsilon(rho, delta)
        assert eps <= rho + 2 * math.sqrt(rho * math.log(1 / delta)) + 1e-9
        want = oracle_epsilon(rho, delta)
        worst = max(worst, abs(eps - want))
        if (rho, delta) in small:
            worst_rel = max(worst_rel, abs(eps - want) / want)
    report("criterion 5: conversion", worst <= 1e-4 and worst_rel <= 1e-6,
           f"12/12 points within {worst:.2e} of the grid oracle, the two small-budget "
           f"points within {worst_rel:.2e} relative; classical bound respected")


# -------------------------------------------------------------- criterion 6

def frobenius_sq(a, b):
    """Squared Frobenius distance between two marginals' counts."""
    diff = a.counts - b.counts
    return float(diff @ diff)


def test_criterion_6_selected_lower_bound_deterministic(monkeypatch):
    """Noise-free runs: observed selected loss >= rank floor, every batch size."""
    monkeypatch.setattr(synthesis, "gaussian_mechanism",
                        lambda counts, rho, rng: np.asarray(counts, dtype=float).copy())
    cards = (6, 6, 6)
    dom = categorical_domain(cards)
    ds = random_dataset(cards, 600, seed=66)
    gaps = []
    for b in (1, 2, 4):
        cfg = tiny_cfg(0.5, 3, batch_size=b, train_iters=40, seed=b)
        res = run_margnet(ds, cfg)
        seen = []
        for r in res.trace.rounds:
            if r.attrs not in seen:
                seen.append(r.attrs)
        assert seen, "no two-way marginal was selected"
        exact = [compute_marginal(ds, marginal_spec(ds, a)) for a in seen]
        probs = forward(res.model)
        observed = sum(
            frobenius_sq(soft_marginal(res.model, probs, m.spec, res.trace.n_estimate), m) for m in exact
        )
        bound = selected_lower_bound(exact, b)
        assert observed >= bound, f"b={b}: observed {observed} < bound {bound}"
        gaps.append((b, observed - bound, bound))
    detail = "; ".join(f"b={b}: gap {g:.4g} (bound {bd:.4g})" for b, g, bd in gaps)
    report("criterion 6: rank floor", True, detail)


# -------------------------------------------------------------- criterion 7

def test_criterion_7a_selected_upper_bound_coverage():
    """Chi-squared confidence bound: 500 fresh-noise trials on a fixed model."""
    cards = (3, 4, 3)
    dom = categorical_domain(cards)
    ds = random_dataset(cards, 500, seed=77)
    model = init_generator(dom.cards, [16], 8, 8, seed=5)
    specs = [marginal_spec(ds, p) for p in [(0, 1), (0, 2), (1, 2)]]
    exact = {s.attrs: compute_marginal(ds, s) for s in specs}
    rho_ms = {(0, 1): [0.3], (0, 2): [0.2, 0.6], (1, 2): [0.4]}  # (0,2) measured twice
    delta_i = 0.05
    n_groups = 3
    rng = np.random.default_rng(707)
    trials, violations = 500, 0
    soft = gram_marginals(forward(model), 500.0, gram_layout(model, [s.attrs for s in specs]))
    for _ in range(trials):
        ms = []
        for s in specs:
            for rho_m in rho_ms[s.attrs]:
                noisy = exact[s.attrs].counts + rng.normal(0, 1 / math.sqrt(2 * rho_m), s.n_cells)
                ms.append(Measurement(spec=s, noisy=Marginal(s, noisy), rho_m=rho_m, sigma=1.0))
        rep = selected_upper_bound(ms, soft, delta=delta_i, exact=exact)
        if rep.total_observed > rep.total_bound:
            violations += 1
    allowed = delta_i * n_groups * trials + 3 * math.sqrt(trials)
    report("criterion 7a: selected upper bound coverage", violations <= allowed,
           f"{violations}/{trials} violations <= allowed {allowed:.1f}")


def test_criterion_7b_unselected_bound_coverage():
    """Unselected-marginal bound: 200 full tiny runs, per-run aggregate check."""
    cards = (3, 3, 3)  # equal cardinalities
    dom = categorical_domain(cards)
    ds = random_dataset(cards, 800, seed=78)
    delta = 0.05
    trials, violations, unselected_total = 200, 0, 0
    for t in range(trials):
        # c close to d leaves only 1-2 selection rounds, so most runs have
        # genuinely unmeasured pairs for the bound to cover
        cfg = tiny_cfg(0.02, 3, c=4.0, train_iters=12, seed=5000 + t)
        res = run_margnet(ds, cfg)
        if not res.trace.rounds:
            continue
        rep = unselected_bound(res.trace, *unselected_inputs(ds, res.model, res.prev_model,
                                                             res.trace.n_estimate), delta=delta)
        if not rep.entries:
            continue
        unselected_total += len(rep.entries)
        if rep.total_observed > rep.total_bound:
            violations += 1
    allowed = delta * unselected_total + 3 * math.sqrt(trials)
    report("criterion 7b: unselected bound coverage", violations <= allowed,
           f"{violations}/{trials} violations <= allowed {allowed:.1f} "
           f"(mean unselected per run {unselected_total / trials:.2f})")


def test_unselected_bound_coverage_mixed_cardinalities():
    """Criterion 7b's runs over cards (2, 2, 8), counted per marginal: the
    pairs' cell counts differ, so the bound's middle term is not 0."""
    cards = (2, 2, 8)
    dom = categorical_domain(cards)
    ds = random_dataset(cards, 800, seed=78)
    delta = 0.05
    trials, violations, entries = 200, 0, 0
    for t in range(trials):
        cfg = tiny_cfg(0.02, 3, c=4.0, train_iters=12, seed=5000 + t)
        res = run_margnet(ds, cfg)
        if not res.trace.rounds:
            continue
        rep = unselected_bound(res.trace, *unselected_inputs(ds, res.model, res.prev_model,
                                                             res.trace.n_estimate), delta=delta)
        entries += len(rep.entries)
        violations += sum(e.observed > e.bound for e in rep.entries)
    # each entry fails with probability at most delta: its binomial mean + 3 sd
    allowed = delta * entries + 3 * math.sqrt(delta * (1 - delta) * entries)
    report("unselected bound coverage, mixed cardinalities", violations <= allowed,
           f"{violations}/{entries} per-marginal violations <= allowed {allowed:.1f}")


# -------------------------------------------------------------- criterion 8

GAUSS5 = None


def gauss5():
    global GAUSS5
    if GAUSS5 is None:
        table = gen_gaussian_dataset(5, 5000, 0.8, seed=888)
        dom = auto_numeric_domain(table, bins=10)
        GAUSS5 = (encode(table, dom), dom)
    return GAUSS5


def trend_cfg(eps, seed, **kw):
    base = dict(rho_total=RHO[eps], c=20.0, train_iters=60, lr=1e-3, batch_size=128,
                hidden=(64, 64), latent_dim=32, seed=seed)
    base.update(kw)
    return SynthConfig(**base)


def mean_fidelity(eps, seeds, **kw):
    real, dom = gauss5()
    vals = []
    for seed in seeds:
        res = run_margnet(real, trend_cfg(eps, seed, **kw))
        vals.append(fidelity_error(real, res.synth))
    return float(np.mean(vals))


def test_criterion_8_end_to_end_utility_trend():
    real, dom = gauss5()
    seeds = [1, 2, 3, 4, 5]
    fid_lo = mean_fidelity(10.0, seeds)
    fid_hi = mean_fidelity(0.2, seeds)
    rng = np.random.default_rng(8888)
    uniform_vals = []
    for s in range(5):
        rows = np.stack([rng.integers(0, c, size=real.n_records) for c in dom.cards], axis=1)
        uniform_vals.append(fidelity_error(real, Dataset(rows=rows, cards=dom.cards)))
    fid_uniform = float(np.mean(uniform_vals))
    ok = fid_lo < fid_hi and fid_hi < fid_uniform
    report("criterion 8: utility trend", ok,
           f"mean fidelity eps=10: {fid_lo:.4f} < eps=0.2: {fid_hi:.4f} < uniform "
           f"baseline: {fid_uniform:.4f}")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_ablation_direction():
    seeds = [11, 12, 13, 14, 15]
    adaptive = mean_fidelity(0.2, seeds)
    fixed = mean_fidelity(0.2, seeds, fixed_rounds=30)
    ok = adaptive <= fixed + 0.02
    report("criterion 9: ablation direction", ok,
           f"adaptive {adaptive:.4f} <= fixed-round(30) {fixed:.4f} + 0.02")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_cli_determinism(tmp_path):
    data = str(tmp_path / "d.csv")
    assert cli_main(["gen-gauss", "--dims", "4", "--rows", "600", "--corr", "0.8",
                     "--out", data, "--seed", "10"]) == 0
    domain = str(tmp_path / "d.domain.json")
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.csv")
        code = cli_main(["synth", "--data", data, "--domain", domain,
                         "--epsilon", "1.0", "--delta", "1e-5", "--out", out,
                         "--seed", "424242", "--iters", "10", "--batch", "16",
                         "--hidden", "16", "--latent", "8", "--c", "16"])
        assert code == 0
        outs.append(out)
    a, b = outs
    same_csv = open(a, "rb").read() == open(b, "rb").read()
    same_trace = open(a + ".trace.json", "rb").read() == open(b + ".trace.json", "rb").read()
    report("criterion 10: determinism", same_csv and same_trace,
           "identical seeds give byte-identical synthetic CSV and trace JSON")
