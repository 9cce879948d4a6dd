import itertools
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

import margnet.bounds
from margnet.bounds import (
    CHI2_INVERSE_TOL,
    _gammainc,
    chi2_cdf,
    chi2_inverse_cdf,
    combine_measurements,
    selected_lower_bound,
    selected_upper_bound,
    unselected_bound,
)
from margnet.domain import Dataset
from margnet.generator import forward, gram_layout, gram_marginals, init_generator, soft_marginal
from margnet.marginals import Marginal, compute_marginal, l1_distance, marginal_spec
from margnet.synthesis import Measurement, RoundRecord, SelectionTrace

from conftest import categorical_domain, random_dataset, unselected_inputs


# -------------------------------------------------------------- chi-squared

def test_chi2_inverse_known_quantile():
    # classic 95% point of chi2 with 1 dof; cross-checked against scipy's
    # independent inversion path
    got = chi2_inverse_cdf(0.95, 1)
    assert got == pytest.approx(3.841, abs=1e-3)
    assert got == pytest.approx(scipy.stats.chi2.ppf(0.95, 1), abs=1e-6)


def test_chi2_inverse_round_trip():
    for p in (0.5, 0.9, 0.95, 0.99):
        for dof in (1, 4, 25, 100):
            x = chi2_inverse_cdf(p, dof)
            assert chi2_cdf(x, dof) == pytest.approx(p, abs=1e-6)


def test_chi2_inverse_rejects_bad_p():
    with pytest.raises(ValueError, match=r"quantile level must be in \(0, 1\), got 1\.5"):
        chi2_inverse_cdf(1.5, 3)


GAMMA_SHAPES = (0.5, 1, 1.5, 2, 5, 10.5, 50, 200, 5000, 5e4, 5e6)


@pytest.mark.parametrize("a", GAMMA_SHAPES)
def test_gammainc_matches_scipy(a):
    # both branches (series below a + 1, continued fraction above), the bulk
    # around x = a and both tails
    xs = [a * f for f in (0.01, 0.3, 0.9, 1, 1.1, 1.5, 3, 10)]
    xs += [a + k * math.sqrt(a) for k in (-3, -2, -1, 1, 2, 3) if a + k * math.sqrt(a) > 0]
    tol = 1e-10 if a <= 5e4 else 1e-7
    for x in xs:
        assert _gammainc(a, x) == pytest.approx(scipy.special.gammainc(a, x), rel=0, abs=tol), x


def test_chi2_cdf_edges():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(-1.0, 3) == 0.0
    for dof in (1, 2, 7):
        tiny = chi2_cdf(1e-300, dof)
        assert tiny == pytest.approx(scipy.special.gammainc(dof / 2, 5e-301), rel=1e-12)
        assert tiny < 1e-100
    for x in (1e6, 1e300, 1.7e308, math.inf):
        assert chi2_cdf(x, 10) == 1.0


def scipy_chi2_inverse_cdf(p, dof, tol=1e-8):
    """The bisection over scipy's incomplete gamma, as chi2_inverse_cdf was
    written before the CDF was computed in-house."""
    def cdf(x):
        return 0.0 if x <= 0 else float(scipy.special.gammainc(dof / 2.0, x / 2.0))

    hi = float(max(dof, 1))
    while cdf(hi) < p:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@pytest.mark.parametrize("p", [0.95, 1 - 1e-5, 1 - 1e-5 / 36])
def test_chi2_inverse_equals_scipy_backed_bisection(p):
    # every bisection step takes the same branch, so the quantile is the same float
    for dof in (1, 2, 3, 9, 10, 20, 100, 400):
        assert chi2_inverse_cdf(p, dof) == scipy_chi2_inverse_cdf(p, dof)


def test_chi2_inverse_matches_scipy_ppf_up_to_large_dof():
    # abs=1e-8 is the bisection tolerance, which dominates only for small quantiles
    for dof in (1, 10, 100, 1000, 10**5, 10**7):
        for p in (0.5, 0.95, 1 - 1e-5):
            want = scipy.stats.chi2.ppf(p, dof)
            assert chi2_inverse_cdf(p, dof) == pytest.approx(want, rel=1e-9, abs=1e-8)


def loop_chi2_inverse_cdf(p, dof):
    """chi2_inverse_cdf as it bisected in a loop of its own, kept as an oracle."""
    hi = float(max(dof, 1))
    while chi2_cdf(hi, dof) < p:
        hi *= 2.0
    lo = 0.0
    while hi - lo > CHI2_INVERSE_TOL:
        mid = (lo + hi) / 2.0
        if chi2_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@pytest.mark.parametrize("dof", [1, 2, 5, 30, 100, 1000, 10**4, 10**5])
def test_chi2_inverse_equals_its_own_loop_to_the_bit(dof):
    for p in (0.5, 0.9, 0.95, 0.99, 1 - 1e-4, 1 - 1e-6):
        assert chi2_inverse_cdf(p, dof) == loop_chi2_inverse_cdf(p, dof), p


def test_chi2_inverse_ends_where_doubles_are_wider_than_its_tolerance():
    # the quantile is near 1e8, where adjacent doubles lie 1.5e-8 apart: the
    # width stop alone is never met, the adjacent-doubles stop ends the search
    got = chi2_inverse_cdf(0.95, 10**8)
    assert got == pytest.approx(scipy.stats.chi2.ppf(0.95, 10**8), rel=1e-9)


# -------------------------------------------------------------- lower bound

def as_marginal(mat):
    mat = np.asarray(mat, dtype=float)
    spec = marginal_spec(mat.shape, (0, 1))
    return Marginal(spec, mat.reshape(-1))


def test_lower_bound_zero_when_batch_covers_rank():
    m = as_marginal(np.arange(12).reshape(3, 4))
    assert selected_lower_bound([m], batch_size=3) == 0.0


def test_lower_bound_diagonal():
    m = as_marginal(np.diag([3.0, 1.0]))
    assert selected_lower_bound([m], batch_size=1) == pytest.approx(1.0)


def alternating_rank_k_error(mat, k, iters=3000, seed=0):
    """Eckart-Young oracle: best rank-k Frobenius error by alternating LS."""
    rng = np.random.default_rng(seed)
    n, m = mat.shape
    V = rng.normal(size=(m, k))
    for _ in range(iters):
        U = mat @ V @ np.linalg.pinv(V.T @ V)
        V = mat.T @ U @ np.linalg.pinv(U.T @ U)
    return float(((mat - U @ V.T) ** 2).sum())


def test_lower_bound_matches_eckart_young_oracle():
    rng = np.random.default_rng(8)
    mat = rng.integers(0, 30, size=(5, 5)).astype(float)
    got = selected_lower_bound([as_marginal(mat)], batch_size=2)
    want = alternating_rank_k_error(mat, 2)
    assert got == pytest.approx(want, abs=1e-6)


def test_svd_reconstruction_invariant():
    rng = np.random.default_rng(9)
    mat = rng.integers(0, 50, size=(4, 6)).astype(float)
    U, s, Vt = np.linalg.svd(mat)
    assert np.max(np.abs((U[:, :4] * s) @ Vt[:4] - mat)) < 1e-8
    assert np.all(s >= 0)
    assert np.all(np.diff(s) <= 0)


# -------------------------------------------------------------- upper bound

def mk_measurement(cards, attrs, counts, rho_m, round_=1):
    spec = marginal_spec(cards, attrs)
    return Measurement(spec=spec, noisy=Marginal(spec, np.asarray(counts, float)),
                       rho_m=rho_m, sigma=1.0 / math.sqrt(2 * rho_m), round=round_)


def zero_exact(ms):
    """Exact marginals for the measured specs of `ms`, all counts zero."""
    return {m.spec.attrs: Marginal(m.spec, np.zeros(m.spec.n_cells)) for m in ms}


def soft_at(model, scale, specs):
    """`model`'s soft marginals at the layout of `specs`, as `check` reads them."""
    return gram_marginals(forward(model), scale, gram_layout(model, [s.attrs for s in specs]))


def test_combine_single_measurement_sigma():
    m = mk_measurement((2, 2), (0, 1), [1, 2, 3, 4], rho_m=0.5)
    counts, sigma_bar = combine_measurements([m])
    assert np.array_equal(counts, [1, 2, 3, 4])
    assert sigma_bar == pytest.approx(1.0)


def test_combine_repeated_measurements():
    a = mk_measurement((2, 2), (0, 1), [4, 0, 0, 0], rho_m=0.1)
    b = mk_measurement((2, 2), (0, 1), [0, 4, 0, 0], rho_m=0.3)
    counts, sigma_bar = combine_measurements([a, b])
    assert np.allclose(counts, [1.0, 3.0, 0, 0])  # weights 1/4, 3/4
    assert sigma_bar == pytest.approx(1.0 / math.sqrt(2 * 0.4))  # 1/sqrt(2 sum rho)


def test_upper_bound_structure_and_delta_check():
    dom = categorical_domain([2, 2])
    model = init_generator(dom.cards, [8], 4, 4, seed=0)
    ms = [mk_measurement(dom.cards, (0, 1), [5, 5, 5, 5], rho_m=0.5)]
    soft = soft_at(model, 20.0, [m.spec for m in ms])
    rep = selected_upper_bound(ms, soft, delta=0.05, exact=zero_exact(ms))
    assert len(rep.entries) == 1
    assert rep.entries[0].bound > 0
    assert rep.entries[0].slack == rep.entries[0].bound - rep.entries[0].observed
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\), got 2\.0"):
        selected_upper_bound(ms, soft, delta=2.0, exact=zero_exact(ms))


def test_upper_bound_computes_each_quantile_once(monkeypatch):
    calls = []
    real = margnet.bounds.chi2_inverse_cdf

    def counting(p, dof, *args):
        calls.append((p, dof))
        return real(p, dof, *args)

    monkeypatch.setattr(margnet.bounds, "chi2_inverse_cdf", counting)
    dom = categorical_domain([2, 2, 3])
    model = init_generator(dom.cards, [8], 4, 4, seed=0)
    # specs (0,1) and (0,2)/(1,2) have 4 and 6 cells; (0,1) is measured twice
    ms = [mk_measurement(dom.cards, (0, 1), [5, 5, 5, 5], rho_m=0.5),
          mk_measurement(dom.cards, (0, 2), [3] * 6, rho_m=0.5),
          mk_measurement(dom.cards, (1, 2), [3] * 6, rho_m=0.5),
          mk_measurement(dom.cards, (0, 1), [4, 6, 5, 5], rho_m=0.5, round_=2)]
    selected_upper_bound(ms, soft_at(model, 20.0, [m.spec for m in ms]), delta=0.05,
                         exact=zero_exact(ms))
    assert sorted(calls) == [(0.95, 4), (0.95, 6)]


def test_upper_bound_small_monte_carlo():
    # quick coverage sanity at delta=0.2; the full 500-trial version lives in
    # the acceptance suite
    rng = np.random.default_rng(10)
    dom = categorical_domain([2, 3])
    model = init_generator(dom.cards, [8], 4, 4, seed=1)
    ds_rows = rng.integers(0, [2, 3], size=(200, 2))
    ds = Dataset(rows=ds_rows, cards=dom.cards)
    spec = marginal_spec(ds, (0, 1))
    exact = {spec.attrs: compute_marginal(ds, spec)}
    rho_m = 0.5
    delta = 0.2
    violations = 0
    trials = 100
    soft = soft_at(model, 200.0, [spec])
    for _ in range(trials):
        noisy = exact[spec.attrs].counts + rng.normal(0, 1 / math.sqrt(2 * rho_m), spec.n_cells)
        ms = [Measurement(spec=spec, noisy=Marginal(spec, noisy), rho_m=rho_m, sigma=1.0)]
        rep = selected_upper_bound(ms, soft, delta=delta, exact=exact)
        if rep.total_observed > rep.total_bound:
            violations += 1
    assert violations <= delta * trials + 3 * math.sqrt(trials)


# ---------------------------------------------------------- unselected bound

def uniform_setup(card=3, copies=4):
    """Uniform data + uniform model: every marginal fits perfectly."""
    dom = categorical_domain([card] * 3)
    tuples = np.array(list(itertools.product(range(card), repeat=3)))
    rows = np.repeat(tuples, copies, axis=0)
    ds = Dataset(rows=rows, cards=dom.cards)
    model = init_generator(dom.cards, [8], 4, 4, seed=3)
    W, b = model.layers[-1]
    W[...] = 0
    b[...] = 0
    return dom, ds, model


def mk_trace(cards, attrs, rho_s, rho_m):
    n_cells = math.prod(cards[a] for a in attrs)
    m = mk_measurement(cards, attrs, [0.0] * n_cells, rho_m)
    return SelectionTrace(rounds=[RoundRecord(measurement=m, rho_s=rho_s,
                                              improvement=0.0, noise_floor=0.0, doubled=False)])


def test_unselected_middle_term_cancels_and_isolation():
    dom, ds, model = uniform_setup()
    n = ds.n_records
    trace = mk_trace(ds.cards, (0, 1), rho_s=0.01, rho_m=0.09)
    # delta = |C| makes the log term vanish; perfect fit + zero drift leave
    # only the middle term, which cancels for equal cardinalities
    rep = unselected_bound(trace, *unselected_inputs(ds, model, model, float(n)), delta=3.0)
    assert {e.attrs for e in rep.entries} == {(0, 2), (1, 2)}
    for e in rep.entries:
        assert e.bound == pytest.approx(0.0, abs=1e-9)
        assert e.observed == pytest.approx(0.0, abs=1e-9)


def test_unselected_bound_formula():
    dom, ds, model = uniform_setup()
    n = ds.n_records
    rho_s = 0.02
    delta = 0.05
    trace = mk_trace(ds.cards, (0, 1), rho_s=rho_s, rho_m=0.18)
    rep = unselected_bound(trace, *unselected_inputs(ds, model, model, float(n)), delta=delta)
    expect = math.log(3 / delta) / math.sqrt(2 * rho_s)  # only the tail term survives
    for e in rep.entries:
        assert e.bound == pytest.approx(expect, rel=1e-12)


def test_unselected_no_rounds():
    dom, ds, model = uniform_setup()
    with pytest.raises(ValueError, match="the trace records no selection rounds"):
        unselected_bound(SelectionTrace(), *unselected_inputs(ds, model, model, 10.0), delta=0.05)


def test_bounds_read_from_gram_match_per_spec_marginals():
    # both bounds read their soft marginals as blocks of one Gram matrix per
    # model; recompute every entry from per-spec soft marginals
    dom = categorical_domain([3, 1, 4, 2])
    ds = random_dataset(dom.cards, 300, seed=21)
    model = init_generator(dom.cards, [10], 4, 9, seed=5)
    prev = init_generator(dom.cards, [10], 4, 9, seed=6)
    scale, delta = 300.0, 0.1
    trace = mk_trace(ds.cards, (0, 2), rho_s=0.02, rho_m=0.18)
    soft, prev_soft, index = unselected_inputs(ds, model, prev, scale)
    rep = unselected_bound(trace, soft, prev_soft, index, delta=delta)
    theta = marginal_spec(ds, (0, 2))
    theta_err = l1_distance(soft_marginal(prev, forward(prev), theta, scale), compute_marginal(ds, theta))
    assert len(rep.entries) == 5
    for e in rep.entries:
        spec = marginal_spec(ds, e.attrs)
        est = soft_marginal(model, forward(model), spec, scale)
        drift = l1_distance(soft_marginal(prev, forward(prev), spec, scale), est)
        # the middle term is the score's noise term, at the round's rho_m
        b_ik = (theta_err + (spec.n_cells - theta.n_cells) / math.sqrt(math.pi * 0.18)
                + math.log(6 / delta) / math.sqrt(2 * 0.02))
        assert e.bound == pytest.approx(b_ik + drift, abs=1e-9)
        assert e.observed == pytest.approx(l1_distance(est, compute_marginal(ds, spec)), abs=1e-9)

    rng = np.random.default_rng(2)
    ms = []
    for attrs in [(0, 2), (1, 3), (0, 2)]:
        spec = marginal_spec(ds, attrs)
        ms.append(Measurement(spec=spec, noisy=Marginal(spec, rng.normal(10, 3, spec.n_cells)),
                              rho_m=float(rng.uniform(0.1, 1.0)), sigma=1.0))
    exact = {a: compute_marginal(ds, marginal_spec(ds, a)) for a in [(0, 2), (1, 3)]}
    up = selected_upper_bound(ms, soft, delta=delta, exact=exact)
    for e in up.entries:
        spec = marginal_spec(ds, e.attrs)
        combined, sigma_bar = combine_measurements([m for m in ms if m.spec.attrs == e.attrs])
        est = soft_marginal(model, forward(model), spec, scale).counts
        want = 2.0 * (((combined - est) ** 2).sum()
                      + sigma_bar ** 2 * chi2_inverse_cdf(1 - delta, spec.n_cells))
        assert e.bound == pytest.approx(want, abs=1e-9)
        assert e.observed == pytest.approx(((exact[e.attrs].counts - est) ** 2).sum(), abs=1e-9)
