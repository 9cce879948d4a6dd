"""Computable fitting-error bounds for a trained generator.

Three diagnostics:

* a deterministic lower bound on the total squared fitting error of the
  selected two-way marginals: a batch of b soft rows can only realize a
  rank-<=b joint table, so the tail singular values of each true marginal are
  unavoidable error;
* a probabilistic upper bound on the same quantity, built from an
  inverse-variance combination of the (possibly repeated) noisy measurements
  plus a chi-squared tail term;
* a probabilistic upper bound on the total L1 error of the *unselected*
  marginals, derived from the exponential mechanism's utility guarantee in the
  final selection round plus the model drift after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Dataset
from .generator import GeneratorModel, soft_marginals
from .marginals import Marginal, compute_marginal, l1_distance, marginal_spec, selection_candidates
from .privacy import SCORE_SENSITIVITY, expected_noise_l1


def _gammainc(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x > 0.

    The series for x < a + 1, else 1 - Q with Q from the modified-Lentz
    continued fraction (Numerical Recipes, section 6.2). The common prefactor
    e^-x x^a / Gamma(a) is formed in log space.
    """
    if x == math.inf:
        return 1.0
    eps, tiny = 2.0 ** -52, 1e-300
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while abs(term) > abs(total) * eps:
            ap += 1.0
            term *= x / ap
            total += term
        return min(1.0, total * prefactor)
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = h = 1.0 / b
    i, step = 0, 0.0
    while abs(step - 1.0) > eps:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
    return 1.0 - h * prefactor


def chi2_cdf(x: float, dof: int) -> float:
    """Chi-squared CDF via the regularized lower incomplete gamma."""
    if x <= 0:
        return 0.0
    return _gammainc(dof / 2.0, x / 2.0)


# absolute width at which chi2_inverse_cdf stops bisecting
CHI2_INVERSE_TOL = 1e-8


def chi2_inverse_cdf(p: float, dof: int) -> float:
    """Numeric inverse of the chi-squared CDF (bisection)."""
    if not 0 < p < 1:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
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


@dataclass
class BoundEntry:
    attrs: tuple[int, ...]
    observed: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.observed

    def to_json_dict(self) -> dict:
        return {"attrs": list(self.attrs), "observed": self.observed,
                "bound": self.bound, "slack": self.slack}


@dataclass
class BoundReport:
    entries: list[BoundEntry] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)

    @property
    def total_observed(self) -> float:
        return float(sum(e.observed for e in self.entries))

    @property
    def total_bound(self) -> float:
        return float(sum(e.bound for e in self.entries))

    @property
    def holds(self) -> bool:
        return self.total_observed <= self.total_bound

    def to_json_dict(self) -> dict:
        return {
            "per_marginal": [e.to_json_dict() for e in self.entries],
            "total_observed": self.total_observed,
            "total_bound": self.total_bound,
            "deltas": list(self.deltas),
        }


def selected_lower_bound(exact_marginals: list[Marginal], batch_size: int) -> float:
    """Deterministic floor on the selected-marginal squared error.

    Each two-way marginal is reshaped to its natural matrix; the sum of its
    squared singular values beyond index batch_size is unavoidable for any
    rank-<=batch_size estimate (best low-rank approximation error).
    """
    total = 0.0
    for m in exact_marginals:
        if m.spec.order != 2:
            continue
        mat = m.counts.reshape(m.spec.cards)
        svals = np.linalg.svd(mat, compute_uv=False)
        total += float((svals[batch_size:] ** 2).sum())
    return total


def combine_measurements(group: list) -> tuple[np.ndarray, float]:
    """Inverse-variance combination of repeated measurements of one spec.

    Weights w_j proportional to rho_m^j with sum 1 give the minimum-variance
    unbiased combination; its per-cell noise deviation is
    sigma_bar = sqrt(sum_j w_j^2 / (2 rho_m^j)) = 1/sqrt(2 sum_j rho_m^j).
    Returns (combined counts, sigma_bar).
    """
    rhos = np.array([m.rho_m for m in group], dtype=float)
    w = rhos / rhos.sum()
    counts = np.zeros_like(group[0].noisy.counts)
    for wj, m in zip(w, group):
        counts = counts + wj * m.noisy.counts
    sigma_bar = math.sqrt(float((w * w / (2.0 * rhos)).sum()))
    return counts, sigma_bar


def selected_upper_bound(measurements: list, model: GeneratorModel, scale: float,
                         delta: float, exact: dict) -> BoundReport:
    """Confidence upper bound on the selected-marginal squared error.

    Per distinct measured spec i, with probability at least 1 - delta:
        ||M_i - M_hat_i||_F^2  <=  2 (||Mbar_i - M_hat_i||_F^2
                                      + sigma_bar_i^2 * chi2_inv(1 - delta, n_i)).
    `exact` (spec attrs -> Marginal) holds each measured spec's exact
    marginal M_i, which fills the observed error column.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    groups: dict = {}
    order = []
    for m in measurements:
        if m.spec.attrs not in groups:
            groups[m.spec.attrs] = []
            order.append(m.spec)
        groups[m.spec.attrs].append(m)

    soft = soft_marginals(model, scale, order)
    report = BoundReport(deltas=[delta] * len(order))
    quantiles: dict = {}  # n_i -> chi2_inv(1 - delta, n_i)
    for spec in order:
        combined, sigma_bar = combine_measurements(groups[spec.attrs])
        est = soft.marginal(spec).counts
        fit_term = float(((combined - est) ** 2).sum())
        if spec.n_cells not in quantiles:
            quantiles[spec.n_cells] = chi2_inverse_cdf(1.0 - delta, spec.n_cells)
        tail = sigma_bar ** 2 * quantiles[spec.n_cells]
        bound = 2.0 * (fit_term + tail)
        diff = exact[spec.attrs].counts - est
        observed = float((diff * diff).sum())
        report.entries.append(BoundEntry(attrs=spec.attrs, observed=observed, bound=bound))
    return report


def unselected_bound(trace, model: GeneratorModel, prev_model: GeneratorModel,
                     ds: Dataset, scale: float, delta: float) -> BoundReport:
    """Confidence upper bound on the L1 error of each unmeasured marginal.

    The final selection round K chose spec theta with the exponential
    mechanism at budget rho_s_K over the scores
    q_i = ||M_i - Mhat_i^{K-1}||_1 - n_i / sqrt(pi rho_m_K), with rho_m_K the
    round's measurement budget. Its utility guarantee
    q_t >= q_i - Delta_q * log(|C|/delta) / sqrt(2 rho_s_K) gives, w.p.
    >= 1 - delta per marginal:

        B_{i,K} = ||M_t - Mhat_t^{K-1}||_1
                  + (n_i - n_t) / sqrt(pi rho_m_K)
                  + Delta_q * log(|C|/delta) / sqrt(2 rho_s_K)

    and the reported per-spec bound is B_{i,K} plus the exactly computed model
    drift ||Mhat_i^{K-1} - Mhat_i||_1. Observed is ||M_i - Mhat_i||_1.
    """
    if not trace.rounds:
        raise ValueError("the trace records no selection rounds")
    final = trace.rounds[-1]
    rho_s_k = final.rho_s
    theta = marginal_spec(ds, final.attrs)
    candidates = selection_candidates(ds.cards)
    n_candidates = len(candidates)
    measured = {r.attrs for r in trace.rounds}

    unmeasured = [s for s in candidates if s.attrs not in measured]
    soft_final = soft_marginals(model, scale, unmeasured)
    soft_prev = soft_marginals(prev_model, scale, unmeasured + [theta])
    theta_err = l1_distance(soft_prev.marginal(theta), compute_marginal(ds, theta))

    report = BoundReport(deltas=[delta])
    for spec in unmeasured:
        b_ik = (
            theta_err
            + expected_noise_l1(spec.n_cells - theta.n_cells, final.rho_m)
            + SCORE_SENSITIVITY * math.log(n_candidates / delta) / math.sqrt(2.0 * rho_s_k)
        )
        est = soft_final.marginal(spec)
        drift = l1_distance(soft_prev.marginal(spec), est)
        observed = l1_distance(est, compute_marginal(ds, spec))
        report.entries.append(BoundEntry(attrs=spec.attrs, observed=observed, bound=b_ik + drift))
    return report
