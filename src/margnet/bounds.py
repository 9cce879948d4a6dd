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

The bounds run no forward pass. They read the final and the pre-final
model's soft marginals at one layout over every selection candidate
(`generator.candidate_index`), and the unselected L1s through `candidate_l1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generator import CandidateIndex, SoftMarginals, candidate_l1
from .marginals import Marginal, l1_distance
from .privacy import SCORE_SENSITIVITY, bisect, expected_noise_l1


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
    lo, hi = bisect(lambda x: not chi2_cdf(x, dof) < p, 0.0, hi, atol=CHI2_INVERSE_TOL)
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


def selected_upper_bound(measurements: list, soft: SoftMarginals, delta: float,
                         exact: dict) -> BoundReport:
    """Confidence upper bound on the selected-marginal squared error.

    Per distinct measured spec i, with probability at least 1 - delta:
        ||M_i - M_hat_i||_F^2  <=  2 (||Mbar_i - M_hat_i||_F^2
                                      + sigma_bar_i^2 * chi2_inv(1 - delta, n_i)).
    M_hat_i is read from `soft`, the final model's soft marginals, and
    `exact` (spec attrs -> Marginal) holds each measured spec's exact
    marginal M_i, which fills the observed error column.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    groups: dict = {}  # spec -> its measurements, in order of first measurement
    for m in measurements:
        groups.setdefault(m.spec, []).append(m)

    report = BoundReport(deltas=[delta] * len(groups))
    quantiles: dict = {}  # n_i -> chi2_inv(1 - delta, n_i)
    for spec, group in groups.items():
        combined, sigma_bar = combine_measurements(group)
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


def unselected_bound(trace, soft: SoftMarginals, prev_soft: SoftMarginals,
                     index: CandidateIndex, delta: float) -> BoundReport:
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
    drift ||Mhat_i^{K-1} - Mhat_i||_1. Observed is ||M_i - Mhat_i||_1. `soft`
    and `prev_soft` are the final and pre-final model's soft marginals at
    `index.layout`, whose specs are the selection candidates C.
    """
    if not trace.rounds:
        raise ValueError("the trace records no selection rounds")
    final = trace.rounds[-1]
    theta = final.measurement.spec
    theta_err = l1_distance(prev_soft.marginal(theta), index.exact[theta.attrs])
    observed = candidate_l1(soft, index)
    drift = candidate_l1(prev_soft, index, soft)
    tail = SCORE_SENSITIVITY * math.log(len(index.specs) / delta) / math.sqrt(2.0 * final.rho_s)
    measured = {r.attrs for r in trace.rounds}

    report = BoundReport(deltas=[delta])
    for i, spec in enumerate(index.specs):
        if spec.attrs in measured:
            continue
        b_ik = theta_err + expected_noise_l1(spec.n_cells - theta.n_cells, final.rho_m) + tail
        report.entries.append(BoundEntry(attrs=spec.attrs, observed=float(observed[i]),
                                         bound=b_ik + float(drift[i])))
    return report
