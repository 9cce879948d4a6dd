"""zCDP accounting, the Gaussian and exponential mechanisms, and
(epsilon, delta) <-> rho conversion.

Everything here works in zCDP units (rho). Composition is additive, so the
accountant is a plain pay-as-you-go filter: spends may be chosen adaptively,
but the running total must never exceed the budget.

Count marginals under add/remove neighbours have L2 sensitivity 1 (one record
changes exactly one cell by 1), so the Gaussian mechanism at budget rho adds
N(0, sigma^2) per cell with sigma = 1/sqrt(2*rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientBudget

#: Marginal count sensitivity under add/remove-one-record neighbours.
COUNT_SENSITIVITY = 1.0

#: Sensitivity of a selection score ||M_i(G) - M_i||_1 - n_i / sqrt(pi * rho_m):
#: one record moves one cell of the exact marginal M_i by 1.
SCORE_SENSITIVITY = 1.0


@dataclass
class NoiseParams:
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    @property
    def sigma(self) -> float:
        return 1.0 / math.sqrt(2.0 * self.rho)


@dataclass
class Accountant:
    """Privacy filter: permits adaptive spends while rho_used <= rho_budget."""

    rho_budget: float
    rho_used: float = 0.0
    ledger: list = field(default_factory=list)  # [(label, rho), ...]

    def spend(self, rho: float, label: str) -> None:
        if not 0 < rho < math.inf:
            raise ValueError(f"spend must be positive and finite, got {rho}")
        if self.rho_used + rho > self.rho_budget:
            raise InsufficientBudget(
                f"spend {rho:.6g} for {label!r} exceeds remaining "
                f"{self.rho_budget - self.rho_used:.6g}"
            )
        self.rho_used += rho
        self.ledger.append((label, float(rho)))

    @property
    def remaining(self) -> float:
        return self.rho_budget - self.rho_used


def gaussian_mechanism(counts: np.ndarray, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. N(0, 1/(2*rho)) noise to each entry of a count vector."""
    sigma = NoiseParams(rho).sigma
    counts = np.asarray(counts, dtype=float)
    return counts + sigma * COUNT_SENSITIVITY * rng.standard_normal(counts.shape)


def expected_noise_l1(n_cells, rho: float) -> float:
    """Expected L1 norm of the Gaussian mechanism's noise over `n_cells` cells
    at budget `rho`: each cell's |N(0, 1/(2 rho))| has mean 1/sqrt(pi rho).
    Linear in `n_cells`, so a difference of cell counts gives the difference."""
    return n_cells / math.sqrt(math.pi * rho)


def exponential_mechanism(scores, delta_q: float, rho_s: float, rng: np.random.Generator) -> int:
    """Sample an index with probability proportional to exp(eps * q / (2 * delta_q)).

    eps = sqrt(8 * rho_s), the largest epsilon whose exponential mechanism
    satisfies rho_s-zCDP. Logits are shifted by their maximum before
    exponentiation for numerical stability.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("no candidates to select from")
    if delta_q <= 0 or rho_s <= 0:
        raise ValueError("delta_q and rho_s must be positive")
    eps = math.sqrt(8.0 * rho_s)
    logits = eps * scores / (2.0 * delta_q)
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    u = rng.random()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, scores.size - 1))


def bisect(pred, lo: float, hi: float, rtol: float = 0.0, atol: float = 0.0) -> tuple[float, float]:
    """Narrow [lo, hi] around the point where the monotone `pred` turns true
    (false at lo's side, true at hi's): halve at the midpoint while
    hi - lo > atol + rtol * hi and a double lies strictly between the ends.
    Returns the last (lo, hi)."""
    while hi - lo > atol + rtol * hi:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break  # no double between the ends
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _log_delta(rho: float, eps: float, a: float) -> float:
    # log of exp((a-1)(a*rho - eps)) * (1 - 1/a)^a / (a - 1)
    return (a - 1.0) * (a * rho - eps) + a * math.log1p(-1.0 / a) - math.log(a - 1.0)


def _best_log_delta(rho: float, eps: float) -> float:
    """min over alpha > 1 of the zCDP->DP conversion expression (in log space).

    The expression is strictly convex in alpha: its derivative
    (2*alpha - 1)*rho - eps + log(1 - 1/alpha) rises from -inf at alpha -> 1
    to +inf, with second derivative 2*rho + 1/(alpha*(alpha - 1)) > 0. So the
    minimum is the derivative's one sign change, found by doubling an upper
    end from alpha = 2 and bisecting down to adjacent doubles. The value is
    taken at the upper end: when the minimiser lies within one ulp of 1 the
    lower end stays at 1, where the expression is undefined.
    """
    def rising(a: float) -> bool:
        return (2.0 * a - 1.0) * rho - eps + math.log1p(-1.0 / a) >= 0.0

    lo, hi = 1.0, 2.0
    while not rising(hi):
        lo, hi = hi, hi * 2.0
    return _log_delta(rho, eps, bisect(rising, lo, hi)[1])


def zcdp_to_dp_epsilon(rho: float, delta: float) -> float:
    """Smallest epsilon such that rho-zCDP implies (epsilon, delta)-DP.

    Binary search on epsilon over [rho, rho + 4*sqrt(rho*ln(1/delta))], with the
    delta expression minimized over the Renyi order alpha at every step, down
    to adjacent doubles: the rho that `dp_to_zcdp_rho` finds for an epsilon
    then converts back to at most that epsilon.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    log_target = math.log(delta)

    def feasible(eps: float) -> bool:
        return _best_log_delta(rho, eps) <= log_target

    if feasible(rho):
        return rho
    return bisect(feasible, rho, rho + 4.0 * math.sqrt(rho * math.log(1.0 / delta)))[1]


# dp_to_zcdp_rho stops once its bracket is this narrow relative to its upper
# end, so small budgets keep their precision.
RHO_RTOL = 1e-9


def dp_to_zcdp_rho(epsilon: float, delta: float) -> float:
    """Largest rho whose zCDP guarantee converts to at most (epsilon, delta)-DP.

    The conversion's delta grows with rho at fixed epsilon, so one bisection
    on rho with the predicate min_alpha delta(rho, epsilon) <= delta finds it,
    to a relative width of RHO_RTOL. The lower end is always feasible.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    log_target = math.log(delta)

    def feasible(rho: float) -> bool:
        return _best_log_delta(rho, epsilon) <= log_target

    hi = max(epsilon, 1e-3)
    while feasible(hi):
        hi *= 2.0
    return bisect(lambda rho: not feasible(rho), 0.0, hi, rtol=RHO_RTOL)[0]
