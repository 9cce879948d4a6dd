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

from .errors import EmptyCandidates, InsufficientBudget

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


def exponential_mechanism(scores, delta_q: float, rho_s: float, rng: np.random.Generator) -> int:
    """Sample an index with probability proportional to exp(eps * q / (2 * delta_q)).

    eps = sqrt(8 * rho_s), the largest epsilon whose exponential mechanism
    satisfies rho_s-zCDP. Logits are shifted by their maximum before
    exponentiation for numerical stability.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise EmptyCandidates("no candidates to select from")
    if delta_q <= 0 or rho_s <= 0:
        raise ValueError("delta_q and rho_s must be positive")
    eps = math.sqrt(8.0 * rho_s)
    logits = eps * scores / (2.0 * delta_q)
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    u = rng.random()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, scores.size - 1))


def _log_delta(rho: float, eps: float, alphas: np.ndarray) -> np.ndarray:
    # log of exp((a-1)(a*rho - eps)) * (1 - 1/a)^a / (a - 1), elementwise in a.
    a = alphas
    return (a - 1.0) * (a * rho - eps) + a * np.log1p(-1.0 / a) - np.log(a - 1.0)


_ALPHA_GRID = 1.0 + np.logspace(-5, np.log10(63.0), 512)


def _log_delta_scalar(rho: float, eps: float, a: float) -> float:
    return (a - 1.0) * (a * rho - eps) + a * math.log1p(-1.0 / a) - math.log(a - 1.0)


def _best_log_delta(rho: float, eps: float) -> float:
    """min over alpha > 1 of the zCDP->DP conversion expression (in log space).

    A dense grid over (1, 64] locates the minimum, which is then refined by
    golden-section search. If the minimum sits at the grid's upper edge the
    bracket is extended by doubling, the routine path for small rho (for
    example epsilon = 0.3, delta = 1e-5).
    """
    grid = _ALPHA_GRID
    vals = _log_delta(rho, eps, grid)
    i = int(np.argmin(vals))
    if i == len(grid) - 1:
        lo, hi = grid[i - 1], grid[i]
        f_hi = vals[i]
        while hi < 1e9:
            nxt = hi * 2.0
            f_nxt = _log_delta_scalar(rho, eps, nxt)
            if f_nxt > f_hi:
                lo, hi = hi / 2.0, nxt
                break
            hi, f_hi = nxt, f_nxt
    else:
        lo = grid[max(i - 1, 0)]
        hi = grid[i + 1]
    # golden-section refinement on the bracketed unimodal section
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _log_delta_scalar(rho, eps, c)
    fd = _log_delta_scalar(rho, eps, d)
    for _ in range(120):
        if b - a < 1e-8 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _log_delta_scalar(rho, eps, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _log_delta_scalar(rho, eps, d)
    mid = (a + b) / 2.0
    return min(_log_delta_scalar(rho, eps, mid), float(vals[i]))


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
    lo = rho
    hi = rho + 4.0 * math.sqrt(rho * math.log(1.0 / delta))
    if _best_log_delta(rho, lo) <= log_target:
        return lo
    while True:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            return hi  # no double between the ends
        if _best_log_delta(rho, mid) <= log_target:
            hi = mid
        else:
            lo = mid


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
    lo = 0.0
    while hi - lo > RHO_RTOL * hi:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break  # no double between the ends
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
