"""Output checks of the benchmark: each returns (check name, passed, detail).

Every failed check adds one to the run's `failed` count (ops_failed), next
to the CLI calls that returned a non-zero exit code.
"""

from __future__ import annotations

import hashlib
import json
import math

from margnet.domain import Domain, encode, load_csv
from margnet.errors import MargNetError
from margnet.privacy import dp_to_zcdp_rho


def check_trace(trace: dict, epsilon: float, delta: float) -> list[tuple[str, bool, str]]:
    """The ledger stays within the budget, and the budget is the conversion of (epsilon, delta)."""
    budget = trace["rho_budget"]
    used = math.fsum(rho for _, rho in trace["ledger"])
    expected = dp_to_zcdp_rho(epsilon, delta)
    return [
        ("ledger_within_budget", used <= budget, f"ledger sum {used!r} vs budget {budget!r}"),
        ("budget_is_conversion", budget == expected,
         f"rho_budget {budget!r} vs dp_to_zcdp_rho({epsilon}, {delta}) = {expected!r}"),
    ]


def check_synth_csv(csv_path, domain_path, n_estimate: float) -> list[tuple[str, bool, str]]:
    """The synthetic table loads and encodes against the domain with round(n_estimate) rows."""
    try:
        domain = Domain.load(domain_path)
        ds = encode(load_csv(csv_path, domain), domain)
    except (OSError, ValueError, KeyError, MargNetError) as e:
        return [("synth_csv_encodes", False, f"{type(e).__name__}: {e}")]
    want = int(round(n_estimate))
    return [("synth_csv_encodes", ds.n_records == want, f"{ds.n_records} rows, want {want}")]


def check_bounds_report(report: dict) -> list[tuple[str, bool, str]]:
    """The deterministic rank-floor bound holds; the two probabilistic bounds are not gated."""
    lower = report["selected_lower"]
    return [("selected_lower_holds", lower["observed"] >= lower["bound"],
             f"observed {lower['observed']!r} vs bound {lower['bound']!r}")]


def probabilistic_bounds_hold(report: dict) -> dict[str, bool]:
    """Whether the two confidence bounds held; recorded with the result, never gated."""
    return {k: report[k]["total_observed"] <= report[k]["total_bound"]
            for k in ("selected_upper", "unselected")}


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
