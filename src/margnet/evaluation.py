"""Utility metrics on (real, synthetic) dataset pairs.

Two metrics: fidelity error (mean TVD over all two-way marginals) and query
error (mean absolute normalized-frequency difference over sampled three-way
marginals). ML-efficacy needs external classifier stacks and is out of scope,
and an eval run does not time synthesis, so the report carries neither.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .domain import Dataset
from .marginals import fidelity_error, query_error

REPORT_SCHEMA = "margnet-eval-v2"


@dataclass
class EvalReport:
    fidelity_error: float
    query_error: float
    n_queries: int
    seed: int
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "fidelity_error": self.fidelity_error,
            "query_error": self.query_error,
            "n_queries": self.n_queries,
            "seed": self.seed,
            "config": dict(self.config),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def evaluate(real_ds: Dataset, synth_ds: Dataset, n_queries: int = 300, seed: int = 0,
             config: dict | None = None) -> EvalReport:
    """Both metrics for one pair; they read the real table without noise, outside the guarantee."""
    return EvalReport(
        fidelity_error=fidelity_error(real_ds, synth_ds),
        query_error=query_error(real_ds, synth_ds, n_queries, seed),
        n_queries=n_queries,
        seed=seed,
        config=dict(config or {}),
    )

