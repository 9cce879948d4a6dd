"""Workload and metric definitions of the margnet benchmark.

Every workload is one seeded `gen-gauss` table fed through `margnet synth`,
`margnet eval` and `margnet check`. The workload seed given to `run.py`
seeds the table, the synthesis and the query sampling of `eval`, so one seed
always gives the same inputs and, with unchanged code, the same outputs.
`BENCHMARK.json` repeats these definitions for the workloads it lists;
`test_perfbench.py` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    dims: int
    rows: int
    corr: float
    epsilon: float
    delta: float
    mode: str
    iters: int
    synth_seeds: int
    repeats: int
    why: str

    def gen_params(self) -> str:
        return f"gen-gauss --dims {self.dims} --rows {self.rows} --corr {self.corr}"

    def synth_flags(self) -> list[str]:
        return ["--epsilon", str(self.epsilon), "--delta", str(self.delta),
                "--mode", self.mode, "--iters", str(self.iters)]

    def describe(self) -> str:
        """The workload's `why` in BENCHMARK.json: its inputs, flags and reason."""
        return (f"{self.gen_params()}; synth {' '.join(self.synth_flags())}; "
                f"{self.synth_seeds} synth seed{'s' if self.synth_seeds > 1 else ''}: {self.why}")


# `--iters` is scaled down from the paper's 200 so that one synth/eval/check
# cycle takes seconds on a 2-core machine and a run fits several cycles; it
# stays fixed per workload so runs remain comparable. The values also keep
# utility steady across seeds: g24-wide at 8 iterations and g10-200k-fixed at
# 5 gave seed-to-seed fidelity spreads of 15-28%. Cycle k of a run uses
# synth seed `seed * synth_seeds + k % synth_seeds`: the utility metrics
# average over `synth_seeds` syntheses, and the timings over their round
# counts, both of which vary from one synth seed to the next. Each cycle
# calls `eval` and `check` `repeats` times, so their sub-second timings are
# medians over enough calls to ride out the machine's bursts of slowness.
WORKLOADS = {
    "g10-adaptive": Workload(
        dims=10, rows=16_000, corr=0.8, epsilon=1.0, delta=1e-5, mode="adaptive", iters=10,
        synth_seeds=3, repeats=3,
        why="the paper's headline setting; generator training dominates synth_s",
    ),
    "g24-wide": Workload(
        dims=24, rows=8_000, corr=0.8, epsilon=1.0, delta=1e-5, mode="adaptive", iters=4,
        synth_seeds=3, repeats=3,
        why="24 segments, 240-wide output, 276 candidates: all-pairs work grows with width",
    ),
    # Not listed in BENCHMARK.json: with one or two cycles per run, its
    # memory-bound CSV and counting work gave run-to-run spreads up to 0.40 on
    # a shared host, above any allowed bound. Run it by name before changing
    # data handling; a training change is predicted not to move it.
    "g10-200k-fixed": Workload(
        dims=10, rows=200_000, corr=0.8, epsilon=1.0, delta=1e-5, mode="fixed:20", iters=2,
        synth_seeds=1, repeats=1,
        why="CSV I/O, encode and marginal counting dominate; only fixed_round_loop user",
    ),
    # Not listed in BENCHMARK.json either: a seconds-long run for the benchmark's own tests.
    "smoke": Workload(
        dims=4, rows=300, corr=0.8, epsilon=1.0, delta=1e-5, mode="adaptive", iters=2,
        synth_seeds=2, repeats=2,
        why="smoke test of the harness itself",
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Bounds: the share by which a metric's median may worsen before a change
# counts as a regression. Timings on a shared 2-core VM drift by 10-20% from
# one half-minute to the next, so their run-to-run spread needs bounds near
# 0.25. setup_s, a sub-second import time and the noisiest, has the largest.
END_TO_END = [
    # Import of margnet.cli in a fresh process, a fixed cost of every CLI call.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("synth_s", "s", "lower", 0.24),
    # Adam steps = (rounds + 2) * train_iters, read from the trace; comparable
    # across changes that move the round count.
    Metric("train_steps_per_s", "steps/s", "higher", 0.24),
    Metric("eval_s", "s", "lower", 0.24),
    Metric("check_s", "s", "lower", 0.24),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    # Utility, deterministic per seed: worse utility is a regression too.
    Metric("fidelity_error", "TVD", "lower", 0.2),
    Metric("query_error", "abs_freq_diff", "lower", 0.2),
]


def _calls_s(layer: str, fn: str, *stats: str) -> list[Metric]:
    units = {"calls": "count", "s": "s", "self_s": "s", "ms_p50": "ms", "ms_p99": "ms",
             "ms_p50_1t": "ms"}
    return [Metric(f"{layer}.{fn}.{st}", units[st], "lower")
            for st in stats]


PER_LAYER = [
    *_calls_s("generator", "loss_and_grad", "calls", "s", "ms_p50", "ms_p99", "ms_p50_1t"),
    *_calls_s("generator", "adam_step", "calls", "s", "ms_p50", "ms_p99"),
    *_calls_s("generator", "forward", "calls", "s"),
    *_calls_s("generator", "soft_marginal", "calls", "s"),
    *_calls_s("generator", "sample_hard", "s"),
    *_calls_s("generator", "save_checkpoint", "s"),
    *_calls_s("generator", "load_checkpoint", "s"),
    *_calls_s("synthesis", "train", "calls", "s"),
    *_calls_s("synthesis", "warmup", "s"),
    *_calls_s("synthesis", "candidate_scores", "calls", "s"),
    *_calls_s("synthesis", "run_margnet", "self_s"),
    Metric("synthesis.rounds", "count", "lower"),
    Metric("synthesis.doubled_ratio", "ratio", "lower"),
    Metric("synthesis.repeat_pick_ratio", "ratio", "lower"),
    *_calls_s("domain", "load_csv", "calls", "s"),
    *_calls_s("domain", "encode", "s"),
    *_calls_s("domain", "decode", "s"),
    *_calls_s("domain", "write_csv", "s"),
    *_calls_s("marginals", "compute_marginal", "calls", "s"),
    *_calls_s("marginals", "fidelity_error", "s"),
    *_calls_s("marginals", "query_error", "s"),
    *_calls_s("evaluation", "evaluate", "s"),
    *_calls_s("bounds", "selected_lower_bound", "s"),
    *_calls_s("bounds", "selected_upper_bound", "s"),
    *_calls_s("bounds", "unselected_bound", "s"),
    *_calls_s("privacy", "dp_to_zcdp_rho", "s"),
    *_calls_s("privacy", "spend", "calls"),
    *_calls_s("privacy", "exponential_mechanism", "calls", "s"),
    *_calls_s("privacy", "gaussian_mechanism", "calls"),
    Metric("privacy.rho_used_ratio", "ratio", "higher"),
    Metric("privacy.rho_budget", "rho", "higher"),
    *_calls_s("cli", "synth", "self_s"),
    *_calls_s("cli", "eval", "self_s"),
    *_calls_s("cli", "check", "self_s"),
    Metric("tracing.synth_s_traced", "s", "lower"),
    Metric("tracing.synth_s_untraced", "s", "lower"),
    Metric("tracing.overhead_ratio", "ratio", "lower"),
    Metric("tracing.self_sum_gap_s", "s", "lower"),
]
