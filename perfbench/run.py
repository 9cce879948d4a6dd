"""margnet benchmark: seeded gen-gauss workloads through synth, eval and check.

Usage, from the repository root:

    python3 perfbench/run.py --workload g10-adaptive --seed 1 --seconds 50 --trace 0

The workload seed makes the input table (`margnet.domain.gen_gaussian_dataset`,
written as CSV with its domain), the synth seeds and the `eval` seed; making
the inputs is excluded from every metric. The load is a closed loop with one
client: each cycle is a fresh child process that imports `margnet.cli` and
calls `margnet.cli.main` for `synth`, then `eval` and `check` the
workload's `repeats` times, one command at a time, with the default BLAS
threading. A run makes one cycle per synth seed of the workload, then more
while the next one is expected to end within `--seconds`. Every timing is
the median over all its calls in the run; `setup_s` is the median import
time over the cycles and `IMPORT_PROBES` import-only children. The utility
metrics are the mean over the synth seeds.

Every cycle's outputs are checked (see gate.py); `failed` counts failed CLI
calls and failed checks, `attempted` counts both. The sha256 of the
synthetic CSV and of the trace must repeat for every synth seed, within a
run and across runs of one seed on the same margnet sources.

With `--trace 1` the run adds one traced cycle, whose spans give the
per-layer metrics, and a traced `synth` child with OPENBLAS_NUM_THREADS=1.
The last line printed is the JSON result; the lines above it name every
metric with its unit, the gate and the environment. Scratch files go to
`.perfbench_work/` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def git_sha() -> str:
    """HEAD of the checkout read from .git directly, or 'unknown' outside git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "margnet").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(work: Path, tag: str, commands, spans: bool = False, env_extra=None) -> dict:
    result_path = work / f"{tag}.result.json"
    spec = {"src": str(SRC), "commands": commands, "result": str(result_path),
            "spans": str(work / f"{tag}.spans.json") if spans else None}
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env_extra or {}))
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def call_s(res: dict, name: str) -> float:
    return next(c["s"] for c in res["calls"] if c["name"] == name)


def all_call_s(cycles: list[dict], name: str) -> list[float]:
    return [c["s"] for res in cycles for c in res["calls"] if c["name"] == name]


def steps(trace: dict) -> int:
    # warm-up pass + one pass per round + closing pass, train_iters steps each
    return (len(trace["rounds"]) + 2) * trace["config"]["train_iters"]


class Run:
    """One benchmark invocation: inputs, cycles, gate and metrics."""

    def __init__(self, name: str, seed: int):
        import gate

        self.gate = gate
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.paths = {k: str(self.work / f) for k, f in [
            ("data", "data.csv"), ("domain", "data.domain.json"), ("synth", "synth.csv"),
            ("trace", "synth.csv.trace.json"), ("ckpt", "synth.csv.ckpt"),
            ("eval", "synth.eval.json"), ("bounds", "synth.bounds.json")]}
        self.checks: list[tuple[str, bool, str]] = []
        self.hashes: dict[int, dict] = {}

    def synth_seed(self, k: int) -> int:
        return self.seed * self.wl.synth_seeds + k % self.wl.synth_seeds

    def commands(self, k: int, repeats: int | None = None, synth_only_to: str | None = None) -> list:
        """synth with synth seed k, then `eval` and `check` `repeats` times."""
        p = self.paths
        synth = ["synth", "--data", p["data"], "--domain", p["domain"],
                 "--out", synth_only_to or p["synth"], "--seed", str(self.synth_seed(k)),
                 *self.wl.synth_flags()]
        if synth_only_to is not None:
            return [["synth", synth]]
        return [["synth", synth]] + [
            ["eval", ["eval", "--real", p["data"], "--synth", p["synth"], "--domain", p["domain"],
                      "--seed", str(self.seed), "--out", p["eval"]]],
            ["check", ["check", "--trace", p["trace"], "--checkpoint", p["ckpt"], "--data", p["data"],
                       "--domain", p["domain"], "--out", p["bounds"]]],
        ] * (self.wl.repeats if repeats is None else repeats)

    def make_inputs(self) -> None:
        from margnet.domain import auto_numeric_domain, gen_gaussian_dataset, write_csv

        wl = self.wl
        table = gen_gaussian_dataset(wl.dims, wl.rows, wl.corr, self.seed)
        write_csv(self.paths["data"], table)
        auto_numeric_domain(table).save(self.paths["domain"])

    def cycle(self, k: int, tag: str, spans: bool = False) -> dict:
        """Run cycle k in a child, check its outputs and keep the facts the metrics need.

        A traced cycle calls each command once, so its spans describe one of each."""
        res = run_child(self.work, tag, self.commands(k, repeats=1 if spans else None), spans=spans)
        g, p, wl = self.gate, self.paths, self.wl
        checks = [(f"cli_{c['name']}_exit", c["rc"] == 0, c["error"] or f"exit {c['rc']}")
                  for c in res["calls"]]
        try:
            trace = g.load_json(p["trace"])
            checks += g.check_trace(trace, wl.epsilon, wl.delta)
            checks += g.check_synth_csv(p["synth"], p["domain"], trace["n_estimate"])
            bounds = g.load_json(p["bounds"])
            checks += g.check_bounds_report(bounds)
            res["bounds_hold"] = g.probabilistic_bounds_hold(bounds)
            report = g.load_json(p["eval"])
            res["trace"] = trace
            res["fidelity_error"] = report["fidelity_error"]
            res["query_error"] = report["query_error"]
            checks += self._check_hashes(k, {"csv": g.sha256(p["synth"]),
                                             "trace": g.sha256(p["trace"])})
        except (OSError, ValueError, KeyError) as e:
            checks.append(("outputs_readable", False, f"{type(e).__name__}: {e}"))
        self.checks += checks
        return res

    def _check_hashes(self, k: int, hashes: dict) -> list:
        """Outputs of one synth seed must repeat within this run and across runs
        of the same workload definition on the same margnet sources (kept in
        .perfbench_work/hashes.json)."""
        seed = self.synth_seed(k)
        if seed in self.hashes:
            want, label = self.hashes[seed], "repeats"
        else:
            self.hashes[seed] = hashes
            store_path = WORK / "hashes.json"
            store = json.loads(store_path.read_text()) if store_path.is_file() else {}
            key = f"{source_digest()}|{self.wl.describe()}|{self.seed}|{seed}"
            if key not in store:
                store[key] = hashes
                store_path.write_text(json.dumps(store, indent=1))
                return []
            want, label = store[key], "matches_earlier_run"
        return [(f"{n}_sha256_{label}", hashes[n] == want[n], hashes[n]) for n in ("csv", "trace")]

    def cycles(self, seconds: float) -> list[dict]:
        """One cycle per synth seed, then more while the next one, at the mean
        cycle time so far, still ends within `seconds`."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(self.cycle(len(done), f"cycle{len(done)}"))
            elapsed = time.perf_counter() - start
            if len(done) >= self.wl.synth_seeds and elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def end_to_end_metrics(run: Run, cycles: list[dict], setup_samples: list[float]) -> dict:
    med = statistics.median
    ok = [c for c in cycles if "trace" in c]
    per_seed = [c for c in cycles[:run.wl.synth_seeds] if "trace" in c]
    return {
        "setup_s": med(setup_samples),
        "synth_s": med(all_call_s(cycles, "synth")),
        "train_steps_per_s": med(steps(c["trace"]) / call_s(c, "synth") for c in ok)
        if ok else math.nan,
        "eval_s": med(all_call_s(cycles, "eval")),
        "check_s": med(all_call_s(cycles, "check")),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in cycles),
        "fidelity_error": statistics.fmean(c["fidelity_error"] for c in per_seed)
        if per_seed else math.nan,
        "query_error": statistics.fmean(c["query_error"] for c in per_seed)
        if per_seed else math.nan,
    }


def layer_metrics(run: Run, cycles: list[dict]) -> dict:
    """Per-layer metrics from one traced cycle of synth seed 0, plus a traced
    synth with one BLAS thread."""
    traced = run.cycle(0, "traced", spans=True)
    one_thread = run_child(run.work, "traced1t",
                           run.commands(0, synth_only_to=str(run.work / "synth1t.csv")),
                           spans=True, env_extra={"OPENBLAS_NUM_THREADS": "1"})
    run.checks.append(("cli_synth_1t_exit", one_thread["calls"][0]["rc"] == 0,
                       one_thread["calls"][0]["error"] or ""))

    out = {}
    for m in PER_LAYER:
        parts = m.name.split(".")
        if len(parts) == 3:
            out[m.name] = traced["layers"].get(f"{parts[0]}.{parts[1]}", {}).get(parts[2], 0)
    out["generator.loss_and_grad.ms_p50_1t"] = \
        one_thread["layers"].get("generator.loss_and_grad", {}).get("ms_p50", 0)

    trace = traced.get("trace", {"rounds": [], "ledger": [], "rho_budget": math.nan})
    rounds = trace["rounds"]
    picked: set = set()
    repeats = 0
    for r in rounds:
        repeats += tuple(r["attrs"]) in picked
        picked.add(tuple(r["attrs"]))
    n = max(len(rounds), 1)
    out["synthesis.rounds"] = len(rounds)
    out["synthesis.doubled_ratio"] = sum(r["doubled"] for r in rounds) / n
    out["synthesis.repeat_pick_ratio"] = repeats / n
    out["privacy.rho_budget"] = trace["rho_budget"]
    out["privacy.rho_used_ratio"] = math.fsum(r for _, r in trace["ledger"]) / trace["rho_budget"]

    traced_synth = call_s(traced, "synth")
    untraced_synth = statistics.median(call_s(c, "synth") for c in cycles[::run.wl.synth_seeds])
    gap = max(abs(traced["self_sums"].get(f"cli.{c['name']}", 0.0) - c["s"])
              for c in traced["calls"])
    tolerance = max(traced_synth - untraced_synth, 1e-3)
    run.checks.append(("self_times_cover_commands", gap <= tolerance,
                       f"largest gap {gap:.6f} s, tracing overhead {tolerance:.6f} s"))
    out["tracing.synth_s_traced"] = traced_synth
    out["tracing.synth_s_untraced"] = untraced_synth
    out["tracing.overhead_ratio"] = traced_synth / untraced_synth
    out["tracing.self_sum_gap_s"] = gap
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "margnet" / "cli.py").is_file():
        print(f"error: no margnet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_start = time.perf_counter()
    run = Run(args.workload, args.seed)
    try:
        run.make_inputs()
        run_child(run.work, "warmup", [])  # untimed: fills bytecode and file caches
        setup_samples = [run_child(run.work, f"import{i}", [])["setup_s"]
                         for i in range(IMPORT_PROBES)]
        cycles = run.cycles(args.seconds)
        setup_samples += [c["setup_s"] for c in cycles]
        if args.trace:
            values, defs = layer_metrics(run, cycles), PER_LAYER
        else:
            values, defs = end_to_end_metrics(run, cycles, setup_samples), END_TO_END
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failed = [c for c in run.checks if not c[1]]
    calls = sum(name.startswith("cli_") for name, _, _ in run.checks)
    env = dict(cycles[0]["env"], git_sha=git_sha())
    print(f"workload {args.workload} seed {args.seed}: {len(cycles)} cycles over "
          f"{run.wl.synth_seeds} synth seeds, {time.perf_counter() - t_start:.1f} s wall; "
          f"closed loop, one client, one command at a time; setup_s over "
          f"{len(setup_samples)} imports")
    for m in defs:
        print(f"  {m.name:<40} {values[m.name]:>14.6g} {m.unit:<14} ({m.better} is better)")
    print(f"  {'ops_failed':<40} {len(failed) / len(run.checks):>14.6g} share of ops_total "
          f"({len(failed)} of {len(run.checks)}: {calls} CLI calls and "
          f"{len(run.checks) - calls} output checks)")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    held = [c["bounds_hold"] for c in cycles if "bounds_hold" in c]
    print("probabilistic bounds held (recorded, not gated): " + ", ".join(
        f"{k} in {sum(h[k] for h in held)} of {len(held)} cycles"
        for k in ("selected_upper", "unselected")))
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in defs}
    (run.work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
         "metrics": metrics, "checks": run.checks, "setup_samples": setup_samples,
         "cycles": [{"synth_seed": run.synth_seed(k), "setup_s": c["setup_s"],
                     "calls": c["calls"], "peak_rss_mb": c["peak_rss_mb"],
                     "bounds_hold": c.get("bounds_hold"),
                     "rounds": len(c["trace"]["rounds"]) if "trace" in c else None}
                    for k, c in enumerate(cycles)]}, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(run.checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
