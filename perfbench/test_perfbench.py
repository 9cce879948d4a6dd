"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace, defs", [("0", END_TO_END), ("1", PER_LAYER)])
def test_smoke_prints_every_metric_with_its_unit(trace, defs):
    result, report = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"] == {
        m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit} for m in defs}
    for m in defs:
        assert f" {m.name} " in report and f" {m.unit} " in report
    assert "ops_failed" in report and "share of ops_total" in report
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_counts_a_ledger_over_budget(tmp_path):
    import margnet.cli as cli
    from margnet.domain import auto_numeric_domain, gen_gaussian_dataset, write_csv

    wl = WORKLOADS["smoke"]
    table = gen_gaussian_dataset(wl.dims, wl.rows, wl.corr, 5)
    write_csv(tmp_path / "d.csv", table)
    auto_numeric_domain(table).save(tmp_path / "d.json")
    out = tmp_path / "s.csv"
    assert cli.main(["synth", "--data", str(tmp_path / "d.csv"), "--domain", str(tmp_path / "d.json"),
                     "--out", str(out), "--seed", "5", *wl.synth_flags()]) == 0
    trace = gate.load_json(f"{out}.trace.json")
    assert all(ok for _, ok, _ in gate.check_trace(trace, wl.epsilon, wl.delta))

    trace["ledger"].append(["measure:round:extra", trace["rho_budget"] * 1e-6])
    failed = [name for name, ok, _ in gate.check_trace(trace, wl.epsilon, wl.delta) if not ok]
    assert failed == ["ledger_within_budget"]


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(listed) == set(WORKLOADS) - {"smoke", "g10-200k-fixed"}
    for name, why in listed.items():
        assert why == WORKLOADS[name].describe() and len(why) <= 200
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
