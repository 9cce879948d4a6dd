import itertools
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import margnet
from margnet.bounds import (SCORE_SENSITIVITY, BoundEntry, BoundReport, chi2_inverse_cdf,
                            combine_measurements, selected_lower_bound)
from margnet.cli import main
from margnet.domain import Domain, encode, load_csv
from margnet.generator import forward, gram_layout, gram_marginals, load_checkpoint
from margnet.marginals import compute_marginal, l1_distance, selection_candidates
from margnet.privacy import expected_noise_l1
from margnet.synthesis import trace_from_json_dict


def run_cli(*argv):
    return main(list(argv))


class RawJSON(str):
    """A bad input's file text, written as it is rather than through json.dumps."""


def _json_text(obj):
    return obj if isinstance(obj, RawJSON) else json.dumps(obj)


# json's decoder ends 100000 nested lists in a RecursionError, not a JSONDecodeError
DEEP_JSON = RawJSON("[" * 100000 + "]" * 100000)


SMALL_SYNTH_FLAGS = ["--iters", "10", "--batch", "16", "--hidden", "16",
                     "--latent", "8", "--c", "12"]


@pytest.fixture(scope="module")
def gauss_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("gauss")
    csv = str(root / "g.csv")
    assert run_cli("gen-gauss", "--dims", "3", "--rows", "400", "--corr", "0.8",
                   "--out", csv, "--seed", "7") == 0
    return csv, str(root / "g.domain.json")


def _child_env():
    """The environment of a child Python that imports this margnet."""
    src = os.path.dirname(os.path.dirname(margnet.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", ["margnet", "margnet.cli"])
def test_import_loads_no_scipy(module):
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = (f"import {module}, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_commands_load_no_numpy_ma(tmp_path):
    # np.median and np.unique import numpy.ma on first use; no command needs it
    code = f"""
import sys
from margnet.cli import main
d = {str(tmp_path)!r} + "/"
small = {SMALL_SYNTH_FLAGS!r}
for argv in [
    ["gen-gauss", "--dims", "4", "--rows", "300", "--corr", "0.8", "--out", d + "g.csv",
     "--seed", "1"],
    ["synth", "--data", d + "g.csv", "--domain", d + "g.domain.json", "--epsilon", "1.0",
     "--out", d + "s.csv", "--seed", "1", *small, "--iters", "1"],
    ["eval", "--real", d + "g.csv", "--synth", d + "s.csv", "--domain", d + "g.domain.json",
     "--seed", "1"],
    ["check", "--trace", d + "s.csv.trace.json", "--checkpoint", d + "s.csv.ckpt",
     "--data", d + "g.csv", "--domain", d + "g.domain.json"],
    ["convert", "--epsilon", "1.0", "--delta", "1e-5"],
]:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_gen_gauss_writes_table_and_domain(gauss_files):
    csv, domain = gauss_files
    with open(csv) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 401
    dom = json.load(open(domain))
    assert [a["name"] for a in dom["attributes"]] == ["x0", "x1", "x2"]
    assert all(a["bins"] == 10 for a in dom["attributes"])


def test_gen_gauss_bad_corr(tmp_path):
    assert run_cli("gen-gauss", "--dims", "3", "--rows", "10", "--corr", "1.5",
                   "--out", str(tmp_path / "x.csv")) == 2


def test_gen_gauss_deterministic(tmp_path, gauss_files):
    csv, _ = gauss_files
    again = str(tmp_path / "again.csv")
    assert run_cli("gen-gauss", "--dims", "3", "--rows", "400", "--corr", "0.8",
                   "--out", again, "--seed", "7") == 0
    assert open(csv, "rb").read() == open(again, "rb").read()


def test_synth_end_to_end(gauss_files, tmp_path):
    csv, domain = gauss_files
    out = str(tmp_path / "synth.csv")
    code = run_cli("synth", "--data", csv, "--domain", domain,
                   "--epsilon", "2.0", "--delta", "1e-5", "--out", out,
                   "--seed", "3", *SMALL_SYNTH_FLAGS)
    assert code == 0
    trace = json.load(open(out + ".trace.json"))
    assert trace["format"] == "margnet-trace-v2"
    assert trace["config"]["seed"] == 3 and "seed" not in trace
    assert (trace["config"]["mode"], trace["config"]["fixed_rounds"]) == ("adaptive", None)
    assert trace["epsilon"] == 2.0
    assert math.fsum(r for _, r in trace["ledger"]) <= trace["rho_budget"]
    with open(out) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "x0,x1,x2"
    # output row count is the rounded private record-count estimate, which
    # should land near the true 400 at this budget
    assert len(lines) - 1 == round(trace["n_estimate"])
    assert abs(len(lines) - 1 - 400) <= 100


def test_synth_missing_domain_flag_exits_2(gauss_files, tmp_path, capsys):
    csv, _ = gauss_files
    with pytest.raises(SystemExit) as ei:
        run_cli("synth", "--data", csv, "--epsilon", "1.0",
                "--out", str(tmp_path / "x.csv"))
    assert ei.value.code == 2


def test_synth_missing_file_exits_1(tmp_path):
    assert run_cli("synth", "--data", str(tmp_path / "no.csv"),
                   "--domain", str(tmp_path / "no.json"),
                   "--epsilon", "1.0", "--out", str(tmp_path / "x.csv")) == 1


def test_synth_fixed_mode_round_count(gauss_files, tmp_path):
    csv, domain = gauss_files
    out = str(tmp_path / "fixed.csv")
    assert run_cli("synth", "--data", csv, "--domain", domain,
                   "--epsilon", "2.0", "--out", out, "--mode", "fixed:7",
                   "--seed", "4", *SMALL_SYNTH_FLAGS) == 0
    trace = json.load(open(out + ".trace.json"))
    assert len(trace["rounds"]) == 7
    assert (trace["config"]["mode"], trace["config"]["fixed_rounds"]) == ("fixed_round", 7)


def test_synth_bad_mode(gauss_files, tmp_path):
    csv, domain = gauss_files
    assert run_cli("synth", "--data", csv, "--domain", domain, "--epsilon", "1.0",
                   "--out", str(tmp_path / "x.csv"), "--mode", "sometimes") == 2


def test_synth_deterministic_outputs(gauss_files, tmp_path):
    csv, domain = gauss_files
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        assert run_cli("synth", "--data", csv, "--domain", domain,
                       "--epsilon", "1.0", "--out", out, "--seed", "99",
                       *SMALL_SYNTH_FLAGS) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    ta = open(a + ".trace.json", "rb").read()
    tb = open(b + ".trace.json", "rb").read()
    assert ta == tb


def test_eval_identity(gauss_files, tmp_path, capsys):
    csv, domain = gauss_files
    out = str(tmp_path / "eval.json")
    assert run_cli("eval", "--real", csv, "--synth", csv, "--domain", domain,
                   "--queries", "30", "--seed", "1", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "fidelity_error=0.000000" in printed
    rep = json.load(open(out))
    assert rep["fidelity_error"] == 0.0
    assert rep["n_queries"] == 30


def test_eval_domain_mismatch_exits_2(gauss_files, tmp_path):
    csv, domain = gauss_files
    # a synthetic file missing a domain attribute cannot be evaluated
    narrow = str(tmp_path / "narrow.csv")
    assert run_cli("gen-gauss", "--dims", "2", "--rows", "50", "--corr", "0.5",
                   "--out", narrow, "--seed", "2") == 0
    assert run_cli("eval", "--real", csv, "--synth", narrow, "--domain", domain) == 2


def test_convert_prints_full_precision(capsys):
    assert run_cli("convert", "--epsilon", "1.0", "--delta", "1e-5") == 0
    assert capsys.readouterr().out == "rho=0.030556595185771585\n"
    assert run_cli("convert", "--epsilon", "1e-3") == 0
    assert capsys.readouterr().out == "rho=1.2015087258987476e-07\n"


def test_convert_round_trip(capsys):
    # the printed rho is the exact double, so it converts back to at most
    # epsilon, short of it by no more than the rho bisection's width
    for epsilon in (1.0, 1e-3, 1e-4):
        assert run_cli("convert", "--epsilon", repr(epsilon), "--delta", "1e-5") == 0
        rho = capsys.readouterr().out.strip().split("=")[1]
        assert run_cli("convert", "--rho", rho, "--delta", "1e-5") == 0
        eps = float(capsys.readouterr().out.strip().split("=")[1])
        assert epsilon * (1 - 1e-8) <= eps <= epsilon, epsilon


def test_convert_both_directions_rejected():
    assert run_cli("convert", "--epsilon", "1.0", "--rho", "0.5", "--delta", "1e-5") == 2
    assert run_cli("convert", "--delta", "1e-5") == 2


def test_check_produces_bound_report(gauss_files, tmp_path, capsys):
    csv, domain = gauss_files
    out = str(tmp_path / "s.csv")
    assert run_cli("synth", "--data", csv, "--domain", domain,
                   "--epsilon", "2.0", "--out", out, "--seed", "5",
                   *SMALL_SYNTH_FLAGS) == 0
    report_path = str(tmp_path / "bounds.json")
    code = run_cli("check", "--trace", out + ".trace.json",
                   "--checkpoint", out + ".ckpt",
                   "--data", csv, "--domain", domain, "--out", report_path)
    assert code == 0
    printed = capsys.readouterr().out
    assert "selected lower bound" in printed
    rep = json.load(open(report_path))
    assert rep["selected_lower"]["bound"] >= 0
    # the rank floor is deterministic: observed error can never fall below it
    assert rep["selected_lower"]["gap"] >= 0
    # one observed selected error, reported in both sections
    assert rep["selected_lower"]["observed"] == rep["selected_upper"]["total_observed"]
    # every unmeasured spec reports a slack field
    measured = {tuple(r["attrs"]) for r in json.load(open(out + ".trace.json"))["rounds"]}
    expected_unmeasured = {(0, 1), (0, 2), (1, 2)} - measured
    got = {tuple(e["attrs"]) for e in rep["unselected"]["per_marginal"]}
    assert got == expected_unmeasured
    for e in rep["unselected"]["per_marginal"]:
        assert "slack" in e
    for e in rep["selected_upper"]["per_marginal"]:
        assert "slack" in e


def test_check_corrupted_checkpoint_exits_1(gauss_files, tmp_path):
    csv, domain = gauss_files
    out = str(tmp_path / "s2.csv")
    assert run_cli("synth", "--data", csv, "--domain", domain,
                   "--epsilon", "1.0", "--out", out, "--seed", "6",
                   *SMALL_SYNTH_FLAGS) == 0
    bad = tmp_path / "bad.ckpt"
    data = bytearray(open(out + ".ckpt", "rb").read())
    data[:8] = b"GARBAGE!"
    bad.write_bytes(bytes(data))
    assert run_cli("check", "--trace", out + ".trace.json", "--checkpoint", str(bad),
                   "--data", csv, "--domain", domain) == 1


def test_synth_undeclared_category_exits_2(tmp_path, capsys):
    domain = tmp_path / "d.json"
    domain.write_text(json.dumps({"attributes": [
        {"name": "c", "type": "categorical", "values": ["a", "b"]},
        {"name": "x", "type": "numeric", "min": 0, "max": 1, "bins": 2},
    ]}))
    data = tmp_path / "t.csv"
    data.write_text("c,x\na,0.1\nz,0.7\n")
    assert run_cli("synth", "--data", str(data), "--domain", str(domain),
                   "--epsilon", "1.0", "--out", str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert "'z'" in err
    assert len(err.strip().splitlines()) == 1


def test_repeated_domain_column_exits_2(gauss_files, tmp_path, capsys):
    csv, domain = gauss_files
    bad = tmp_path / "bad.csv"
    lines = open(csv).read().splitlines()
    bad.write_text("\n".join(line + "," + line.split(",")[0] for line in lines) + "\n")
    out = tmp_path / "x.csv"
    assert run_cli("synth", "--data", str(bad), "--domain", domain, "--epsilon", "1.0",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: column 'x0' appears more than once in the CSV header"]
    assert sorted(os.listdir(tmp_path)) == ["bad.csv"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_exits_2(gauss_files, tmp_path, capsys, cell):
    csv, domain = gauss_files
    bad = tmp_path / "bad.csv"
    lines = open(csv).read().splitlines()
    lines[3] = ",".join([cell] + lines[3].split(",")[1:])
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("synth", "--data", str(bad), "--domain", domain, "--epsilon", "1.0",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("eval", "--real", csv, "--synth", str(bad), "--domain", domain) == 2
    assert run_cli("check", "--trace", str(tmp_path / "t.json"),
                   "--checkpoint", str(tmp_path / "c.ckpt"),
                   "--data", str(bad), "--domain", domain) == 2
    err = capsys.readouterr().err
    assert err.count(f"cannot parse '{cell}'") == 3


@pytest.fixture(scope="module")
def finished_run(gauss_files, tmp_path_factory):
    csv, domain = gauss_files
    out = str(tmp_path_factory.mktemp("run") / "s.csv")
    assert run_cli("synth", "--data", csv, "--domain", domain,
                   "--epsilon", "1.0", "--out", out, "--seed", "8",
                   *SMALL_SYNTH_FLAGS) == 0
    return out + ".trace.json", out + ".ckpt"


def _first_round(field, value):
    def mangle(trace):
        trace["rounds"][0][field] = value
        return trace
    return mangle


def _last_round(field, value):
    def mangle(trace):
        trace["rounds"][-1][field] = value
        return trace
    return mangle


def _first_count(value):
    def mangle(trace):
        trace["rounds"][0]["counts"][0] = value
        return trace
    return mangle


def _one_way(trace):
    entry = trace["rounds"][-1]
    entry["attrs"] = entry["attrs"][:1]
    entry["counts"] = entry["counts"][:10]  # a one-way marginal's 10 cells
    return trace


def _swap_first_rounds(trace):
    trace["rounds"][:2] = trace["rounds"][1::-1]
    return trace


MALFORMED_TRACES = {
    "counts-value0": _first_round("counts", [1.0, 2.0]),
    "attrs-5": _first_round("attrs", 5),
    "list": lambda t: [1, 2],
    "string": lambda t: "x",
    "n-estimate-str": lambda t: {**t, "n_estimate": "abc"},
    "last-rho-s-0": _last_round("rho_s", 0),
    "last-rho-s-null": _last_round("rho_s", None),
    "last-rho-s-negative": _last_round("rho_s", -1),
    "last-rho-s-true": _last_round("rho_s", True),
    "last-rho-m-nan": _last_round("rho_m", math.nan),
    "measurement-rho-m-0": _first_round("rho_m", 0),
    "measurement-sigma-inf": _first_round("sigma", math.inf),
    "count-nan": _first_count(math.nan),
    "count-inf": _first_count(math.inf),
    "round-one-way": _one_way,
    "round-attrs-reversed": _last_round("attrs", [2, 0]),
    "warmup-attrs-float": lambda t: {**t, "warmup": [{**t["warmup"][0], "attrs": [0.5]}]},
    "format-v1": lambda t: {**t, "format": "margnet-trace-v1"},
    "rounds-out-of-order": _swap_first_rounds,
    "round-number-true": _first_round("round", True),
    "doubled-int": _last_round("doubled", 0),
    "nested-100000": lambda t: DEEP_JSON,
}


def _check_with_trace(gauss_files, finished_run, tmp_path, trace_obj):
    """Run check on a rewritten trace; returns (exit code, report path)."""
    csv, domain = gauss_files
    _, ckpt = finished_run
    bad = tmp_path / "bad.trace.json"
    bad.write_text(_json_text(trace_obj))  # writes NaN and Infinity, as json.loads reads them
    report = tmp_path / "bounds.json"
    return run_cli("check", "--trace", str(bad), "--checkpoint", ckpt,
                   "--data", csv, "--domain", domain, "--out", str(report)), report


@pytest.mark.parametrize("case", list(MALFORMED_TRACES))
def test_check_malformed_trace_exits_2(gauss_files, finished_run, tmp_path, capsys, case):
    trace = MALFORMED_TRACES[case](json.load(open(finished_run[0])))
    code, report = _check_with_trace(gauss_files, finished_run, tmp_path, trace)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed trace: ")
    assert len(err.strip().splitlines()) == 1
    assert not report.exists()


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory):
    """A finished run over bins 2, 2, 8, 3, 12: (csv, domain, trace, checkpoint)."""
    root = tmp_path_factory.mktemp("mixed")
    csv, domain = str(root / "m.csv"), root / "m.domain.json"
    assert run_cli("gen-gauss", "--dims", "5", "--rows", "400", "--corr", "0.8",
                   "--out", csv, "--seed", "1") == 0
    dom = json.loads(domain.read_text())
    for attr, bins in zip(dom["attributes"], [2, 2, 8, 3, 12]):
        attr["bins"] = bins
    domain.write_text(json.dumps(dom))
    out = str(root / "s.csv")
    assert run_cli("synth", "--data", csv, "--domain", str(domain), "--epsilon", "1.0",
                   "--out", out, "--seed", "1", *SMALL_SYNTH_FLAGS) == 0
    return csv, str(domain), out + ".trace.json", out + ".ckpt"


@pytest.mark.parametrize("run", ["finished_run", "mixed_run"])
def test_check_reports_each_candidate_once(gauss_files, tmp_path, request, run):
    # every pair is either selected (some round measured it) or unselected
    if run == "finished_run":
        csv, domain, trace, ckpt = *gauss_files, *request.getfixturevalue(run)
    else:
        csv, domain, trace, ckpt = request.getfixturevalue(run)
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace, "--checkpoint", ckpt, "--data", csv,
                   "--domain", domain, "--out", str(report)) == 0
    rep = json.loads(report.read_text())
    listed = sorted(tuple(e["attrs"]) for section in ("selected_upper", "unselected")
                    for e in rep[section]["per_marginal"])
    d = len(json.loads(Path(domain).read_text())["attributes"])
    assert listed == list(itertools.combinations(range(d), 2))
    assert rep["selected_upper"]["per_marginal"] and rep["unselected"]["per_marginal"]


def test_check_trace_pair_outside_the_candidates_exits_2(mixed_run, tmp_path, capsys,
                                                         monkeypatch):
    # with the cap at 95 cells, the 96-cell pair (2, 4) is no selection candidate
    csv, domain, trace_path, ckpt = mixed_run
    monkeypatch.setattr(margnet.marginals, "MAX_CANDIDATE_CELLS", 95)
    trace = json.load(open(trace_path))
    last = trace["rounds"][-1]
    last["attrs"], last["counts"] = [2, 4], [0.0] * 96
    bad, report = tmp_path / "bad.trace.json", tmp_path / "bounds.json"
    bad.write_text(json.dumps(trace))
    assert run_cli("check", "--trace", str(bad), "--checkpoint", ckpt, "--data", csv,
                   "--domain", domain, "--out", str(report)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed trace: round {last['round']} measures [2, 4], which is not a "
        "selection candidate\n")
    assert not report.exists()


def old_check_report(csv, domain_path, trace_path, ckpt, delta):
    """`check`'s report text as it was built before the bounds shared one
    candidate layout: a layout and a forward pass per bound, and a gather and
    an `l1_distance` per unmeasured marginal. Kept as an oracle."""
    def soft_marginals(model, specs):
        layout = gram_layout(model, [s.attrs for s in specs])
        return gram_marginals(forward(model), trace.n_estimate, layout)

    domain = Domain.load(domain_path)
    ds = encode(load_csv(csv, domain), domain)
    model, prev_model = load_checkpoint(ckpt)
    trace = trace_from_json_dict(json.load(open(trace_path)), domain.cards)
    measurements = [r.measurement for r in trace.rounds]
    order = list(dict.fromkeys(m.spec for m in measurements))
    exact = {s.attrs: compute_marginal(ds, s) for s in order}
    lower = selected_lower_bound(list(exact.values()), model.batch_size)

    soft = soft_marginals(model, order)
    upper = BoundReport(deltas=[delta] * len(order))
    for spec in order:
        combined, sigma_bar = combine_measurements(
            [m for m in measurements if m.spec.attrs == spec.attrs])
        est = soft.marginal(spec).counts
        tail = sigma_bar ** 2 * chi2_inverse_cdf(1.0 - delta, spec.n_cells)
        diff = exact[spec.attrs].counts - est
        upper.entries.append(BoundEntry(spec.attrs, float((diff * diff).sum()),
                                        2.0 * (float(((combined - est) ** 2).sum()) + tail)))

    final = trace.rounds[-1]
    theta = final.measurement.spec
    candidates = selection_candidates(ds.cards)
    measured = {r.attrs for r in trace.rounds}
    unmeasured = [s for s in candidates if s.attrs not in measured]
    soft_final = soft_marginals(model, unmeasured)
    soft_prev = soft_marginals(prev_model, unmeasured + [theta])
    theta_err = l1_distance(soft_prev.marginal(theta), compute_marginal(ds, theta))
    unsel = BoundReport(deltas=[delta])
    for spec in unmeasured:
        b_ik = (theta_err + expected_noise_l1(spec.n_cells - theta.n_cells, final.rho_m)
                + SCORE_SENSITIVITY * math.log(len(candidates) / delta)
                / math.sqrt(2.0 * final.rho_s))
        est = soft_final.marginal(spec)
        drift = l1_distance(soft_prev.marginal(spec), est)
        unsel.entries.append(BoundEntry(spec.attrs, l1_distance(est, compute_marginal(ds, spec)),
                                        b_ik + drift))

    observed = upper.total_observed
    report = {
        "selected_lower": {"bound": lower, "observed": observed, "gap": observed - lower,
                           "batch_size": model.batch_size},
        "selected_upper": upper.to_json_dict(),
        "unselected": unsel.to_json_dict(),
    }
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("run", ["finished_run", "mixed_run"])
def test_check_reads_one_layout_in_two_forward_passes(gauss_files, tmp_path, request,
                                                      monkeypatch, run):
    if run == "finished_run":
        csv, domain, trace, ckpt = *gauss_files, *request.getfixturevalue(run)
    else:
        csv, domain, trace, ckpt = request.getfixturevalue(run)
    want = old_check_report(csv, domain, trace, ckpt, 0.05)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(margnet.generator, "gram_layout",
                        counting("gram_layout", margnet.generator.gram_layout))
    monkeypatch.setattr(margnet.cli, "forward", counting("forward", margnet.cli.forward))
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace, "--checkpoint", ckpt, "--data", csv,
                   "--domain", domain, "--out", str(report)) == 0
    assert sorted(calls) == ["forward", "forward", "gram_layout"]
    assert report.read_text() == want


TRACE_FIELDS = [("n_estimate",)] + [
    (section, field) for section, fields in [
        ("rounds", ("round", "rho_s", "rho_m", "sigma", "attrs", "counts")),
        ("warmup", ("rho_m", "sigma", "attrs", "counts")),
    ] for field in fields]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(TRACE_FIELDS), index=st.integers(0, 1000),
       value=st.sampled_from([0, -1, math.nan, math.inf, "x", None, True, []]))
def test_check_rejects_any_bad_trace_field(gauss_files, finished_run, tmp_path, capsys,
                                           where, index, value):
    trace = json.load(open(finished_run[0]))
    if len(where) == 1:
        trace[where[0]] = value
    else:
        entries = trace[where[0]]
        entries[index % len(entries)][where[1]] = value
    capsys.readouterr()
    code, report = _check_with_trace(gauss_files, finished_run, tmp_path, trace)
    assert code in (1, 2)
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not report.exists()


@pytest.mark.parametrize("mangle,message", [
    (lambda h: {k: v for k, v in h.items() if k != "hidden"}, "checkpoint header lacks hidden"),
    (lambda h: [h], "not a JSON object"),
    (lambda h: {**h, "batch_size": "x"}, "batch_size must be a positive int"),
    (lambda h: {**h, "latent_dim": -3}, "latent_dim must be a positive int"),
    (lambda h: {**h, "cards": [3.5]}, "cards must be a non-empty list of positive ints"),
    (lambda h: {**h, "hidden": []}, "hidden must be a non-empty list of positive ints"),
    (lambda h: {**h, "hidden": [0]}, "hidden must be a non-empty list of positive ints"),
    (lambda h: {**h, "hidden": [2.5]}, "hidden must be a non-empty list of positive ints"),
    (lambda h: {**h, "hidden": "x"}, "hidden must be a non-empty list of positive ints"),
    (lambda h: {**h, "dtype": "float16"}, "dtype must be one of float32, float64"),
    (lambda h: {k: v for k, v in h.items() if k != "dtype"}, "checkpoint header lacks dtype"),
    (lambda h: DEEP_JSON, "corrupt checkpoint header: maximum recursion depth exceeded"),
], ids=["missing-key", "not-an-object", "batch-size-str", "latent-dim-negative",
        "cards-float", "hidden-empty", "hidden-zero", "hidden-float", "hidden-str",
        "dtype-float16", "dtype-missing", "nested-100000"])
def test_check_malformed_checkpoint_header_exits_1(gauss_files, finished_run, tmp_path,
                                                   capsys, mangle, message):
    csv, domain = gauss_files
    trace_path, ckpt = finished_run
    data = open(ckpt, "rb").read()
    (hlen,) = struct.unpack("<Q", data[8:16])
    blob = _json_text(mangle(json.loads(data[16:16 + hlen]))).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace_path, "--checkpoint", str(bad),
                   "--data", csv, "--domain", domain, "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1
    assert "malformed domain file" not in err
    assert not report.exists()


def test_check_version_1_checkpoint_exits_1(gauss_files, finished_run, tmp_path, capsys):
    csv, domain = gauss_files
    trace_path, ckpt = finished_run
    bad = tmp_path / "v1.ckpt"
    bad.write_bytes(_with_header(open(ckpt, "rb").read(), lambda h: {**h, "version": 1}))
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace_path, "--checkpoint", str(bad),
                   "--data", csv, "--domain", domain, "--out", str(report)) == 1
    assert capsys.readouterr().err == "error: unsupported checkpoint version: 1\n"
    assert not report.exists()


def test_check_non_finite_checkpoint_weight_exits_1(gauss_files, finished_run, tmp_path,
                                                    capsys):
    csv, domain = gauss_files
    trace_path, ckpt = finished_run
    data = bytearray(open(ckpt, "rb").read())
    (hlen,) = struct.unpack("<Q", data[8:16])
    data[16 + hlen:20 + hlen] = struct.pack("<f", math.nan)  # the first weight, a float32
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace_path, "--checkpoint", str(bad),
                   "--data", csv, "--domain", domain, "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint holds a value that is not a finite float32\n"
    assert not report.exists()


def test_check_checkpoint_cards_mismatch_exits_2(gauss_files, finished_run, tmp_path, capsys):
    # a checkpoint from a wider run must not be read against this domain's segments
    csv, domain = gauss_files
    trace_path, _ = finished_run
    wide = str(tmp_path / "wide.csv")
    assert run_cli("gen-gauss", "--dims", "4", "--rows", "200", "--corr", "0.8",
                   "--out", wide, "--seed", "2") == 0
    out = str(tmp_path / "wide_synth.csv")
    assert run_cli("synth", "--data", wide, "--domain", str(tmp_path / "wide.domain.json"),
                   "--epsilon", "1.0", "--out", out, "--seed", "3", *SMALL_SYNTH_FLAGS) == 0
    capsys.readouterr()
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace_path, "--checkpoint", out + ".ckpt",
                   "--data", csv, "--domain", domain, "--out", str(report)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "(10, 10, 10, 10)" in err and "(10, 10, 10)" in err
    assert not report.exists()


def _numeric(**fields):
    """A one-attribute numeric domain with `fields` replaced."""
    return {"attributes": [{"name": "x0", "type": "numeric", "min": 0, "max": 1, "bins": 3,
                            **fields}]}


BAD_DOMAINS = {
    "attributes-int": {"attributes": 5},
    "top-level-list": [1, 2],
    "attribute-int": {"attributes": [5]},
    "values-int": {"attributes": [{"name": "x0", "type": "categorical", "values": 7}]},
    "bins-list": {"attributes": [{"name": "x0", "type": "numeric", "min": 0, "max": 1,
                                  "bins": [3]}]},
    "attributes-empty": {"attributes": []},
    "duplicate-name": {"attributes": [
        {"name": "x0", "type": "numeric", "min": 0, "max": 1, "bins": 3},
        {"name": "x0", "type": "categorical", "values": ["a", "b"]}]},
    # JSON reads 1e400 as inf; json.dumps writes inf as Infinity, which reads back alike
    "bins-1e400": _numeric(bins=math.inf),
    "bins-2.5": _numeric(bins=2.5),
    "bins-true": _numeric(bins=True),
    "bins-string": _numeric(bins="7"),
    "max-string-inf": _numeric(max="inf"),
    "max-1e400": _numeric(max=math.inf),
    "min-nan": _numeric(min=math.nan),
    # bins need min < max
    "min-equals-max": _numeric(min=1, max=1),
    "max-below-min": _numeric(min=1, max=0),
    # a name must match a CSV header cell, which is always a string
    "name-int": _numeric(name=0),
    # a label is a CSV cell too: null must not become the label "None"
    "value-null": {"attributes": [{"name": "x0", "type": "categorical", "values": ["a", None]}]},
    "nested-100000": DEEP_JSON,
}


def _command(cmd, f, domain):
    return {
        "synth": ["synth", "--data", f.csv, "--domain", domain, "--epsilon", "1.0",
                  "--out", f.out("s.csv"), *SMALL_SYNTH_FLAGS],
        "eval": ["eval", "--real", f.csv, "--synth", f.csv, "--domain", domain,
                 "--out", f.out("e.json")],
        "check": ["check", "--trace", f.trace, "--checkpoint", f.ckpt, "--data", f.csv,
                  "--domain", domain, "--out", f.out("b.json")],
    }[cmd]


BAD_INPUTS = {
    **{f"{cmd}-domain-{name}": (lambda f, cmd=cmd, obj=obj: _command(cmd, f, f.domain_file(obj)))
       for name, obj in BAD_DOMAINS.items() for cmd in ("synth", "eval", "check")},
    "eval-two-attributes": lambda f: ["eval", "--real", f.csv2, "--synth", f.csv2,
                                      "--domain", f.domain2, "--out", f.out("e.json")],
    "check-delta-1.5": lambda f: _command("check", f, f.domain) + ["--delta", "1.5"],
    "eval-queries-0": lambda f: _command("eval", f, f.domain) + ["--queries", "0"],
    "eval-queries-negative": lambda f: _command("eval", f, f.domain) + ["--queries", "-3"],
    "synth-hidden-0": lambda f: _command("synth", f, f.domain) + ["--hidden", "0"],
    "synth-latent-0": lambda f: _command("synth", f, f.domain) + ["--latent", "0"],
    "synth-c-nan": lambda f: _command("synth", f, f.domain) + ["--c", "nan"],
    "synth-lr-nan": lambda f: _command("synth", f, f.domain) + ["--lr", "nan"],
    "synth-lr-0": lambda f: _command("synth", f, f.domain) + ["--lr", "0"],
    "synth-iters-0": lambda f: _command("synth", f, f.domain) + ["--iters", "0"],
    "synth-iters-negative": lambda f: _command("synth", f, f.domain) + ["--iters", "-1"],
    "convert-epsilon-nan": lambda f: ["convert", "--epsilon", "nan"],
    "convert-rho-nan": lambda f: ["convert", "--rho", "nan"],
    "gen-gauss-rows-0": lambda f: ["gen-gauss", "--dims", "3", "--rows", "0", "--corr", "0.5",
                                   "--out", f.out("g.csv")],
    "gen-gauss-bins-0": lambda f: ["gen-gauss", "--dims", "3", "--rows", "10", "--corr", "0.5",
                                   "--bins", "0", "--out", f.out("g.csv")],
}


@pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(gauss_files, finished_run, tmp_path, capsys, case):
    # a malformed domain or an out-of-range value is a configuration error:
    # exit 2, one stderr line, and nothing written
    csv, domain = gauss_files
    trace, ckpt = finished_run
    csv2 = str(tmp_path / "two.csv")
    assert run_cli("gen-gauss", "--dims", "2", "--rows", "50", "--corr", "0.5",
                   "--out", csv2, "--seed", "1") == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def domain_file(obj):
        path = tmp_path / "bad.domain.json"
        path.write_text(_json_text(obj))
        return str(path)

    f = SimpleNamespace(csv=csv, domain=domain, csv2=csv2, domain2=str(tmp_path / "two.domain.json"),
                        trace=trace, ckpt=ckpt, out=lambda name: str(out_dir / name),
                        domain_file=domain_file)
    capsys.readouterr()
    assert run_cli(*BAD_INPUTS[case](f)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    if "-domain-" in case:
        assert err.startswith("error: malformed domain file: ")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("cmd", ["synth", "eval", "check"])
def test_domain_too_large_to_allocate_exits_1(gauss_files, finished_run, tmp_path, capsys, cmd):
    # 10**15 bins is a well-formed domain whose bin edges no host can hold:
    # the allocation is refused at once and ends like any other I/O failure
    csv, domain = gauss_files
    trace, ckpt = finished_run
    bad = tmp_path / "huge.domain.json"
    bad.write_text(json.dumps(_numeric(bins=10**15)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    f = SimpleNamespace(csv=csv, trace=trace, ckpt=ckpt, out=lambda name: str(out_dir / name))
    capsys.readouterr()
    assert run_cli(*_command(cmd, f, str(bad))) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("where", ["header", "row"])
@pytest.mark.parametrize("cmd", ["synth", "eval"])
def test_csv_field_past_the_csv_limit_exits_2(gauss_files, tmp_path, capsys, cmd, where):
    # the csv module reads a field of at most 131072 characters; a longer one
    # in the header, or in a row the cell-by-cell rescan reads, names its row
    csv, domain = gauss_files
    lines = Path(csv).read_text().splitlines()
    long = "9" * 140_000
    if where == "header":
        lines[0] += "," + long
    else:
        lines[3] = ",".join([long] + lines[3].split(",")[1:])
    bad = tmp_path / "long.csv"
    bad.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    f = SimpleNamespace(csv=str(bad), trace=None, ckpt=None, out=lambda name: str(out_dir / name))
    capsys.readouterr()
    assert run_cli(*_command(cmd, f, domain)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert ("the header" if where == "header" else "row 2") in err and "field limit" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("argv,code", [
    (["synth", "--data", "{csv}", "--domain", "{domain}", "--epsilon", "inf",
      "--out", "{out}/s.csv"], 2),
    (["convert", "--epsilon", "inf"], 2),
    (["convert", "--epsilon", "1e9"], 0),
    (["convert", "--rho", "1e11"], 0),
], ids=["synth-epsilon-inf", "convert-epsilon-inf", "convert-epsilon-1e9", "convert-rho-1e11"])
def test_huge_privacy_parameters_end(gauss_files, tmp_path, argv, code):
    # an infinite or huge budget once sent a bisection into an endless loop,
    # so these run in a child process that a timeout can stop
    csv, domain = gauss_files
    argv = [a.format(csv=csv, domain=domain, out=tmp_path) for a in argv]
    done = subprocess.run([sys.executable, "-m", "margnet.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert len(done.stderr.strip().splitlines()) == (1 if code else 0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--trace", "--checkpoint"])
def test_synth_failed_write_leaves_no_file(gauss_files, tmp_path, capsys, flag):
    # one output path is a directory or lies in a missing one: exit 1, and
    # neither the other outputs nor any .tmp file is left behind
    csv, domain = gauss_files
    out = tmp_path / "out"
    out.mkdir()
    (out / "adir").mkdir()
    paths = {"--out": str(out / "s.csv"), "--trace": str(out / "s.trace.json"),
             "--checkpoint": str(out / "s.ckpt")}
    for bad in (str(out / "adir"), str(out / "missing" / "x")):
        capsys.readouterr()
        argv = [a for k, v in {**paths, flag: bad}.items() for a in (k, v)]
        assert run_cli("synth", "--data", csv, "--domain", domain, "--epsilon", "1.0",
                       "--seed", "2", *argv, *SMALL_SYNTH_FLAGS) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert sorted(p.name for p in out.iterdir()) == ["adir"]


@pytest.mark.parametrize("which", ["domain", "trace"])
def test_check_non_json_file_exits_2(gauss_files, finished_run, tmp_path, capsys, which):
    csv, domain = gauss_files
    trace, ckpt = finished_run
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    files = {"domain": domain, "trace": trace, which: str(bad)}
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", files["trace"], "--checkpoint", ckpt, "--data", csv,
                   "--domain", files["domain"], "--out", str(report)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: malformed {which}")
    assert not report.exists()


@pytest.mark.parametrize("error,code,message", [
    (OSError("disk gone"), 1, "error: disk gone"),
    (margnet.errors.CheckpointError("bad header"), 1, "error: bad header"),
    (margnet.errors.InsufficientBudget("too little"), 3, "error: infeasible budget: too little"),
    (ValueError("out of range"), 2, "error: out of range"),
    (MemoryError("Unable to allocate 8 PiB"), 1, "error: Unable to allocate 8 PiB"),
    (MemoryError(), 1, "error: out of memory"),
], ids=["os", "checkpoint", "budget", "value", "memory", "memory-no-message"])
def test_main_maps_error_class_to_exit_code(monkeypatch, capsys, error, code, message):
    def fail(args):
        raise error
    monkeypatch.setattr(margnet.cli, "cmd_convert", fail)
    assert run_cli("convert", "--epsilon", "1.0") == code
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("error", [KeyError("k"), TypeError("t")])
def test_main_leaves_other_errors_to_their_traceback(monkeypatch, error):
    # a KeyError or TypeError outside a file parser is a bug, not bad input
    def fail(args):
        raise error
    monkeypatch.setattr(margnet.cli, "cmd_convert", fail)
    with pytest.raises(type(error)):
        run_cli("convert", "--epsilon", "1.0")


# ------------------------------------------------------------ output paths

COLLISIONS = {
    # (command, the paths given to flags, the start of the error's subject)
    "synth-out-is-data": ("synth", {"--out": "g.csv"}, "--out and --data"),
    "synth-checkpoint-is-domain": ("synth", {"--checkpoint": "g.domain.json"},
                                   "--checkpoint and --domain"),
    "synth-trace-is-out": ("synth", {"--trace": "o.csv"}, "--trace and --out"),
    "eval-out-is-real": ("eval", {"--out": "g.csv"}, "--out and --real"),
    "check-out-is-data": ("check", {"--out": "g.csv"}, "--out and --data"),
    # an output is first written to PATH.tmp, then renamed to PATH
    "synth-out-temp-is-data": ("synth", {"--data": "g.csv.tmp", "--out": "g.csv"},
                               "--out's temp file and --data"),
    "synth-trace-temp-is-out": ("synth", {"--out": "a.tmp", "--trace": "a"},
                                "--trace's temp file and --out"),
    "eval-out-temp-is-real": ("eval", {"--real": "g.csv.tmp", "--synth": "g.csv.tmp",
                                       "--out": "g.csv"}, "--out's temp file and --real"),
    "check-out-temp-is-data": ("check", {"--data": "g.csv.tmp", "--out": "g.csv"},
                               "--out's temp file and --data"),
}


@pytest.mark.parametrize("case", list(COLLISIONS))
def test_output_path_naming_another_path_exits_2(gauss_files, finished_run, tmp_path, capsys,
                                                 case):
    # checked before anything is read: no input is replaced and nothing is written
    cmd, given, subject = COLLISIONS[case]
    for name, src in zip(["g.csv", "g.csv.tmp", "g.domain.json", "s.trace.json", "s.ckpt"],
                         [gauss_files[0], *gauss_files, *finished_run]):
        shutil.copyfile(src, tmp_path / name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    flags = {
        "synth": {"--data": "g.csv", "--domain": "g.domain.json", "--out": "o.csv"},
        "eval": {"--real": "g.csv", "--synth": "g.csv", "--domain": "g.domain.json",
                 "--out": "e.json"},
        "check": {"--trace": "s.trace.json", "--checkpoint": "s.ckpt", "--data": "g.csv",
                  "--domain": "g.domain.json", "--out": "b.json"},
    }[cmd] | given
    argv = [cmd] + [a for k, v in flags.items() for a in (k, str(tmp_path / v))]
    if cmd == "synth":
        argv += ["--epsilon", "1.0", "--seed", "1", *SMALL_SYNTH_FLAGS]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{subject} name the same file" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_output_path_through_a_link_is_the_same_file(gauss_files, tmp_path, capsys):
    csv, domain = gauss_files
    data = tmp_path / "g.csv"
    data.write_bytes(open(csv, "rb").read())
    os.link(data, tmp_path / "hard.csv")
    os.symlink(data, tmp_path / "soft.csv")
    for out in ("hard.csv", "soft.csv"):
        assert run_cli("synth", "--data", str(data), "--domain", domain, "--epsilon", "1.0",
                       "--out", str(tmp_path / out), *SMALL_SYNTH_FLAGS) == 2
    assert data.read_bytes() == open(csv, "rb").read()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "hard.csv", "soft.csv"]


# -------------------------------------------------------------- checkpoints

def _with_header(data, edit):
    (hlen,) = struct.unpack("<Q", data[8:16])
    blob = json.dumps(edit(json.loads(data[16:16 + hlen]))).encode()
    return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:]


def _wide_hidden_layer(header):
    # a valid header whose one hidden layer is 2**54 wide, so its first array
    # alone needs latent_dim * 2**54 * 4 >= 2**56 bytes of float32
    return {**header, "hidden": [2**54]}


@pytest.mark.parametrize("mangle,message", [
    (lambda d: d[:8] + struct.pack("<Q", 2**62) + d[16:], "runs past the end"),
    (lambda d: d[:8] + struct.pack("<Q", 2**64 - 1) + d[16:], "runs past the end"),
    (lambda d: _with_header(d, _wide_hidden_layer), "size mismatch"),
    (lambda d: _with_header(d, lambda h: {**h, "batch_size": h["batch_size"] - 1}),
     "size mismatch"),
    (lambda d: d + bytes(8), "size mismatch"),
], ids=["header-2**62", "header-2**64-1", "hidden-2**54", "batch-size-short", "trailing-bytes"])
def test_check_checkpoint_sizes_must_match_the_file(gauss_files, finished_run, tmp_path, capsys,
                                                    mangle, message):
    # the sizes are checked against the file before any read, so a huge one
    # never reaches an allocation and a short or padded file is not loaded
    csv, domain = gauss_files
    trace, ckpt = finished_run
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mangle(open(ckpt, "rb").read()))
    report = tmp_path / "bounds.json"
    assert run_cli("check", "--trace", trace, "--checkpoint", str(bad), "--data", csv,
                   "--domain", domain, "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert message in err
    assert not report.exists()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_check_survives_a_damaged_checkpoint(gauss_files, finished_run, tmp_path, capsys, data):
    # a checkpoint cut at a random offset, or with random bytes over a span of
    # its header length, header JSON or arrays, ends with a documented code
    csv, domain = gauss_files
    trace, ckpt = finished_run
    blob = open(ckpt, "rb").read()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    where = data.draw(st.sampled_from(["cut", "length", "header", "arrays"]))
    if where == "cut":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        lo, hi = {"length": (8, 16), "header": (16, 16 + hlen),
                  "arrays": (16 + hlen, len(blob))}[where]
        start = data.draw(st.integers(lo, hi - 1))
        junk = data.draw(st.binary(min_size=1, max_size=hi - start))
        blob = blob[:start] + junk + blob[start + len(junk):]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    report = tmp_path / "bounds.json"
    if report.exists():
        report.unlink()
    capsys.readouterr()
    code = run_cli("check", "--trace", trace, "--checkpoint", str(bad), "--data", csv,
                   "--domain", domain, "--out", str(report))
    assert code in (0, 1, 2)
    if code:
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]


# ------------------------------------------------------------------ fuzzing

@pytest.fixture(scope="module")
def small_gauss(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    csv = str(root / "g.csv")
    assert run_cli("gen-gauss", "--dims", "3", "--rows", "60", "--corr", "0.8",
                   "--out", csv, "--seed", "3") == 0
    return (root / "g.csv").read_bytes(), json.loads((root / "g.domain.json").read_text())


# no mid-sized count such as 10**8 bins, which a host might start to allocate;
# 10**15 is refused at once
DOMAIN_VALUES = [0, -1, 2.5, math.inf, math.nan, "x", None, True, [], 10**15]
JUNK_BYTES = st.lists(st.sampled_from([b"\x00", b'"', b",", b"\r\n", b"\xff", b"9", b"e"])
                      | st.binary(min_size=1, max_size=3), min_size=1, max_size=12).map(b"".join)


@pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_csv_or_domain_ends_with_a_documented_code(small_gauss, tmp_path, capsys, data):
    # a table cut at a random offset or with junk over a random span, or a
    # domain with one field replaced, ends with exit 0, 1 or 2; a failure
    # prints one line and leaves no output and no temp file
    blob, domain = small_gauss
    damage = data.draw(st.sampled_from(["cut", "junk", "domain"]))
    if damage == "cut":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "junk":
        start = data.draw(st.integers(0, len(blob) - 1))
        junk = data.draw(JUNK_BYTES)
        blob = blob[:start] + junk + blob[start + len(junk):]
    else:
        domain = json.loads(json.dumps(domain))
        attr = data.draw(st.sampled_from(domain["attributes"]))
        attr[data.draw(st.sampled_from(sorted(attr)))] = data.draw(st.sampled_from(DOMAIN_VALUES))
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    (work / "g.csv").write_bytes(blob)
    (work / "g.domain.json").write_text(json.dumps(domain))
    csv, dom = str(work / "g.csv"), str(work / "g.domain.json")
    for argv in (["synth", "--data", csv, "--domain", dom, "--epsilon", "1.0", "--seed", "1",
                  "--out", str(work / "out" / "s.csv"), "--iters", "1", "--batch", "8",
                  "--hidden", "8", "--latent", "4"],
                 ["eval", "--real", csv, "--synth", csv, "--domain", dom, "--seed", "1",
                  "--out", str(work / "out" / "e.json")]):
        shutil.rmtree(work / "out")
        (work / "out").mkdir()
        capsys.readouterr()
        code = run_cli(*argv)
        assert code in (0, 1, 2)
        if code:
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
            assert list((work / "out").iterdir()) == []
            assert sorted(p.name for p in work.iterdir()) == ["g.csv", "g.domain.json", "out"]
