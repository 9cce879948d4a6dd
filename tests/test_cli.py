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
from margnet.cli import main


def run_cli(*argv):
    return main(list(argv))


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
    assert trace["format"] == "margnet-trace-v1"
    assert trace["config"]["seed"] == 3
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


def _first_measurement(field, value):
    def mangle(trace):
        trace["measurements"][0][field] = value
        return trace
    return mangle


def _last_round(field, value):
    def mangle(trace):
        trace["rounds"][-1][field] = value
        return trace
    return mangle


def _first_count(value):
    def mangle(trace):
        trace["measurements"][0]["counts"][0] = value
        return trace
    return mangle


def _one_way(trace, section):
    entry = trace[section][-1]
    entry["attrs"] = entry["attrs"][:1]
    if "counts" in entry:
        entry["counts"] = entry["counts"][:10]  # a one-way marginal's 10 cells
    return trace


MALFORMED_TRACES = {
    "counts-value0": _first_measurement("counts", [1.0, 2.0]),
    "attrs-5": _first_measurement("attrs", 5),
    "list": lambda t: [1, 2],
    "string": lambda t: "x",
    "n-estimate-str": lambda t: {**t, "n_estimate": "abc"},
    "last-rho-s-0": _last_round("rho_s", 0),
    "last-rho-s-null": _last_round("rho_s", None),
    "last-rho-s-negative": _last_round("rho_s", -1),
    "last-rho-s-true": _last_round("rho_s", True),
    "last-rho-m-nan": _last_round("rho_m", math.nan),
    "measurement-rho-m-0": _first_measurement("rho_m", 0),
    "measurement-sigma-inf": _first_measurement("sigma", math.inf),
    "count-nan": _first_count(math.nan),
    "count-inf": _first_count(math.inf),
    "round-one-way": lambda t: _one_way(t, "rounds"),
    "round-attrs-reversed": _last_round("attrs", [2, 0]),
    "measurement-one-way": lambda t: _one_way(t, "measurements"),
    "warmup-attrs-float": lambda t: {**t, "warmup": [{**t["warmup"][0], "attrs": [0.5]}]},
}


def _check_with_trace(gauss_files, finished_run, tmp_path, trace_obj):
    """Run check on a rewritten trace; returns (exit code, report path)."""
    csv, domain = gauss_files
    _, ckpt = finished_run
    bad = tmp_path / "bad.trace.json"
    bad.write_text(json.dumps(trace_obj))  # writes NaN and Infinity, as json.loads reads them
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


TRACE_FIELDS = [("n_estimate",)] + [
    (section, field) for section, fields in [
        ("rounds", ("rho_s", "rho_m", "attrs")),
        ("measurements", ("rho_m", "sigma", "attrs", "counts")),
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
    (lambda h: {k: v for k, v in h.items() if k != "layer_shapes"}, "layer_shapes"),
    (lambda h: [h], "not a JSON object"),
    (lambda h: {**h, "batch_size": "x"}, "batch_size must be a positive int"),
    (lambda h: {**h, "latent_dim": -3}, "latent_dim must be a positive int"),
    (lambda h: {**h, "cards": [3.5]}, "cards must be a non-empty list of positive ints"),
    (lambda h: {**h, "has_prev": 1}, "has_prev must be a bool"),
    (lambda h: {**h, "layer_shapes": 7}, "layer_shapes must be a non-empty list"),
    (lambda h: {**h, "layer_shapes": h["layer_shapes"][:1]}, "!= sum(cards)"),
    (lambda h: {**h, "layer_shapes": [[[1, 2], [2]]] + h["layer_shapes"][1:]}, "is not [["),
    (lambda h: {**h, "dtype": "float16"}, "dtype must be one of float32, float64"),
], ids=["missing-key", "not-an-object", "batch-size-str", "latent-dim-negative",
        "cards-float", "has-prev-int", "layer-shapes-int", "layer-chain-short",
        "layer-chain-break", "dtype-float16"])
def test_check_malformed_checkpoint_header_exits_1(gauss_files, finished_run, tmp_path,
                                                   capsys, mangle, message):
    csv, domain = gauss_files
    trace_path, ckpt = finished_run
    data = open(ckpt, "rb").read()
    (hlen,) = struct.unpack("<Q", data[8:16])
    blob = json.dumps(mangle(json.loads(data[16:16 + hlen]))).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])
    assert run_cli("check", "--trace", trace_path, "--checkpoint", str(bad),
                   "--data", csv, "--domain", domain) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1
    assert "malformed domain file" not in err


def test_check_non_finite_checkpoint_weight_exits_1(gauss_files, finished_run, tmp_path,
                                                    capsys):
    csv, domain = gauss_files
    trace_path, ckpt = finished_run
    data = bytearray(open(ckpt, "rb").read())
    (hlen,) = struct.unpack("<Q", data[8:16])
    data[16 + hlen:24 + hlen] = struct.pack("<d", math.nan)  # the first weight
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
        path.write_text(json.dumps(obj))
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
    (margnet.errors.DomainMismatch("other cards"), 2, "error: other cards"),
    (ValueError("out of range"), 2, "error: out of range"),
    (MemoryError("Unable to allocate 8 PiB"), 1, "error: Unable to allocate 8 PiB"),
    (MemoryError(), 1, "error: out of memory"),
], ids=["os", "checkpoint", "budget", "margnet", "value", "memory", "memory-no-message"])
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
    # chains validly, latent 64 -> 2**54 -> sum(cards), so its first array
    # alone needs 64 * 2**54 * 8 = 2**63 bytes
    out = sum(header["cards"])
    return {**header, "latent_dim": 64,
            "layer_shapes": [[[64, 2**54], [2**54]], [[2**54, out], [out]]]}


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
