import json

import pytest

from margnet.domain import Dataset
from margnet.evaluation import evaluate

from conftest import random_dataset


def test_identity_pair_zero_metrics():
    ds = random_dataset((3, 3, 3), 400, seed=1)
    rep = evaluate(ds, ds, n_queries=40, seed=0)
    assert rep.fidelity_error == 0.0
    assert rep.query_error == 0.0


def test_report_json_round_trip():
    ds = random_dataset((2, 3, 4), 300, seed=2)
    other = random_dataset((2, 3, 4), 300, seed=3)
    rep = evaluate(ds, other, n_queries=25, seed=5, config={"note": "unit"})
    obj = json.loads(rep.to_json())
    assert obj["fidelity_error"] == rep.fidelity_error
    assert obj["query_error"] == rep.query_error
    assert obj["n_queries"] == 25
    assert obj["seed"] == 5
    assert obj["config"] == {"note": "unit"}
    # no field the report cannot fill: eval neither times synthesis nor runs ML efficacy
    assert sorted(obj) == ["config", "fidelity_error", "n_queries", "query_error", "schema",
                           "seed"]
    assert obj["schema"] == "margnet-eval-v2"


def test_same_seed_same_query_error():
    real = random_dataset((2, 2, 2, 3), 200, seed=4)
    synth = random_dataset((2, 2, 2, 3), 200, seed=5)
    a = evaluate(real, synth, n_queries=30, seed=9)
    b = evaluate(real, synth, n_queries=30, seed=9)
    assert a.query_error == b.query_error


def test_domain_mismatch():
    a = random_dataset((2, 2, 2), 50, seed=0)
    b = random_dataset((2, 3, 2), 50, seed=0)
    with pytest.raises(ValueError,
                       match=r"datasets have different domains: \(2, 2, 2\) vs \(2, 3, 2\)"):
        evaluate(a, b, n_queries=5, seed=0)


def test_metrics_row_permutation_invariant():
    real = random_dataset((3, 2, 3), 150, seed=6)
    synth = random_dataset((3, 2, 3), 150, seed=7)
    shuffled = Dataset(rows=real.rows[::-1].copy(), cards=real.cards)
    a = evaluate(real, synth, n_queries=20, seed=1)
    b = evaluate(shuffled, synth, n_queries=20, seed=1)
    assert a.fidelity_error == b.fidelity_error
    assert a.query_error == b.query_error

