import numpy as np
import pytest

from margnet.domain import (
    AttributeMeta,
    Dataset,
    Domain,
    RawTable,
    auto_numeric_domain,
    bin_values,
    decode,
    encode,
    gen_gaussian_dataset,
    load_csv,
    uniform_bin_edges,
    write_csv,
)
from margnet.errors import (
    DegenerateRange,
    MissingColumn,
    NotPositiveDefinite,
    ParseError,
    UnknownCategory,
)

from conftest import categorical_domain, random_dataset


def numeric_meta(name, lo, hi, bins):
    return AttributeMeta(name, "numeric", bins, bin_edges=uniform_bin_edges(lo, hi, bins))


# ---------------------------------------------------------------- load_csv

def small_domain():
    return Domain([
        numeric_meta("age", 0, 100, 10),
        AttributeMeta("job", "categorical", 2, category_labels=["eng", "doc"]),
    ])


def test_load_csv_reorders_and_drops(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("extra,job,age\n1,eng,30\n2,doc,40\n3,eng,50\n")
    table = load_csv(p, small_domain())
    assert table.header == ["age", "job"]
    assert table.columns[0] == [30.0, 40.0, 50.0]
    assert table.columns[1] == ["eng", "doc", "eng"]


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("age\n30\n")
    with pytest.raises(MissingColumn) as ei:
        load_csv(p, small_domain())
    assert ei.value.name == "job"


def test_load_csv_parse_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("age,job\nabc,eng\n")
    with pytest.raises(ParseError):
        load_csv(p, small_domain())


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite(tmp_path, cell):
    # a non-finite value has no bin; it must not be silently encoded
    p = tmp_path / "t.csv"
    p.write_text(f"age,job\n30,eng\n{cell},eng\n")
    with pytest.raises(ParseError) as ei:
        load_csv(p, small_domain())
    assert ei.value.row == 1
    assert ei.value.column == "age"


# ------------------------------------------------------------------ binning

def test_uniform_bin_edges():
    assert np.allclose(uniform_bin_edges(0, 10, 2), [0, 5, 10])
    edges = uniform_bin_edges(0, 1, 10)
    assert len(edges) == 11
    assert np.allclose(np.diff(edges), 0.1)


def test_bin_boundary_clamp():
    edges = uniform_bin_edges(0, 10, 2)
    assert bin_values(np.array([10.0]), edges)[0] == 1
    assert bin_values(np.array([-3.0]), edges)[0] == 0
    assert bin_values(np.array([99.0]), edges)[0] == 1


def test_degenerate_range():
    with pytest.raises(DegenerateRange):
        uniform_bin_edges(5, 5, 3)


# ------------------------------------------------------------------- encode

def test_encode_categorical_lookup():
    dom = Domain([AttributeMeta("c", "categorical", 2, category_labels=["a", "b"])])
    ds = encode(RawTable(header=["c"], columns=[["a", "b", "a"]]), dom)
    assert ds.rows[:, 0].tolist() == [0, 1, 0]


def test_encode_numeric_binning():
    dom = Domain([numeric_meta("n", 0, 10, 2)])
    ds = encode(RawTable(header=["n"], columns=[[0.1, 9.9]]), dom)
    assert ds.rows[:, 0].tolist() == [0, 1]


def test_encode_unknown_category():
    dom = Domain([AttributeMeta("c", "categorical", 2, category_labels=["a", "b"])])
    with pytest.raises(UnknownCategory):
        encode(RawTable(header=["c"], columns=[["c"]]), dom)


def test_encode_unknown_goes_to_rare_bucket():
    dom = Domain([AttributeMeta("c", "categorical", 2, category_labels=["a", "__other__"])])
    ds = encode(RawTable(header=["c"], columns=[["a", "zzz"]]), dom)
    assert ds.rows[:, 0].tolist() == [0, 1]


# --------------------------------------------------------------- gen gauss

def test_gen_gauss_shape_matches_benchmark():
    table = gen_gaussian_dataset(10, 16000, 0.8, seed=3)
    assert len(table.header) == 10
    assert table.n_rows == 16000


def test_gen_gauss_zero_corr_pearson_oracle():
    table = gen_gaussian_dataset(2, 100_000, 0.0, seed=5)
    data = np.array(table.columns)
    r = np.corrcoef(data)[0, 1]
    assert abs(r) < 0.02


def test_gen_gauss_equicorrelation_pearson_oracle():
    table = gen_gaussian_dataset(5, 50_000, 0.8, seed=6)
    data = np.array(table.columns)
    corr = np.corrcoef(data)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.all(np.abs(off - 0.8) < 0.02)


def test_gen_gauss_deterministic():
    a = gen_gaussian_dataset(4, 100, 0.5, seed=9)
    b = gen_gaussian_dataset(4, 100, 0.5, seed=9)
    assert np.array_equal(np.array(a.columns), np.array(b.columns))


def test_gen_gauss_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        gen_gaussian_dataset(5, 10, -0.5, seed=0)  # needs corr > -1/4
    with pytest.raises(NotPositiveDefinite):
        gen_gaussian_dataset(3, 10, 1.0, seed=0)


def test_equicorrelation_cholesky_reconstruction():
    d = 8
    cov = np.full((d, d), 0.8)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    assert np.max(np.abs(chol @ chol.T - cov)) < 1e-10


# ------------------------------------------------------------------- decode

def test_decode_categorical():
    dom = Domain([AttributeMeta("c", "categorical", 2, category_labels=["a", "b"])])
    ds = Dataset(rows=np.array([[0], [1], [0]]), cards=(2,))
    table = decode(ds, dom, seed=1)
    assert table.columns[0] == ["a", "b", "a"]


def test_decode_numeric_in_bin():
    dom = Domain([numeric_meta("n", 0, 10, 2)])
    ds = Dataset(rows=np.zeros((50, 1), dtype=int), cards=(2,))
    table = decode(ds, dom, seed=2)
    vals = np.array(table.columns[0])
    assert np.all((vals >= 0) & (vals < 5))


def test_decode_empty():
    dom = Domain([numeric_meta("n", 0, 1, 2)])
    ds = Dataset(rows=np.zeros((0, 1), dtype=int), cards=(2,))
    assert decode(ds, dom, seed=0).n_rows == 0


def test_encode_decode_round_trip():
    dom = Domain([
        numeric_meta("x", -3.0, 7.0, 10),
        AttributeMeta("c", "categorical", 4, category_labels=list("abcd")),
        numeric_meta("y", 0.0, 1.0, 7),
    ])
    rng = np.random.default_rng(21)
    for trial in range(20):
        rows = np.stack([rng.integers(0, c, size=200) for c in dom.cards], axis=1)
        ds = Dataset(rows=rows, cards=dom.cards)
        again = encode(decode(ds, dom, seed=trial), dom)
        assert np.array_equal(again.rows, ds.rows)


def test_csv_write_read_round_trip(tmp_path):
    dom = Domain([
        numeric_meta("x", 0.0, 1.0, 5),
        AttributeMeta("c", "categorical", 2, category_labels=["p", "q"]),
    ])
    ds = random_dataset(dom.cards, 100, seed=4)
    table = decode(ds, dom, seed=8)
    p = tmp_path / "out.csv"
    write_csv(p, table)
    back = encode(load_csv(p, dom), dom)
    assert np.array_equal(back.rows, ds.rows)


def test_auto_numeric_domain_pads():
    table = RawTable(header=["x"], columns=[[0.0, 10.0]])
    dom = auto_numeric_domain(table, bins=10, pad=0.01)
    assert dom.attributes[0].bin_edges[0] == pytest.approx(-0.1)
    assert dom.attributes[0].bin_edges[-1] == pytest.approx(10.1)


def test_domain_json_round_trip(tmp_path):
    dom = Domain([
        numeric_meta("x", 0.0, 5.0, 4),
        AttributeMeta("c", "categorical", 3, category_labels=["u", "v", "w"]),
    ])
    p = tmp_path / "dom.json"
    dom.save(p)
    back = Domain.load(p)
    assert back.names == dom.names
    assert back.cards == dom.cards
    assert np.allclose(back.attributes[0].bin_edges, dom.attributes[0].bin_edges)
