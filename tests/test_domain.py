import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from margnet.domain import (
    CSV_DIGITS,
    AttributeMeta,
    Dataset,
    Domain,
    RawTable,
    WRITE_BLOCK_ROWS,
    auto_numeric_domain,
    bin_values,
    csv_digits,
    decode,
    encode,
    gen_gaussian_dataset,
    load_csv,
    uniform_bin_edges,
    write_csv,
)

from conftest import categorical_domain, random_dataset


def numeric_meta(name, lo, hi, bins):
    return AttributeMeta(name, "numeric", bins, bin_edges=uniform_bin_edges(lo, hi, bins))


def column_lists(table, domain):
    """A RawTable's columns as lists, after checking their types: a numeric
    column is a contiguous float64 ndarray, a categorical one a list of str."""
    out = []
    for col, meta in zip(table.columns, domain.attributes, strict=True):
        if meta.kind == "numeric":
            assert isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1
            assert col.flags.c_contiguous
            out.append(col.tolist())
        else:
            assert type(col) is list and all(type(cell) is str for cell in col)
            out.append(col)
    return out


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
    assert column_lists(table, small_domain()) == [[30.0, 40.0, 50.0], ["eng", "doc", "eng"]]


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("age\n30\n")
    with pytest.raises(ValueError, match=re.escape(missing_column("job"))):
        load_csv(p, small_domain())


def test_load_csv_parse_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("age,job\nabc,eng\n")
    with pytest.raises(ValueError, match=re.escape(parse_error(0, "age", "abc"))):
        load_csv(p, small_domain())


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite(tmp_path, cell):
    # a non-finite value has no bin; it must not be silently encoded
    p = tmp_path / "t.csv"
    p.write_text(f"age,job\n30,eng\n{cell},eng\n")
    with pytest.raises(ValueError, match=re.escape(parse_error(1, "age", cell))):
        load_csv(p, small_domain())


# ---------------------------------------------------------- load_csv oracle

def missing_column(name):
    """The text of load_csv's error for a column its header lacks."""
    return f"required column {name!r} not found in CSV header"


def repeated_column(name):
    """The text of load_csv's error for a domain column its header names twice."""
    return f"column {name!r} appears more than once in the CSV header"


def parse_error(row, column, value):
    """The text of load_csv's error for a cell it cannot read."""
    return f"cannot parse {value!r} as a finite number (row {row}, column {column!r})"


def reference_load_csv(path, domain, to_float=float):
    """The cell-by-cell reader load_csv replaced, kept as its oracle.

    `to_float` parses a numeric cell; passing a stricter parser than float
    shows which cells the new reader rejects on purpose.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(missing_column(domain.names[0])) from None
        header = [h.strip() for h in header]
        col_idx = {}
        for meta in domain.attributes:
            if meta.name not in header:
                raise ValueError(missing_column(meta.name))
            if header.count(meta.name) > 1:
                raise ValueError(repeated_column(meta.name))
            col_idx[meta.name] = header.index(meta.name)

        columns = [[] for _ in domain.attributes]
        for row_no, row in enumerate(reader):
            if not row:
                continue
            for j, meta in enumerate(domain.attributes):
                k = col_idx[meta.name]
                if k >= len(row):
                    raise ValueError(parse_error(row_no, meta.name, "<missing cell>"))
                cell = row[k].strip()
                if meta.kind == "numeric":
                    try:
                        value = to_float(cell)
                    except ValueError:
                        raise ValueError(parse_error(row_no, meta.name, cell)) from None
                    if not math.isfinite(value):
                        raise ValueError(parse_error(row_no, meta.name, cell))
                    columns[j].append(value)
                else:
                    columns[j].append(cell)
    columns = [np.array(col, dtype=float) if meta.kind == "numeric" else col
               for col, meta in zip(columns, domain.attributes)]
    return RawTable(header=domain.names, columns=columns)


def ascii_float(cell):
    """float() without the two spellings np.loadtxt refuses: digit-group
    underscores and non-ASCII digits."""
    if "_" in cell or not cell.isascii():
        raise ValueError(cell)
    return float(cell)


def outcome(reader, path, domain):
    """Columns as lists on success, else the exception's type and text."""
    try:
        return column_lists(reader(path, domain), domain)
    except ValueError as e:
        return type(e).__name__, str(e)


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


NUMERIC_CELLS = st.one_of(
    st.sampled_from(["1", "-2.5", "3e2", ".5", "+7", " 8 ", "\t9", "\xa010\xa0", "nan", "-inf",
                     "Infinity", "1_000", "\u0661\u0662", "\uff13", "0x10", "", " ", "abc",
                     "1,5", "1e", '"1"2']),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
).flatmap(lambda c: st.sampled_from([c, quoted(c), quoted(c) + " ", " " + c]))

LABEL_TEXT = st.text(alphabet=' ab,"\n\r\xe9', max_size=6)
CATEGORICAL_CELLS = st.one_of(
    LABEL_TEXT.map(quoted),
    st.text(alphabet=" ab\xe9", max_size=4),
    st.sampled_from(['a"b', '"ab"c', ' "a"']),
)

CSV_DOMAIN = Domain([
    numeric_meta("x", 0, 10, 4),
    AttributeMeta("c", "categorical", 2, category_labels=["a", "b"]),
    numeric_meta("y", -1, 1, 3),
])


@st.composite
def csv_files(draw):
    """CSV text over CSV_DOMAIN's columns (plus an extra one, in any order,
    any of them maybe repeated) with the dialect's edge cases: quoting, blank
    lines, short and long rows."""
    names = ["x", "c", "y", "extra"]
    header = draw(st.permutations(names + draw(st.lists(st.sampled_from(names), max_size=2))))
    kinds = {"x": NUMERIC_CELLS, "y": NUMERIC_CELLS, "c": CATEGORICAL_CELLS,
             "extra": CATEGORICAL_CELLS}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["full", "full", "full", "blank", "short", "long"]))
        if shape == "blank":
            lines.append("")
            continue
        cells = [draw(kinds[name]) for name in header]
        if shape == "short":
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        elif shape == "long":
            cells.append(draw(CATEGORICAL_CELLS))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files())
@example(text="x,c,y,x\n1.0,a,0.5,5.0\n")
@example(text="x,c,extra,y,extra\n1.0,a,u,0.5,v\n")
def test_load_csv_matches_cell_by_cell_oracle(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    got = outcome(load_csv, p, CSV_DOMAIN)
    expected = outcome(lambda q, dom: reference_load_csv(q, dom, ascii_float), p, CSV_DOMAIN)
    assert got == expected
    lenient = outcome(reference_load_csv, p, CSV_DOMAIN)
    if lenient != expected:
        # the only newly rejected cells are ones float() reads but np.loadtxt does not
        kind, message = expected
        assert kind == "ValueError"
        where = re.fullmatch(r"cannot parse .* as a finite number \(row (\d+), column '(\w+)'\)",
                             message)
        assert where
        row, column = int(where[1]), where[2]
        with open(p, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        cell = rows[row + 1][rows[0].index(column)].strip()
        assert "_" in cell or not cell.isascii()
        assert math.isfinite(float(cell))


@pytest.mark.parametrize("text,row,column,cell", [
    ("x,c,y\n1,a,2\n1_000,a,2\n", 1, "x", "1_000"),
    ("x,c,y\n1,a,2\n\n1,a,\u0661\n", 2, "y", "\u0661"),
    ("x,c,y\n1,a,2\n\n\n1,a\n", 3, "y", "<missing cell>"),
    ('x,c,y\n"1",a,2\n" 2 ","b,\n",inf\n', 1, "y", "inf"),
])
def test_load_csv_error_names_row_column_and_cell(tmp_path, text, row, column, cell):
    # rows count from 0 after the header, blank lines included
    p = tmp_path / "t.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(parse_error(row, column, cell))):
        load_csv(p, CSV_DOMAIN)


def test_load_csv_quoted_cells(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text('y,c,x\r\n" -0.5 ","a, ""b""\r\nc",7\r\n\r\n1e-1, b ,"8"\r\n', encoding="utf-8")
    table = load_csv(p, CSV_DOMAIN)
    assert column_lists(table, CSV_DOMAIN) == [[7.0, 8.0], ['a, "b"\r\nc', "b"], [-0.5, 0.1]]


def test_load_csv_header_only_is_empty_and_silent(tmp_path, capfd):
    p = tmp_path / "t.csv"
    p.write_text("x,c,y\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_csv(p, CSV_DOMAIN)
    assert column_lists(table, CSV_DOMAIN) == [[], [], []]
    assert table.n_rows == 0
    assert capfd.readouterr().err == ""


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


@pytest.mark.filterwarnings("error")  # a cast warning would be one more stderr line
def test_bin_clamp_past_the_int64_range_is_silent():
    # -5.677696061e60 is a finite CSV cell, and k * (v - lo) / (hi - lo) has no int64
    edges = uniform_bin_edges(-2.9, 3.4, 10)
    assert bin_values(np.array([-5.677696061e60, 1e300, 0.0]), edges).tolist() == [0, 9, 4]


def test_degenerate_range():
    with pytest.raises(ValueError, match=r"need min < max, got \[5, 5\]"):
        uniform_bin_edges(5, 5, 3)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
                                    (-math.inf, 0.0)])
def test_overflowing_range_is_rejected_without_a_warning(lo, hi):
    # np.linspace over a span past float64's range warns before the edges fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need max - min within the float64 range"):
            uniform_bin_edges(lo, hi, 3)


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
    with pytest.raises(ValueError,
                       match="value 'c' not in the declared categories of attribute 'c'"):
        encode(RawTable(header=["c"], columns=[["c"]]), dom)


def test_encode_unknown_goes_to_rare_bucket():
    dom = Domain([AttributeMeta("c", "categorical", 2, category_labels=["a", "__other__"])])
    ds = encode(RawTable(header=["c"], columns=[["a", "zzz"]]), dom)
    assert ds.rows[:, 0].tolist() == [0, 1]


def reference_encode_column(col, meta):
    """Cell-by-cell categorical lookup; the oracle for encode's column map."""
    lookup = {lab: i for i, lab in enumerate(meta.category_labels)}
    rare = lookup.get("__other__")
    out = np.empty(len(col), dtype=np.int64)
    for i, v in enumerate(col):
        idx = lookup.get(v, rare)
        if idx is None:
            raise ValueError(f"value {v!r} not in the declared categories of attribute "
                             f"{meta.name!r}")
        out[i] = idx
    return out


def encode_outcome(encoder, col, meta):
    try:
        return ("ok", encoder(col, meta).tolist())
    except ValueError as e:
        return ("ValueError", str(e))


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.sampled_from(["a", "b", "c d", "", "__other__"]), min_size=1, max_size=5,
                       unique=True),
       col=st.lists(st.sampled_from(["a", "b", "c d", "", "__other__", "x", "y"]), max_size=30))
def test_encode_matches_cell_by_cell_oracle(labels, col):
    meta = AttributeMeta("c", "categorical", len(labels), category_labels=labels)
    got = encode_outcome(lambda cells, m: encode(RawTable(["c"], [cells]), Domain([m])).rows[:, 0],
                         col, meta)
    assert got == encode_outcome(reference_encode_column, col, meta)


# --------------------------------------------------------------- gen gauss

def test_gen_gauss_shape_matches_benchmark():
    table = gen_gaussian_dataset(10, 16000, 0.8, seed=3)
    assert len(table.header) == 10
    assert table.n_rows == 16000
    assert all(len(col) == 16000 for col in column_lists(table, auto_numeric_domain(table)))


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
    with pytest.raises(ValueError, match=r"equicorrelation -0\.5 outside \(-0\.25, 1\) for d=5"):
        gen_gaussian_dataset(5, 10, -0.5, seed=0)  # needs corr > -1/4
    with pytest.raises(ValueError, match=r"equicorrelation 1\.0 outside \(-0\.5, 1\) for d=3"):
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
    assert column_lists(table, dom) == [["a", "b", "a"]]


def test_decode_numeric_in_bin():
    dom = Domain([numeric_meta("n", 0, 10, 2)])
    ds = Dataset(rows=np.zeros((50, 1), dtype=int), cards=(2,))
    table = decode(ds, dom, seed=2)
    vals = np.array(column_lists(table, dom)[0])
    assert np.all((vals >= 0) & (vals < 5))


def test_decode_empty():
    dom = Domain([numeric_meta("n", 0, 1, 2)])
    ds = Dataset(rows=np.zeros((0, 1), dtype=int), cards=(2,))
    table = decode(ds, dom, seed=0)
    assert table.n_rows == 0
    assert column_lists(table, dom) == [[]]


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
        assert again.rows.flags.f_contiguous


@pytest.mark.parametrize("card, itemsize", [(256, 1), (257, 2)])
@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_encode_decode_round_trip_at_the_code_dtype_edge(card, itemsize, kind):
    meta = (numeric_meta("x", -1.0, 3.0, card) if kind == "numeric" else
            AttributeMeta("c", "categorical", card, category_labels=[f"v{i}" for i in range(card)]))
    dom = Domain([meta])
    codes = np.arange(card).repeat(3)  # the top code included
    ds = Dataset(rows=codes[:, None], cards=dom.cards)
    assert ds.rows.itemsize == itemsize
    table = decode(ds, dom, seed=3)
    if kind == "numeric":
        edges = meta.bin_edges
        assert np.all((edges[codes] <= table.columns[0]) & (table.columns[0] <= edges[codes + 1]))
    again = encode(table, dom)
    assert again.rows.dtype == ds.rows.dtype
    assert np.array_equal(again.rows[:, 0], codes)


@pytest.mark.parametrize("code", [-1, 256])
def test_dataset_checks_codes_before_narrowing(code):
    # in uint8, -1 would read as 255 and 256 as 0, both valid codes of a 256-card attribute
    with pytest.raises(ValueError, match="negative category index|out of range for its attribute"):
        Dataset(rows=np.array([[0], [code]], dtype=np.int64), cards=(256,))


def test_csv_write_read_round_trip(tmp_path):
    dom = Domain([
        numeric_meta("x", 0.0, 1.0, 5),
        AttributeMeta("c", "categorical", 2, category_labels=["p", "q"]),
    ])
    ds = random_dataset(dom.cards, 100, seed=4)
    table = decode(ds, dom, seed=8)
    assert [len(col) for col in column_lists(table, dom)] == [100, 100]
    p = tmp_path / "out.csv"
    write_csv(p, table)
    back = encode(load_csv(p, dom), dom)
    assert np.array_equal(back.rows, ds.rows)


def csv_round_trip(tmp_path, ds, dom, seed):
    """ds through decode, write_csv, load_csv and encode."""
    p = tmp_path / "round.csv"
    write_csv(p, decode(ds, dom, seed))
    return encode(load_csv(p, dom), dom)


def test_csv_round_trip_keeps_the_bins_of_a_narrow_domain_far_from_zero(tmp_path):
    # bins 0.1 wide at 1e9: in `%.10g` the cells print as 1000000000 or
    # 1000000001 and land in bins 0 and 9 only; the column prints with 13 digits
    dom = Domain([numeric_meta("x", 1e9, 1000000001, 10)])
    ds = Dataset(rows=np.random.default_rng(3).integers(0, 10, size=(1000, 1)), cards=(10,))
    assert csv_digits(dom.attributes[0].bin_edges) == 13
    assert np.array_equal(csv_round_trip(tmp_path, ds, dom, seed=1).rows, ds.rows)


def test_csv_round_trip_keeps_a_value_drawn_next_to_an_edge(tmp_path, monkeypatch):
    # bin 2 of [0, 1] ends at 0.3: a draw of 0.2999999999999 stays in the bin
    # in memory but prints as 0.3, which is bin 3
    class EdgeDraws:
        def __init__(self, _bits):
            pass

        def random(self, n):
            return np.full(n, 1 - 1e-12)

    dom = Domain([numeric_meta("x", 0.0, 1.0, 10)])
    ds = Dataset(rows=np.array([[2], [5]]), cards=(10,))
    monkeypatch.setattr(np.random, "Generator", EdgeDraws)
    assert bin_values(decode(ds, dom, seed=0).columns[0], dom.attributes[0].bin_edges).tolist() \
        == [2, 5]
    assert np.array_equal(csv_round_trip(tmp_path, ds, dom, seed=0).rows, ds.rows)


@pytest.mark.parametrize("dims, rows, bins", [(10, 16_000, 10), (24, 8000, 10), (3, 2000, 257)])
def test_gen_gauss_domains_print_with_ten_digits(dims, rows, bins):
    # the tables the benchmark and CI synthesize keep the `%.10g` format
    dom = auto_numeric_domain(gen_gaussian_dataset(dims, rows, 0.8, seed=1), bins)
    assert {csv_digits(a.bin_edges) for a in dom.attributes} == {CSV_DIGITS}


def test_load_and_encode_memory_stays_near_the_arrays(tmp_path):
    # a float64 value takes 8 B per cell and a uint8 code 1 B; a Python float
    # in a list takes 32 B
    table = gen_gaussian_dataset(10, 20_000, 0.8, seed=2)
    dom = auto_numeric_domain(table)
    p = tmp_path / "g.csv"
    write_csv(p, table)
    del table
    tracemalloc.start()
    try:
        ds = encode(load_csv(p, dom), dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.rows.shape == (20_000, 10)
    assert ds.rows.itemsize == 1  # every card is 10
    assert peak < 3 * 8 * ds.rows.size


def reference_write_csv(path, table):
    """The per-cell writer write_csv replaced, kept as its oracle."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(table.header)
        n = table.n_rows
        for i in range(n):
            writer.writerow(
                [c[i] if isinstance(c[i], str) else format(c[i], ".10g") for c in table.columns]
            )


NUMBERS = st.floats()
LABELS = st.text(alphabet=' ab,"\n\r\xe9%', max_size=5)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from([NUMBERS, LABELS]), min_size=1, max_size=4),
       n_rows=st.integers(0, 8), data=st.data())
def test_write_csv_matches_per_cell_oracle(tmp_path, kinds, n_rows, data):
    # numeric-only, label-only and mixed tables, including labels that need
    # quoting, empty labels, nan/inf and one-column tables
    columns = [data.draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    table = RawTable(header=[f"h{j}" for j in range(len(kinds))], columns=columns)
    write_csv(tmp_path / "new.csv", table)
    reference_write_csv(tmp_path / "old.csv", table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_numpy_and_python_floats_match_oracle(tmp_path):
    # the longer table spans three of write_csv's row blocks
    for n_rows in (6, 2 * WRITE_BLOCK_ROWS + 3):
        values = np.resize([0.1, -0.0, 1e300, 5e-324, np.pi, 2.0 ** 60], n_rows)
        labels = [f"x{i % 7}" for i in range(n_rows)]
        for col in (values.tolist(), list(values), values):
            table = RawTable(header=["v", "c"], columns=[col, labels])
            write_csv(tmp_path / "new.csv", table)
            reference_write_csv(tmp_path / "old.csv", table)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_auto_numeric_domain_pads():
    table = RawTable(header=["x"], columns=[[0.0, 10.0]])
    dom = auto_numeric_domain(table, bins=10)
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
