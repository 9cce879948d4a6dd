"""Discrete domains and dataset encoding.

A Domain is an ordered list of attributes, each either categorical (a fixed
label list) or numeric (equal-width bins over a declared [min, max] range).
Encoded datasets are unsigned integer matrices in `code_dtype(cards)` whose
column i takes values in [0, cardinality_i). Attribute order is fixed by the
domain and determines how marginals are flattened everywhere else in the
package.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

RARE_LABEL = "__other__"
WRITE_BLOCK_ROWS = 2048  # rows write_csv formats per batch, so no table-sized list of cells exists
CSV_DIGITS = 10  # significant digits write_csv prints a number with, unless its column needs more
AUTO_DOMAIN_PAD = 0.01  # auto_numeric_domain pads [min, max] by this share of the span


@dataclass
class AttributeMeta:
    name: str
    kind: str  # "categorical" | "numeric"
    cardinality: int
    bin_edges: np.ndarray | None = None  # numeric only, length cardinality+1
    category_labels: list[str] | None = None  # categorical only

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.cardinality < 1:
            raise ValueError(f"attribute {self.name!r}: cardinality must be >= 1")
        if self.kind == "numeric":
            self.bin_edges = np.asarray(self.bin_edges, dtype=float)
            if self.bin_edges.shape != (self.cardinality + 1,):
                raise ValueError(f"attribute {self.name!r}: need {self.cardinality + 1} bin edges")
            if not np.all(np.diff(self.bin_edges) > 0):
                raise ValueError(f"attribute {self.name!r}: bin edges must be strictly increasing")
        else:
            if self.category_labels is None or len(self.category_labels) != self.cardinality:
                raise ValueError(f"attribute {self.name!r}: need {self.cardinality} category labels")
            if len(set(self.category_labels)) != self.cardinality:
                raise ValueError(f"attribute {self.name!r}: duplicate category labels")


@dataclass
class Domain:
    attributes: list[AttributeMeta]

    @property
    def d(self) -> int:
        return len(self.attributes)

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(a.cardinality for a in self.attributes)

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.attributes]

    def to_json_dict(self) -> dict:
        attrs = []
        for a in self.attributes:
            if a.kind == "categorical":
                attrs.append({"name": a.name, "type": "categorical", "values": list(a.category_labels)})
            else:
                attrs.append(
                    {
                        "name": a.name,
                        "type": "numeric",
                        "min": float(a.bin_edges[0]),
                        "max": float(a.bin_edges[-1]),
                        "bins": int(a.cardinality),
                    }
                )
        return {"attributes": attrs}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Domain":
        """Parse a domain JSON object; a document of the wrong shape is a ValueError."""
        if not (isinstance(obj, dict) and isinstance(obj.get("attributes"), list)
                and obj["attributes"]):
            raise ValueError("a domain is an object with a non-empty 'attributes' list")
        attrs = []
        for spec in obj["attributes"]:
            if not isinstance(spec, dict):
                raise ValueError(f"attribute {spec!r} is not an object")
            if not isinstance(spec["name"], str):
                raise ValueError(f"attribute name {spec['name']!r} is not a string")
            if spec["type"] == "categorical":
                labels = spec["values"]
                if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
                    raise ValueError(f"attribute {spec['name']!r}: values must be a list of strings")
                attrs.append(AttributeMeta(spec["name"], "categorical", len(labels), category_labels=labels))
            elif spec["type"] == "numeric":
                lo, hi, bins = _numeric_range(spec)
                attrs.append(AttributeMeta(spec["name"], "numeric", bins,
                                           bin_edges=uniform_bin_edges(lo, hi, bins)))
            else:
                raise ValueError(f"unknown attribute type {spec['type']!r}")
        names = [a.name for a in attrs]
        if len(set(names)) < len(names):
            repeated = next(name for name in names if names.count(name) > 1)
            raise ValueError(f"attribute name {repeated!r} is not unique")
        return cls(attrs)

    @classmethod
    def load(cls, path) -> "Domain":
        """Read a domain file; one that is not a well-formed domain is a ValueError."""
        with open(path, "r", encoding="utf-8") as f:
            try:
                return cls.from_json_dict(json.load(f))
            except (KeyError, TypeError, ValueError, RecursionError) as e:
                raise ValueError(f"malformed domain file: {e}") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=2)
            f.write("\n")


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


def _numeric_range(spec: dict) -> tuple[float, float, int]:
    """A numeric attribute's (min, max, bins): min and max finite JSON
    numbers, bins a whole one from 1 to the largest count of edges an array
    can index. A bool or a string is not a number."""
    lo, hi, bins = spec["min"], spec["max"], spec["bins"]
    if not (_finite_number(lo) and _finite_number(hi)):
        raise ValueError(f"attribute {spec['name']!r}: min and max must be finite numbers, "
                         f"got {lo!r} and {hi!r}")
    top = np.iinfo(np.intp).max - 1
    if not (_finite_number(bins) and bins == int(bins) and 1 <= bins <= top):
        raise ValueError(f"attribute {spec['name']!r}: bins must be a whole number from 1 "
                         f"to {top}, got {bins!r}")
    return float(lo), float(hi), int(bins)


def code_dtype(cards) -> np.dtype:
    """The narrowest unsigned dtype that holds every category code of `cards`:
    uint8 while every card is at most 256."""
    return np.min_scalar_type(max(cards, default=1) - 1)


@dataclass
class Dataset:
    """Encoded table: integer category indices, one column per attribute."""

    rows: np.ndarray  # (N, d) in code_dtype(cards), column-major so that each column is contiguous
    cards: tuple[int, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "iu":  # booleans, floats, an empty list
            rows = rows.astype(np.int64)
        if rows.ndim != 2:
            rows = rows.reshape(-1, len(self.cards))
        if rows.shape[1] != len(self.cards):
            raise ValueError("row width does not match the number of attributes")
        # checked in the input's dtype, so a -1 cannot narrow to a valid code
        if rows.size:
            if rows.min() < 0:
                raise ValueError("negative category index")
            if np.any(rows.max(axis=0) >= np.asarray(self.cards)):
                raise ValueError("category index out of range for its attribute")
        self.rows = np.asfortranarray(rows, dtype=code_dtype(self.cards))

    @property
    def n_records(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return len(self.cards)


@dataclass
class RawTable:
    """Un-encoded columns, ordered to match a domain: a numeric column is a
    contiguous float64 ndarray, a categorical one a list of str. `digits`,
    when set, holds the significant digits write_csv prints each numeric
    column with (CSV_DIGITS otherwise; see `decode`)."""

    header: list[str]
    columns: list[np.ndarray | list[str]] = field(default_factory=list)
    digits: list[int] | None = None

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def uniform_bin_edges(lo: float, hi: float, k: int) -> np.ndarray:
    """Equal-width bin edges: k bins over [lo, hi], k+1 edges."""
    if not lo < hi:
        raise ValueError(f"need min < max, got [{lo}, {hi}]")
    if k < 1:
        raise ValueError("need at least one bin")
    return np.linspace(lo, hi, k + 1)


def bin_values(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map values to bin indices; out-of-range values clamp into the edge bins."""
    lo, hi = edges[0], edges[-1]
    k = len(edges) - 1
    # clamp before the cast: a float past int64's range has no int64 to cast to
    idx = np.floor(k * (np.asarray(values, dtype=float) - lo) / (hi - lo))
    return np.clip(idx, 0, k - 1).astype(np.int64)


def _print_band(edges: np.ndarray, digits: int) -> float:
    """How near a bin edge of `edges` a value in their range must lie before
    its `%.{digits}g` text could re-encode into the next bin: ten units in
    the last printed digit at the range's largest magnitude, at least twenty
    times the text's rounding, plus 64 ulps there for the binning's own."""
    m = max(abs(edges[0]), abs(edges[-1]))
    return 10.0 ** (math.floor(math.log10(m)) - digits + 2) + 64 * float(np.spacing(m))


def csv_digits(edges: np.ndarray) -> int:
    """The fewest significant digits, from CSV_DIGITS, whose `_print_band`
    leaves every bin's midpoint outside, so a midpoint's text re-encodes into
    its bin; 17 at most, whose text is the value itself."""
    half = float(np.diff(edges).min()) / 2
    return next((d for d in range(CSV_DIGITS, 17) if _print_band(edges, d) < half), 17)


def load_csv(path, domain: Domain) -> RawTable:
    """Read a CSV and reorder its columns to the domain's attribute order.

    Dialect: comma-delimited, `"` quoting with `""` escapes, blank lines
    skipped, no comment lines. Extra CSV columns are dropped and every cell
    is stripped of surrounding whitespace. Numeric columns are parsed as
    floats; a cell that is not an ASCII decimal or exponent number (so
    `1_000` and non-ASCII digits are rejected too), or that is non-finite
    (nan, inf), is a ValueError naming its row and column, as is a row too
    short to hold a column.
    """
    names = [f"c{j}" for j in range(domain.d)]
    numeric = [meta.kind == "numeric" for meta in domain.attributes]
    dtype = [(name, float if is_num else object) for name, is_num in zip(names, numeric)]
    with open(path, "r", encoding="utf-8", newline="") as f:
        usecols = _header_columns(_csv_rows(f, path), domain)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(f, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                                  usecols=usecols, ndmin=1)
            ok = all(np.isfinite(data[name]).all() for name, is_num in zip(names, numeric) if is_num)
        except ValueError:
            ok = False
        if not ok:
            f.seek(0)
            _raise_bad_cell(_csv_rows(f, path), domain, usecols)
            raise ValueError(f"{path}: the numpy and csv readers disagree on this file")
    columns = [np.ascontiguousarray(data[name]) if is_num else [cell.strip() for cell in data[name]]
               for name, is_num in zip(names, numeric)]
    return RawTable(header=domain.names, columns=columns)


def _csv_rows(f, path):
    """The rows of a CSV file, header first. A row the csv module cannot read
    (a field past its size limit) is a ValueError naming the row, numbered
    from 0 after the header."""
    row_no = -1
    try:
        for row in csv.reader(f):
            yield row
            row_no += 1
    except csv.Error as e:
        where = "the header" if row_no < 0 else f"row {row_no}"
        raise ValueError(f"{path}: {where}: {e}") from None


def _header_columns(reader, domain: Domain) -> list[int]:
    """Position in the CSV header of each domain attribute, in domain order.
    A domain attribute the header names twice is a ValueError; a repeated
    column the domain does not name is dropped like any extra column."""
    header = [h.strip() for h in next(reader, [])]
    for name in domain.names:
        if name not in header:
            raise ValueError(f"required column {name!r} not found in CSV header")
        if header.count(name) > 1:
            raise ValueError(f"column {name!r} appears more than once in the CSV header")
    return [header.index(name) for name in domain.names]


def _is_number(cell: str) -> bool:
    # what np.loadtxt accepts: float() also takes `1_000` and non-ASCII digits
    if not cell.isascii() or "_" in cell:
        return False
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _raise_bad_cell(reader, domain: Domain, usecols: list[int]) -> None:
    """Rescan a CSV's rows cell by cell and raise the ValueError of its first
    bad cell. Rows are numbered from 0 after the header, blank lines included."""
    next(reader)
    for row_no, row in enumerate(reader):
        if not row:
            continue
        for meta, k in zip(domain.attributes, usecols):
            if k >= len(row):
                raise _parse_error(row_no, meta.name, "<missing cell>")
            cell = row[k].strip()
            if meta.kind == "numeric" and not _is_number(cell):
                raise _parse_error(row_no, meta.name, cell)


def _parse_error(row: int, column: str, value: str) -> ValueError:
    return ValueError(f"cannot parse {value!r} as a finite number (row {row}, column {column!r})")


def _csv_cell(label: str) -> str:
    """A string cell as the csv module's default dialect writes it."""
    if any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


def write_csv(path, table: RawTable) -> None:
    """Write a table in the dialect load_csv reads, `\r\n`-terminated.

    A column whose first cell is a string is written as labels (quoted where
    needed), any other column as numbers in `%.10g` format, or with the
    table's `digits` for that column. Rows are formatted `WRITE_BLOCK_ROWS`
    at a time.
    """
    columns, cells = [], []  # per column: its values, and for labels each one's cell text
    for col in table.columns:
        is_num = len(col) > 0 and not isinstance(col[0], str)
        columns.append(np.asarray(col, dtype=float) if is_num else col)
        cells.append(None if is_num else {label: _csv_cell(label) for label in set(col)})
    if len(cells) == 1 and cells[0] is not None:
        cells[0][""] = '""'  # a lone empty cell would read back as a blank line
    digits = table.digits or [CSV_DIGITS] * len(cells)
    fmt = ",".join(f"%.{d}g" if cell is None else "%s" for cell, d in zip(cells, digits)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(table.header)
        for start in range(0, table.n_rows, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            rows = zip(*(col[block].tolist() if cell is None else [cell[x] for x in col[block]]
                         for col, cell in zip(columns, cells)))
            f.writelines(fmt % row for row in rows)


def encode(raw: RawTable, domain: Domain) -> Dataset:
    """Encode a raw table into category codes in code_dtype, column-major."""
    rows = np.empty((raw.n_rows, domain.d), dtype=code_dtype(domain.cards), order="F")
    for j, meta in enumerate(domain.attributes):
        col = raw.columns[j]
        if meta.kind == "numeric":
            rows[:, j] = bin_values(col, meta.bin_edges)
        else:
            lookup = {lab: i for i, lab in enumerate(meta.category_labels)}
            out = np.fromiter(map(lookup.get, col, repeat(-1)), np.int64, len(col))
            unknown = out < 0
            if unknown.any():
                rare = lookup.get(RARE_LABEL)
                if rare is None:
                    raise ValueError(f"value {col[int(unknown.argmax())]!r} not in the declared "
                                     f"categories of attribute {meta.name!r}")
                out[unknown] = rare
            rows[:, j] = out
    return Dataset(rows=rows, cards=domain.cards)


def decode(synth: Dataset, domain: Domain, seed: int) -> RawTable:
    """Map encoded indices back to labels / real values.

    Numeric bins decode to a uniform random value inside the bin, printed by
    write_csv with `csv_digits` of the bin edges. A value is nudged to its
    bin's midpoint in the rare case where it, or its printed text, would
    re-encode into the neighbouring bin, so encode(decode(ds)) == ds both in
    memory and through the CSV. Only values within `_print_band` of an edge
    have their text checked.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    columns, digits = [], []
    for j, meta in enumerate(domain.attributes):
        idx = synth.rows[:, j]
        if meta.kind == "categorical":
            columns.append(np.array(meta.category_labels, dtype=object)[idx].tolist())
            digits.append(CSV_DIGITS)
        else:
            edges = meta.bin_edges
            lo = edges[idx]
            hi = edges[1:][idx]  # not idx + 1, which wraps in the code dtype
            vals = lo + rng.random(len(idx)) * (hi - lo)
            bad = bin_values(vals, edges) != idx
            digits.append(csv_digits(edges))
            band = _print_band(edges, digits[-1])
            near = np.flatnonzero(np.minimum(vals - lo, hi - vals) <= band)
            if near.size:
                printed = [float(f"{v:.{digits[-1]}g}") for v in vals[near].tolist()]
                bad[near] |= bin_values(printed, edges) != idx[near]
            if np.any(bad):
                vals[bad] = (lo[bad] + hi[bad]) / 2.0
            columns.append(vals)
    return RawTable(header=domain.names, columns=columns, digits=digits)


def gen_gaussian_dataset(dims: int, n_rows: int, corr: float, seed: int) -> RawTable:
    """Sample an equicorrelated zero-mean multivariate normal table.

    The covariance has 1 on the diagonal and `corr` everywhere else; it is
    positive definite only for corr in (-1/(dims-1), 1).
    """
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if n_rows < 1:
        raise ValueError("rows must be >= 1")
    lo = -1.0 / (dims - 1) if dims > 1 else -1.0
    if not (lo < corr < 1.0):
        raise ValueError(f"equicorrelation {corr} outside ({lo:.4g}, 1) for d={dims}")
    cov = np.full((dims, dims), corr, dtype=float)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    z = rng.standard_normal((n_rows, dims))
    data = z @ chol.T
    header = [f"x{i}" for i in range(dims)]
    return RawTable(header=header, columns=[data[:, j].copy() for j in range(dims)])


def auto_numeric_domain(table: RawTable, bins: int = 10) -> Domain:
    """Build an all-numeric domain from a table, padding min/max by AUTO_DOMAIN_PAD."""
    attrs = []
    for name, col in zip(table.header, table.columns):
        arr = np.asarray(col, dtype=float)
        lo, hi = float(arr.min()), float(arr.max())
        span = hi - lo
        if span <= 0:
            lo, hi = lo - 0.5, hi + 0.5
            span = hi - lo
        lo -= AUTO_DOMAIN_PAD * span
        hi += AUTO_DOMAIN_PAD * span
        attrs.append(AttributeMeta(name, "numeric", bins, bin_edges=uniform_bin_edges(lo, hi, bins)))
    return Domain(attrs)
