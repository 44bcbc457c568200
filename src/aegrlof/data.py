"""CSV loading and preprocessing for anomaly-detection datasets.

The preprocessing chain is: load a CSV with a column-kind schema, one-hot
encode categorical columns, split into train/validation/test, optionally
subsample the training split, then min-max normalize every split into
[-1, 1] using statistics fitted on the training split only. Labels (1 =
anomaly) are carried alongside the features but are never consumed by
training code, only by evaluation.

Tables are held by column (:class:`RawTable`). One ``np.loadtxt`` call
parses a CSV's data rows; a file it cannot read, or one with a bad
value, goes to a csv path that parses each cell once with Python's
``float()``, row by row, and stops at the first bad row or cell.
Encoding writes every column straight into one preallocated feature
matrix.

All operations are pure functions of their inputs plus an explicit seed,
so they are safe to call concurrently.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from .storage import file_sha256, read_npz, write_npz

COLUMN_KINDS = ("numeric", "categorical", "label")

CACHE_VERSION = 2


def check_column_kinds(columns: Iterable[tuple[str | int, Any]]) -> None:
    """Raise ``ValueError`` unless each (column, kind) pair names one of
    :data:`COLUMN_KINDS` and at most one names ``"label"``."""
    n_labels = 0
    for column, kind in columns:
        if kind not in COLUMN_KINDS:
            raise ValueError(f"column {column!r}: unknown kind {kind!r}, "
                             f"expected one of {list(COLUMN_KINDS)}")
        n_labels += kind == "label"
    if n_labels > 1:
        raise ValueError(f"at most one label column allowed, got {n_labels}")


@dataclass
class RawTable:
    """Parsed CSV contents before encoding, held by column.

    ``columns`` holds (name, kind) pairs in file order, and ``values``
    one entry per column, each with one value per CSV row in file order:
    a float64 array for a numeric column, an int64 array of 0/1 for the
    label column, and a list of stripped strings for a categorical
    column. Numeric and label entries are converted to those arrays;
    categorical entries stay Python strings, so no value is truncated or
    padded the way a fixed-width numpy string array would. ``parser``
    names the path of :func:`load_csv` that read the table, ``"numpy"``
    or ``"csv"``, and is None for a table built in code.
    """

    columns: list[tuple[str, str]]
    values: list[np.ndarray | list[str]]
    parser: str | None = None

    def __post_init__(self) -> None:
        check_column_kinds(self.columns)
        if len(self.values) != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} columns but {len(self.values)} value columns"
            )
        values: list = []
        for (name, kind), col in zip(self.columns, self.values):
            if kind == "categorical":
                if isinstance(col, np.ndarray) and col.ndim != 1:
                    raise ValueError(f"column {name!r} must be 1-D")
                values.append(list(col))
            else:
                dtype = np.int64 if kind == "label" else np.float64
                col = np.asarray(col, dtype=dtype)
                if col.ndim != 1:
                    raise ValueError(f"column {name!r} must be 1-D")
                values.append(col)
        self.values = values
        for (name, _), col in zip(self.columns, values):
            if len(col) != self.n_rows:
                raise ValueError(
                    f"column {name!r}: expected {self.n_rows} values, "
                    f"got {len(col)}"
                )

    @property
    def n_rows(self) -> int:
        return len(self.values[0]) if self.values else 0

    @property
    def rows(self) -> list[tuple]:
        """One tuple per row in file order, rebuilt on each read. Nothing in
        the package reads it: it walks every cell in Python."""
        return list(zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                          for col in self.values)))


@dataclass
class Dataset:
    """Numeric feature matrix with optional binary anomaly labels."""

    features: np.ndarray
    feature_names: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"{len(self.feature_names)} feature names for "
                f"{self.features.shape[1]} columns"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels length must match feature rows")
            binary = (self.labels == 0) | (self.labels == 1)
            if not binary.all():
                bad = list(np.unique(self.labels[~binary]))
                raise ValueError(f"labels must be 0/1, found {bad}")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row-subset copy preserving label alignment."""
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.features[indices], list(self.feature_names), labels)


@dataclass(frozen=True)
class NormParams:
    """Per-feature min/max fitted on the training split."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape:
            raise ValueError("min/max shapes differ")
        if np.any(self.minimum > self.maximum):
            raise ValueError("per-feature min must not exceed max")


@dataclass(frozen=True)
class SplitSpec:
    """Fractional train/val/test split with deterministic shuffling."""

    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0
    subsample_fraction: float | None = None

    def __post_init__(self) -> None:
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if not all(math.isfinite(f) and f >= 0 for f in fracs):
            raise ValueError(f"split fractions must be finite and >= 0, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")
        if self.seed < 0:
            raise ValueError(f"split seed must be >= 0, got {self.seed}")
        if self.subsample_fraction is not None and not (
            0.0 < self.subsample_fraction <= 1.0
        ):
            raise ValueError(
                f"subsample_fraction must be in (0, 1], got {self.subsample_fraction}"
            )


def load_csv(
    path: str | Path,
    schema: Mapping[str | int, str],
    has_header: bool | None = None,
) -> RawTable:
    """Parse a CSV file into a :class:`RawTable` under a column-kind schema.

    The file is read once. ``csv.reader`` finds the header and the first
    data row, which fix the column names and count, and one
    ``np.loadtxt`` call then parses every data row, with one field per
    column: a row of another width, or a cell numpy cannot read as a
    number, ends it. Such a file, and one with a non-finite number or a
    label other than 0 or 1, is parsed again by the csv path: one cell at
    a time in file order with Python's ``float()``, which also reads
    ``1_000`` and Unicode digits, so the error names the first bad row or
    cell. The table's ``parser`` says which path read it.

    Args:
        path: CSV file, comma separated, UTF-8 (a leading byte-order mark
            is dropped).
        schema: Maps column name (header required) or 0-based column index
            to a kind in ``("numeric", "categorical", "label")``. Columns
            not mentioned default to numeric.
        has_header: Whether the first row is a header. Defaults to True
            when any schema key is a string, else False.

    Raises:
        FileNotFoundError: Missing file.
        ValueError: Schema kinds :func:`check_column_kinds` rejects, empty
            file, repeated header name, row arity mismatch (named by line
            number), unparsable or non-finite numeric value, non-binary
            label value, or a schema key that matches no column.
    """
    check_column_kinds(schema.items())
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    if has_header is None:
        has_header = any(isinstance(k, str) for k in schema)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    # blank lines come back as empty lists and are skipped; ends[i] is
    # the number of the line that row i ends on, for error messages
    ends: list[int] = []
    rows = (row for row in reader if row and not ends.append(reader.line_num))
    header = [c.strip() for c in next(rows, [])] if has_header else None
    header_lines = reader.line_num
    first = next(rows, None)
    if first is None:
        raise ValueError(f"{path}: no rows")

    width = len(first)
    names = header if header is not None else [f"col{i}" for i in range(width)]
    if len(names) != width:
        raise ValueError(
            f"{path}: header has {len(names)} columns but first data row has {width}"
        )
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{path}: header repeats column {name!r}")
        seen.add(name)

    kinds = ["numeric"] * width
    for key, kind in schema.items():
        if isinstance(key, int):
            if not 0 <= key < width:
                raise ValueError(f"schema index {key} out of range for {width} columns")
            kinds[key] = kind
        else:
            if header is None:
                raise ValueError(
                    f"schema key {key!r} is a name but the file has no header"
                )
            try:
                kinds[names.index(key)] = kind
            except ValueError:
                raise ValueError(f"schema column {key!r} not found in header") from None

    columns = list(zip(names, kinds))
    values = _loadtxt_columns(text, header_lines, kinds)
    if values is not None:
        return RawTable(columns=columns, values=values, parser="numpy")

    rows = [first, *rows]
    # numbers go into flat float64 arrays, so none is kept as an object
    cells: list = [[] if kind == "categorical" else array("d") for kind in kinds]
    for line, row in zip(ends[-len(rows):], rows):
        if len(row) != width:
            raise ValueError(
                f"{path} line {line}: expected {width} fields, got {len(row)}"
            )
        for (name, kind), col, value in zip(columns, cells, row):
            if kind == "categorical":
                col.append(value.strip())
                continue
            try:
                num = float(value)
            except ValueError:
                raise ValueError(
                    f"{path} line {line}: column {name!r}: "
                    f"cannot parse {value!r} as a number"
                ) from None
            if not math.isfinite(num):
                raise ValueError(f"{path} line {line}: column {name!r}: non-finite value")
            if kind == "label" and num not in (0.0, 1.0):
                raise ValueError(
                    f"{path} line {line}: label must be 0 or 1, got {value!r}"
                )
            col.append(num)
    return RawTable(columns=columns, values=cells, parser="csv")


def _checked(col: np.ndarray, kind: str) -> np.ndarray | None:
    """A parsed numeric or label column as :class:`RawTable` holds it, or
    None when a value is not finite or a label is not 0 or 1."""
    if not np.isfinite(col).all():
        return None
    if kind == "label":
        if not ((col == 0.0) | (col == 1.0)).all():
            return None
        return col.astype(np.int64)
    return col


def _loadtxt_columns(text: str, skiprows: int,
                     kinds: list[str]) -> list[np.ndarray | list[str]] | None:
    """The data rows of ``text``, after its first ``skiprows`` lines, parsed
    by one ``np.loadtxt`` call and held by column as :class:`RawTable`
    holds them; None when a row or a cell is bad.

    The caller has found a data row, so loadtxt never sees a file without
    one, and a file holding an ASCII information separator (U+001C to
    U+001F) is left to the csv path. Each column is one field of a
    structured dtype, so a row of any other width raises; categorical
    fields are Python strings (an ``object`` field), which keep trailing
    NULs that a fixed-width string field would drop.
    """
    # numpy reads these separators around a number as whitespace, where
    # float() rejects the cell
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    dtype = [(f"f{j}", object if kind == "categorical" else np.float64)
             for j, kind in enumerate(kinds)]
    try:
        parsed = np.loadtxt(io.StringIO(text, newline=""), dtype=dtype,
                            delimiter=",", comments=None, quotechar='"',
                            skiprows=skiprows, ndmin=1)
    except ValueError:
        return None
    values: list[np.ndarray | list[str]] = []
    for field, kind in zip(parsed.dtype.names, kinds):
        if kind == "categorical":
            values.append(list(map(str.strip, parsed[field].tolist())))
            continue
        col = _checked(np.ascontiguousarray(parsed[field]), kind)
        if col is None:
            return None
        values.append(col)
    return values


def one_hot_encode(table: RawTable) -> Dataset:
    """Expand categorical columns into binary indicator blocks.

    Each categorical column with ``c`` distinct values becomes ``c`` binary
    columns named ``<column>=<value>``, values sorted for determinism;
    numeric columns pass through in place. The label column, if present,
    is returned as ``Dataset.labels`` and excluded from features.
    """
    n = table.n_rows
    names: list[str] = []
    # each feature column's values, and each indicator block's per-row
    # column, by the feature index they start at
    numeric: list[tuple[int, np.ndarray]] = []
    indicators: list[tuple[int, np.ndarray]] = []
    labels = None
    for (name, kind), col in zip(table.columns, table.values):
        if kind == "label":
            labels = col.copy()
        elif kind == "numeric":
            numeric.append((len(names), col))
            names.append(name)
        else:
            cats = sorted(set(col))
            index = {c: k for k, c in enumerate(cats)}
            codes = np.fromiter(map(index.__getitem__, col), np.intp, count=n)
            indicators.append((len(names), codes))
            names.extend(f"{name}={c}" for c in cats)
    features = np.zeros((n, len(names)))
    for start, col in numeric:
        features[:, start] = col
    rows = np.arange(n)
    for start, codes in indicators:
        features[rows, start + codes] = 1.0

    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature values after encoding")
    return Dataset(features, names, labels)


def normalize_fit(train: Dataset) -> NormParams:
    """Fit per-feature min/max on the training split only."""
    if train.n_rows == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    return NormParams(
        minimum=train.features.min(axis=0),
        maximum=train.features.max(axis=0),
    )


def normalize_apply(params: NormParams, data: Dataset) -> Dataset:
    """Map each feature x to 2*(x - min)/(max - min) - 1.

    Training features land in [-1, 1]; values outside the fitted range
    (typical for test anomalies) extrapolate beyond it without clipping.
    Constant features (max == min) map to 0 everywhere.
    """
    if data.n_features != params.minimum.shape[0]:
        raise ValueError(
            f"data has {data.n_features} features, params have "
            f"{params.minimum.shape[0]}"
        )
    span = params.maximum - params.minimum
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = 2.0 * (data.features - params.minimum) / span - 1.0
    scaled = np.where(span == 0.0, 0.0, scaled)
    return Dataset(scaled, list(data.feature_names), data.labels)


def fraction_rows(fraction: float, n: int) -> int:
    """floor(fraction * n) rows; the 1e-9 absorbs float representation error
    in fractions like 312/2286."""
    return int(fraction * n + 1e-9)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint covering train/val/test partition via a seeded shuffle.

    Val and test receive floor(fraction * n) rows each; remainder rows go
    to train. Deterministic per seed.
    """
    n = data.n_rows
    if n < 3:
        raise ValueError(f"need at least 3 rows to split, got {n}")
    n_val = fraction_rows(spec.val_fraction, n)
    n_test = fraction_rows(spec.test_fraction, n)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) <= 0:
        raise ValueError(
            f"split of {n} rows yields empty part "
            f"(train={n_train}, val={n_val}, test={n_test})"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (
        data.take(perm[:n_train]),
        data.take(perm[n_train : n_train + n_val]),
        data.take(perm[n_train + n_val :]),
    )


def subsample(train: Dataset, fraction: float, seed: int) -> Dataset:
    """Seeded uniform sample without replacement of floor(fraction * n) rows."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    count = fraction_rows(fraction, train.n_rows)
    if count < 1:
        raise ValueError(
            f"subsampling {train.n_rows} rows at fraction {fraction} is empty"
        )
    idx = np.random.default_rng(seed).permutation(train.n_rows)[:count]
    return train.take(idx)


@dataclass
class PreparedData:
    """Preprocessed splits plus the normalization fitted on train."""

    train: Dataset
    val: Dataset
    test: Dataset
    norm: NormParams


def prepare(table: RawTable, spec: SplitSpec,
            timed=contextlib.nullcontext) -> PreparedData:
    """Full preprocessing chain: encode, split, subsample, normalize.

    Normalization statistics are fitted on the final (post-subsample)
    training split and applied unchanged to validation and test. The
    ``"encode"``, ``"split"`` (split and subsample) and ``"normalize"``
    steps each run inside the context manager ``timed(step)`` returns, so
    a caller can time them.
    """
    with timed("encode"):
        encoded = one_hot_encode(table)
    with timed("split"):
        train, val, test = split(encoded, spec)
        if spec.subsample_fraction is not None and spec.subsample_fraction < 1.0:
            train = subsample(train, spec.subsample_fraction, spec.seed)
    with timed("normalize"):
        norm = normalize_fit(train)
        return PreparedData(
            train=normalize_apply(norm, train),
            val=normalize_apply(norm, val),
            test=normalize_apply(norm, test),
            norm=norm,
        )


def save_cache(path: str | Path, prepared: PreparedData, source_sha256: str = "",
               settings: Mapping[str, Any] | None = None) -> str:
    """Persist prepared splits to a versioned, byte-reproducible .npz and
    return the SHA-256 of its bytes.

    ``source_sha256`` names the CSV the splits came from, and ``settings``,
    a JSON object of objects, the settings they were prepared with;
    :func:`load_cache` checks both. A feature name the stored string
    array cannot hold (numpy drops trailing NULs) raises ``ValueError``
    before anything is written.
    """
    names = np.array(prepared.train.feature_names)
    for name, stored in zip(prepared.train.feature_names, names.tolist()):
        if stored != name:
            raise ValueError(
                f"feature name {name!r} cannot be stored in the dataset cache, "
                "which drops trailing NUL characters"
            )
    arrays: dict[str, np.ndarray] = {
        "cache_version": np.array(CACHE_VERSION, dtype=np.int64),
        "feature_names": names,
        "norm_min": prepared.norm.minimum,
        "norm_max": prepared.norm.maximum,
        "source_sha256": np.array(source_sha256),
        "settings": np.array(json.dumps(settings or {}, sort_keys=True)),
    }
    for part, ds in (("train", prepared.train), ("val", prepared.val),
                     ("test", prepared.test)):
        arrays[f"{part}_features"] = ds.features
        if ds.labels is not None:
            arrays[f"{part}_labels"] = ds.labels
    return write_npz(path, arrays)


def load_cache(path: str | Path, settings: Mapping[str, Mapping[str, Any]],
               source: str | Path) -> PreparedData:
    """Load splits written by :func:`save_cache`, refusing a stale cache.

    No file at ``path`` raises ``FileNotFoundError``. A damaged cache, one
    of another version, one whose recorded value differs from ``settings``
    at any ``section.key`` (each is named), and one whose CSV ``source``
    still exists but has changed raise ``ValueError``.
    Each error names the file and says to run ``prepare``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"prepared dataset not found at {path}; "
                                "run `prepare` first")
    with read_npz(path, "dataset cache", "run `prepare` again") as npz:
        version = int(npz["cache_version"])
        if version == CACHE_VERSION:
            names = [str(s) for s in npz["feature_names"]]
            parts = [Dataset(npz[f"{part}_features"], list(names),
                             npz.get(f"{part}_labels"))
                     for part in ("train", "val", "test")]
            norm = NormParams(npz["norm_min"], npz["norm_max"])
            source_sha256 = str(npz["source_sha256"])
            recorded = json.loads(str(npz["settings"]))
    if version != CACHE_VERSION:
        raise ValueError(
            f"{path}: cache version {version} unsupported "
            f"(expected {CACHE_VERSION})"
        )
    differ = [f"{section}.{key}: cache {cached!r}, config {value!r}"
              for section, values in settings.items()
              for key, value in values.items()
              if (cached := recorded.get(section, {}).get(key)) != value]
    if differ:
        raise ValueError(f"{path} was prepared with other settings "
                         f"({'; '.join(differ)}); run `prepare` again")
    source = Path(source)
    if source.is_file() and file_sha256(source) != source_sha256:
        raise ValueError(f"{source} changed after `prepare` wrote {path}; "
                         "run `prepare` again")
    return PreparedData(*parts, norm)
