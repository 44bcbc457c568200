"""CSV loading and preprocessing for anomaly-detection datasets.

The preprocessing chain is: load a CSV with a column-kind schema, one-hot
encode categorical columns, split into train/validation/test, optionally
subsample the training split, then min-max normalize every split into
[-1, 1] using statistics fitted on the training split only. Labels (1 =
anomaly) are carried alongside the features but are never consumed by
training code, only by evaluation.

Tables are held by column (:class:`RawTable`), so loading and encoding
work a whole column at a time; a file with a bad row or cell is scanned
once more, cell by cell, only to name the first bad one.

All operations are pure functions of their inputs plus an explicit seed,
so they are safe to call concurrently.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .storage import write_npz

COLUMN_KINDS = ("numeric", "categorical", "label")

CACHE_VERSION = 1


@dataclass
class RawTable:
    """Parsed CSV contents before encoding, held by column.

    ``columns`` holds (name, kind) pairs in file order, and ``values``
    one entry per column, each with one value per CSV row in file order:
    a float64 array for a numeric column, an int64 array of 0/1 for the
    label column, and a list of stripped strings for a categorical
    column. Numeric and label entries are converted to those arrays;
    categorical entries stay Python strings, so no value is truncated or
    padded the way a fixed-width numpy string array would.
    """

    columns: list[tuple[str, str]]
    values: list[np.ndarray | list[str]]

    def __post_init__(self) -> None:
        n_label = sum(1 for _, kind in self.columns if kind == "label")
        if n_label > 1:
            raise ValueError(f"at most one label column allowed, got {n_label}")
        for name, kind in self.columns:
            if kind not in COLUMN_KINDS:
                raise ValueError(f"column {name!r}: unknown kind {kind!r}")
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
            bad = set(np.unique(self.labels)) - {0, 1}
            if bad:
                raise ValueError(f"labels must be 0/1, found {sorted(bad)}")

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

    The rows are transposed once and each column is parsed whole: numeric
    and label cells with Python's ``float()``, categorical cells stripped.
    When any row or cell is bad, the data rows are scanned again one cell
    at a time in file order, so the error names the first bad row or
    cell, exactly as a row-by-row parse would.

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
        ValueError: Empty file, repeated header name, row arity mismatch
            (named by line number), unparsable or non-finite numeric value,
            non-binary label value, or a schema key that matches no column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    if has_header is None:
        has_header = any(isinstance(k, str) for k in schema)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        # blank lines come back as empty lists and are skipped
        rows = list(filter(None, csv.reader(fh)))

    header = None
    if has_header and rows:
        header = [c.strip() for c in rows.pop(0)]
    if not rows:
        raise ValueError(f"{path}: no rows")

    width = len(rows[0])
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
        if kind not in COLUMN_KINDS:
            raise ValueError(f"schema key {key!r}: unknown kind {kind!r}")
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
    if set(map(len, rows)) != {width}:
        raise _first_bad_cell(path, has_header, columns)
    n = len(rows)
    values: list = []
    for kind, cells in zip(kinds, zip(*rows)):
        if kind == "categorical":
            values.append(list(map(str.strip, cells)))
            continue
        try:
            col = np.fromiter(map(float, cells), np.float64, count=n)
        except ValueError:
            raise _first_bad_cell(path, has_header, columns) from None
        if not np.isfinite(col).all():
            raise _first_bad_cell(path, has_header, columns)
        if kind == "label":
            if not ((col == 0.0) | (col == 1.0)).all():
                raise _first_bad_cell(path, has_header, columns)
            col = col.astype(np.int64)
        values.append(col)
    return RawTable(columns=columns, values=values)


def _first_bad_cell(
    path: Path, has_header: bool, columns: list[tuple[str, str]]
) -> ValueError:
    """The error for the first bad row or cell of ``path`` in file order.

    Reads the file again, one row and cell at a time, to recover each
    row's line number. Blank lines are skipped but still counted, so
    errors name the line as an editor shows it. Only called once the
    whole-column parse in :func:`load_csv` has found a bad row or cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        data_rows = [(reader.line_num, row) for row in reader if row]
    width = len(columns)
    for line, row in data_rows[1 if has_header else 0:]:
        if len(row) != width:
            return ValueError(
                f"{path} line {line}: expected {width} fields, got {len(row)}"
            )
        for (name, kind), value in zip(columns, row):
            if kind == "categorical":
                continue
            try:
                num = float(value)
            except ValueError:
                return ValueError(
                    f"{path} line {line}: column {name!r}: "
                    f"cannot parse {value!r} as a number"
                )
            if not math.isfinite(num):
                return ValueError(f"{path} line {line}: column {name!r}: non-finite value")
            if kind == "label" and num not in (0.0, 1.0):
                return ValueError(
                    f"{path} line {line}: label must be 0 or 1, got {value!r}"
                )
    return ValueError(f"{path}: file changed while it was read")


def one_hot_encode(table: RawTable) -> Dataset:
    """Expand categorical columns into binary indicator blocks.

    Each categorical column with ``c`` distinct values becomes ``c`` binary
    columns named ``<column>=<value>``, values sorted for determinism;
    numeric columns pass through in place. The label column, if present,
    is returned as ``Dataset.labels`` and excluded from features.
    """
    n = table.n_rows
    names: list[str] = []
    # the empty block keeps a table without feature columns 2-D
    blocks: list[np.ndarray] = [np.zeros((n, 0))]
    labels = None
    for (name, kind), col in zip(table.columns, table.values):
        if kind == "label":
            labels = col.copy()
        elif kind == "numeric":
            blocks.append(col.reshape(n, 1))
            names.append(name)
        else:
            cats = sorted(set(col))
            index = {c: k for k, c in enumerate(cats)}
            codes = np.fromiter(map(index.__getitem__, col), np.intp, count=n)
            block = np.zeros((n, len(cats)))
            block[np.arange(n), codes] = 1.0
            blocks.append(block)
            names.extend(f"{name}={c}" for c in cats)
    features = np.concatenate(blocks, axis=1)

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


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint covering train/val/test partition via a seeded shuffle.

    Val and test receive floor(fraction * n) rows each; remainder rows go
    to train. Deterministic per seed.
    """
    n = data.n_rows
    if n < 3:
        raise ValueError(f"need at least 3 rows to split, got {n}")
    # +1e-9 absorbs float representation error in fractions like 312/2286
    n_val = int(spec.val_fraction * n + 1e-9)
    n_test = int(spec.test_fraction * n + 1e-9)
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
    count = int(fraction * train.n_rows + 1e-9)
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
    meta: dict = field(default_factory=dict)


def prepare(table: RawTable, spec: SplitSpec,
            timed=contextlib.nullcontext) -> PreparedData:
    """Full preprocessing chain: encode, split, subsample, normalize.

    Normalization statistics are fitted on the final (post-subsample)
    training split and applied unchanged to validation and test. The
    ``"encode"`` and ``"split_normalize"`` steps each run inside the
    context manager ``timed(step)`` returns, so a caller can time them.
    """
    with timed("encode"):
        encoded = one_hot_encode(table)
    with timed("split_normalize"):
        train, val, test = split(encoded, spec)
        if spec.subsample_fraction is not None and spec.subsample_fraction < 1.0:
            train = subsample(train, spec.subsample_fraction, spec.seed)
        norm = normalize_fit(train)
        meta = {
            "n_features": encoded.n_features,
            "n_rows": encoded.n_rows,
            "split_sizes": [train.n_rows, val.n_rows, test.n_rows],
            "has_labels": encoded.labels is not None,
        }
        return PreparedData(
            train=normalize_apply(norm, train),
            val=normalize_apply(norm, val),
            test=normalize_apply(norm, test),
            norm=norm,
            meta=meta,
        )


def save_cache(path: str | Path, prepared: PreparedData, source_sha256: str = "") -> None:
    """Persist prepared splits to a versioned, byte-reproducible .npz.

    A feature name the stored string array cannot hold (numpy drops
    trailing NULs) raises ``ValueError`` before anything is written.
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
    }
    for part, ds in (("train", prepared.train), ("val", prepared.val),
                     ("test", prepared.test)):
        arrays[f"{part}_features"] = ds.features
        if ds.labels is not None:
            arrays[f"{part}_labels"] = ds.labels
    write_npz(path, arrays)


def load_cache(path: str | Path) -> PreparedData:
    """Load splits written by :func:`save_cache`."""
    with np.load(path, allow_pickle=False) as npz:
        version = int(npz["cache_version"])
        if version != CACHE_VERSION:
            raise ValueError(
                f"{path}: cache version {version} unsupported "
                f"(expected {CACHE_VERSION})"
            )
        names = [str(s) for s in npz["feature_names"]]
        parts = {}
        for part in ("train", "val", "test"):
            labels = npz[f"{part}_labels"] if f"{part}_labels" in npz.files else None
            parts[part] = Dataset(npz[f"{part}_features"], list(names), labels)
        norm = NormParams(npz["norm_min"], npz["norm_max"])
        meta = {"source_sha256": str(npz["source_sha256"])}
    return PreparedData(parts["train"], parts["val"], parts["test"], norm, meta)
