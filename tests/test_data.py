import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aegrlof import data, storage


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "a,b,cls\n1,2,0\n3,4,1\n5,6,0\n")
        table = data.load_csv(path, {"cls": "label"})
        assert table.n_rows == 3
        assert table.columns == [("a", "numeric"), ("b", "numeric"),
                                 ("cls", "label")]
        a, b, cls = table.values
        assert a.dtype == b.dtype == np.float64 and cls.dtype == np.int64
        np.testing.assert_array_equal(a, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(b, [2.0, 4.0, 6.0])
        np.testing.assert_array_equal(cls, [0, 1, 0])

    def test_empty_file_errors(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="no rows"):
            data.load_csv(path, {}, has_header=False)

    def test_header_only_errors(self, tmp_path):
        path = _write(tmp_path, "a,b\n")
        with pytest.raises(ValueError, match="no rows"):
            data.load_csv(path, {"a": "numeric"})

    def test_arity_violation_names_line(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n1,2\n")
        with pytest.raises(ValueError, match="line 3"):
            data.load_csv(path, {"a": "numeric"})

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n\n3,4\n5,oops\n")
        with pytest.raises(ValueError, match="line 5:"):
            data.load_csv(path, {"a": "numeric"})

    def test_unparsable_numeric(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,oops\n")
        with pytest.raises(ValueError, match="'b'"):
            data.load_csv(path, {"a": "numeric"})

    def test_nan_rejected(self, tmp_path):
        path = _write(tmp_path, "a\nnan\n")
        with pytest.raises(ValueError, match="non-finite"):
            data.load_csv(path, {"a": "numeric"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            data.load_csv(tmp_path / "nope.csv", {})

    def test_non_binary_label(self, tmp_path):
        path = _write(tmp_path, "x,cls\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            data.load_csv(path, {"cls": "label"})

    def test_index_schema_without_header(self, tmp_path):
        path = _write(tmp_path, "tcp,1,0\nudp,2,1\n")
        table = data.load_csv(path, {0: "categorical", 2: "label"},
                              has_header=False)
        assert table.columns[0] == ("col0", "categorical")
        assert table.n_rows == 2
        assert table.values[0] == ["tcp", "udp"]
        np.testing.assert_array_equal(table.values[1], [1.0, 2.0])
        np.testing.assert_array_equal(table.values[2], [0, 1])

    def test_repeated_header_name_errors(self, tmp_path):
        # the schema could type only one of the two columns named 'a'
        path = _write(tmp_path, "a, a,label\n1,x,0\n")
        with pytest.raises(ValueError, match="header repeats column 'a'"):
            data.load_csv(path, {"a": "categorical", "label": "label"})

    def test_unknown_schema_column(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="'zzz'"):
            data.load_csv(path, {"zzz": "label"})


class TestOneHot:
    def test_three_protocols(self):
        table = data.RawTable(
            columns=[("proto", "categorical")],
            values=[["tcp", "udp", "icmp", "tcp"]],
        )
        ds = data.one_hot_encode(table)
        assert ds.feature_names == ["proto=icmp", "proto=tcp", "proto=udp"]
        np.testing.assert_array_equal(ds.features[0], [0.0, 1.0, 0.0])

    def test_nsl_kdd_shaped_width(self):
        # 41 raw features, 3 categorical with vocabulary sizes 3/70/11,
        # expands to 122 encoded features
        rng = np.random.default_rng(0)
        n = 80
        columns = [(f"n{i}", "numeric") for i in range(38)]
        columns += [("proto", "categorical"), ("service", "categorical"),
                    ("flag", "categorical")]
        values = list(rng.normal(size=(38, n)))
        values += [[f"p{i % 3}" for i in range(n)],
                   [f"s{i % 70}" for i in range(n)],
                   [f"f{i % 11}" for i in range(n)]]
        ds = data.one_hot_encode(data.RawTable(columns, values))
        assert ds.n_features == 122

    def test_no_categoricals_is_identity(self):
        table = data.RawTable(
            columns=[("a", "numeric"), ("b", "numeric")],
            values=[[1.0, 3.0], [2.0, 4.0]],
        )
        ds = data.one_hot_encode(table)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_block_row_sums_are_one(self):
        rng = np.random.default_rng(3)
        rows = [(f"c{rng.integers(5)}", float(rng.normal())) for _ in range(40)]
        table = data.RawTable([("cat", "categorical"), ("x", "numeric")],
                              [list(col) for col in zip(*rows)])
        ds = data.one_hot_encode(table)
        block = ds.features[:, :-1]
        np.testing.assert_array_equal(block.sum(axis=1), np.ones(40))

    def test_width_invariant_to_row_order(self):
        cats, labels = ["a", "b", "c", "a"], [0, 1, 0, 1]
        table = data.RawTable([("cat", "categorical"), ("cls", "label")],
                              [cats, labels])
        shuffled = data.RawTable(table.columns, [cats[::-1], labels[::-1]])
        a = data.one_hot_encode(table)
        b = data.one_hot_encode(shuffled)
        assert a.feature_names == b.feature_names

    def test_label_extracted(self):
        table = data.RawTable(
            [("x", "numeric"), ("cls", "label")], [[1.0, 2.0], [0, 1]]
        )
        ds = data.one_hot_encode(table)
        assert ds.feature_names == ["x"]
        np.testing.assert_array_equal(ds.labels, [0, 1])


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        ds = data.Dataset(np.array([[2.0], [4.0], [6.0]]), ["x"])
        params = data.normalize_fit(ds)
        out = data.normalize_apply(params, ds)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 0.0, 1.0])

    def test_extrapolation_beyond_range(self):
        params = data.NormParams(np.array([0.0]), np.array([10.0]))
        out = data.normalize_apply(
            params, data.Dataset(np.array([[12.0]]), ["x"])
        )
        np.testing.assert_allclose(out.features, [[1.4]])

    def test_constant_feature_maps_to_zero(self):
        ds = data.Dataset(np.array([[5.0], [5.0], [5.0]]), ["x"])
        params = data.normalize_fit(ds)
        out = data.normalize_apply(params, ds)
        np.testing.assert_array_equal(out.features, np.zeros((3, 1)))
        # apply-time values differing from the constant still map to 0
        other = data.normalize_apply(
            params, data.Dataset(np.array([[9.0]]), ["x"])
        )
        np.testing.assert_array_equal(other.features, [[0.0]])

    def test_round_trip_recovers_originals(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(50, 6)) * rng.uniform(0.5, 20.0, size=6)
        ds = data.Dataset(feats, [f"f{i}" for i in range(6)])
        params = data.normalize_fit(ds)
        normed = data.normalize_apply(params, ds)
        span = params.maximum - params.minimum
        recovered = (normed.features + 1.0) / 2.0 * span + params.minimum
        np.testing.assert_allclose(recovered, feats, atol=1e-9)

    def test_width_mismatch(self):
        params = data.NormParams(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="features"):
            data.normalize_apply(params, data.Dataset(np.ones((1, 3)), list("abc")))


def _toy_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return data.Dataset(rng.normal(size=(n, 2)), ["x", "y"],
                        rng.integers(0, 2, n))


class TestSplit:
    def test_sizes_60_20_20(self):
        train, val, test = data.split(_toy_dataset(100), data.SplitSpec(seed=4))
        assert (train.n_rows, val.n_rows, test.n_rows) == (60, 20, 20)

    def test_remainder_goes_to_train(self):
        train, val, test = data.split(_toy_dataset(11), data.SplitSpec(seed=4))
        assert (train.n_rows, val.n_rows, test.n_rows) == (7, 2, 2)

    def test_deterministic_per_seed(self):
        ds = _toy_dataset(50)
        a = data.split(ds, data.SplitSpec(seed=9))
        b = data.split(ds, data.SplitSpec(seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_partition_property(self):
        ds = _toy_dataset(10, seed=2)
        train, val, test = data.split(ds, data.SplitSpec(seed=0))
        combined = np.vstack([train.features, val.features, test.features])
        original = np.array(sorted(map(tuple, ds.features)))
        recombined = np.array(sorted(map(tuple, combined)))
        np.testing.assert_array_equal(original, recombined)

    def test_empty_split_errors(self):
        with pytest.raises(ValueError, match="empty"):
            data.split(_toy_dataset(10), data.SplitSpec(0.98, 0.01, 0.01))

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            data.SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError, match=">= 0"):
            data.SplitSpec(1.2, -0.1, -0.1)

    @pytest.mark.parametrize("fracs", [(float("nan"), 0.2, 0.2),
                                       (0.6, float("inf"), 0.2)])
    def test_non_finite_fractions(self, fracs):
        with pytest.raises(ValueError, match="finite"):
            data.SplitSpec(*fracs)


class TestSubsample:
    def test_tenth_of_thousand(self):
        out = data.subsample(_toy_dataset(1000), 0.1, seed=0)
        assert out.n_rows == 100

    def test_full_fraction_keeps_all_rows(self):
        ds = _toy_dataset(20, seed=5)
        out = data.subsample(ds, 1.0, seed=1)
        assert out.n_rows == 20
        np.testing.assert_array_equal(
            np.array(sorted(map(tuple, out.features))),
            np.array(sorted(map(tuple, ds.features))),
        )

    def test_deterministic(self):
        ds = _toy_dataset(100)
        a = data.subsample(ds, 0.3, seed=7)
        b = data.subsample(ds, 0.3, seed=7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_empty_result_errors(self):
        with pytest.raises(ValueError, match="empty"):
            data.subsample(_toy_dataset(100), 0.001, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            data.subsample(_toy_dataset(10), 1.5, seed=0)


class TestCache:
    def test_round_trip_exact(self, tmp_path):
        table = data.RawTable(
            [("x", "numeric"), ("c", "categorical"), ("cls", "label")],
            [[float(i) for i in range(30)], [f"v{i % 3}" for i in range(30)],
             [i % 2 for i in range(30)]],
        )
        prepared = data.prepare(table, data.SplitSpec(seed=1))
        path = tmp_path / "cache.npz"
        data.save_cache(path, prepared, source_sha256="abc")
        loaded = data.load_cache(path, {}, tmp_path / "gone.csv")
        for part in ("train", "val", "test"):
            a, b = getattr(prepared, part), getattr(loaded, part)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.feature_names == b.feature_names
        np.testing.assert_array_equal(prepared.norm.minimum, loaded.norm.minimum)

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = data.RawTable([("x", "numeric")], [[float(i) for i in range(10)]])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        digest = data.save_cache(p1, prepared)
        assert data.save_cache(p2, prepared) == digest == storage.file_sha256(p1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_feature_name_with_trailing_nul_rejected_before_writing(self, tmp_path):
        # a fixed-width numpy string array would store both names as "c=x"
        table = data.RawTable([("c", "categorical")], [["x", "x\x00"] * 10])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        assert prepared.train.feature_names == ["c=x", "c=x\x00"]
        path = tmp_path / "cache.npz"
        with pytest.raises(ValueError) as error:
            data.save_cache(path, prepared)
        assert str(error.value) == (
            "feature name 'c=x\\x00' cannot be stored in the dataset cache, "
            "which drops trailing NUL characters")
        assert not path.exists()

    def test_version_check(self, tmp_path):
        table = data.RawTable([("x", "numeric")], [[float(i) for i in range(10)]])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        path = tmp_path / "cache.npz"
        data.save_cache(path, prepared)
        with np.load(path) as npz:
            arrays = {k.removesuffix(".npy"): npz[k.removesuffix(".npy")]
                      for k in npz.files}
        arrays["cache_version"] = np.array(99, dtype=np.int64)
        storage.write_npz(path, arrays)
        with pytest.raises(ValueError) as error:
            data.load_cache(path, {}, tmp_path / "gone.csv")
        assert str(error.value) == (f"{path}: cache version 99 unsupported "
                                    f"(expected {data.CACHE_VERSION})")

    def test_missing_cache_refused(self, tmp_path):
        path = tmp_path / "cache.npz"
        with pytest.raises(FileNotFoundError) as error:
            data.load_cache(path, {}, tmp_path / "d.csv")
        assert str(error.value) == (
            f"prepared dataset not found at {path}; run `prepare` first")

    def test_cache_prepared_with_other_settings_refused(self, tmp_path):
        table = data.RawTable([("x", "numeric")], [[float(i) for i in range(10)]])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        path = tmp_path / "cache.npz"
        recorded = {"split": {"seed": 0, "val_fraction": 0.2}}
        data.save_cache(path, prepared, settings=recorded)
        gone = tmp_path / "gone.csv"
        data.load_cache(path, recorded, gone)
        # only the keys the caller gives are compared
        data.load_cache(path, {"split": {"seed": 0}}, gone)
        with pytest.raises(ValueError) as error:
            data.load_cache(path, {"split": {"seed": 1, "val_fraction": 0.2},
                                   "dataset": {"path": "d.csv"}}, gone)
        assert str(error.value) == (
            f"{path} was prepared with other settings (split.seed: cache 0, "
            "config 1; dataset.path: cache None, config 'd.csv'); "
            "run `prepare` again")

    def test_cache_of_a_changed_source_refused(self, tmp_path):
        # the refusal compares the source's bytes with the digest
        # save_cache recorded; a source that is gone is not checked
        table = data.RawTable([("x", "numeric")], [[float(i) for i in range(10)]])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        source = tmp_path / "d.csv"
        source.write_text("x\n1\n")
        path = tmp_path / "cache.npz"
        data.save_cache(path, prepared,
                        source_sha256=storage.file_sha256(source))
        data.load_cache(path, {}, source)
        data.load_cache(path, {}, tmp_path / "gone.csv")
        source.write_text("x\n2\n")
        with pytest.raises(ValueError) as error:
            data.load_cache(path, {}, str(source))
        assert str(error.value) == (
            f"{source} changed after `prepare` wrote {path}; run `prepare` again")


def test_prepare_subsamples_training_only():
    table = data.RawTable(
        [("x", "numeric"), ("cls", "label")],
        [[float(i) for i in range(100)], [i % 2 for i in range(100)]],
    )
    prepared = data.prepare(
        table, data.SplitSpec(seed=0, subsample_fraction=0.5)
    )
    assert prepared.train.n_rows == 30
    assert prepared.val.n_rows == 20
    assert prepared.test.n_rows == 20
    # training features normalized into [-1, 1]
    assert prepared.train.features.min() >= -1.0
    assert prepared.train.features.max() <= 1.0


class TestRawTable:
    def test_columns_held_as_arrays_and_lists(self):
        table = data.RawTable(
            [("x", "numeric"), ("c", "categorical"), ("cls", "label")],
            [[1, 2], ("a", "b\x00"), [0.0, 1.0]],
        )
        x, c, cls = table.values
        assert x.dtype == np.float64 and cls.dtype == np.int64
        assert c == ["a", "b\x00"]
        assert table.n_rows == 2
        assert table.rows == [(1.0, "a", 0), (2.0, "b\x00", 1)]

    def test_column_length_mismatch_names_first_short_column(self):
        with pytest.raises(ValueError,
                           match="column 'c': expected 3 values, got 2"):
            data.RawTable(
                [("x", "numeric"), ("c", "categorical"), ("y", "numeric")],
                [[1.0, 2.0, 3.0], ["a", "b"], [1.0]],
            )

    def test_one_entry_per_column(self):
        with pytest.raises(ValueError, match="2 columns but 1 value columns"):
            data.RawTable([("x", "numeric"), ("y", "numeric")], [[1.0]])

    @pytest.mark.parametrize("kind", ["numeric", "categorical", "label"])
    def test_columns_must_be_one_dimensional(self, kind):
        with pytest.raises(ValueError, match="column 'x' must be 1-D"):
            data.RawTable([("x", kind)], [np.zeros((2, 2), dtype=np.int64)])

    def test_label_count_and_kind_checks_kept(self):
        with pytest.raises(ValueError, match="at most one label column"):
            data.RawTable([("a", "label"), ("b", "label")], [[0], [1]])
        with pytest.raises(ValueError, match="unknown kind 'text'"):
            data.RawTable([("a", "text")], [["x"]])


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # spreadsheet exports often start with a UTF-8 byte-order mark
    path = _write(tmp_path, "\ufeffduration,proto,cls\n1,tcp,0\n2,udp,1\n")
    table = data.load_csv(path, {"duration": "numeric", "proto": "categorical",
                                 "cls": "label"})
    assert table.columns[0] == ("duration", "numeric")
    ds = data.one_hot_encode(table)
    assert ds.feature_names == ["duration", "proto=tcp", "proto=udp"]


# -- differential property: load_csv, whichever of its numpy and csv paths
# reads the file, and one_hot_encode against a per-cell referee, a copy of
# the row-by-row implementation they replaced. The copy opens files as
# "utf-8-sig", like the code under test, so the byte-order mark fix does
# not count as a difference.


def _referee_load_csv(path, schema, has_header):
    for key, kind in schema.items():
        if kind not in data.COLUMN_KINDS:
            raise ValueError(f"column {key!r}: unknown kind {kind!r}, "
                             f"expected one of {list(data.COLUMN_KINDS)}")
    n_label = list(schema.values()).count("label")
    if n_label > 1:
        raise ValueError(f"at most one label column allowed, got {n_label}")
    if has_header is None:
        has_header = any(isinstance(k, str) for k in schema)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        data_rows = [(reader.line_num, row) for row in reader if row]
    header = None
    if has_header and data_rows:
        header = [c.strip() for c in data_rows.pop(0)[1]]
    if not data_rows:
        raise ValueError(f"{path}: no rows")
    width = len(data_rows[0][1])
    names = header if header is not None else [f"col{i}" for i in range(width)]
    if len(names) != width:
        raise ValueError(
            f"{path}: header has {len(names)} columns but first data row has {width}"
        )
    seen = set()
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
    rows = []
    for line, row in data_rows:
        if len(row) != width:
            raise ValueError(
                f"{path} line {line}: expected {width} fields, got {len(row)}"
            )
        parsed = []
        for j, value in enumerate(row):
            kind = kinds[j]
            if kind == "categorical":
                parsed.append(value.strip())
                continue
            try:
                num = float(value)
            except ValueError:
                raise ValueError(
                    f"{path} line {line}: column {names[j]!r}: "
                    f"cannot parse {value!r} as a number"
                ) from None
            if not math.isfinite(num):
                raise ValueError(
                    f"{path} line {line}: column {names[j]!r}: non-finite value"
                )
            if kind == "label":
                if num not in (0.0, 1.0):
                    raise ValueError(
                        f"{path} line {line}: label must be 0 or 1, got {value!r}"
                    )
                parsed.append(int(num))
            else:
                parsed.append(num)
        rows.append(tuple(parsed))
    return list(zip(names, kinds)), rows


def _referee_one_hot_encode(columns, rows):
    names, builders, label_idx = [], [], None
    for j, (name, kind) in enumerate(columns):
        if kind == "label":
            label_idx = j
        elif kind == "numeric":
            builders.append((j, "numeric", None))
            names.append(name)
        else:
            cats = sorted({row[j] for row in rows})
            index = {c: k for k, c in enumerate(cats)}
            builders.append((j, "categorical", index))
            names.extend(f"{name}={c}" for c in cats)
    features = np.zeros((len(rows), len(names)), dtype=np.float64)
    for i, row in enumerate(rows):
        col = 0
        for j, kind, index in builders:
            if kind == "numeric":
                features[i, col] = row[j]
                col += 1
            else:
                features[i, col + index[row[j]]] = 1.0
                col += len(index)
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature values after encoding")
    labels = None
    if label_idx is not None:
        labels = np.array([row[label_idx] for row in rows], dtype=np.int64)
    return data.Dataset(features, names, labels)


_NUMBERS = st.one_of(
    st.sampled_from([" 1.5 ", "1_000", "+.5", "-0", "1e308", "-1e308", "0",
                     "7", "2.5e-3", "\t-4\n", "5e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# one bad cell each, or a row one cell short or long; "1.5\x00" reads as 1.5
# through a fixed-width numpy string array, but float() rejects it
_FAULTS = ["nan", "-Infinity", "abc", "", "1e309", "1,5", "1__0", "1.5\x00",
           "2", "drop", "add"]
_CATEGORIES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
    st.sampled_from(["tcp", " tcp ", "a=b", "é", "ß", "x\x00", "a,b", ""]),
)


@st.composite
def _csv_files(draw):
    """(CSV text, schema, has_header): valid cells in every column, then,
    in half the files, one or two faults at drawn rows, each a row of the
    wrong length or a bad cell in a numeric or label column."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical", "label"]),
                          min_size=1, max_size=4))
    cell = {"numeric": _NUMBERS, "categorical": _CATEGORIES,
            "label": st.sampled_from(["0", "1", "1.0", "-0"])}
    rows = draw(st.lists(st.tuples(*(cell[kind] for kind in kinds)).map(list),
                         min_size=1, max_size=6))
    parsed = [j for j, kind in enumerate(kinds) if kind != "categorical"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(_FAULTS))
        if fault == "drop":
            if row:
                row.pop()
        elif fault == "add":
            row.append("0")
        elif parsed and len(row) == len(kinds):
            row[draw(st.sampled_from(parsed))] = fault
    has_header = draw(st.booleans())
    names = [f" c{j} " if j % 2 else f"c{j}" for j in range(len(kinds))]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL,
                                                      csv.QUOTE_ALL])))
    for row in ([names] if has_header else []) + rows:
        writer.writerow(row)
        buffer.write(draw(st.sampled_from(["", "", "\n", "\r\n\n"])))
    if has_header:
        schema = {name.strip(): kind for name, kind in zip(names, kinds)}
    else:
        schema = dict(enumerate(kinds))
    return buffer.getvalue(), schema, has_header


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def _assert_same_table(table, want):
    """``table`` holds the referee's columns and rows, cell for cell and
    bit for bit."""
    columns, rows = want
    assert table.columns == columns
    assert table.n_rows == len(rows)
    for j, ((_, kind), col) in enumerate(zip(columns, table.values)):
        cells = [row[j] for row in rows]
        if kind == "categorical":
            assert col == cells
        elif kind == "label":
            assert col.dtype == np.int64
            np.testing.assert_array_equal(col, np.array(cells, dtype=np.int64))
        else:
            np.testing.assert_array_equal(_bits(col), _bits(cells))


@settings(max_examples=300)
@given(_csv_files())
def test_columnar_load_and_encode_match_per_cell_referee(tmp_path_factory, case):
    text, schema, has_header = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want, want_error = _outcome(_referee_load_csv, path, schema, has_header)
    table, error = _outcome(data.load_csv, path, schema, has_header)
    assert error == want_error
    if want is None:
        return
    _assert_same_table(table, want)
    columns, rows = want
    want_ds, want_error = _outcome(_referee_one_hot_encode, columns, rows)
    ds, error = _outcome(data.one_hot_encode, table)
    assert error == want_error
    if want_ds is None:
        return
    assert ds.feature_names == want_ds.feature_names
    assert ds.features.shape == want_ds.features.shape
    np.testing.assert_array_equal(_bits(ds.features), _bits(want_ds.features))
    if want_ds.labels is None:
        assert ds.labels is None
    else:
        assert ds.labels.dtype == want_ds.labels.dtype
        np.testing.assert_array_equal(ds.labels, want_ds.labels)


@pytest.mark.parametrize("text,schema,has_header,parser", [
    ("a,cls\n1_000,0\n2,1\n", {"cls": "label"}, None, "csv"),
    ("a,cls\n\u0661\u0662,0\n2,1\n", {"cls": "label"}, None, "csv"),
    ("a,p,cls\r1,tcp,0\r\r2,udp,1\r", {"p": "categorical", "cls": "label"},
     None, "numpy"),
    ("1,tcp\n2, udp \n", {1: "categorical"}, False, "numpy"),
])
def test_spellings_numpy_rejects_or_reads_give_the_per_cell_table(
        tmp_path, text, schema, has_header, parser):
    # 1_000 and Arabic-Indic digits are read by float() alone; bare \r line
    # ends and padded categories read alike on either path
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = data.load_csv(path, schema, has_header)
    assert table.parser == parser
    _assert_same_table(table, _referee_load_csv(path, schema, has_header))


@pytest.mark.parametrize("text,message", [
    ("a,b\n", "no rows"),
    ("a,b\n\n\r\n", "no rows"),
    ("a,c\n1,x\n2,y,z\n", "line 3: expected 2 fields, got 3"),
    ("a,c\n1,x\n\n2\n", "line 4: expected 2 fields, got 1"),
    ("a,c\n1,x\n1\x1c,y\n", "line 3: column 'a': cannot parse '1\\x1c' as a number"),
])
def test_files_without_a_table_give_the_per_cell_error_and_no_warning(
        tmp_path, text, message):
    # numpy warns on a file without data rows and would skip the
    # separator after "1" as whitespace; both go to the csv path
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    schema = {"c": "categorical"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            data.load_csv(path, schema)
    assert str(error.value).endswith(message)
    assert _outcome(_referee_load_csv, path, schema, None) == (None, str(error.value))


def test_dataset_names_each_non_binary_label_once_in_order():
    labels = np.array([3, 0, -1, 3, 1])
    with pytest.raises(ValueError) as error:
        data.Dataset(np.zeros((5, 1)), ["x"], labels)
    # the message of the sorted-set check it replaced, word for word
    assert str(error.value) == (
        f"labels must be 0/1, found {sorted(set(np.unique(labels)) - {0, 1})}")
