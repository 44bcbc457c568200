import numpy as np
import pytest

from aegrlof import data


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "a,b,cls\n1,2,0\n3,4,1\n5,6,0\n")
        table = data.load_csv(path, {"cls": "label"})
        assert len(table.rows) == 3
        assert table.columns == [("a", "numeric"), ("b", "numeric"),
                                 ("cls", "label")]
        assert table.rows[0] == (1.0, 2.0, 0)

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
        assert table.rows[1] == ("udp", 2.0, 1)

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
            rows=[("tcp",), ("udp",), ("icmp",), ("tcp",)],
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
        rows = []
        for i in range(n):
            rows.append(
                tuple(rng.normal(size=38))
                + (f"p{i % 3}", f"s{i % 70}", f"f{i % 11}")
            )
        ds = data.one_hot_encode(data.RawTable(columns, rows))
        assert ds.n_features == 122

    def test_no_categoricals_is_identity(self):
        table = data.RawTable(
            columns=[("a", "numeric"), ("b", "numeric")],
            rows=[(1.0, 2.0), (3.0, 4.0)],
        )
        ds = data.one_hot_encode(table)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_block_row_sums_are_one(self):
        rng = np.random.default_rng(3)
        rows = [(f"c{rng.integers(5)}", float(rng.normal())) for _ in range(40)]
        table = data.RawTable([("cat", "categorical"), ("x", "numeric")], rows)
        ds = data.one_hot_encode(table)
        block = ds.features[:, :-1]
        np.testing.assert_array_equal(block.sum(axis=1), np.ones(40))

    def test_width_invariant_to_row_order(self):
        rows = [("a", 0), ("b", 1), ("c", 0), ("a", 1)]
        table = data.RawTable([("cat", "categorical"), ("cls", "label")], rows)
        shuffled = data.RawTable(table.columns, rows[::-1])
        a = data.one_hot_encode(table)
        b = data.one_hot_encode(shuffled)
        assert a.feature_names == b.feature_names

    def test_label_extracted(self):
        table = data.RawTable(
            [("x", "numeric"), ("cls", "label")], [(1.0, 0), (2.0, 1)]
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
            [(float(i), f"v{i % 3}", i % 2) for i in range(30)],
        )
        prepared = data.prepare(table, data.SplitSpec(seed=1))
        path = tmp_path / "cache.npz"
        data.save_cache(path, prepared, source_sha256="abc")
        loaded = data.load_cache(path)
        for part in ("train", "val", "test"):
            a, b = getattr(prepared, part), getattr(loaded, part)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.feature_names == b.feature_names
        np.testing.assert_array_equal(prepared.norm.minimum, loaded.norm.minimum)
        assert loaded.meta["source_sha256"] == "abc"

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = data.RawTable([("x", "numeric")], [(float(i),) for i in range(10)])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        data.save_cache(p1, prepared)
        data.save_cache(p2, prepared)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        table = data.RawTable([("x", "numeric")], [(float(i),) for i in range(10)])
        prepared = data.prepare(table, data.SplitSpec(seed=0))
        path = tmp_path / "cache.npz"
        data.save_cache(path, prepared)
        import aegrlof.storage as storage

        with np.load(path) as npz:
            arrays = {k.removesuffix(".npy"): npz[k.removesuffix(".npy")]
                      for k in npz.files}
        arrays["cache_version"] = np.array(99, dtype=np.int64)
        storage.write_npz(path, arrays)
        with pytest.raises(ValueError, match="version"):
            data.load_cache(path)


def test_prepare_subsamples_training_only():
    table = data.RawTable(
        [("x", "numeric"), ("cls", "label")],
        [(float(i), i % 2) for i in range(100)],
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
