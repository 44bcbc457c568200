import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aegrlof import autoencoder as ae
from aegrlof import data, pipeline
from aegrlof.autoencoder import TrainConfig

from conftest import make_embedded_blob, naive_lof_scores


class TestPrune:
    def test_keeps_rows_at_or_below_mean(self):
        latents = np.arange(8.0).reshape(4, 2)
        kept, mask = pipeline.prune(latents, np.array([1.0, 2.0, 3.0, 6.0]))
        np.testing.assert_array_equal(mask, [True, True, True, False])
        np.testing.assert_array_equal(kept, latents[:3])

    def test_equal_errors_keep_everything(self):
        latents = np.ones((5, 2))
        kept, mask = pipeline.prune(latents, np.full(5, 0.7))
        assert mask.all()
        assert kept.shape == (5, 2)

    def test_two_point_case(self):
        kept, mask = pipeline.prune(np.zeros((2, 3)), np.array([0.0, 10.0]))
        np.testing.assert_array_equal(mask, [True, False])
        assert kept.shape == (1, 3)

    def test_survivor_mean_never_exceeds_overall(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            res = rng.exponential(size=rng.integers(2, 50))
            latents = rng.normal(size=(res.size, 3))
            kept, mask = pipeline.prune(latents, res)
            assert kept.shape[0] >= 1
            assert res[mask].mean() <= res.mean() + 1e-12
            if not np.all(res == res[0]):
                assert kept.shape[0] < res.size

    @settings(max_examples=200)
    @given(arrays(np.float64, st.integers(1, 60),
                  elements=st.one_of(st.integers(0, 5).map(float),
                                     st.floats(1e-6, 1e6))))
    def test_survivors_never_have_higher_mean_error(self, res):
        # small integers give ties and constant vectors; the tolerance is
        # relative, a few roundings of the survivors' mean
        latents = np.arange(2.0 * res.size).reshape(res.size, 2)
        kept, mask = pipeline.prune(latents, res)
        np.testing.assert_array_equal(kept, latents[mask])
        assert mask.any()
        assert res[mask].mean() <= res.mean() * (1.0 + 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pipeline.prune(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_error_named(self, bad):
        # a NaN mean would keep no row; the first bad error is named instead
        latents = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=f"finite, got {bad} at row 1"):
            pipeline.prune(latents, np.array([0.1, bad, 0.2, bad]))


class TestAugment:
    def test_factor_one_is_identity(self):
        latents = np.random.default_rng(0).normal(size=(10, 3))
        out = pipeline.augment(latents, 1.0, 0.5, seed=0)
        np.testing.assert_array_equal(out, latents)

    def test_factor_two_doubles_rows(self):
        latents = np.random.default_rng(1).normal(size=(100, 4))
        out = pipeline.augment(latents, 2.0, 0.1, seed=0)
        assert out.shape == (200, 4)
        np.testing.assert_array_equal(out[:100], latents)

    def test_zero_sigma_duplicates_in_order(self):
        latents = np.arange(12.0).reshape(4, 3)
        out = pipeline.augment(latents, 2.5, 0.0, seed=0)
        assert out.shape == (10, 3)
        np.testing.assert_array_equal(out[4:8], latents)
        np.testing.assert_array_equal(out[8:], latents[:2])

    def test_deterministic_per_seed(self):
        latents = np.random.default_rng(2).normal(size=(20, 2))
        a = pipeline.augment(latents, 3.0, 0.2, seed=5)
        b = pipeline.augment(latents, 3.0, 0.2, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            pipeline.augment(np.zeros((3, 2)), 0.5, 0.1, seed=0)


class TestVariantSpec:
    def test_modifier_restricted_to_latent_lof_detectors(self):
        pipeline.VariantSpec("ae_lof", "prune")
        pipeline.VariantSpec("aegr_lof", "prune_da")
        with pytest.raises(ValueError, match="modifier"):
            pipeline.VariantSpec("lof_raw", "prune")
        with pytest.raises(ValueError, match="modifier"):
            pipeline.VariantSpec("ae_re", "prune_da")

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="detector"):
            pipeline.VariantSpec("isolation_forest")
        with pytest.raises(ValueError, match="modifier"):
            pipeline.VariantSpec("ae_lof", "trim")
        # names that are not strings, hashable or not
        with pytest.raises(ValueError, match="unknown detector"):
            pipeline.VariantSpec(["ae_lof"])
        with pytest.raises(ValueError, match="unknown modifier"):
            pipeline.VariantSpec("ae_lof", ["prune"])

    def test_key(self):
        assert pipeline.VariantSpec("aegr_lof", "prune").key == "aegr_lof/prune"

    def test_reversal_names_the_network_a_head_reads(self):
        assert pipeline.VariantSpec("lof_raw").reversal is None
        assert pipeline.VariantSpec("ae_re").reversal is False
        assert pipeline.VariantSpec("ae_lof", "prune").reversal is False
        assert pipeline.VariantSpec("aegr_lof", "prune_da").reversal is True

    @pytest.mark.parametrize("field", ["aug_factor", "aug_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_augmentation_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            pipeline.VariantSpec("aegr_lof", "prune_da", **{field: value})


def _prepared_splits(seed=0, **blob_kwargs):
    ds = make_embedded_blob(seed, **blob_kwargs)
    train, val, test = data.split(ds, data.SplitSpec(seed=seed))
    norm = data.normalize_fit(train)
    return tuple(data.normalize_apply(norm, s) for s in (train, val, test))


_FAST_CFG = TrainConfig(max_epochs=12, batch_size=16, learning_rate=0.05,
                        gr_start_epoch=4, patience=6)


def _score(spec, train, val, test, cfg=_FAST_CFG):
    """Train the spec's network, then score the spec's head from it."""
    [network] = pipeline.train_networks([(spec.seed, spec.detector == "aegr_lof")],
                                        train, val, test, cfg)
    return pipeline.run_variant(spec, train, test, 20, network)


class TestRunVariant:
    def test_disabled_reversal_reduces_to_plain_ae_lof(self):
        train, val, test = _prepared_splits(seed=1, n_normal=240, n_anom=12)
        cfg = TrainConfig(max_epochs=8, batch_size=16, learning_rate=0.05,
                          gr_start_epoch=8, patience=4)
        run_plain = _score(pipeline.VariantSpec("ae_lof", seed=3),
                           train, val, test, cfg)
        run_gr_off = _score(pipeline.VariantSpec("aegr_lof", seed=3),
                            train, val, test, cfg)
        np.testing.assert_array_equal(run_plain.scores, run_gr_off.scores)

    def test_ae_re_scores_training_copy_below_outlier(self):
        train, val, test = _prepared_splits(seed=2, n_normal=240, n_anom=12)
        copied = train.features[0]
        far = np.full(train.n_features, 25.0)
        probe = data.Dataset(np.vstack([copied, far]), train.feature_names,
                             np.array([0, 1]))
        run = _score(pipeline.VariantSpec("ae_re", seed=0), train, val, probe)
        assert run.scores[0] < run.scores[1]

    def test_lof_raw_ranks_far_outliers_on_top(self):
        rng = np.random.default_rng(8)
        blob = rng.normal(size=(120, 2))
        outliers = rng.normal(size=(10, 2)) * 0.5 + 40.0
        train = data.Dataset(blob, ["x", "y"])
        test_feats = np.vstack([rng.normal(size=(40, 2)), outliers])
        test = data.Dataset(test_feats, ["x", "y"],
                            np.r_[np.zeros(40, int), np.ones(10, int)])
        run = pipeline.run_variant(
            pipeline.VariantSpec("lof_raw", seed=0), train, test, 10)
        top10 = np.argsort(run.scores)[-10:]
        assert set(top10) == set(range(40, 50))
        oracle = naive_lof_scores(blob, 10, test_feats)
        np.testing.assert_allclose(run.scores, oracle, atol=1e-9)

    def test_deterministic_scored_runs(self):
        train, val, test = _prepared_splits(seed=3, n_normal=200, n_anom=10)
        spec = pipeline.VariantSpec("aegr_lof", "prune_da", seed=7)
        a = _score(spec, train, val, test)
        b = _score(spec, train, val, test)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.metadata == b.metadata

    def test_prune_metadata_and_masks(self):
        train, val, test = _prepared_splits(seed=4, n_normal=200, n_anom=10)
        [network] = pipeline.train_networks([(1, True)], train, val, test,
                                            _FAST_CFG)
        run = pipeline.run_variant(pipeline.VariantSpec("aegr_lof", "prune", seed=1),
                                   train, test, 20, network)
        assert run.metadata["rows_after_prune"] < train.n_rows
        assert network.kept.shape == (train.n_rows,)
        assert network.kept.sum() == run.metadata["rows_after_prune"]
        assert network.train_latents.shape == (train.n_rows,
                                               run.metadata["latent_dim"])

    def test_augment_grows_reference(self):
        train, val, test = _prepared_splits(seed=5, n_normal=200, n_anom=10)
        spec = pipeline.VariantSpec("aegr_lof", "prune_da",
                                    aug_factor=3.0, seed=1)
        run = _score(spec, train, val, test)
        assert run.metadata["rows_after_augment"] == 3 * run.metadata[
            "rows_after_prune"]

    def test_reference_pruned_below_min_pts_names_pruning(self):
        train, val, test = _prepared_splits(seed=8, n_normal=120, n_anom=6)
        [network] = pipeline.train_networks([(0, False)], train, val, test,
                                            _FAST_CFG)
        kept = int(pipeline.prune(network.train_latents,
                                  network.train_errors)[1].sum())
        assert kept < train.n_rows
        # LOF needs more than min_pts references: the full training set
        # and the doubled survivors have them, the survivors alone do not
        min_pts = kept
        for modifier in ("none", "prune_da"):
            pipeline.run_variant(pipeline.VariantSpec("ae_lof", modifier),
                                 train, test, min_pts, network)
        for spec in (pipeline.VariantSpec("ae_lof", "prune"),
                     pipeline.VariantSpec("ae_lof", "prune_da", aug_factor=1.0)):
            with pytest.raises(ValueError) as error:
                pipeline.run_variant(spec, train, test, min_pts, network)
            assert str(error.value) == (
                f"{spec.key}: pruning kept {kept} of {train.n_rows} training "
                f"rows, leaving {kept} reference rows; LOF needs more than "
                f"min_pts={min_pts}")

    def test_labels_carried_to_scores(self):
        # one score per test row, in row order, so the caller pairs them
        # with the test labels
        train, val, test = _prepared_splits(seed=6, n_normal=200, n_anom=10)
        run = _score(pipeline.VariantSpec("ae_re", seed=0), train, val, test)
        assert len(run.scores) == len(test.labels) == test.n_rows


class TestTrainNetworks:
    def test_one_forward_pass_per_split_and_one_prune(self, monkeypatch):
        train, val, test = _prepared_splits(seed=9, n_normal=120, n_anom=6)
        passes, prunes = [], []

        def blocked_pass(params, x, *args):
            if x is train.features or x is test.features:
                passes.append(x.shape[0])
            return real_pass(params, x, *args)

        def prune(latents, res):
            prunes.append(latents.shape[0])
            return real_prune(latents, res)

        real_pass, real_prune = ae._blocked_pass, pipeline.prune
        monkeypatch.setattr(ae, "_blocked_pass", blocked_pass)
        monkeypatch.setattr(pipeline, "prune", prune)
        networks = pipeline.train_networks([(0, False), (0, True)], train, val,
                                           test, _FAST_CFG)
        # validation passes run over the validation split, so only passes
        # over the other splits count: each network makes one blocked pass
        # over the training split and one over the test split
        assert passes == [train.n_rows, test.n_rows] * 2
        assert prunes == [train.n_rows] * 2
        for network in networks:
            np.testing.assert_array_equal(network.kept, real_prune(
                network.train_latents, network.train_errors)[1])

    def test_plain_and_reversal_twins_match_until_the_first_reversal(self):
        # a seed's two networks share the initialization and the shuffles,
        # so the plain one is the reversal one's counterfactual: identical
        # through epoch g, and in epoch g + 1 until its end-of-epoch reversal
        g = 4
        train, val, test = _prepared_splits(seed=6, n_normal=240, n_anom=12)
        cfg = TrainConfig(max_epochs=12, batch_size=16, learning_rate=0.05,
                          gr_start_epoch=g, patience=0)
        plain, aegr = pipeline.train_networks([(3, False), (3, True)], train, val,
                                              test, cfg)
        assert len(plain.history) == len(aegr.history) == 12
        for p, r in zip(plain.history[:g], aegr.history[:g]):
            assert (p.train_loss, p.val_loss) == (r.train_loss, r.val_loss)
        assert plain.history[g].train_loss == aegr.history[g].train_loss
        assert plain.history[g].val_loss != aegr.history[g].val_loss
        assert not any(h.reversal_applied for h in plain.history)
        assert ([h.reversal_applied for h in aegr.history]
                == [False] * g + [True] * (12 - g))


_NETWORK_VARIANTS = [v for v in pipeline.VARIANT_MATRIX if v[0] != "lof_raw"]


def _network_arrays(network):
    arrays = [network.train_latents, network.train_errors,
              network.test_latents, network.test_errors, network.kept]
    for weights, bias in network.net.params:
        arrays += [weights, bias]
    return [a.copy() for a in arrays]


class TestSharedNetwork:
    def test_heads_score_alike_in_any_order(self):
        # every head reads its network and none changes it, so scoring the
        # heads forwards and then backwards gives identical results
        train, val, test = _prepared_splits(seed=7, n_normal=200, n_anom=10)
        networks = dict(zip((False, True), pipeline.train_networks(
            [(2, False), (2, True)], train, val, test, _FAST_CFG)))
        before = {r: _network_arrays(n) for r, n in networks.items()}
        specs = [pipeline.VariantSpec(d, m, seed=2) for d, m in _NETWORK_VARIANTS]

        def score_all(order):
            return {spec.key: pipeline.run_variant(
                spec, train, test, 20, networks[spec.detector == "aegr_lof"])
                for spec in order}

        forward = score_all(specs)
        backward = score_all(specs[::-1])
        for key, run in forward.items():
            other = backward[key]
            np.testing.assert_array_equal(run.scores, other.scores)
            assert run.metadata == other.metadata
        for reversal, network in networks.items():
            for a, b in zip(before[reversal], _network_arrays(network)):
                np.testing.assert_array_equal(a, b)

    def test_network_of_other_seed_or_reversal_rejected(self):
        train, val, test = _prepared_splits(seed=8, n_normal=120, n_anom=6)
        [network] = pipeline.train_networks([(0, False)], train, val, test,
                                            _FAST_CFG)
        for spec in (pipeline.VariantSpec("aegr_lof", seed=0),
                     pipeline.VariantSpec("ae_lof", seed=1)):
            with pytest.raises(ValueError, match="cannot use the network"):
                pipeline.run_variant(spec, train, test, 20, network)

    def test_heads_need_a_network_and_lof_raw_takes_none(self):
        train, val, test = _prepared_splits(seed=8, n_normal=120, n_anom=6)
        for detector, modifier in _NETWORK_VARIANTS:
            spec = pipeline.VariantSpec(detector, modifier, seed=0)
            with pytest.raises(ValueError, match="needs a network"):
                pipeline.run_variant(spec, train, test, 20)
        [network] = pipeline.train_networks([(0, False)], train, val, test,
                                            _FAST_CFG)
        with pytest.raises(ValueError, match="takes no network"):
            pipeline.run_variant(pipeline.VariantSpec("lof_raw"), train, test,
                                 20, network)
