import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aegrlof import autoencoder as ae
from aegrlof.data import Dataset

from conftest import finite_difference_grads, reference_plain_sgd


def _dataset(features):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(features, [f"f{i}" for i in range(features.shape[1])])


def _random_dataset(n, width, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return _dataset(rng.normal(size=(n, width)) * scale)


class TestArchitecture:
    def test_bottleneck_width_table(self):
        for n, m in [(16, 5), (9, 4), (57, 8), (1558, 40),
                     (259, 17), (122, 12), (196, 15), (40, 7)]:
            assert ae.bottleneck_width(n) == m

    def test_widths_symmetric(self):
        net = ae.build_architecture(16, seed=0)
        assert net.widths == [16, 9, 5, 9, 16]

    def test_single_feature_degenerate(self):
        net = ae.build_architecture(1, seed=0)
        assert net.widths == [1, 1, 2, 1, 1]

    def test_invalid_feature_count(self):
        with pytest.raises(ValueError):
            ae.build_architecture(0)

    def test_init_bounds_and_activations(self):
        net = ae.build_architecture(25, seed=3)
        for layer in net.layers:
            bound = 1.0 / math.sqrt(layer.weights.shape[1])
            assert np.all(np.abs(layer.weights) <= bound)
            np.testing.assert_array_equal(layer.bias, 0.0)
        # through forward: tanh in every layer but the last, which is
        # linear; biases of 2 push pre-activations where the two differ
        rng = np.random.default_rng(4)
        one_layer = ae.Network([ae.LayerParams(rng.normal(size=(3, 3)),
                                               np.zeros(3))])
        for model, width in ((net, 25), (one_layer, 3)):
            for layer in model.layers:
                layer.bias[:] = 2.0
            acts, out = ae.forward(model, rng.normal(size=(6, width)))
            for i, layer in enumerate(model.layers):
                pre = acts[i] @ layer.weights.T + layer.bias
                last = i == len(model.layers) - 1
                np.testing.assert_array_equal(acts[i + 1],
                                              pre if last else np.tanh(pre))
            assert np.max(np.abs(out)) > 1.0

    def test_init_deterministic_per_seed(self):
        a = ae.build_architecture(10, seed=5)
        b = ae.build_architecture(10, seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)


class TestActivation:
    """The tanh layers, seen through ``forward``."""

    def test_zero(self):
        net = ae.build_architecture(6, seed=0)
        acts, out = ae.forward(net, np.zeros((1, 6)))
        for hidden in acts[1:-1]:
            np.testing.assert_array_equal(hidden, 0.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_antisymmetry(self):
        # zero biases and odd activations make the whole network odd
        net = ae.build_architecture(6, seed=1)
        x = np.random.default_rng(0).normal(size=(20, 6))
        np.testing.assert_array_equal(ae.forward(net, x)[1],
                                      -ae.forward(net, -x)[1])

    def test_saturation(self):
        net = ae.build_architecture(4, seed=2)
        net.layers[0].weights[:] = 1.0
        acts, _ = ae.forward(net, np.full((1, 4), 50.0))
        np.testing.assert_allclose(acts[1], 1.0, atol=1e-12)


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = ae.build_architecture(6, seed=0)
        for layer in net.layers:
            layer.weights[:] = 0.0
        _, out = ae.forward(net, np.random.default_rng(0).normal(size=(5, 6)))
        np.testing.assert_array_equal(out, np.zeros((5, 6)))

    def test_single_row_shape(self):
        net = ae.build_architecture(4, seed=1)
        acts, out = ae.forward(net, np.ones((1, 4)))
        assert out.shape == (1, 4)
        assert acts[2].shape == (1, net.bottleneck_width)

    def test_bottleneck_in_open_unit_interval(self):
        net = ae.build_architecture(8, seed=2)
        acts, _ = ae.forward(net, np.random.default_rng(1).normal(size=(20, 8)) * 50)
        assert np.all(np.abs(acts[2]) < 1.0)

    def test_dimension_mismatch(self):
        net = ae.build_architecture(4, seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            ae.forward(net, np.ones((2, 5)))

    def test_out_arrays_receive_identical_activations(self):
        net = ae.build_architecture(9, seed=3)
        x = np.random.default_rng(2).normal(size=(7, 9)) * 3
        fresh, _ = ae.forward(net, x)
        bufs = [np.full((7, width), np.nan) for width in net.widths[1:]]
        acts = ae._forward(net.params, x, bufs)
        assert all(a is b for a, b in zip(acts[1:], bufs))
        for a, b in zip(fresh, acts):
            np.testing.assert_array_equal(a, b)


class TestSmoothL1:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert ae.smooth_l1_loss(x, x) == 0.0

    def test_quadratic_branch(self):
        assert ae.smooth_l1_loss(np.array([[0.5]]), np.array([[0.0]])) == 0.125

    def test_linear_branch(self):
        assert ae.smooth_l1_loss(np.array([[2.0]]), np.array([[0.0]])) == 1.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ae.smooth_l1_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = ae.build_architecture(5, seed=0)
        batch = np.random.default_rng(0).normal(size=(4, 5))
        acts, out = ae.forward(net, batch)
        grads = ae.backward(net, acts, out)  # target equals output
        for dw, db in grads:
            np.testing.assert_array_equal(dw, 0.0)
            np.testing.assert_array_equal(db, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            n = int(rng.integers(2, 9))
            net = ae.build_architecture(n, seed=seed)
            batch = rng.normal(size=(int(rng.integers(1, 6)), n))
            acts, _ = ae.forward(net, batch)
            grads = ae.backward(net, acts, batch)
            fd = finite_difference_grads(net, batch)
            for (dw, db), (fw, fb) in zip(grads, fd):
                for analytic, numeric in ((dw, fw), (db, fb)):
                    denom = np.maximum(
                        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8
                    )
                    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_gradients_linear_in_error(self):
        # with all errors inside the quadratic branch, scaling the target
        # offset scales every gradient by the same factor
        net = ae.build_architecture(6, seed=1)
        batch = np.random.default_rng(2).normal(size=(3, 6)) * 0.3
        acts, out = ae.forward(net, batch)
        shift = np.random.default_rng(3).normal(size=out.shape) * 0.05
        g1 = ae.backward(net, acts, out - shift)
        g3 = ae.backward(net, acts, out - 3.0 * shift)
        for (dw1, db1), (dw3, db3) in zip(g1, g3):
            np.testing.assert_allclose(dw3, 3.0 * dw1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(db3, 3.0 * db1, rtol=1e-12, atol=1e-15)


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        net = ae.build_architecture(4, seed=0)
        before = [layer.weights.copy() for layer in net.layers]
        grads = [(np.ones_like(l.weights), np.ones_like(l.bias))
                 for l in net.layers]
        ae.sgd_step(net, grads, 0.0)
        for w, layer in zip(before, net.layers):
            np.testing.assert_array_equal(w, layer.weights)

    def test_arithmetic(self):
        layer = ae.LayerParams(np.array([[1.0]]), np.zeros(1))
        net = ae.Network([layer])
        ae.sgd_step(net, [(np.array([[0.5]]), np.zeros(1))], 0.1)
        assert net.layers[0].weights[0, 0] == 0.95

    def test_step_then_inverted_step_restores_dyadic_params(self):
        # exactly representable values isolate the update rule from IEEE
        # rounding: any hidden momentum/decay term would break equality
        rng = np.random.default_rng(123)
        for _ in range(25):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            w = rng.integers(-(2**20), 2**20, size=(rows, cols)) / 2.0**10
            b = rng.integers(-(2**20), 2**20, size=rows) / 2.0**10
            gw = rng.integers(-(2**20), 2**20, size=(rows, cols)) / 2.0**10
            gb = rng.integers(-(2**20), 2**20, size=rows) / 2.0**10
            lr = 2.0 ** -int(rng.integers(1, 7))
            net = ae.Network([ae.LayerParams(w.copy(), b.copy())])
            ae.sgd_step(net, [(gw, gb)], lr)
            ae.sgd_step(net, [(-gw, -gb)], lr)
            np.testing.assert_array_equal(net.layers[0].weights, w)
            np.testing.assert_array_equal(net.layers[0].bias, b)


class TestGradientScore:
    def test_three_four_five(self):
        assert ae.gradient_score(np.array([[3.0, 4.0]])) == 5.0

    def test_zero_matrix(self):
        assert ae.gradient_score(np.zeros((4, 4))) == 0.0

    def test_ones(self):
        assert ae.gradient_score(np.ones((2, 2))) == 2.0


class TestTrain:
    def test_bitwise_deterministic(self):
        train = _random_dataset(60, 5, seed=0)
        val = _random_dataset(20, 5, seed=1)
        cfg = ae.TrainConfig(max_epochs=8, batch_size=8, learning_rate=0.05,
                             gr_start_epoch=3, patience=4, seed=42)
        net = ae.build_architecture(5, seed=9)
        net_a, hist_a = ae.train(net, train, val, cfg)
        net_b, hist_b = ae.train(net, train, val, cfg)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        assert [h.val_loss for h in hist_a] == [h.val_loss for h in hist_b]

    @pytest.mark.parametrize("rows", [100, 2001])
    def test_unset_batch_size_trains_as_the_size_rule(self, rows):
        train = _random_dataset(rows, 3, seed=6)
        val = _random_dataset(20, 3, seed=7)
        net = ae.build_architecture(3, seed=1)
        unset = ae.TrainConfig(max_epochs=2, gr_start_epoch=0, seed=3)
        assert unset.batch_size is None
        explicit = replace(unset, batch_size=ae.default_batch_size(rows))
        net_a, hist_a = ae.train(net, train, val, unset)
        net_b, hist_b = ae.train(net, train, val, explicit)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        assert hist_a == hist_b

    def test_input_network_not_mutated(self):
        train = _random_dataset(40, 4, seed=0)
        val = _random_dataset(10, 4, seed=1)
        net = ae.build_architecture(4, seed=0)
        snapshot = [l.weights.copy() for l in net.layers]
        ae.train(net, train, val, ae.TrainConfig(max_epochs=3, batch_size=8))
        for w, layer in zip(snapshot, net.layers):
            np.testing.assert_array_equal(w, layer.weights)

    def test_disabled_reversal_equals_plain_sgd(self):
        train = _random_dataset(70, 6, seed=2)
        val = _random_dataset(25, 6, seed=3)
        cfg = ae.TrainConfig(max_epochs=10, batch_size=16, learning_rate=0.05,
                             gr_start_epoch=10, patience=3, seed=5)
        net = ae.build_architecture(6, seed=4)
        trained, history = ae.train(net, train, val, cfg)
        reference, _ = reference_plain_sgd(net, train, val, cfg)
        for lt, lr_ in zip(trained.layers, reference.layers):
            np.testing.assert_array_equal(lt.weights, lr_.weights)
            np.testing.assert_array_equal(lt.bias, lr_.bias)
        assert not any(h.reversal_applied for h in history)

    def test_single_batch_epoch_reversal_undoes_update(self):
        # one batch per epoch and reversal from the start: the inverted
        # stored gradient cancels the only update each epoch
        train = _random_dataset(12, 4, seed=6)
        val = _random_dataset(6, 4, seed=7)
        cfg = ae.TrainConfig(max_epochs=4, batch_size=12, learning_rate=0.1,
                             gr_start_epoch=0, patience=0, seed=0)
        net = ae.build_architecture(4, seed=8)
        trained, history = ae.train(net, train, val, cfg)
        assert all(h.reversal_applied for h in history)
        for l0, l1 in zip(net.layers, trained.layers):
            np.testing.assert_allclose(l1.weights, l0.weights, atol=1e-12)

    def test_reversal_scores_recorded_after_start_epoch(self):
        train = _random_dataset(50, 4, seed=1)
        val = _random_dataset(20, 4, seed=2)
        cfg = ae.TrainConfig(max_epochs=6, batch_size=10, learning_rate=0.02,
                             gr_start_epoch=3, patience=0, seed=1)
        _, history = ae.train(ae.build_architecture(4, seed=1), train, val, cfg)
        for h in history:
            if h.epoch <= 3:
                assert not h.reversal_applied and math.isnan(h.max_gs)
                assert h.reversed_batch == -1
            else:
                assert h.reversal_applied and h.max_gs >= 0.0
                assert 0 <= h.reversed_batch < 5

    def test_returns_best_validation_network(self):
        cfg = ae.TrainConfig(max_epochs=20, batch_size=16, learning_rate=0.1,
                             gr_start_epoch=2, patience=0, min_improvement=0.0,
                             seed=2)
        # the tall case holds far more validation rows than training rows and
        # more than 8192 elements, so the validation pass over reused work
        # arrays is pinned bit for bit to smooth_l1_loss(forward(...))
        for n_train, n_val in ((80, 30), (40, 2000)):
            train = _random_dataset(n_train, 5, seed=3)
            val = _random_dataset(n_val, 5, seed=4)
            trained, history = ae.train(ae.build_architecture(5, seed=2), train,
                                        val, cfg)
            returned = ae.smooth_l1_loss(ae.forward(trained, val.features)[1],
                                         val.features)
            assert returned == min(h.val_loss for h in history)

    def test_early_stopping_stops_before_max(self):
        train = _random_dataset(40, 3, seed=5)
        val = _random_dataset(15, 3, seed=6)
        cfg = ae.TrainConfig(max_epochs=500, batch_size=8, learning_rate=1e-6,
                             gr_start_epoch=500, patience=3,
                             min_improvement=0.5, seed=0)
        _, history = ae.train(ae.build_architecture(3, seed=0), train, val, cfg)
        assert len(history) < 500

    def test_non_finite_loss_aborts(self):
        bad = Dataset(np.array([[np.inf, 0.0], [0.0, 0.0]]), ["a", "b"])
        val = _random_dataset(4, 2, seed=0)
        with pytest.raises(RuntimeError, match="diverged"):
            ae.train(ae.build_architecture(2, seed=0), bad, val,
                     ae.TrainConfig(max_epochs=2, batch_size=2))

    def test_non_finite_validation_loss_aborts(self):
        val = _random_dataset(6, 3, seed=1)
        val.features[2, 1] = np.inf
        with pytest.raises(RuntimeError,
                           match="non-finite validation loss at epoch 1"):
            ae.train(ae.build_architecture(3, seed=0), _random_dataset(8, 3, 0),
                     val, ae.TrainConfig(max_epochs=2, batch_size=4))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            ae.train(ae.build_architecture(3, seed=0), _random_dataset(10, 4, 0),
                     _random_dataset(4, 4, 1), ae.TrainConfig())

    def test_validation_width_mismatch_fails_before_training(self, monkeypatch):
        steps = []
        monkeypatch.setattr(ae, "_backward",
                            lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="validation data width 4 does "
                           "not match network input width 3"):
            ae.train(ae.build_architecture(3, seed=0), _random_dataset(10, 3, 0),
                     _random_dataset(4, 4, 1), ae.TrainConfig(max_epochs=2))
        assert steps == []

    def test_reversed_batch_is_highest_scoring(self):
        # one epoch with reversal on, replayed step by step: the recorded
        # batch is the first with the highest bottleneck gradient score
        train = _random_dataset(50, 4, seed=3)
        val = _random_dataset(10, 4, seed=4)
        cfg = ae.TrainConfig(max_epochs=1, batch_size=8, learning_rate=0.3,
                             gr_start_epoch=0, patience=0, seed=0)
        net = ae.build_architecture(4, seed=5)
        _, history = ae.train(net, train, val, cfg)
        replay, scores = net.copy(), []
        for start in range(0, 50, 8):
            batch = train.features[start : start + 8]
            grads = ae.backward(replay, ae.forward(replay, batch)[0], batch)
            scores.append(ae.gradient_score(grads[ae.BOTTLENECK_LAYER][0]))
            ae.sgd_step(replay, grads, cfg.learning_rate)
        assert len(set(scores)) == len(scores)
        assert history[0].reversed_batch == int(np.argmax(scores))
        assert history[0].max_gs == max(scores)


def _train_alone_and_stacked(nets, train, val, cfgs):
    """Train each network alone and all of them as one stack; assert the
    results are identical bit for bit and return the stacked ones."""
    # the stack trains first, so a stack that changed its input networks
    # would show here
    stacked = ae.train_stack(nets, train, val, cfgs)
    assert len(stacked) == len(nets)
    for net, cfg, got in zip(nets, cfgs, stacked):
        try:
            want = ae.train(net, train, val, cfg)
        except RuntimeError as exc:
            assert isinstance(got, RuntimeError) and str(got) == str(exc)
            continue
        assert not isinstance(got, RuntimeError), got
        for want_layer, got_layer in zip(want[0].layers, got[0].layers):
            np.testing.assert_array_equal(got_layer.weights, want_layer.weights)
            np.testing.assert_array_equal(got_layer.bias, want_layer.bias)
        # nan == nan is False, so compare the histories as text
        assert repr(got[1]) == repr(want[1])
    return stacked


class TestTrainStack:
    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(3, 16),
           networks=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 6)),
                             min_size=1, max_size=4),
           rows=st.tuples(st.integers(8, 60), st.integers(1, 30)),
           batch_size=st.integers(1, 16),
           learning_rate=st.sampled_from([0.01, 0.05, 0.3]),
           patience=st.integers(0, 3),
           min_improvement=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
           data_seed=st.integers(0, 1000))
    def test_stack_matches_separate_training(self, width, networks, rows,
                                             batch_size, learning_rate,
                                             patience, min_improvement,
                                             data_seed):
        train = _random_dataset(rows[0], width, seed=data_seed)
        val = _random_dataset(rows[1], width, seed=data_seed + 1)
        nets = [ae.build_architecture(width, seed=seed) for seed, _ in networks]
        cfgs = [ae.TrainConfig(max_epochs=6, batch_size=batch_size,
                               learning_rate=learning_rate, gr_start_epoch=start,
                               patience=patience, min_improvement=min_improvement,
                               seed=seed)
                for seed, start in networks]
        _train_alone_and_stacked(nets, train, val, cfgs)

    def test_networks_stopping_at_different_epochs_leave_the_stack(self):
        train = _random_dataset(300, 7, seed=0)
        val = _random_dataset(100, 7, seed=1)
        keys = [(seed, start) for seed in range(3) for start in (2, 60)]
        cfgs = [ae.TrainConfig(max_epochs=60, batch_size=16, learning_rate=0.05,
                               gr_start_epoch=start, patience=2,
                               min_improvement=1e-3, seed=seed)
                for seed, start in keys]
        nets = [ae.build_architecture(7, seed=seed) for seed, _ in keys]
        stacked = _train_alone_and_stacked(nets, train, val, cfgs)
        epochs = [len(history) for _, history in stacked]
        assert len(set(epochs)) > 2 and max(epochs) < 60

    @pytest.mark.parametrize("starts", [(2, 6, 2), (0, 0, 0)],
                             ids=["mixed", "all_reversing"])
    def test_diverging_network_leaves_the_others_unchanged(self, starts):
        # at (0, 0, 0) every network reverses in the epoch where network 1
        # diverges, and its diverged slices train on beside the others'
        # until the epoch ends
        train = _random_dataset(40, 5, seed=0)
        val = _random_dataset(12, 5, seed=1)
        cfgs = [ae.TrainConfig(max_epochs=6, batch_size=8, learning_rate=0.05,
                               gr_start_epoch=start, seed=seed)
                for seed, start in enumerate(starts)]
        nets = [ae.build_architecture(5, seed=cfg.seed) for cfg in cfgs]
        # output weights near float64's maximum overflow the first output
        nets[1].layers[-1].weights *= 1e308
        stacked = _train_alone_and_stacked(nets, train, val, cfgs)
        assert str(stacked[1]).startswith(
            "training diverged: non-finite loss at epoch 1, batch ")
        assert [len(result[1]) for result in (stacked[0], stacked[2])] == [6, 6]

    @pytest.mark.parametrize("nets,cfgs,message", [
        ([], [], "at least one network"),
        ([3], [ae.TrainConfig(), ae.TrainConfig()], "1 networks but 2"),
        ([3, 4], [ae.TrainConfig()] * 2, "share one architecture"),
        ([3, 3], [ae.TrainConfig(), ae.TrainConfig(learning_rate=0.1)],
         r"differ only in seed and gr_start_epoch, not in \['learning_rate'\]"),
        ([3, 3], [ae.TrainConfig(), ae.TrainConfig(patience=2, batch_size=4)],
         r"not in \['batch_size', 'patience'\]"),
    ], ids=["empty", "config_count", "widths", "learning_rate", "two_fields"])
    def test_invalid_stack_rejected_before_training(self, nets, cfgs, message):
        train = _random_dataset(10, 3, 0)
        with pytest.raises(ValueError, match=message):
            ae.train_stack([ae.build_architecture(n, seed=0) for n in nets],
                           train, train, cfgs)


class TestEncodeAndErrors:
    def test_encode_pendigits_shape(self):
        net = ae.build_architecture(16, seed=0)
        latents, errors = ae.encode(net, _random_dataset(12, 16, seed=0))
        assert latents.shape == (12, 5)
        assert errors.shape == (12,)

    def test_duplicate_rows_encode_identically(self):
        net = ae.build_architecture(6, seed=1)
        row = np.random.default_rng(0).normal(size=6)
        latents, _ = ae.encode(net, _dataset(np.stack([row, row])))
        np.testing.assert_array_equal(latents[0], latents[1])

    def test_latents_bounded(self):
        net = ae.build_architecture(7, seed=2)
        latents, _ = ae.encode(net, _random_dataset(30, 7, seed=3, scale=10.0))
        assert np.all(np.abs(latents) < 1.0)

    def test_reconstruction_error_zero_at_fixed_point(self):
        net = ae.build_architecture(4, seed=0)
        for layer in net.layers:
            layer.weights[:] = 0.0
        res = ae.reconstruction_error(net, _dataset(np.zeros((3, 4))))
        np.testing.assert_array_equal(res, np.zeros(3))

    def test_rowwise_matches_scalar_loss(self):
        net = ae.build_architecture(5, seed=3)
        ds = _random_dataset(8, 5, seed=4)
        res = ae.reconstruction_error(net, ds)
        _, out = ae.forward(net, ds.features)
        for i in range(8):
            expected = ae.smooth_l1_loss(out[i : i + 1], ds.features[i : i + 1])
            np.testing.assert_allclose(res[i], expected, rtol=1e-12)

    def test_row_permutation_equivariance(self):
        net = ae.build_architecture(5, seed=5)
        ds = _random_dataset(10, 5, seed=6)
        perm = np.random.default_rng(7).permutation(10)
        res = ae.reconstruction_error(net, ds)
        res_perm = ae.reconstruction_error(net, _dataset(ds.features[perm]))
        np.testing.assert_array_equal(res[perm], res_perm)


class TestSerialization:
    def test_history_csv(self, tmp_path):
        history = [ae.EpochStats(1, 0.5, 0.6, math.nan, False),
                   ae.EpochStats(2, 0.4, 0.5, 1.25, True, 3)]
        path = tmp_path / "history.csv"
        ae.history_to_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("epoch,train_loss,val_loss,max_gs,reversal_applied,"
                            "reversed_batch")
        assert lines[1] == "1,0.5,0.6,nan,0,-1"
        assert lines[2] == "2,0.4,0.5,1.25,1,3"


@pytest.mark.parametrize("field,value,message", [
    ("learning_rate", math.nan, "learning_rate must be finite and > 0"),
    ("learning_rate", math.inf, "learning_rate must be finite and > 0"),
    ("min_improvement", math.nan, "min_improvement must be finite"),
    ("min_improvement", -math.inf, "min_improvement must be finite"),
], ids=["lr_nan", "lr_inf", "min_improvement_nan", "min_improvement_neg_inf"])
def test_train_config_rejects_non_finite(field, value, message):
    with pytest.raises(ValueError, match=message):
        ae.TrainConfig(**{field: value})


def test_default_batch_size_rule():
    assert ae.default_batch_size(2001) == 64
    assert ae.default_batch_size(2000) == 16
    assert ae.default_batch_size(100) == 16
