import math

import numpy as np
import pytest

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
        for i, layer in enumerate(net.layers):
            bound = 1.0 / math.sqrt(layer.weights.shape[1])
            assert np.all(np.abs(layer.weights) <= bound)
            np.testing.assert_array_equal(layer.bias, 0.0)
            expected = "identity" if i == len(net.layers) - 1 else "tanh"
            assert layer.activation == expected

    def test_init_deterministic_per_seed(self):
        a = ae.build_architecture(10, seed=5)
        b = ae.build_architecture(10, seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)


class TestActivation:
    def test_zero(self):
        assert ae.activation_tanh(0.0) == 0.0

    def test_antisymmetry(self):
        x = np.linspace(-5, 5, 101)
        np.testing.assert_array_equal(ae.activation_tanh(x),
                                      -ae.activation_tanh(-x))

    def test_saturation(self):
        assert abs(ae.activation_tanh(50.0) - 1.0) < 1e-12


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
        layer = ae.LayerParams(np.array([[1.0]]), np.zeros(1), "identity")
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
            net = ae.Network([ae.LayerParams(w.copy(), b.copy(), "identity")])
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
            else:
                assert h.reversal_applied and h.max_gs >= 0.0

    def test_returns_best_validation_network(self):
        train = _random_dataset(80, 5, seed=3)
        val = _random_dataset(30, 5, seed=4)
        cfg = ae.TrainConfig(max_epochs=20, batch_size=16, learning_rate=0.1,
                             gr_start_epoch=2, patience=0, min_improvement=0.0,
                             seed=2)
        trained, history = ae.train(ae.build_architecture(5, seed=2), train, val, cfg)
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

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            ae.train(ae.build_architecture(3, seed=0), _random_dataset(10, 4, 0),
                     _random_dataset(4, 4, 1), ae.TrainConfig())


class TestEncodeAndErrors:
    def test_encode_pendigits_shape(self):
        net = ae.build_architecture(16, seed=0)
        latents = ae.encode(net, _random_dataset(12, 16, seed=0))
        assert latents.shape == (12, 5)

    def test_duplicate_rows_encode_identically(self):
        net = ae.build_architecture(6, seed=1)
        row = np.random.default_rng(0).normal(size=6)
        latents = ae.encode(net, _dataset(np.stack([row, row])))
        np.testing.assert_array_equal(latents[0], latents[1])

    def test_latents_bounded(self):
        net = ae.build_architecture(7, seed=2)
        latents = ae.encode(net, _random_dataset(30, 7, seed=3, scale=10.0))
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
                   ae.EpochStats(2, 0.4, 0.5, 1.25, True)]
        path = tmp_path / "history.csv"
        ae.history_to_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,max_gs,reversal_applied"
        assert lines[2].startswith("2,0.4,0.5,1.25,1")


def test_default_batch_size_rule():
    assert ae.default_batch_size(2001) == 64
    assert ae.default_batch_size(2000) == 16
    assert ae.default_batch_size(100) == 16
