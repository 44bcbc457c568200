import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aegrlof import autoencoder as ae
from aegrlof.data import Dataset

from conftest import (copy_network, finite_difference_grads,
                      reference_plain_sgd)


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
        for weights, bias in net.params:
            bound = 1.0 / math.sqrt(weights.shape[1])
            assert np.all(np.abs(weights) <= bound)
            np.testing.assert_array_equal(bias, 0.0)
        # through forward: tanh in every layer but the last, which is
        # linear; biases of 2 push pre-activations where the two differ
        rng = np.random.default_rng(4)
        one_layer = ae.Network([(rng.normal(size=(3, 3)), np.zeros(3))])
        for model, width in ((net, 25), (one_layer, 3)):
            for _, bias in model.params:
                bias[:] = 2.0
            acts = ae.forward(model.params, rng.normal(size=(6, width)))
            for i, (weights, bias) in enumerate(model.params):
                pre = acts[i] @ weights.T + bias
                last = i == len(model.params) - 1
                np.testing.assert_array_equal(acts[i + 1],
                                              pre if last else np.tanh(pre))
            assert np.max(np.abs(acts[-1])) > 1.0

    @pytest.mark.parametrize("params,message", [
        ([(np.ones(3), np.zeros(3))],
         r"inconsistent layer shapes: W \(3,\), b \(3,\)"),
        ([(np.ones((2, 3)), np.zeros(3))],
         r"inconsistent layer shapes: W \(2, 3\), b \(3,\)"),
        ([(np.ones((2, 3)), np.zeros((2, 1)))], "inconsistent layer shapes"),
        ([(np.ones((2, 3)), np.zeros(2)), (np.ones((3, 4)), np.zeros(3))],
         r"layer width mismatch: \(2, 3\) -> \(3, 4\)"),
        ([(np.array([[1.0, np.nan]]), np.zeros(1))], "must be finite"),
        ([(np.ones((1, 2)), np.array([np.inf]))], "must be finite"),
    ], ids=["weights_1d", "bias_length", "bias_2d", "width_chain",
            "nan_weight", "inf_bias"])
    def test_invalid_network_rejected(self, params, message):
        with pytest.raises(ValueError, match=message):
            ae.Network(params)

    def test_init_deterministic_per_seed(self):
        a = ae.build_architecture(10, seed=5)
        b = ae.build_architecture(10, seed=5)
        for (wa, _), (wb, _) in zip(a.params, b.params):
            np.testing.assert_array_equal(wa, wb)


class TestActivation:
    """The tanh layers, seen through ``forward``."""

    def test_zero(self):
        net = ae.build_architecture(6, seed=0)
        acts = ae.forward(net.params, np.zeros((1, 6)))
        for hidden in acts[1:-1]:
            np.testing.assert_array_equal(hidden, 0.0)
        np.testing.assert_array_equal(acts[-1], 0.0)

    def test_antisymmetry(self):
        # zero biases and odd activations make the whole network odd
        net = ae.build_architecture(6, seed=1)
        x = np.random.default_rng(0).normal(size=(20, 6))
        np.testing.assert_array_equal(ae.forward(net.params, x)[-1],
                                      -ae.forward(net.params, -x)[-1])

    def test_saturation(self):
        net = ae.build_architecture(4, seed=2)
        net.params[0][0][:] = 1.0
        acts = ae.forward(net.params, np.full((1, 4), 50.0))
        np.testing.assert_allclose(acts[1], 1.0, atol=1e-12)


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = ae.build_architecture(6, seed=0)
        for weights, _ in net.params:
            weights[:] = 0.0
        out = ae.forward(net.params, np.random.default_rng(0).normal(size=(5, 6)))[-1]
        np.testing.assert_array_equal(out, np.zeros((5, 6)))

    def test_single_row_shape(self):
        net = ae.build_architecture(4, seed=1)
        acts = ae.forward(net.params, np.ones((1, 4)))
        assert acts[-1].shape == (1, 4)
        assert acts[2].shape == (1, net.bottleneck_width)

    def test_bottleneck_in_open_unit_interval(self):
        net = ae.build_architecture(8, seed=2)
        acts = ae.forward(net.params, np.random.default_rng(1).normal(size=(20, 8)) * 50)
        assert np.all(np.abs(acts[2]) < 1.0)

    def test_dimension_mismatch(self):
        net = ae.build_architecture(4, seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            ae.forward(net.params, np.ones((2, 5)))

    def test_stacked_batch_dimension_mismatch(self):
        nets = [ae.build_architecture(4, seed=seed) for seed in range(3)]
        stack = [(np.stack([net.params[j][0] for net in nets]),
                  np.stack([net.params[j][1] for net in nets]))
                 for j in range(len(nets[0].params))]
        assert ae.forward(stack, np.ones((3, 2, 4)))[-1].shape == (3, 2, 4)
        with pytest.raises(ValueError, match=r"\(3, 2, 5\) incompatible with 4"):
            ae.forward(stack, np.ones((3, 2, 5)))


_loss_floats = st.one_of(st.floats(), st.floats(-2e-154, 2e-154))


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

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_loss_floats, _loss_floats), min_size=1,
                          max_size=40))
    # an error whose square rounds differently from 0.5*e*e
    @example(pairs=[(1.653747025217381e-160, 0.0)])
    def test_matches_the_piecewise_form_bit_for_bit(self, pairs):
        # the reference runs on Python floats: 0.5*e*e below 1, e - 0.5
        # otherwise; st.floats() draws NaN, infinities, signed zeros and
        # subnormals, and errors below 1.5e-154 square into the subnormals
        output, target = (np.array(column) for column in zip(*pairs))
        want = []
        for out, tgt in pairs:
            e = abs(out - tgt)
            want.append(0.5 * e * e if e < 1.0 else e - 0.5)
        with np.errstate(invalid="ignore", over="ignore"):
            got = ae._smooth_l1(output, target)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      np.array(want).view(np.uint64))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = ae.build_architecture(5, seed=0)
        batch = np.random.default_rng(0).normal(size=(4, 5))
        acts = ae.forward(net.params, batch)
        grads = ae.backward(net.params, acts, acts[-1])  # target equals output
        for dw, db in grads:
            np.testing.assert_array_equal(dw, 0.0)
            np.testing.assert_array_equal(db, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            n = int(rng.integers(2, 9))
            net = ae.build_architecture(n, seed=seed)
            batch = rng.normal(size=(int(rng.integers(1, 6)), n))
            acts = ae.forward(net.params, batch)
            grads = ae.backward(net.params, acts, batch)
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
        acts = ae.forward(net.params, batch)
        out = acts[-1]
        shift = np.random.default_rng(3).normal(size=out.shape) * 0.05
        g1 = ae.backward(net.params, acts, out - shift)
        g3 = ae.backward(net.params, acts, out - 3.0 * shift)
        for (dw1, db1), (dw3, db3) in zip(g1, g3):
            np.testing.assert_allclose(dw3, 3.0 * dw1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(db3, 3.0 * db1, rtol=1e-12, atol=1e-15)


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        net = ae.build_architecture(4, seed=0)
        before = [w.copy() for w, _ in net.params]
        grads = [(np.ones_like(w), np.ones_like(b)) for w, b in net.params]
        ae.sgd_step(net.params, grads, 0.0)
        for w, (weights, _) in zip(before, net.params):
            np.testing.assert_array_equal(w, weights)

    def test_arithmetic(self):
        net = ae.Network([(np.array([[1.0]]), np.zeros(1))])
        ae.sgd_step(net.params, [(np.array([[0.5]]), np.zeros(1))], 0.1)
        assert net.params[0][0][0, 0] == 0.95

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
            net = ae.Network([(w.copy(), b.copy())])
            ae.sgd_step(net.params, [(gw, gb)], lr)
            ae.sgd_step(net.params, [(-gw, -gb)], lr)
            np.testing.assert_array_equal(net.params[0][0], w)
            np.testing.assert_array_equal(net.params[0][1], b)


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
                             gr_start_epoch=3, patience=4)
        net = ae.build_architecture(5, seed=9)
        net_a, hist_a = ae.train(net, train, val, cfg, seed=42)
        net_b, hist_b = ae.train(net, train, val, cfg, seed=42)
        for (wa, ba), (wb, bb) in zip(net_a.params, net_b.params):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)
        assert [h.val_loss for h in hist_a] == [h.val_loss for h in hist_b]

    @pytest.mark.parametrize("rows", [100, 2001])
    def test_unset_batch_size_trains_as_the_size_rule(self, rows):
        train = _random_dataset(rows, 3, seed=6)
        val = _random_dataset(20, 3, seed=7)
        net = ae.build_architecture(3, seed=1)
        unset = ae.TrainConfig(max_epochs=2, gr_start_epoch=0)
        assert unset.batch_size is None
        explicit = replace(unset, batch_size=ae.default_batch_size(rows))
        net_a, hist_a = ae.train(net, train, val, unset, seed=3)
        net_b, hist_b = ae.train(net, train, val, explicit, seed=3)
        for (wa, ba), (wb, bb) in zip(net_a.params, net_b.params):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)
        assert hist_a == hist_b

    def test_input_network_not_mutated(self):
        train = _random_dataset(40, 4, seed=0)
        val = _random_dataset(10, 4, seed=1)
        net = ae.build_architecture(4, seed=0)
        snapshot = [w.copy() for w, _ in net.params]
        ae.train(net, train, val, ae.TrainConfig(max_epochs=3, batch_size=8))
        for w, (weights, _) in zip(snapshot, net.params):
            np.testing.assert_array_equal(w, weights)

    def test_disabled_reversal_equals_plain_sgd(self):
        train = _random_dataset(70, 6, seed=2)
        val = _random_dataset(25, 6, seed=3)
        cfg = ae.TrainConfig(max_epochs=10, batch_size=16, learning_rate=0.05,
                             gr_start_epoch=10, patience=3)
        net = ae.build_architecture(6, seed=4)
        trained, history = ae.train(net, train, val, cfg, seed=5)
        reference, _ = reference_plain_sgd(net, train, val, cfg, seed=5)
        for (wt, bt), (wr, br) in zip(trained.params, reference.params):
            np.testing.assert_array_equal(wt, wr)
            np.testing.assert_array_equal(bt, br)
        assert not any(h.reversal_applied for h in history)

    def test_single_batch_epoch_reversal_undoes_update(self):
        # one batch per epoch and reversal from the start: the inverted
        # stored gradient cancels the only update each epoch
        train = _random_dataset(12, 4, seed=6)
        val = _random_dataset(6, 4, seed=7)
        cfg = ae.TrainConfig(max_epochs=4, batch_size=12, learning_rate=0.1,
                             gr_start_epoch=0, patience=0)
        net = ae.build_architecture(4, seed=8)
        trained, history = ae.train(net, train, val, cfg)
        assert all(h.reversal_applied for h in history)
        for (w0, _), (w1, _) in zip(net.params, trained.params):
            np.testing.assert_allclose(w1, w0, atol=1e-12)

    def test_reversal_scores_recorded_after_start_epoch(self):
        train = _random_dataset(50, 4, seed=1)
        val = _random_dataset(20, 4, seed=2)
        cfg = ae.TrainConfig(max_epochs=6, batch_size=10, learning_rate=0.02,
                             gr_start_epoch=3, patience=0)
        _, history = ae.train(ae.build_architecture(4, seed=1), train, val, cfg,
                              seed=1)
        for h in history:
            if h.epoch <= 3:
                assert not h.reversal_applied and math.isnan(h.max_gs)
                assert h.reversed_batch == -1
            else:
                assert h.reversal_applied and h.max_gs >= 0.0
                assert 0 <= h.reversed_batch < 5

    def test_returns_best_validation_network(self):
        cfg = ae.TrainConfig(max_epochs=20, batch_size=16, learning_rate=0.1,
                             gr_start_epoch=2, patience=0, min_improvement=0.0)
        # the tall case holds far more validation rows than training rows and
        # more than 8192 elements, so the validation pass over reused work
        # arrays is pinned bit for bit to smooth_l1_loss(forward(...))
        for n_train, n_val in ((80, 30), (40, 2000)):
            train = _random_dataset(n_train, 5, seed=3)
            val = _random_dataset(n_val, 5, seed=4)
            trained, history = ae.train(ae.build_architecture(5, seed=2), train,
                                        val, cfg, seed=2)
            returned = ae.smooth_l1_loss(
                ae.forward(trained.params, val.features)[-1], val.features)
            assert returned == min(h.val_loss for h in history)

    def test_early_stopping_stops_before_max(self):
        train = _random_dataset(40, 3, seed=5)
        val = _random_dataset(15, 3, seed=6)
        cfg = ae.TrainConfig(max_epochs=500, batch_size=8, learning_rate=1e-6,
                             gr_start_epoch=500, patience=3,
                             min_improvement=0.5)
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
        monkeypatch.setattr(ae, "backward",
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
                             gr_start_epoch=0, patience=0)
        net = ae.build_architecture(4, seed=5)
        _, history = ae.train(net, train, val, cfg)
        replay, scores = copy_network(net), []
        for start in range(0, 50, 8):
            batch = train.features[start : start + 8]
            grads = ae.backward(replay.params,
                                ae.forward(replay.params, batch), batch)
            scores.append(ae.gradient_score(grads[ae.BOTTLENECK_LAYER][0]))
            ae.sgd_step(replay.params, grads, cfg.learning_rate)
        assert len(set(scores)) == len(scores)
        assert history[0].reversed_batch == int(np.argmax(scores))
        assert history[0].max_gs == max(scores)


def _assert_same_results(got, want):
    """Assert two train_stack results are identical bit for bit."""
    assert len(got) == len(want)
    for got_one, want_one in zip(got, want):
        if isinstance(want_one, RuntimeError):
            assert isinstance(got_one, RuntimeError)
            assert str(got_one) == str(want_one)
            continue
        assert not isinstance(got_one, RuntimeError), got_one
        for (want_w, want_b), (got_w, got_b) in zip(want_one[0].params,
                                                    got_one[0].params):
            np.testing.assert_array_equal(got_w, want_w)
            np.testing.assert_array_equal(got_b, want_b)
        # nan == nan is False, so compare the histories as text
        assert repr(got_one[1]) == repr(want_one[1])


def _train_alone_and_stacked(nets, train, val, cfg, keys):
    """Train each network alone and all of them as one stack; assert the
    results are identical bit for bit, and that the networks sharing a
    seed and an initialization, and only they, trained as one slot for
    the epochs before the first reversing one that the slot ran. Return
    the stacked results."""
    # the stack trains first, so a stack that changed its input networks
    # would show here
    shared = {}
    stacked = ae.train_stack(nets, train, val, cfg, keys, shared_epochs=shared)
    alone = []
    for net, (seed, reversal) in zip(nets, keys):
        # alone, a plain network is one whose reversal starts after training
        alone_cfg = cfg if reversal else replace(cfg, gr_start_epoch=cfg.max_epochs)
        try:
            alone.append(ae.train(net, train, val, alone_cfg, seed=seed))
        except RuntimeError as exc:
            alone.append(exc)
    _assert_same_results(stacked, alone)
    inits = [(seed, [a.tobytes() for layer in net.params for a in layer])
             for net, (seed, _) in zip(nets, keys)]
    twins = [i for i, init in enumerate(inits) if inits.count(init) > 1]
    assert sorted(shared) == twins
    for i in twins:
        # a network that diverged ran through the epoch its error names
        ran = (int(re.search(r"at epoch (\d+)", str(alone[i]))[1])
               if isinstance(alone[i], RuntimeError) else len(alone[i][1]))
        assert shared[i] == min(ran, cfg.gr_start_epoch, cfg.max_epochs)
    return stacked


class TestTrainStack:
    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(3, 16),
           keys=st.lists(st.tuples(st.integers(0, 2**16), st.booleans()),
                         min_size=1, max_size=4),
           rows=st.tuples(st.integers(8, 60), st.integers(1, 30)),
           batch_size=st.integers(1, 16),
           learning_rate=st.sampled_from([0.01, 0.05, 0.3]),
           gr_start_epoch=st.integers(0, 6),
           patience=st.integers(0, 3),
           min_improvement=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
           data_seed=st.integers(0, 1000))
    def test_stack_matches_separate_training(self, width, keys, rows,
                                             batch_size, learning_rate,
                                             gr_start_epoch, patience,
                                             min_improvement, data_seed):
        train = _random_dataset(rows[0], width, seed=data_seed)
        val = _random_dataset(rows[1], width, seed=data_seed + 1)
        nets = [ae.build_architecture(width, seed=seed) for seed, _ in keys]
        cfg = ae.TrainConfig(max_epochs=6, batch_size=batch_size,
                             learning_rate=learning_rate,
                             gr_start_epoch=gr_start_epoch, patience=patience,
                             min_improvement=min_improvement)
        _train_alone_and_stacked(nets, train, val, cfg, keys)

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                         min_size=1, max_size=6),
           batch_size=st.integers(2, 16),
           learning_rate=st.sampled_from([0.01, 0.05, 0.3]),
           gr_start_epoch=st.integers(0, 8),
           patience=st.integers(0, 3),
           min_improvement=st.sampled_from([0.0, 1e-3, 1e-2]),
           diverging=st.sampled_from(["none", "seed", "network"]),
           data_seed=st.integers(0, 1000))
    def test_twins_train_as_one_until_the_fork(self, keys, batch_size,
                                               learning_rate, gr_start_epoch,
                                               patience, min_improvement,
                                               diverging, data_seed):
        # few seeds, so most keys have a twin (or a duplicate); the fork
        # falls anywhere from before the first epoch to after the last
        train = _random_dataset(40, 5, seed=data_seed)
        val = _random_dataset(12, 5, seed=data_seed + 1)
        nets = [ae.build_architecture(5, seed=seed) for seed, _ in keys]
        # output weights near float64's maximum overflow the first output:
        # every network of the first key's seed, whose slot then diverges
        # before the fork unless the fork comes first, or only the first
        # network, which then shares no slot
        diverges = {"none": [], "network": [0],
                    "seed": [i for i, (seed, _) in enumerate(keys)
                             if seed == keys[0][0]]}[diverging]
        for i in diverges:
            nets[i].params[-1][0][:] *= 1e308
        cfg = ae.TrainConfig(max_epochs=6, batch_size=batch_size,
                             learning_rate=learning_rate,
                             gr_start_epoch=gr_start_epoch, patience=patience,
                             min_improvement=min_improvement)
        _train_alone_and_stacked(nets, train, val, cfg, keys)

    def test_networks_stopping_at_different_epochs_leave_the_stack(self):
        train = _random_dataset(300, 7, seed=0)
        val = _random_dataset(100, 7, seed=1)
        keys = [(seed, reversal) for seed in range(3) for reversal in (False, True)]
        cfg = ae.TrainConfig(max_epochs=60, batch_size=16, learning_rate=0.05,
                             gr_start_epoch=2, patience=2, min_improvement=1e-3)
        nets = [ae.build_architecture(7, seed=seed) for seed, _ in keys]
        stacked = _train_alone_and_stacked(nets, train, val, cfg, keys)
        epochs = [len(history) for _, history in stacked]
        assert len(set(epochs)) > 2 and max(epochs) < 60

    def test_validation_over_several_blocks_matches_separate_training(self):
        # 1100 rows make a 512-row and a 588-row block
        train = _random_dataset(48, 64, seed=0)
        val = _random_dataset(1100, 64, seed=1)
        keys = [(0, False), (0, True), (1, True)]
        cfg = ae.TrainConfig(max_epochs=4, batch_size=16, learning_rate=0.05,
                             gr_start_epoch=1, patience=2)
        nets = [ae.build_architecture(64, seed=seed) for seed, _ in keys]
        _train_alone_and_stacked(nets, train, val, cfg, keys)

    @pytest.mark.parametrize("gr_start_epoch,reversals",
                             [(2, (True, False, True)), (0, (True, True, True))],
                             ids=["mixed", "all_reversing"])
    def test_diverging_network_leaves_the_others_unchanged(self, gr_start_epoch,
                                                           reversals):
        # with every network reversing from epoch 1, each reverses in the
        # epoch where network 1 diverges, and its diverged slices train on
        # beside the others' until the epoch ends
        train = _random_dataset(40, 5, seed=0)
        val = _random_dataset(12, 5, seed=1)
        cfg = ae.TrainConfig(max_epochs=6, batch_size=8, learning_rate=0.05,
                             gr_start_epoch=gr_start_epoch)
        keys = list(enumerate(reversals))
        nets = [ae.build_architecture(5, seed=seed) for seed, _ in keys]
        # output weights near float64's maximum overflow the first output
        nets[1].params[-1][0][:] *= 1e308
        stacked = _train_alone_and_stacked(nets, train, val, cfg, keys)
        assert str(stacked[1]).startswith(
            "training diverged: non-finite loss at epoch 1, batch ")
        assert [len(result[1]) for result in (stacked[0], stacked[2])] == [6, 6]

    @pytest.mark.parametrize("gr_start_epoch", [5, 9])
    def test_twins_that_never_reverse_train_alike(self, gr_start_epoch):
        # with gr_start_epoch >= max_epochs no epoch reverses, so a seed's
        # plain and reversal networks are one training done twice
        train = _random_dataset(60, 6, seed=0)
        val = _random_dataset(20, 6, seed=1)
        cfg = ae.TrainConfig(max_epochs=5, batch_size=8, learning_rate=0.05,
                             gr_start_epoch=gr_start_epoch, patience=0)
        keys = [(seed, reversal) for seed in (2, 7) for reversal in (False, True)]
        nets = [ae.build_architecture(6, seed=seed) for seed, _ in keys]
        stacked = ae.train_stack(nets, train, val, cfg, keys)
        for plain, aegr in zip(stacked[::2], stacked[1::2]):
            _assert_same_results([aegr], [plain])
            assert len(aegr[1]) == 5
            assert not any(h.reversal_applied for h in aegr[1])

    @pytest.mark.parametrize("nets,keys,message", [
        ([], [], "at least one network"),
        ([3], [(0, True), (1, True)], "1 networks but 2 keys"),
        ([3, 4], [(0, True), (1, True)], "share one architecture"),
        ([3], [(-1, True)], "non-negative"),
    ], ids=["empty", "key_count", "widths", "negative_seed"])
    def test_invalid_stack_rejected_before_training(self, nets, keys, message,
                                                    monkeypatch):
        steps = []
        monkeypatch.setattr(ae, "backward", lambda *args: steps.append(args))
        train = _random_dataset(10, 3, 0)
        with pytest.raises(ValueError, match=message):
            ae.train_stack([ae.build_architecture(n, seed=0) for n in nets],
                           train, train, ae.TrainConfig(), keys)
        assert steps == []


class TestBlockedPass:
    @settings(max_examples=200, deadline=None)
    @given(n_rows=st.integers(0, 5000))
    def test_blocks_cover_the_rows_and_none_is_short(self, n_rows):
        blocks = ae._row_blocks(n_rows)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n_rows
        sizes = [b.stop - b.start for b in blocks]
        assert min(sizes) >= min(n_rows, ae._BLOCK_ROWS)
        assert max(sizes) == sizes[-1]
        assert sizes[-1] < 2 * ae._BLOCK_ROWS

    @pytest.mark.parametrize("width", [122, 16])
    @pytest.mark.parametrize("n_val", [8000, 1100, 312])
    def test_matches_one_unblocked_pass(self, width, n_val):
        # the shapes of the kdd-tall (8000 x 122) and pendigits (312 x 16)
        # validation splits; 1100 rows end on a 588-row block, and 312
        # rows are one block below _BLOCK_ROWS
        rng = np.random.default_rng(width + n_val)
        val = _dataset(rng.uniform(-1.0, 1.0, size=(n_val, width)))
        train = _dataset(rng.uniform(-1.0, 1.0, size=(64, width)))
        net, history = ae.train(ae.build_architecture(width, seed=1), train,
                                val, ae.TrainConfig(max_epochs=1, batch_size=16))
        acts = ae.forward(net.params, val.features)
        assert history[0].val_loss == ae.smooth_l1_loss(acts[-1], val.features)
        latents, errors = ae.encode(net, val)
        e = np.abs(acts[-1] - val.features)
        want_errors = np.where(e < 1.0, 0.5 * e * e, e - 0.5).mean(axis=1)
        np.testing.assert_array_equal(latents, acts[ae.BOTTLENECK_LAYER + 1])
        np.testing.assert_array_equal(errors, want_errors)


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
        for weights, _ in net.params:
            weights[:] = 0.0
        res = ae.reconstruction_error(net, _dataset(np.zeros((3, 4))))
        np.testing.assert_array_equal(res, np.zeros(3))

    def test_rowwise_matches_scalar_loss(self):
        net = ae.build_architecture(5, seed=3)
        ds = _random_dataset(8, 5, seed=4)
        res = ae.reconstruction_error(net, ds)
        out = ae.forward(net.params, ds.features)[-1]
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


@pytest.mark.parametrize("field,value,message", [
    ("learning_rate", math.nan, "learning_rate must be finite and > 0"),
    ("learning_rate", math.inf, "learning_rate must be finite and > 0"),
    ("min_improvement", math.nan, "min_improvement must be finite"),
    ("min_improvement", -math.inf, "min_improvement must be finite"),
], ids=["lr_nan", "lr_inf", "min_improvement_nan", "min_improvement_neg_inf"])
def test_train_config_rejects_non_finite(field, value, message):
    with pytest.raises(ValueError, match=message):
        ae.TrainConfig(**{field: value})


def test_train_config_rejects_negative_min_improvement():
    # a negative threshold counts every worse epoch as an improvement, so
    # early stopping never fires and the best network is not kept
    with pytest.raises(ValueError, match=r"min_improvement must be >= 0, got -1.0"):
        ae.TrainConfig(min_improvement=-1.0)


def test_default_batch_size_rule():
    assert ae.default_batch_size(2001) == 64
    assert ae.default_batch_size(2000) == 16
    assert ae.default_batch_size(100) == 16
