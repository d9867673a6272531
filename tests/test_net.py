"""Forward/backward correctness against independent oracles."""

import math

import numpy as np
import pytest

from sentconv import embed, net
from sentconv.embed import EmbeddingChannel
from sentconv.net import backward, forward, loss_and_probs


def oracle_feature_map(token_ids, channels, weights, bias, activation="relu"):
    """Naive triple-loop reference: explicit sums over window, dims, channels."""
    n, h = len(token_ids), len(weights)
    values = []
    for i in range(n - h + 1):
        total = bias
        for ch in channels:
            for t in range(h):
                for d in range(ch.matrix.shape[1]):
                    total += weights[t, d] * ch.matrix[token_ids[i + t], d]
        values.append(math.tanh(total) if activation == "tanh" else max(0.0, total))
    return values


def random_channels(rng, n_channels, vocab_size, dim, trainable_last=True):
    channels = []
    for c in range(n_channels):
        m = np.zeros((vocab_size, dim))
        m[1:] = rng.normal(0.0, 0.5, (vocab_size - 1, dim))
        channels.append(EmbeddingChannel(m, trainable=(c == n_channels - 1 and trainable_last)))
    return channels


def toy_params(rng, channels, num_classes=3, widths=(2, 3), maps=4, keep_prob=0.5,
               activation="relu", init_scale=0.5):
    return net.init_params(channels, num_classes, widths, maps,
                           seed=int(rng.integers(0, 2**31)), keep_prob=keep_prob,
                           activation=activation, init_scale=init_scale)


def single_filter_params(channels, weights, bias, activation="relu"):
    """One filter (an h x k window plus a bias) feeding a zero two-class output."""
    weights = np.asarray(weights, dtype=np.float64)
    bank = net.FilterBank(weights.shape[0], weights[None], np.array([float(bias)]))
    output = net.OutputLayer(np.zeros((2, 1)), np.zeros(2))
    return net.ModelParams(channels, [bank], output, activation=activation)


def feature_maps(params, token_ids):
    """Per width group, the (n_windows, F) activations of an inference forward,
    through the library's activation, and the pooled features z."""
    _, trace = forward(params, token_ids, train=False)
    return [net._activate(pre, params.activation) for pre in trace.preacts], trace.z


def scalar_channel(values):
    """A 1-dimensional channel whose row i+1 holds values[i] (row 0 is the pad)."""
    return [EmbeddingChannel(np.array([0.0] + list(values))[:, None], trainable=False)]


class TestConvFeatureMap:
    def test_zero_filter_gives_zero_map(self):
        rng = np.random.default_rng(0)
        channels = random_channels(rng, 1, 6, 4)
        params = single_filter_params(channels, np.zeros((2, 4)), 0.0)
        maps, z = feature_maps(params, [1, 2, 3, 4, 5])
        assert np.all(maps[0] == 0.0) and np.all(z == 0.0)

    def test_sentence_equal_to_width(self):
        rng = np.random.default_rng(1)
        channels = random_channels(rng, 1, 6, 4)
        params = single_filter_params(channels, rng.normal(size=(3, 4)), 0.1)
        assert feature_maps(params, [1, 2, 3])[0][0].shape == (1, 1)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        channels = random_channels(rng, 2, 8, 4)
        weights, bias = rng.normal(size=(2, 4)), rng.normal()
        ids = rng.integers(1, 8, size=5)
        for activation in ("relu", "tanh"):
            params = single_filter_params(channels, weights, bias, activation)
            maps, z = feature_maps(params, ids)
            expected = oracle_feature_map(ids, channels, weights, bias, activation)
            assert np.max(np.abs(maps[0][:, 0] - np.array(expected))) <= 1e-12
            assert abs(z[0] - max(expected)) <= 1e-12

    def test_oracle_sweep(self):
        # Every filter of a multi-filter bank, through the batched forward.
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_ch = int(rng.integers(1, 3))
            k = int(rng.integers(1, 9))
            n = int(rng.integers(1, 13))
            h = int(rng.integers(1, min(n, 5) + 1))
            maps = int(rng.integers(1, 4))
            vocab_size = int(rng.integers(2, 12))
            channels = random_channels(rng, n_ch, vocab_size, k)
            activation = "tanh" if rng.random() < 0.5 else "relu"
            bank = net.FilterBank(h, rng.normal(size=(maps, h, k)), rng.normal(size=maps))
            params = net.ModelParams(channels, [bank],
                                     net.OutputLayer(np.zeros((2, maps)), np.zeros(2)),
                                     activation=activation)
            ids = rng.integers(0, vocab_size, size=n)
            got, z = feature_maps(params, ids)
            for f in range(maps):
                want = oracle_feature_map(ids, channels, bank.weights[f], bank.biases[f],
                                          activation)
                assert np.max(np.abs(got[0][:, f] - np.array(want))) <= 1e-12
                assert abs(z[f] - max(want)) <= 1e-12

    def test_too_short_raises(self):
        rng = np.random.default_rng(4)
        channels = random_channels(rng, 1, 6, 4)
        params = single_filter_params(channels, rng.normal(size=(4, 4)), 0.0)
        with pytest.raises(ValueError, match="shorter"):
            forward(params, [1, 2], train=False)


class TestMaxOverTime:
    # A width-1 identity filter on a 1-dimensional channel: the feature map is
    # the activation of the channel values, so the pooled value and argmax are known.
    def pool(self, values, activation="relu"):
        params = single_filter_params(scalar_channel(values), [[1.0]], 0.0, activation)
        _, trace = forward(params, np.arange(1, len(values) + 1), train=False)
        return float(trace.z[0]), int(trace.argmax[0][0])

    def test_basic(self):
        assert self.pool([1.0, 3.0, 2.0]) == (3.0, 1)

    def test_tie_takes_first(self):
        assert self.pool([2.0, 2.0]) == (2.0, 0)
        assert self.pool([1.0, 2.0, 0.5, 2.0]) == (2.0, 1)

    def test_dead_relu_map(self):
        assert self.pool([-1.0, -3.0, -0.5, -2.0]) == (0.0, 0)

    def test_tanh_map(self):
        z, arg = self.pool([0.5, -2.0, 1.5, 1.0], "tanh")
        assert abs(z - math.tanh(1.5)) <= 1e-12 and arg == 2


class TestLossAndProbs:
    def test_equal_logits_two_classes(self):
        probs, loss = loss_and_probs(np.zeros(2), 0)
        assert np.allclose(probs, [0.5, 0.5])
        assert np.isclose(loss, math.log(2.0))

    def test_huge_logit_no_overflow(self):
        probs, loss = loss_and_probs(np.array([1000.0, 0.0]), 0)
        assert np.isfinite(probs).all() and np.isfinite(loss)
        assert probs[0] > 0.999999

    def test_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            probs, _ = loss_and_probs(rng.normal(0, 5, size=rng.integers(2, 9)), 0)
            assert abs(probs.sum() - 1.0) <= 1e-12


class TestForward:
    def test_keep_prob_one_train_equals_inference(self):
        rng = np.random.default_rng(6)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=1.0)
        ids = rng.integers(1, 9, size=7)
        train_logits, _ = forward(params, ids, train=True)
        infer_logits, _ = forward(params, ids, train=False)
        assert np.array_equal(train_logits, infer_logits)

    def test_all_pad_sentence_closed_form(self):
        rng = np.random.default_rng(7)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=0.5)
        for bank in params.filters:
            bank.biases[:] = rng.normal(size=bank.biases.shape)
        params.output.biases[:] = rng.normal(size=3)
        ids = np.zeros(6, dtype=np.int64)
        logits, _ = forward(params, ids, train=False)
        # zero embeddings: every window's feature is relu(bias)
        z = np.concatenate([np.maximum(bank.biases, 0.0) for bank in params.filters])
        expected = params.keep_prob * params.output.weights @ z + params.output.biases
        assert np.allclose(logits, expected, atol=1e-15)
        again, _ = forward(params, ids, train=False)
        assert np.array_equal(logits, again)

    def test_train_mode_mean_matches_inference(self):
        # Monte-Carlo: E[W (z*r) + b] = W (p z) + b
        rng = np.random.default_rng(8)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=0.5)
        ids = rng.integers(1, 9, size=8)
        infer_logits, _ = forward(params, ids, train=False)
        n_samples = 3000
        samples = np.empty((n_samples, 3))
        mask_rng = np.random.default_rng(9)
        for s in range(n_samples):
            samples[s], _ = forward(params, ids, train=True, rng=mask_rng)
        mean = samples.mean(axis=0)
        sem = samples.std(axis=0, ddof=1) / math.sqrt(n_samples)
        assert np.all(np.abs(mean - infer_logits) <= 4.0 * sem)

    def test_train_mode_needs_randomness(self):
        rng = np.random.default_rng(10)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=0.5)
        with pytest.raises(ValueError, match="rng"):
            forward(params, rng.integers(1, 9, size=7), train=True)

    def test_short_sentence_rejected(self):
        rng = np.random.default_rng(11)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, widths=(3, 4))
        with pytest.raises(ValueError, match="pad"):
            forward(params, [1, 2], train=False)


def finite_difference(loss_fn, tensor, step=1e-5):
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + step
        up = loss_fn()
        tensor[idx] = orig - step
        down = loss_fn()
        tensor[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def assert_grads_close(analytic, numeric, rel=1e-6, tiny=1e-8, atol=1e-9):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    big = np.abs(analytic) >= tiny
    assert np.all(diff[big] <= rel * scale[big]), f"rel err {np.max(diff[big] / scale[big])}"
    assert np.all(diff[~big] <= atol)


class TestBackward:
    def _setup(self, activation="relu", seed=12):
        rng = np.random.default_rng(seed)
        channels = random_channels(rng, 2, 10, 6)
        params = toy_params(rng, channels, activation=activation)
        ids = rng.integers(1, 10, size=7)
        mask = np.array([1, 0, 1, 1, 1, 1, 0, 1], dtype=np.float64)
        return params, ids, mask

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_finite_difference_spot_check(self, activation):
        params, ids, mask = self._setup(activation)
        label = 1

        def loss_fn():
            logits, _ = forward(params, ids, train=True, mask=mask)
            return loss_and_probs(logits, label)[1]

        logits, trace = forward(params, ids, train=True, mask=mask)
        grads = backward(params, trace, label)
        assert_grads_close(grads.output_weights, finite_difference(loss_fn, params.output.weights))
        assert_grads_close(grads.output_biases, finite_difference(loss_fn, params.output.biases))
        bank = params.filters[0]
        assert_grads_close(grads.filter_weights[0], finite_difference(loss_fn, bank.weights))
        assert_grads_close(grads.filter_biases[0], finite_difference(loss_fn, bank.biases))
        dense = grads.dense_channel(1, params.channels[1].matrix.shape)
        assert_grads_close(dense, finite_difference(loss_fn, params.channels[1].matrix))

    def test_masked_filter_gradient_exactly_zero(self):
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, train=True, mask=mask)
        grads = backward(params, trace, 0)
        # mask entry 1 belongs to the width-2 bank (4 maps); entry 6 to width-3
        assert np.all(grads.filter_weights[0][1] == 0.0)
        assert grads.filter_biases[0][1] == 0.0
        assert np.all(grads.filter_weights[1][2] == 0.0)
        assert grads.filter_biases[1][2] == 0.0

    def test_static_channel_gets_no_gradient(self):
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, train=True, mask=mask)
        grads = backward(params, trace, 2)
        assert grads.channels[0] is None
        assert np.all(grads.dense_channel(0, params.channels[0].matrix.shape) == 0.0)
        assert grads.channels[1] is not None

    def test_pad_row_gradient_forced_zero(self):
        params, _, mask = self._setup()
        ids = np.array([0, 3, 4, 0, 5, 0, 0])  # pads inside the sentence
        _, trace = forward(params, ids, train=True, mask=mask)
        grads = backward(params, trace, 0)
        rows, _ = grads.channels[1]
        assert np.all(rows != 0)
        dense = grads.dense_channel(1, params.channels[1].matrix.shape)
        assert np.all(dense[0] == 0.0)

    def test_inference_trace_rejected(self):
        params, ids, _ = self._setup()
        _, trace = forward(params, ids, train=False)
        with pytest.raises(ValueError, match="train-mode"):
            backward(params, trace, 0)

    def test_mismatched_params_rejected(self):
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, train=True, mask=mask)
        rng = np.random.default_rng(13)
        other = toy_params(rng, random_channels(rng, 2, 10, 6), widths=(2,), maps=3)
        with pytest.raises(ValueError, match="match"):
            backward(other, trace, 0)


class TestStructuralInvariants:
    def test_max_pool_gradient_locality(self):
        # Perturbing words of a losing window (keeping the winner winning)
        # must leave the filter gradient bit-identical.
        rng = np.random.default_rng(14)
        channels = random_channels(rng, 1, 12, 4)
        params = toy_params(rng, channels, widths=(2,), maps=1, keep_prob=1.0)
        ids = np.arange(1, 9)  # distinct tokens: positions map to unique rows
        _, trace = forward(params, ids, train=True)
        winner = int(trace.argmax[0][0])
        grads = backward(params, trace, 0)

        loser_positions = [p for p in range(len(ids)) if p < winner or p > winner + 1]
        target_row = ids[loser_positions[0]]
        params.channels[0].matrix[target_row] += 0.01
        _, trace2 = forward(params, ids, train=True)
        assert int(trace2.argmax[0][0]) == winner
        grads2 = backward(params, trace2, 0)
        assert np.array_equal(grads.filter_weights[0], grads2.filter_weights[0])
        assert np.array_equal(grads.filter_biases[0], grads2.filter_biases[0])

    def test_multichannel_additivity_with_zero_channel(self):
        rng = np.random.default_rng(15)
        static = random_channels(rng, 1, 10, 5, trainable_last=False)
        zero = EmbeddingChannel(np.zeros((10, 5)), trainable=True)
        single = toy_params(np.random.default_rng(16), static, keep_prob=1.0)
        double = net.ModelParams([static[0], zero], single.filters, single.output,
                                 keep_prob=1.0, activation=single.activation)
        ids = rng.integers(1, 10, size=6)
        one, _ = forward(single, ids, train=False)
        two, _ = forward(double, ids, train=False)
        assert np.array_equal(one, two)

    def test_filter_permutation_leaves_logits_invariant(self):
        rng = np.random.default_rng(17)
        channels = random_channels(rng, 1, 10, 5)
        params = toy_params(rng, channels, widths=(2, 3), maps=4, keep_prob=1.0)
        ids = rng.integers(1, 10, size=8)
        base_logits, _ = forward(params, ids, train=False)

        perm = np.array([2, 0, 3, 1])
        shuffled = net.clone_params(params)
        shuffled.filters[0].weights[:] = params.filters[0].weights[perm]
        shuffled.filters[0].biases[:] = params.filters[0].biases[perm]
        shuffled.output.weights[:, :4] = params.output.weights[:, :4][:, perm]
        logits, _ = forward(shuffled, ids, train=False)
        assert np.max(np.abs(logits - base_logits)) <= 1e-12

    def test_forward_consistent_with_per_filter_path(self):
        # Pooled features and argmax windows agree with per-filter oracle maps.
        rng = np.random.default_rng(18)
        channels = random_channels(rng, 2, 10, 4)
        for activation in ("relu", "tanh"):
            params = toy_params(rng, channels, widths=(2, 3), maps=3, keep_prob=1.0,
                                activation=activation)
            ids = rng.integers(1, 10, size=7)
            _, trace = forward(params, ids, train=False)
            pooled, argmax = [], []
            for bank in params.filters:
                for f in range(bank.weights.shape[0]):
                    fmap = oracle_feature_map(ids, params.channels, bank.weights[f],
                                              bank.biases[f], activation)
                    pooled.append(max(fmap))
                    argmax.append(int(np.argmax(fmap)))
            assert np.max(np.abs(trace.z - np.array(pooled))) <= 1e-12
            assert np.concatenate(trace.argmax).tolist() == argmax
