"""Forward/backward correctness against independent oracles."""

import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import dense_gradients, finite_difference, oracle_feature_map

from sentconv import embed, net
from sentconv.corpus import PAD_ID, Example
from sentconv.embed import EmbeddingChannel
from sentconv.net import backward, forward, loss_and_probs

HERE = os.path.dirname(os.path.abspath(__file__))


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


def grads_of(params, trace, label):
    """One example's gradients, keyed by `net.trainable_tensors` name, the
    row gradient scattered to dense channel tables."""
    return dense_gradients(params, trace, backward(params, trace, [label])[1])


def summed(grad_dicts):
    """Per-name sums of gradient dicts, added in the order given."""
    total = {}
    for grads in grad_dicts:
        for name, grad in grads.items():
            total[name] = total[name] + grad if name in total else grad.copy()
    return total


def sentence_of(trace):
    """A one-sentence trace's token ids and (n, k) summed lookups."""
    return trace.distinct[trace.inverse], trace.rows[trace.inverse]


def reference_forward(params, token_ids, mask=None):
    """The per-sentence forward that pools each feature map through
    `np.argmax`, kept as the oracle of the engine's batched pooling: it shares
    only `net._offset_major` and `net._window_preacts` with it, and scores
    each width's table with one plain GEMM, not through the `_products`
    queue.  Returns (logits, trace), a trace with B = 1."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.shape[0] < params.max_width:
        raise ValueError("sentence shorter than the widest filter; pad it first")
    distinct, inverse = np.unique(token_ids, return_inverse=True)
    rows = net.summed_embedding(params.channels, distinct)
    tables = [(rows @ net._offset_major(bank).T).reshape(-1, bank.weights.shape[0])
              for bank in params.filters]
    preacts = [net._window_preacts(table, bank, inverse)
               for table, bank in zip(tables, params.filters)]
    argmaxes, pooled = [], []
    for pre in preacts:
        act = net._activate(pre, params.activation)
        arg = np.argmax(act, axis=0)
        argmaxes.append(arg[None])
        pooled.append(act[arg, np.arange(act.shape[1])])
    z = np.concatenate(pooled)

    if mask is None:
        masks = None
        logits = (params.keep_prob * params.output.weights) @ z + params.output.biases
    else:
        masks = np.asarray(mask, dtype=np.float64)[None]
        logits = params.output.weights @ (z * masks[0]) + params.output.biases

    trace = net.ForwardTrace(distinct, inverse, rows, preacts, argmaxes, z[None], masks,
                             logits[None])
    return logits, trace


def oracle_embedding_gradient(params, trace, label):
    """Per-window scatter: every (filter f, window offset j) pair adds
    dpre[f] * W[f, j] to the row of the token at position argmax[f] + j."""
    probs, _ = loss_and_probs(trace.logits[0], label)
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dz = (params.output.weights.T @ dlogits) * trace.masks[0]
    token_ids, _ = sentence_of(trace)
    grad = np.zeros_like(params.channels[0].matrix)
    unit = 0
    for bank, pre, arg in zip(params.filters, trace.preacts, trace.argmax):
        arg = arg[0]
        for f in range(bank.weights.shape[0]):
            p = pre[arg[f], f]
            if params.activation == "relu":
                slope = 1.0 if p > 0.0 else 0.0
            else:
                slope = 1.0 - math.tanh(p) ** 2
            dpre = dz[unit] * slope
            unit += 1
            for j in range(bank.width):
                token = token_ids[arg[f] + j]
                if token != PAD_ID:
                    grad[token] += dpre * bank.weights[f, j]
    return grad


def dense_reference_backward(params, trace, label):
    """One sentence's all-filter backward, from a one-sentence trace, kept as
    an oracle: the dense (F, h, k) weight-gradient product, and per width one
    (n-h+1) x F @ F x hk GEMM over the argmax-sparse map, folded onto positions.
    Returns the loss and dense gradients keyed like `net.trainable_tensors`."""
    grads = {name: np.zeros_like(t) for name, t in net.trainable_tensors(params)}
    token_ids, embedded = sentence_of(trace)
    z, mask = trace.z[0], trace.masks[0]
    dlogits, loss = loss_and_probs(trace.logits[0], label)
    dlogits[label] -= 1.0
    grads["output.weights"] += np.outer(dlogits, z * mask)
    grads["output.biases"] += dlogits
    dz = (params.output.weights.T @ dlogits) * mask
    tuned = [grads[f"channel{i}"] for i, ch in enumerate(params.channels) if ch.trainable]
    d_embedded = np.zeros_like(embedded)
    offset = 0
    for bank, pre, arg in zip(params.filters, trace.preacts, trace.argmax):
        n_maps, h, arg = bank.weights.shape[0], bank.width, arg[0]
        dz_g = dz[offset:offset + n_maps]
        offset += n_maps
        dpre = dz_g * net._activate_grad(pre[arg, np.arange(n_maps)], params.activation)
        positions = arg[:, None] + np.arange(h)[None, :]
        grads[f"conv{h}.weights"] += dpre[:, None, None] * embedded[positions]
        grads[f"conv{h}.biases"] += dpre
        dpre_map = np.zeros_like(pre)
        dpre_map[arg, np.arange(n_maps)] = dpre
        d_windows = (dpre_map @ bank.weights.reshape(n_maps, -1)).reshape(len(pre), h, -1)
        for j in range(h):
            d_embedded[j:j + len(pre)] += d_windows[:, j]
    keep = token_ids != PAD_ID
    for dense in tuned:
        np.add.at(dense, token_ids[keep], d_embedded[keep])
    return float(loss), grads


def old_window_stack(embedded, h):
    """The (n - h + 1, h, k) transposing sliding-window copy `forward` used to make."""
    view = np.lib.stride_tricks.sliding_window_view(embedded, h, axis=0)
    return np.ascontiguousarray(view.transpose(0, 2, 1))


def single_filter_params(channels, weights, bias, activation="relu"):
    """One filter (an h x k window plus a bias) feeding a zero two-class output."""
    weights = np.asarray(weights, dtype=np.float64)
    bank = net.FilterBank(weights[None], np.array([float(bias)]))
    output = net.OutputLayer(np.zeros((2, 1)), np.zeros(2))
    return net.ModelParams(channels, [bank], output, activation=activation)


def feature_maps(params, token_ids):
    """Per width group, the (n_windows, F) activations of a forward pass,
    through the library's activation, and the pooled features z.  The masks
    change only the logits, so every pooled unit is kept."""
    _, trace = forward(params, token_ids, np.ones(params.num_filters))
    return [net._activate(pre, params.activation) for pre in trace.preacts], trace.z[0]


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
            assert np.max(np.abs(maps[0][:, 0] - expected)) <= 1e-12
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
            bank = net.FilterBank(rng.normal(size=(maps, h, k)), rng.normal(size=maps))
            params = net.ModelParams(channels, [bank],
                                     net.OutputLayer(np.zeros((2, maps)), np.zeros(2)),
                                     activation=activation)
            ids = rng.integers(0, vocab_size, size=n)
            got, z = feature_maps(params, ids)
            for f in range(maps):
                want = oracle_feature_map(ids, channels, bank.weights[f], bank.biases[f],
                                          activation)
                assert np.max(np.abs(got[0][:, f] - want)) <= 1e-12
                assert abs(z[f] - max(want)) <= 1e-12

    def test_too_short_raises(self):
        rng = np.random.default_rng(4)
        channels = random_channels(rng, 1, 6, 4)
        params = single_filter_params(channels, rng.normal(size=(4, 4)), 0.0)
        with pytest.raises(ValueError, match="shorter"):
            forward(params, [1, 2], np.ones(1))


class TestMaxOverTime:
    # A width-1 identity filter on a 1-dimensional channel: the feature map is
    # the activation of the channel values, so the pooled value and argmax are known.
    def pool(self, values, activation="relu"):
        params = single_filter_params(scalar_channel(values), [[1.0]], 0.0, activation)
        _, trace = forward(params, np.arange(1, len(values) + 1), np.ones(1))
        return float(trace.z[0, 0]), int(trace.argmax[0][0, 0])

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
        probs, losses = loss_and_probs(np.zeros((3, 2)), [0, 1, 0])
        assert probs.shape == (3, 2) and losses.shape == (3,)
        assert np.allclose(probs, 0.5)
        assert np.allclose(losses, math.log(2.0))

    def test_huge_logit_no_overflow(self):
        probs, losses = loss_and_probs(np.array([[1000.0, 0.0], [0.0, -1000.0]]), [0, 1])
        assert np.isfinite(probs).all() and np.isfinite(losses).all()
        assert probs[0, 0] > 0.999999 and probs[1, 0] > 0.999999
        assert losses[0] < 1e-6 and abs(losses[1] - 1000.0) < 1e-6

    def test_normalization(self):
        # Each row is the one-row softmax of that row, byte for byte.
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = int(rng.integers(2, 9))
            logits = rng.normal(0, 5, size=(int(rng.integers(1, 6)), c))
            labels = rng.integers(0, c, size=logits.shape[0])
            probs, losses = loss_and_probs(logits, labels)
            assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
            for row, label, got_probs, got_loss in zip(logits, labels, probs, losses):
                want_probs, want_loss = loss_and_probs(row, label)
                assert got_probs.tobytes() == want_probs.tobytes()
                assert got_loss == want_loss


class TestLabelsAreTheModelsClasses:
    """A label outside [0, classes) raises ValueError where labels meet the
    model: `loss_and_probs`, and so `backward`, and `accuracy`."""

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_loss_backward_and_accuracy_refuse_it(self, bad):
        # At the parent, the loss read -1 as the last class and raised
        # IndexError for 3, and `accuracy` scored both as misses.
        rng = np.random.default_rng(47)
        params = toy_params(rng, random_channels(rng, 1, 20, 5), num_classes=3)
        with pytest.raises(ValueError, match="^label outside the model's classes$"):
            loss_and_probs(np.zeros((2, 3)), [0, bad])
        _, trace = net.forward_batch(params, [[1, 2, 3], [4, 5, 6]], np.ones((2, 8)))
        with pytest.raises(ValueError, match="^label outside the model's classes$"):
            backward(params, trace, [0, bad])
        examples = [Example(np.array([1, 2, 3]), 0), Example(np.array([4, 5, 6]), bad)]
        with pytest.raises(ValueError, match="^label outside the model's classes$"):
            net.accuracy(params, examples)


class TestForward:
    def test_widths_iterator_sizes_the_output_layer(self):
        # `widths` is walked once, so an iterator gives the same parameters
        # as a tuple, output layer included.
        channels = random_channels(np.random.default_rng(5), 1, 9, 5)
        params = net.init_params(channels, 2, iter((2, 3)), 3, seed=1)
        expected = net.init_params(channels, 2, (2, 3), 3, seed=1)
        assert params.output.weights.shape == (2, 6)
        assert np.array_equal(params.output.weights, expected.output.weights)
        logits, _ = forward(params, [1, 2, 3, 4], np.ones(params.num_filters))
        assert logits.shape == (2,)

    def test_a_repeated_filter_width_raises(self):
        # Tensors are named by width: two banks of one width would share a
        # gradient and leave the optimizer fewer states than tensors.
        channels = random_channels(np.random.default_rng(4), 1, 9, 5)
        with pytest.raises(ValueError, match="filter widths must be distinct"):
            net.init_params(channels, 2, (3, 3), 2, seed=1)
        bank = net.FilterBank(np.zeros((2, 3, 5)), np.zeros(2))
        with pytest.raises(ValueError, match="filter widths must be distinct"):
            net.ModelParams(channels, [bank, bank], net.OutputLayer(np.zeros((2, 4)), np.zeros(2)))

    def test_keep_prob_one_train_equals_inference(self):
        rng = np.random.default_rng(6)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=1.0)
        ids = rng.integers(1, 9, size=7)
        train_logits, _ = forward(params, ids, mask=np.ones(params.num_filters))
        infer_logits = net.predict_logits(params, [ids])[0]
        assert np.array_equal(train_logits, infer_logits)

    def test_all_pad_sentence_closed_form(self):
        rng = np.random.default_rng(7)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=0.5)
        for bank in params.filters:
            bank.biases[:] = rng.normal(size=bank.biases.shape)
        params.output.biases[:] = rng.normal(size=3)
        ids = np.zeros(6, dtype=np.int64)
        logits = net.predict_logits(params, [ids])[0]
        # zero embeddings: every window's feature is relu(bias)
        z = np.concatenate([np.maximum(bank.biases, 0.0) for bank in params.filters])
        expected = params.keep_prob * params.output.weights @ z + params.output.biases
        assert np.allclose(logits, expected, atol=1e-15)
        again = net.predict_logits(params, [ids])[0]
        assert np.array_equal(logits, again)

    def test_train_mode_mean_matches_inference(self):
        # Monte-Carlo: E[W (z*r) + b] = W (p z) + b
        rng = np.random.default_rng(8)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, keep_prob=0.5)
        ids = rng.integers(1, 9, size=8)
        infer_logits = net.predict_logits(params, [ids])[0]
        n_samples = 3000
        samples = np.empty((n_samples, 3))
        mask_rng = np.random.default_rng(9)
        for s in range(n_samples):
            mask = (mask_rng.random(params.num_filters) < params.keep_prob).astype(np.float64)
            samples[s], _ = forward(params, ids, mask=mask)
        mean = samples.mean(axis=0)
        sem = samples.std(axis=0, ddof=1) / math.sqrt(n_samples)
        assert np.all(np.abs(mean - infer_logits) <= 4.0 * sem)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_the_reference(self, activation, n_channels, masked):
        # `forward` is `forward_batch` on one sentence; the reference pools
        # through `np.argmax` and runs its own output layer.  Unmasked, the
        # trace is compared with every pooled unit kept, and the inference
        # logits, whose output weights keep_prob scales, come from
        # `predict_logits`.
        rng = np.random.default_rng(10)
        params = toy_params(rng, random_channels(rng, n_channels, 9, 5), widths=(1, 3, 4),
                            activation=activation)
        for bank in params.filters:
            bank.biases[:] = rng.normal(size=bank.biases.shape)
        for _ in range(20):
            # a 9-word vocabulary forces repeated tokens, ties and pad rows
            ids = rng.integers(0, 9, size=int(rng.integers(params.max_width, 20)))
            mask = (rng.random(params.num_filters) < 0.5).astype(np.float64) if masked \
                else np.ones(params.num_filters)
            logits, trace = forward(params, ids, mask)
            want_logits, want = reference_forward(params, ids, mask)
            assert trace.masks.tobytes() == want.masks.tobytes()
            for got_pre, want_pre in zip(trace.preacts, want.preacts, strict=True):
                np.testing.assert_allclose(got_pre, want_pre, rtol=0, atol=1e-12)
            for got_arg, want_arg in zip(trace.argmax, want.argmax, strict=True):
                assert np.array_equal(got_arg, want_arg)
            np.testing.assert_allclose(trace.z, want.z, rtol=0, atol=1e-12)
            assert logits.shape == want_logits.shape
            np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.logits, want.logits, rtol=0, atol=1e-12)
            if not masked:
                np.testing.assert_allclose(net.predict_logits(params, [ids])[0],
                                           reference_forward(params, ids)[0],
                                           rtol=0, atol=1e-12)

    def test_short_sentence_rejected(self):
        rng = np.random.default_rng(11)
        channels = random_channels(rng, 1, 9, 5)
        params = toy_params(rng, channels, widths=(3, 4))
        with pytest.raises(ValueError, match="pad"):
            forward(params, [1, 2], np.ones(params.num_filters))


def assert_grads_close(analytic, numeric, rel=1e-6, tiny=1e-8, atol=1e-9):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    big = np.abs(analytic) >= tiny
    assert np.all(diff[big] <= rel * scale[big]), f"rel err {np.max(diff[big] / scale[big])}"
    assert np.all(diff[~big] <= atol)


class TestModelIsValidOnceMade:
    """`ModelParams` owns what a model may be: a bad one raises when it is
    made, by `init_params`, by a caller or by `dataclasses.replace`, never
    at its first forward pass or not at all."""

    @staticmethod
    def _parts(num_classes=2):
        channels = random_channels(np.random.default_rng(8), 1, 9, 5)
        bank = net.FilterBank(np.zeros((2, 3, 5)), np.zeros(2))
        return channels, bank, net.OutputLayer(np.zeros((num_classes, 2)), np.zeros(num_classes))

    @staticmethod
    def _raises(message):
        return pytest.raises(ValueError, match=f"^{re.escape(message)}$")

    # nan fails `0 < keep_prob <= 1` too; each of these once fitted and
    # predicted without error, nan to nan logits, the others to logits
    # scaled by keep_prob.
    @pytest.mark.parametrize("keep_prob", [0.0, -1.0, 2.0, float("nan")])
    def test_keep_prob_outside_zero_to_one_raises(self, keep_prob):
        channels, bank, output = self._parts()
        with self._raises("keep_prob must be in (0, 1]"):
            net.init_params(channels, 2, (3,), 2, seed=1, keep_prob=keep_prob)
        with self._raises("keep_prob must be in (0, 1]"):
            net.ModelParams(channels, [bank], output, keep_prob=keep_prob)

    def test_an_unknown_activation_raises_when_made(self):
        channels, bank, output = self._parts()
        with self._raises("unknown activation 'sigmoid'"):
            net.init_params(channels, 2, (3,), 2, seed=1, activation="sigmoid")
        with self._raises("unknown activation 'sigmoid'"):
            net.ModelParams(channels, [bank], output, activation="sigmoid")

    # A one-class model would predict its class at probability 1, loss 0.
    @pytest.mark.parametrize("num_classes", [0, 1])
    def test_fewer_than_two_classes_raise_when_made(self, num_classes):
        channels, bank, output = self._parts(num_classes)
        message = f"need at least two classes, got {num_classes}"
        with self._raises(message):
            net.init_params(channels, num_classes, (3,), 2, seed=1)
        with self._raises(message):
            net.ModelParams(channels, [bank], output)

    def test_the_checks_run_in_order(self):
        channels, bank, output = self._parts()
        good = {"filters": [bank], "activation": "relu", "output": output, "keep_prob": 0.5}
        bad = {"filters": [bank, bank], "activation": "sigmoid", "output": self._parts(1)[2],
               "keep_prob": float("nan")}
        messages = ["filter widths must be distinct", "unknown activation 'sigmoid'",
                    "need at least two classes, got 1", "keep_prob must be in (0, 1]"]
        for first, message in enumerate(messages):
            with self._raises(message):
                net.ModelParams(channels, **{**good, **dict(list(bad.items())[first:])})

    def test_fields_cannot_be_assigned_and_replace_checks(self):
        channels, bank, output = self._parts()
        params = net.ModelParams(channels, [bank], output, keep_prob=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.keep_prob = 0.3
        assert params.keep_prob == 0.5
        with self._raises("keep_prob must be in (0, 1]"):
            dataclasses.replace(params, keep_prob=0.0)
        derived = dataclasses.replace(params, keep_prob=0.3)
        assert derived.keep_prob == 0.3 and derived.output is output

    # Each of these was made at the parent: a V x 1 table and (1,) output
    # biases broadcast to finite logits, the others failed at their first
    # pass with IndexError, numpy's matmul error or all-zero logits.
    @pytest.mark.parametrize("change", [
        lambda ch, bank, out: {"channels": ch + [EmbeddingChannel(np.zeros((9, 1)), False)]},
        lambda ch, bank, out: {"output": net.OutputLayer(out.weights, np.zeros(1))},
        lambda ch, bank, out: {"channels": []},
        lambda ch, bank, out: {"filters": [], "output": net.OutputLayer(np.zeros((2, 0)),
                                                                        np.zeros(2))},
        lambda ch, bank, out: {"channels": [EmbeddingChannel(np.zeros((9, 4)), True)]},
        lambda ch, bank, out: {"filters": [net.FilterBank(bank.weights, np.zeros(3))]},
        lambda ch, bank, out: {"output": net.OutputLayer(np.zeros((2, 3)), out.biases)},
        lambda ch, bank, out: {"filters": [net.FilterBank(np.zeros((0, 3, 5)), np.zeros(0))],
                               "output": net.OutputLayer(np.zeros((2, 0)), np.zeros(2))},
        lambda ch, bank, out: {"filters": [net.FilterBank(np.zeros((2, 0, 5)), np.zeros(2))]}],
        ids=["v-by-1-second-table", "one-output-bias", "no-channels", "no-banks",
             "dim-5-bank-on-dim-4-table", "conv-biases-not-the-filters", "output-columns",
             "zero-filters", "width-0"])
    def test_tensors_that_do_not_fit_together_raise_when_made(self, change):
        channels, bank, output = self._parts()
        good = net.ModelParams(channels, [bank], output)
        fields = {"channels": channels, "filters": [bank], "output": output}
        with self._raises("the model's tensors do not fit together"):
            net.ModelParams(**{**fields, **change(channels, bank, output)})
        with self._raises("the model's tensors do not fit together"):
            dataclasses.replace(good, **change(channels, bank, output))

    @pytest.mark.parametrize("n_channels, widths", [(0, (2, 3)), (1, ())],
                             ids=["no-channels", "no-widths"])
    def test_init_params_reports_the_model_s_error(self, n_channels, widths):
        channels = random_channels(np.random.default_rng(8), n_channels, 9, 5)
        with self._raises("the model's tensors do not fit together"):
            net.init_params(channels, 2, widths, 3, 1)

    def test_the_arrays_and_their_holders_stay_writable(self):
        # Training updates the arrays in place, and `+=` on a holder's field
        # adds in place and then rebinds the field.
        channels, bank, output = self._parts()
        params = net.ModelParams(channels, [bank], output, activation="tanh")
        params.output.weights += 1.0
        assert params.output.weights.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        clone = net.clone_params(params)
        assert (clone.keep_prob, clone.activation) == (params.keep_prob, "tanh")
        assert clone.output.weights is not params.output.weights


class TestBackward:
    def _setup(self, activation="relu", seed=12):
        rng = np.random.default_rng(seed)
        channels = random_channels(rng, 2, 10, 6)
        params = toy_params(rng, channels, activation=activation)
        ids = rng.integers(1, 10, size=7)
        mask = np.array([1, 0, 1, 1, 1, 1, 0, 1], dtype=np.float64)
        return params, ids, mask

    @pytest.mark.parametrize("activation,batch", [
        pytest.param("relu", False, id="relu"), pytest.param("tanh", False, id="tanh"),
        pytest.param("relu", True, id="relu-batch"), pytest.param("tanh", True, id="tanh-batch"),
    ])
    def test_finite_difference_spot_check(self, activation, batch):
        params, ids, mask = self._setup(activation)
        if batch:
            # Four ragged sentences of non-pad tokens (the pad row's gradient
            # is zero by design), tokens repeated within and across them; the
            # loss is the batch's per-example losses summed.
            sentences = [ids, np.array([4, 4, 7, 2, 4]), ids[:3],
                         np.array([2, 9, 2, 9, 3, 3, 7, 9])]
            masks = np.stack([mask, mask[::-1], np.ones_like(mask), 1.0 - mask])
            labels = [1, 0, 2, 1]

            def loss_fn():
                logits, _ = net.forward_batch(params, sentences, masks)
                return loss_and_probs(logits, labels)[1].sum()

            _, trace = net.forward_batch(params, sentences, masks)
        else:
            labels = [1]

            def loss_fn():
                logits, _ = forward(params, ids, mask=mask)
                return loss_and_probs(logits, labels[0])[1]

            _, trace = forward(params, ids, mask=mask)
        losses, grads = backward(params, trace, labels)
        assert losses.sum() == loss_fn()
        grads = dense_gradients(params, trace, grads)
        for name, tensor in net.trainable_tensors(params):
            assert_grads_close(grads[name], finite_difference(loss_fn, tensor))

    def test_masked_filter_gradient_exactly_zero(self):
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, mask=mask)
        grads = grads_of(params, trace, 0)
        # mask entry 1 belongs to the width-2 bank (4 maps); entry 6 to width-3
        assert np.all(grads["conv2.weights"][1] == 0.0)
        assert grads["conv2.biases"][1] == 0.0
        assert np.all(grads["conv3.weights"][2] == 0.0)
        assert grads["conv3.biases"][2] == 0.0

    def test_static_channel_gets_no_gradient(self):
        params, ids, mask = self._setup()
        static = params.channels[0].matrix.copy()
        _, trace = forward(params, ids, mask=mask)
        grads = grads_of(params, trace, 2)
        assert "channel0" not in grads
        assert np.array_equal(params.channels[0].matrix, static)
        assert np.any(grads["channel1"] != 0.0)

    def test_pad_row_gradient_forced_zero(self):
        params, _, mask = self._setup()
        ids = np.array([0, 3, 4, 0, 5, 0, 0])  # pads inside the sentence
        _, trace = forward(params, ids, mask=mask)
        grads = grads_of(params, trace, 0)
        assert np.all(grads["channel1"][0] == 0.0)
        assert np.any(grads["channel1"][[3, 4, 5]] != 0.0)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_embedding_gradient_matches_per_window_scatter(self, activation):
        rng = np.random.default_rng(19)
        for flags in ([True], [False, True], [True, True]):
            for _ in range(10):
                channels = [EmbeddingChannel(ch.matrix, trainable)
                            for ch, trainable in zip(random_channels(rng, len(flags), 6, 5), flags)]
                params = toy_params(rng, channels, widths=(2, 3, 4), maps=5,
                                    activation=activation)
                # a 6-word vocabulary forces repeated tokens and pad rows
                ids = rng.integers(0, 6, size=int(rng.integers(4, 12)))
                ids[0] = PAD_ID
                mask = np.ones(params.num_filters)
                mask[rng.choice(params.num_filters, size=4, replace=False)] = 0.0
                label = int(rng.integers(0, params.num_classes))
                _, trace = forward(params, ids, mask=mask)
                grads = grads_of(params, trace, label)
                expected = oracle_embedding_gradient(params, trace, label)
                assert np.any(expected != 0.0) and np.all(expected[0] == 0.0)
                for i, ch in enumerate(channels):
                    if ch.trainable:
                        assert np.max(np.abs(grads[f"channel{i}"] - expected)) <= 1e-12

    @pytest.mark.parametrize("flags", [(False,), (True,), (False, True), (True, True)])
    def test_returns_one_gradient_per_trainable_tensor(self, flags):
        # Keyed exactly by `trainable_tensors`; each trainable channel gets
        # the (U', k) gradient of the trace's distinct non-pad rows.
        rng = np.random.default_rng(18)
        channels = [EmbeddingChannel(ch.matrix, trainable)
                    for ch, trainable in zip(random_channels(rng, len(flags), 10, 6), flags)]
        params = toy_params(rng, channels)
        _, trace = forward(params, np.array([0, 3, 3, 0, 5, 8, 0]), np.ones(params.num_filters))
        _, grads = backward(params, trace, [2])
        names = [name for name, _ in net.trainable_tensors(params)]
        assert sorted(grads) == sorted(names)
        assert trace.table_rows.tolist() == [3, 5, 8]
        for name, tensor in net.trainable_tensors(params):
            rows = len(trace.table_rows) if name.startswith("channel") else tensor.shape[0]
            assert grads[name].shape == (rows,) + tensor.shape[1:], name

    def test_calls_share_nothing(self):
        # A second call on the same trace returns byte-equal gradients in
        # fresh arrays: nothing carries over between calls.
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, mask=mask)
        first = backward(params, trace, [2])[1]
        before = {name: grad.copy() for name, grad in first.items()}
        second = backward(params, trace, [2])[1]
        assert first.keys() == second.keys()
        for name in first:
            assert second[name].tobytes() == before[name].tobytes() == first[name].tobytes()
            assert not any(np.shares_memory(second[name], grad) for grad in first.values())

    def test_labels_must_match_the_trace(self):
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, mask=mask)
        with pytest.raises(ValueError, match="one label per example"):
            backward(params, trace, [0, 1])

    def test_mismatched_params_rejected(self):
        params, ids, mask = self._setup()
        _, trace = forward(params, ids, mask=mask)
        rng = np.random.default_rng(13)
        other = toy_params(rng, random_channels(rng, 2, 10, 6), widths=(2,), maps=3)
        with pytest.raises(ValueError, match="match"):
            grads_of(other, trace, 0)


class TestLiveFilterBackward:
    # One-sentence traces, one `backward` call each.  In the engine's score
    # matrix S every (filter, offset) column holds one nonzero cell, so the
    # conv, bias and output gradients must be byte-equal to the dense oracle;
    # the channel gradient's GEMM sums the (filter, offset) pairs in another
    # order, so it may differ in its last bits: within this tolerance relative
    # to the tensor's largest entry (a few ulps of it).
    CHANNEL_RTOL = 1e-15

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("flags", [(False, True), (True, True)])
    @pytest.mark.parametrize("keep_prob", [0.5, 1.0])
    def test_matches_the_dense_oracle(self, activation, flags, keep_prob):
        rng = np.random.default_rng(21)
        channels = [EmbeddingChannel(ch.matrix, trainable)
                    for ch, trainable in zip(random_channels(rng, len(flags), 9, 16), flags)]
        params = toy_params(rng, channels, widths=(1, 3, 5), maps=24, activation=activation)
        live, dense = [], []
        for _ in range(12):
            # a 9-word vocabulary forces repeated tokens; pads sit inside and at the ends
            ids = rng.integers(0, 9, size=int(rng.integers(5, 30)))
            ids[0] = ids[-1] = PAD_ID
            mask = (rng.random(params.num_filters) < keep_prob).astype(np.float64)
            label = int(rng.integers(0, params.num_classes))
            _, trace = forward(params, ids, mask=mask)
            losses, grads = backward(params, trace, [label])
            loss, expected = dense_reference_backward(params, trace, label)
            assert losses.tolist() == [loss]
            live.append(dense_gradients(params, trace, grads))
            dense.append(expected)
        live, dense = summed(live), summed(dense)
        for name, _ in net.trainable_tensors(params):
            if name.startswith("channel"):
                assert np.max(np.abs(live[name] - dense[name])) <= \
                    self.CHANNEL_RTOL * np.max(np.abs(dense[name]))
                assert np.all(live[name][PAD_ID] == 0.0)
            else:
                assert live[name].tobytes() == dense[name].tobytes(), name

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_all_masked_example_leaves_conv_and_channel_buffers(self, activation):
        rng = np.random.default_rng(22)
        params = toy_params(rng, random_channels(rng, 2, 9, 6, trainable_last=True),
                            activation=activation)
        _, trace = forward(params, rng.integers(0, 9, size=8), mask=np.zeros(params.num_filters))
        _, grads = backward(params, trace, [1])
        assert "channel1" in grads
        for name, grad in grads.items():
            if name.startswith(("conv", "channel")):
                assert not np.any(grad), name
        assert np.any(grads["output.biases"])


class TestWindows:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_preactivations_match_the_sliding_window_stack(self, h):
        # `_window_preacts` adds each window offset's dot products separately, so it
        # agrees with one GEMM over the window stack up to summation order.
        rng = np.random.default_rng(23 + h)
        channels = random_channels(rng, 2, 30, 13)  # the lookup is a two-channel sum
        params = toy_params(rng, channels, widths=(h,), maps=7)
        bank = params.filters[0]
        for n in range(h, 41):  # n == h is the single-window sentence
            ids = rng.integers(0, 30, size=n)
            _, trace = forward(params, ids, np.ones(params.num_filters))
            embedded = net.summed_embedding(channels, ids)
            stack = old_window_stack(embedded, h).reshape(n - h + 1, -1)
            expected = stack @ bank.weights.reshape(7, -1).T + bank.biases
            np.testing.assert_allclose(trace.preacts[0], expected, rtol=0, atol=1e-12)
            expected_arg = np.argmax(net._activate(expected, params.activation), axis=0)
            assert np.array_equal(trace.argmax[0][0], expected_arg)


def repeated_sentence_rows():
    """`predict_logits` rows of one sentence placed in five chunks of a single
    block, among random sentences, on the MR shape (k=300, 3 x 100 maps)."""
    rng = np.random.default_rng(44)
    channels = random_channels(rng, 1, 50, 300)
    params = toy_params(rng, channels, widths=(3, 4, 5), maps=100, init_scale=0.05)
    same = rng.integers(1, 50, size=23)
    sentences = [rng.integers(0, 50, size=rng.integers(5, 40)) for _ in range(250)]
    spots = [0, 3, 70, 140, 249]
    for spot in spots:
        sentences.insert(spot, same)
    rows = sum(map(len, sentences))
    assert 4 * net._CHUNK_ROWS < rows <= net._BLOCK_ROWS  # one block, five chunks
    return net.predict_logits(params, sentences)[spots]


def block_count(sentences):
    """How many blocks `predict_logits` splits the sentences into."""
    return sum(1 for _ in net._runs(sentences, net._BLOCK_ROWS))


class TestPredictLogits:
    """The batched scorer against `reference_forward`, the `np.argmax` oracle,
    and against scoring each sentence alone."""

    @staticmethod
    def _sentences(rng, vocab_size, max_width):
        sentences = [np.full(max_width, 3), np.zeros(max_width, dtype=np.int64),
                     np.zeros(max_width + 6, dtype=np.int64)]  # exact width, all pad
        sentences += [rng.integers(0, vocab_size, size=rng.integers(max_width, 60))
                      for _ in range(600)]  # ragged, several chunks and blocks
        sentences.insert(40, rng.integers(0, vocab_size, size=net._CHUNK_ROWS + 300))
        sentences.insert(400, rng.integers(0, vocab_size, size=net._BLOCK_ROWS + 300))
        return sentences

    @staticmethod
    def _check_rows(params, sentences):
        logits = net.predict_logits(params, sentences)
        assert logits.shape == (len(sentences), params.num_classes)
        for row, ids in zip(logits, sentences):
            expected, _ = reference_forward(params, ids)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(row, net.predict_logits(params, [ids])[0],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_rows_match_forward(self, activation, n_channels):
        # Blocks end at sentence boundaries, so every block boundary is a
        # sentence that would have straddled it; one sentence is longer than
        # a chunk and one longer than a whole block.
        rng = np.random.default_rng(40 + n_channels)
        channels = random_channels(rng, n_channels, 25, 6)
        params = toy_params(rng, channels, widths=(1, 3, 4), maps=5, activation=activation)
        for bank in params.filters:
            bank.biases[:] = rng.normal(size=bank.biases.shape)
        sentences = self._sentences(rng, 25, params.max_width)
        assert block_count(sentences) >= 4
        self._check_rows(params, sentences)

    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_distinct_tokens_beyond_one_block(self, activation, n_channels):
        # More distinct tokens than a block has rows, and slabs of filters:
        # 120 maps per width split into slabs of 50, 50 and 20.
        rng = np.random.default_rng(48 + n_channels)
        channels = random_channels(rng, n_channels, 30000, 3)
        params = toy_params(rng, channels, widths=(2, 5), maps=120, activation=activation,
                            init_scale=0.3)
        sentences = [rng.integers(0, 30000, size=rng.integers(5, 200)) for _ in range(220)]
        assert len(np.unique(np.concatenate(sentences))) > net._BLOCK_ROWS
        assert block_count(sentences) >= 2
        assert 120 % net._SLAB_MAPS != 0
        self._check_rows(params, sentences)

    def test_windows_never_cross_into_the_next_sentence(self):
        # Width-2 sum filter over a scalar channel: a window straddling the
        # quiet sentence's end and the loud one's start would score 5.1, above
        # the quiet sentence's own best window of 0.2.
        channels = scalar_channel([0.1, 5.0])
        bank = net.FilterBank(np.ones((1, 2, 1)), np.zeros(1))
        output = net.OutputLayer(np.array([[1.0], [-1.0]]), np.zeros(2))
        params = net.ModelParams(channels, [bank], output)
        quiet, loud = [1, 1, 1], [2, 2]
        alone = net.predict_logits(params, [quiet])
        both = net.predict_logits(params, [quiet, loud])
        assert both[0].tobytes() == alone[0].tobytes()
        np.testing.assert_allclose(both[0], [0.2, -0.2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(both[1], [10.0, -10.0], rtol=0, atol=1e-15)

    def test_rows_lie_near_scoring_each_line_alone(self):
        # A row's last bits can depend on the other sentences of its block:
        # the block's distinct tokens set the score GEMM's size, and with it
        # the BLAS kernels.  So each row is pinned within 1e-12 of scoring its
        # sentence alone, not to its bytes.  MR shape: k = 300, widths 3, 4, 5
        # with 100 maps each, sentences of 5-40 words padded by 4 on each side.
        rng = np.random.default_rng(47)
        channels = random_channels(rng, 1, 2000, 300)
        params = toy_params(rng, channels, num_classes=2, widths=(3, 4, 5), maps=100,
                            init_scale=0.05)
        sentences = [np.concatenate([np.zeros(4, dtype=np.int64),
                                     rng.integers(1, 2000, size=rng.integers(5, 41)),
                                     np.zeros(4, dtype=np.int64)]) for _ in range(400)]
        assert block_count(sentences) >= 2
        logits = net.predict_logits(params, sentences)
        for row, ids in zip(logits, sentences):
            np.testing.assert_allclose(row, net.predict_logits(params, [ids])[0],
                                       rtol=0, atol=1e-12)

    def test_repeated_sentence_gives_byte_equal_rows(self):
        # Every copy of a token in one block reads the same row of the
        # distinct-token score table, whichever chunk pools it, so the
        # copies' rows are equal bytes with the default BLAS threads here,
        # and in a child process that pins one thread before numpy loads, as
        # the benchmark runs.
        rows = repeated_sentence_rows()
        assert len({row.tobytes() for row in rows}) == 1
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       [os.path.dirname(os.path.dirname(net.__file__)), HERE]))
        script = ("import test_net; rows = test_net.repeated_sentence_rows(); "
                  "print(len({row.tobytes() for row in rows}))")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr

    @staticmethod
    def _peak_beyond_the_returned_arrays(monkeypatch, helper_on):
        """tracemalloc's peak over one `predict_logits` call in the
        docstring's worst case, ten blocks whose every token is distinct and
        two channels, less the logits it returns; with the bound of a call
        that holds one slab table (helper off) or three (helper on).
        tracemalloc sees numpy's buffers, not BLAS's own workspace."""
        monkeypatch.setattr(net, "_helper_on", helper_on)
        rng = np.random.default_rng(49)
        vocab, k = 20000, 16
        params = toy_params(rng, random_channels(rng, 2, vocab, k), num_classes=2,
                            widths=(3, 4, 5), maps=100)
        ids = np.arange(10 * net._BLOCK_ROWS) % (vocab - 1) + 1
        sentences = np.split(ids, len(ids) // 32)
        assert block_count(sentences) == 10
        rows, h, slab = net._BLOCK_ROWS, params.max_width, net._SLAB_MAPS
        chunk = max(net._CHUNK_ROWS, max(map(len, sentences)))
        tables = 3 if helper_on else 1
        bound = 8 * (2 * rows * k + tables * h * slab * (rows + k) + 24 * rows + 4 * slab * chunk
                     + rows // h * (params.num_filters + 2 * params.num_classes))
        returned = 8 * len(sentences) * params.num_classes
        tracemalloc.start()
        try:
            net.predict_logits(params, sentences)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - returned, bound

    def test_memory_stays_under_the_stated_bound(self, monkeypatch):
        # The docstring's bound with the helper off, 8·(2·U·k + h·S·(U + k) +
        # 24·R + 4·S·C + b·(m + 2·c)) bytes: each slab's table is freed before
        # the next one's GEMM.
        peak, bound = self._peak_beyond_the_returned_arrays(monkeypatch, False)
        assert peak <= bound

    def test_memory_with_the_helper_stays_under_its_stated_bound(self, monkeypatch):
        # With the helper on, the next two slabs' tables and weight views are
        # held beside this one's: 8·(2·U·k + 3·h·S·(U + k) + 24·R + 4·S·C +
        # b·(m + 2·c)) bytes.  A fourth table would not fit.
        peak, bound = self._peak_beyond_the_returned_arrays(monkeypatch, True)
        assert peak <= bound

    def test_empty_list_and_short_sentence(self):
        rng = np.random.default_rng(45)
        params = toy_params(rng, random_channels(rng, 1, 9, 5), widths=(3, 4))
        assert net.predict_logits(params, []).shape == (0, params.num_classes)
        with pytest.raises(ValueError, match="shorter than the widest filter"):
            net.predict_logits(params, [[1, 2, 3, 4], [1, 2, 3]])

    def test_a_stream_is_read_one_block_at_a_time(self, monkeypatch):
        # At the first score table, a generator has yielded the first block
        # and the sentence that ended it, no more; the rows are those of the
        # same sentences in a list, and a short sentence in a later block
        # raises when its block is read.
        rng = np.random.default_rng(50)
        params = toy_params(rng, random_channels(rng, 1, 30, 4), widths=(2, 3), maps=5)
        sentences = [rng.integers(0, 30, size=rng.integers(3, 60)) for _ in range(800)]
        ends = np.cumsum([len(ids) for ids in sentences])
        assert ends[-1] > 2 * net._BLOCK_ROWS  # three blocks or more
        first = np.searchsorted(ends, net._BLOCK_ROWS, side="right")  # the first block's count
        expected = net.predict_logits(params, sentences).tobytes()
        drawn, at_tables, score_tables = [], [], net._score_tables

        def stream(sentences):
            for ids in sentences:
                drawn.append(ids)
                yield ids

        def recorded(rows, banks):
            at_tables.append(len(drawn))
            return score_tables(rows, banks)

        monkeypatch.setattr(net, "_score_tables", recorded)
        assert net.predict_logits(params, stream(sentences)).tobytes() == expected
        assert at_tables[0] <= first + 1
        drawn.clear()
        with pytest.raises(ValueError, match="shorter than the widest filter"):
            net.predict_logits(params, stream(sentences + [[1, 2]]))
        assert len(drawn) == len(sentences) + 1

    def test_accuracy_is_the_per_example_hit_rate(self):
        rng = np.random.default_rng(46)
        params = toy_params(rng, random_channels(rng, 2, 20, 5), widths=(2, 3))
        examples = [Example(rng.integers(0, 20, size=rng.integers(3, 30)),
                            int(rng.integers(0, 3))) for _ in range(300)]
        hits = sum(net.predict_class(params, ex.token_ids) == ex.label for ex in examples)
        assert 0 < hits < len(examples)
        assert net.accuracy(params, examples) == hits / len(examples)


class TestForwardBatch:
    """The batched training forward against `reference_forward`, the `np.argmax`
    oracle, and against per-sentence `forward`, its one-sentence case."""

    @staticmethod
    def _batch(rng, vocab_size, max_width):
        repeated = rng.integers(0, vocab_size, size=12)
        sentences = [np.full(max_width, 3), np.zeros(max_width, dtype=np.int64),
                     np.zeros(max_width + 4, dtype=np.int64), repeated]  # exact width, all pad
        sentences += [rng.integers(0, vocab_size, size=rng.integers(max_width, 40))
                      for _ in range(20)]
        sentences.insert(15, repeated)
        return sentences

    @staticmethod
    def _setup(seed, n_channels=2, activation="relu"):
        # two channels: a static one plus a trainable one
        rng = np.random.default_rng(seed)
        channels = random_channels(rng, n_channels, 25, 6)
        params = toy_params(rng, channels, widths=(1, 3, 4), maps=5, activation=activation)
        for bank in params.filters:
            bank.biases[:] = rng.normal(size=bank.biases.shape)
        sentences = TestForwardBatch._batch(rng, 25, params.max_width)
        masks = (rng.random((len(sentences), params.num_filters)) < 0.5).astype(np.float64)
        labels = rng.integers(0, params.num_classes, size=len(sentences))
        return params, sentences, masks, labels

    @staticmethod
    def assert_argmax_matches_reference(params, sentences, masks, trace):
        """Sentence i's argmax rows, less its first row, are `reference_forward`'s."""
        start = 0
        for i, (ids, mask) in enumerate(zip(sentences, masks)):
            _, expected = reference_forward(params, ids, mask)
            for arg, want in zip(trace.argmax, expected.argmax):
                assert np.array_equal(arg[i] - start, want[0])
            start += len(ids)

    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_traces_match_forward(self, activation, n_channels):
        params, sentences, masks, _ = self._setup(50 + n_channels, n_channels, activation)
        logits, trace = net.forward_batch(params, sentences, masks)
        assert logits.shape == (len(sentences), params.num_classes)
        assert trace.logits is logits and trace.masks.tobytes() == masks.tobytes()
        assert np.array_equal(trace.distinct, np.unique(np.concatenate(sentences)))
        assert np.array_equal(trace.distinct[trace.inverse], np.concatenate(sentences))
        assert trace.rows.tobytes() == \
            net.summed_embedding(params.channels, trace.distinct).tobytes()
        self.assert_argmax_matches_reference(params, sentences, masks, trace)
        start = 0
        for i, (ids, mask) in enumerate(zip(sentences, masks)):
            expected_logits, expected = reference_forward(params, ids, mask)
            for pre, want in zip(trace.preacts, expected.preacts):
                np.testing.assert_allclose(pre[start:start + len(want)], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.z[i], expected.z[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits[i], expected_logits, rtol=0, atol=1e-12)
            start += len(ids)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_non_finite_row_pools_to_np_argmax_rows(self, value):
        # An infinite frozen row makes the windows over its token NaN (its
        # weights have both signs, so inf - inf).  NaN beats every value in
        # `np.argmax`, so each such column must pick its first NaN window,
        # a row inside the sentence, not fall off the end.
        params, sentences, masks, _ = self._setup(56)
        frozen = params.channels[0].matrix.copy()  # a frozen table is read-only
        frozen[5] = value
        params.channels[0] = EmbeddingChannel(frozen, trainable=False)
        with np.errstate(invalid="ignore"):
            _, trace = net.forward_batch(params, sentences, masks)
            assert np.isnan(trace.z).any() and not np.isnan(trace.z).all()
            self.assert_argmax_matches_reference(params, sentences, masks, trace)
        for arg, pre in zip(trace.argmax, trace.preacts):
            assert np.all(arg < len(pre))

    def test_windows_never_cross_into_the_next_sentence(self):
        # Width-2 sum filter over a scalar channel: a window straddling the
        # quiet sentence's end and the loud one's start would score 5.1, above
        # the quiet sentence's own best window of 0.2.
        channels = scalar_channel([0.1, 5.0])
        bank = net.FilterBank(np.ones((1, 2, 1)), np.zeros(1))
        output = net.OutputLayer(np.array([[1.0], [-1.0]]), np.zeros(2))
        params = net.ModelParams(channels, [bank], output)
        quiet, loud = [1, 1, 1], [2, 2]
        _, alone = forward(params, quiet, np.ones(1))
        _, both = net.forward_batch(params, [quiet, loud], np.ones((2, 1)))
        assert both.z[0].tobytes() == alone.z[0].tobytes()
        np.testing.assert_allclose(both.z, [[0.2], [10.0]], rtol=0, atol=1e-15)
        assert both.argmax[0].tolist() == [[0], [3]]

    def test_short_sentence_raises_forwards_error(self):
        rng = np.random.default_rng(53)
        params = toy_params(rng, random_channels(rng, 1, 9, 5), widths=(3, 4))
        masks = np.ones((2, params.num_filters))
        with pytest.raises(ValueError, match="shorter than the widest filter"):
            net.forward_batch(params, [[1, 2, 3, 4], [1, 2, 3]], masks)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_backward_adds_the_per_sentence_gradients(self, activation):
        params, sentences, masks, labels = self._setup(54, 2, activation)
        _, trace = net.forward_batch(params, sentences, masks)
        losses, batched = backward(params, trace, labels)
        batched = dense_gradients(params, trace, batched)
        single = []
        for ids, mask, label, loss in zip(sentences, masks, labels, losses):
            _, expected = forward(params, ids, mask)
            expected_losses, grads = backward(params, expected, [label])
            assert loss == pytest.approx(expected_losses[0], rel=0, abs=1e-12)
            single.append(dense_gradients(params, expected, grads))
        single = summed(single)
        for name, _ in net.trainable_tensors(params):
            np.testing.assert_allclose(batched[name], single[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_traces_keep_only_the_batch_lookups_and_preactivations(self):
        # Backward reads the distinct tokens' rows and the preactivations;
        # the score tables, per-position lookups and masked activations die
        # with the call.
        params, sentences, masks, _ = self._setup(55)
        logits, trace = net.forward_batch(params, sentences, masks)
        owners = {}
        for array in (trace.distinct, trace.inverse, trace.rows, *trace.preacts,
                      *trace.argmax, trace.z, trace.masks, trace.logits):
            owner = array if array.base is None else array.base
            owners[id(owner)] = owner.nbytes
        n, n_distinct = sum(map(len, sentences)), len(trace.distinct)
        k, batch = params.channels[0].dim, len(sentences)
        expected = 8 * (n_distinct * (1 + k) + n)
        expected += 8 * sum((n - bank.width + 1 + batch) * bank.weights.shape[0]
                            for bank in params.filters)
        expected += masks.nbytes + 8 * batch * params.num_filters + logits.nbytes
        assert sum(owners.values()) == expected


class TestFrontEnd:
    """`_lookup`, where every sentence of `forward_batch` and `predict_logits` enters."""

    @staticmethod
    def _setup():
        rng = np.random.default_rng(57)
        params = toy_params(rng, random_channels(rng, 2, 10, 5), widths=(2, 3))
        sentences = [rng.integers(0, 10, size=rng.integers(3, 12)) for _ in range(6)]
        sentences[0][0] = PAD_ID
        return params, sentences, np.ones((len(sentences), params.num_filters))

    @pytest.mark.parametrize("bad", [-1, 10, pytest.param(np.uint64(2**63), id="uint64")])
    def test_an_id_outside_the_table_raises(self, bad):
        # Unchecked, -1 indexes the table from its end and V past it; a uint64
        # id of 2**63 wraps to a negative int64.
        params, sentences, masks = self._setup()
        sentences[3] = np.array([1, bad, 2, 3], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError, match="outside the embedding table"):
            net.forward_batch(params, sentences, masks)
        with pytest.raises(ValueError, match="outside the embedding table"):
            net.predict_logits(params, sentences)
        with pytest.raises(ValueError, match="outside the embedding table"):
            net.predict_logits(params, sentences[3:4])

    @pytest.mark.parametrize("ids", [pytest.param([1.7, 2, 3, 4], id="list"),
                                     pytest.param(np.array([1.0, 2.0, 3.0, 4.0]), id="array")])
    def test_a_float_id_raises(self, ids):
        # Cast unsafely, 1.7 would read row 1; a whole float is refused too.
        params, sentences, masks = self._setup()
        sentences[3] = ids
        with pytest.raises(ValueError, match="token ids must be integers"):
            net.forward_batch(params, sentences, masks)
        with pytest.raises(ValueError, match="token ids must be integers"):
            net.predict_logits(params, sentences)
        with pytest.raises(ValueError, match="token ids must be integers"):
            net.predict_logits(params, sentences[3:4])

    def test_lists_and_int32_and_int64_arrays_give_the_same_bytes(self):
        # Unsigned arrays too.
        params, sentences, masks = self._setup()
        forms = [[ids.tolist() for ids in sentences],
                 [ids.astype(np.int32) for ids in sentences],
                 [ids.astype(np.int64) for ids in sentences],
                 [ids.astype(np.uint8) for ids in sentences],
                 [ids.astype(np.uint64) for ids in sentences],
                 [ids.tolist() if i % 3 == 0 else ids.astype(np.int32 if i % 3 == 1 else np.int64)
                  for i, ids in enumerate(sentences)]]
        seen = []
        for form in forms:
            logits, trace = net.forward_batch(params, form, masks)
            _, grads = backward(params, trace, np.arange(len(form)) % params.num_classes)
            assert trace.distinct.dtype == np.int64
            seen.append([net.predict_logits(params, form).tobytes(), logits.tobytes(),
                         trace.table_rows.tobytes()]
                        + [b"".join(a.tobytes() for a in value) if isinstance(value, list)
                           else value.tobytes() for value in vars(trace).values()]
                        + [grads[name].tobytes() for name in sorted(grads)])
        assert all(bytes_ == seen[0] for bytes_ in seen[1:])
        assert trace.table_rows.tolist() == trace.distinct[1:].tolist()


class TestBatchBackward:
    """One `backward` call over a batch trace against the per-example dense
    oracle, `dense_reference_backward` on one-sentence traces, summed."""

    @staticmethod
    def assert_matches_summed_oracle(params, sentences, masks, labels):
        _, trace = net.forward_batch(params, sentences, masks)
        losses, batched = backward(params, trace, labels)
        batched = dense_gradients(params, trace, batched)
        expected, dense = [], []
        for ids, mask, label in zip(sentences, masks, labels):
            _, one = forward(params, ids, mask)
            loss, grads = dense_reference_backward(params, one, int(label))
            expected.append(loss)
            dense.append(grads)
        dense = summed(dense)
        np.testing.assert_allclose(losses, expected, rtol=0, atol=1e-12)
        for name, _ in net.trainable_tensors(params):
            np.testing.assert_allclose(batched[name], dense[name], rtol=0, atol=1e-12,
                                       err_msg=name)
            if name.startswith("channel"):
                assert np.all(batched[name][PAD_ID] == 0.0)
        return batched

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("flags", [(False, True), (True, True)])
    @pytest.mark.parametrize("keep_prob", [0.5, 1.0])
    def test_matches_the_summed_dense_oracle(self, activation, flags, keep_prob):
        rng = np.random.default_rng(60)
        channels = [EmbeddingChannel(ch.matrix, trainable)
                    for ch, trainable in zip(random_channels(rng, len(flags), 9, 16), flags)]
        params = toy_params(rng, channels, widths=(1, 3, 5), maps=24, activation=activation)
        h = params.max_width
        # A 9-word vocabulary forces repeated tokens; pads sit inside and at
        # the ends, and two sentences are exactly the widest filter long.
        sentences = [rng.integers(0, 9, size=int(rng.integers(h + 2, 30))) for _ in range(30)]
        for ids in sentences:
            ids[0] = ids[-1] = PAD_ID
        sentences += [rng.integers(1, 9, size=h), np.zeros(h, dtype=np.int64)]
        masks = (rng.random((len(sentences), params.num_filters)) < keep_prob).astype(np.float64)
        labels = rng.integers(0, params.num_classes, size=len(sentences))
        grads = self.assert_matches_summed_oracle(params, sentences, masks, labels)
        assert all(np.any(grad != 0.0) for grad in grads.values())

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_all_masked_batch_leaves_conv_and_channel_buffers(self, activation):
        rng = np.random.default_rng(61)
        params = toy_params(rng, random_channels(rng, 2, 9, 6), activation=activation)
        sentences = [rng.integers(0, 9, size=int(rng.integers(3, 12))) for _ in range(6)]
        masks = np.zeros((len(sentences), params.num_filters))
        _, trace = net.forward_batch(params, sentences, masks)
        _, grads = backward(params, trace, [0, 1, 2, 1, 0, 2])
        assert "channel1" in grads
        for name, grad in grads.items():
            if name.startswith(("conv", "channel")):
                assert not np.any(grad), name
        assert np.any(grads["output.biases"])
        self.assert_matches_summed_oracle(params, sentences, masks, [0, 1, 2, 1, 0, 2])


class TestStructuralInvariants:
    def test_max_pool_gradient_locality(self):
        # Perturbing words of a losing window (keeping the winner winning)
        # must leave the filter gradient bit-identical.
        rng = np.random.default_rng(14)
        channels = random_channels(rng, 1, 12, 4)
        params = toy_params(rng, channels, widths=(2,), maps=1, keep_prob=1.0)
        ids = np.arange(1, 9)  # distinct tokens: positions map to unique rows
        _, trace = forward(params, ids, mask=np.ones(params.num_filters))
        winner = int(trace.argmax[0][0, 0])
        grads = grads_of(params, trace, 0)

        loser_positions = [p for p in range(len(ids)) if p < winner or p > winner + 1]
        target_row = ids[loser_positions[0]]
        params.channels[0].matrix[target_row] += 0.01
        _, trace2 = forward(params, ids, mask=np.ones(params.num_filters))
        assert int(trace2.argmax[0][0, 0]) == winner
        grads2 = grads_of(params, trace2, 0)
        assert np.array_equal(grads["conv2.weights"], grads2["conv2.weights"])
        assert np.array_equal(grads["conv2.biases"], grads2["conv2.biases"])

    def test_multichannel_additivity_with_zero_channel(self):
        rng = np.random.default_rng(15)
        static = random_channels(rng, 1, 10, 5, trainable_last=False)
        zero = EmbeddingChannel(np.zeros((10, 5)), trainable=True)
        single = toy_params(np.random.default_rng(16), static, keep_prob=1.0)
        double = net.ModelParams([static[0], zero], single.filters, single.output,
                                 keep_prob=1.0, activation=single.activation)
        ids = rng.integers(1, 10, size=6)
        one, two = (net.predict_logits(p, [ids])[0] for p in (single, double))
        assert np.array_equal(one, two)

    def test_filter_permutation_leaves_logits_invariant(self):
        rng = np.random.default_rng(17)
        channels = random_channels(rng, 1, 10, 5)
        params = toy_params(rng, channels, widths=(2, 3), maps=4, keep_prob=1.0)
        ids = rng.integers(1, 10, size=8)
        base_logits = net.predict_logits(params, [ids])[0]

        perm = np.array([2, 0, 3, 1])
        shuffled = net.clone_params(params)
        shuffled.filters[0].weights[:] = params.filters[0].weights[perm]
        shuffled.filters[0].biases[:] = params.filters[0].biases[perm]
        shuffled.output.weights[:, :4] = params.output.weights[:, :4][:, perm]
        logits = net.predict_logits(shuffled, [ids])[0]
        assert np.max(np.abs(logits - base_logits)) <= 1e-12

    def test_forward_consistent_with_per_filter_path(self):
        # Pooled features and argmax windows agree with per-filter oracle maps.
        rng = np.random.default_rng(18)
        channels = random_channels(rng, 2, 10, 4)
        for activation in ("relu", "tanh"):
            params = toy_params(rng, channels, widths=(2, 3), maps=3, keep_prob=1.0,
                                activation=activation)
            ids = rng.integers(1, 10, size=7)
            _, trace = forward(params, ids, np.ones(params.num_filters))
            pooled, argmax = [], []
            for bank in params.filters:
                for f in range(bank.weights.shape[0]):
                    fmap = oracle_feature_map(ids, params.channels, bank.weights[f],
                                              bank.biases[f], activation)
                    pooled.append(max(fmap))
                    argmax.append(int(np.argmax(fmap)))
            assert np.max(np.abs(trace.z[0] - np.array(pooled))) <= 1e-12
            assert np.concatenate(trace.argmax, axis=1)[0].tolist() == argmax


class TestGemmHelper:
    """The queue of GEMMs that the helper thread and the caller both work
    through: every output is byte-identical with the helper on and off, the
    helper computes products in every call, a failure on either thread
    reaches the caller and leaves no job running, it runs in the caller's
    numpy error state, and a forked child gets its own helper."""

    @staticmethod
    def _setup(variant, activation="relu", seed=70):
        # Sizes above the inline cut-over: each call's products hold far more
        # than net._HELPER_MIN_MACS multiply-adds.  Several slabs per width.
        rng = np.random.default_rng(seed)
        trainable = {"static": [False], "nonstatic": [True], "multichannel": [False, True]}
        channels = [EmbeddingChannel(ch.matrix, flag) for ch, flag in
                    zip(random_channels(rng, 2, 400, 64), trainable[variant])]
        params = toy_params(rng, channels, num_classes=3, widths=(3, 4, 5), maps=60,
                            activation=activation, init_scale=0.1)
        for bank in params.filters:
            bank.biases[:] = rng.normal(scale=0.1, size=bank.biases.shape)
        sentences = [rng.integers(0, 400, size=rng.integers(5, 40)) for _ in range(50)]
        masks = (rng.random((len(sentences), params.num_filters)) < 0.5).astype(np.float64)
        labels = rng.integers(0, params.num_classes, size=len(sentences))
        return params, sentences, masks, labels

    @staticmethod
    def _outputs(params, sentences, masks, labels, helper_ran=None):
        """The bytes of a forward trace, its gradients and inference logits.
        With `helper_ran`, a callable, its value after each of the three calls
        is appended to the list it returns after the bytes."""
        ran = []
        logits, trace = net.forward_batch(params, sentences, masks)
        ran.append(helper_ran and helper_ran())
        losses, grads = backward(params, trace, labels)
        ran.append(helper_ran and helper_ran())
        arrays = [logits, trace.rows, *trace.preacts, *trace.argmax, trace.z, losses]
        arrays += [grads[name] for name in sorted(grads)]
        arrays.append(net.predict_logits(params, sentences * 30))
        ran.append(helper_ran and helper_ran())
        return [array.tobytes() for array in arrays], ran

    @staticmethod
    def _patch_matmul(monkeypatch, on_caller=0.0, on_helper=None):
        """Replace np.matmul: the caller's products first sleep `on_caller`
        seconds, so that the helper takes some meanwhile, and the helper's
        call `on_helper()` first.  Returns the names of the threads that ran
        each product."""
        names, matmul = [], np.matmul

        def patched(*args, **kwargs):
            names.append(threading.current_thread().name)
            if threading.current_thread() is threading.main_thread():
                time.sleep(on_caller)
            elif on_helper is not None:
                on_helper()
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", patched)
        return names

    @pytest.mark.parametrize("variant, activation", [
        ("static", "relu"), ("nonstatic", "relu"), ("multichannel", "relu"),
        ("multichannel", "tanh")])
    def test_outputs_are_byte_identical_with_the_helper_on_and_off(
            self, monkeypatch, variant, activation):
        params, sentences, masks, labels = self._setup(variant, activation)
        monkeypatch.setattr(net, "_helper_on", False)
        serial, _ = self._outputs(params, sentences, masks, labels)
        monkeypatch.setattr(net, "_helper_on", True)
        assert self._outputs(params, sentences, masks, labels)[0] == serial
        # The helper thread computed products in forward_batch, backward and
        # predict_logits.
        names = self._patch_matmul(monkeypatch, on_caller=0.02)

        def helper_ran():
            ran = any(name.startswith("sentconv-gemm") for name in names)
            names.clear()
            return ran

        assert self._outputs(params, sentences, masks, labels, helper_ran) == (
            serial, [True, True, True])

    def test_an_exception_while_pooling_leaves_no_helper_job(self, monkeypatch):
        # The caller raises while it pools a slab and the helper computes the
        # next ones, each product held there for 50 ms: the call waits for the
        # helper's product and drops the untaken ones, so no product runs or
        # starts after it, and the next call gives the same bytes.
        params, sentences, _, _ = self._setup("nonstatic")
        sentences = sentences * 30
        monkeypatch.setattr(net, "_helper_on", False)
        expected = net.predict_logits(params, sentences).tobytes()
        monkeypatch.setattr(net, "_helper_on", True)
        started, finished, pool = [], [], net._ragged_pool
        names = self._patch_matmul(monkeypatch, on_helper=lambda: (
            started.append(1), time.sleep(0.05), finished.append(1)))

        def failing_pool(*args):
            if len(started) >= 2:
                raise RuntimeError("pooling failed")
            return pool(*args)

        monkeypatch.setattr(net, "_ragged_pool", failing_pool)
        with pytest.raises(RuntimeError, match="pooling failed"):
            try:
                net.predict_logits(params, sentences)
            finally:
                done, running = len(started), len(started) - len(finished)
        assert done >= 2 and running == 0
        time.sleep(0.2)
        assert len(started) == done and len(finished) == done
        monkeypatch.setattr(net, "_ragged_pool", pool)
        names.clear()
        assert net.predict_logits(params, sentences).tobytes() == expected
        assert len(names) > 0

    def test_a_product_that_fails_on_the_helper_raises_in_the_caller(self, monkeypatch):
        params, sentences, masks, labels = self._setup("multichannel")
        monkeypatch.setattr(net, "_helper_on", True)
        _, trace = net.forward_batch(params, sentences, masks)
        expected = net.predict_logits(params, sentences).tobytes()

        def fail():
            raise MemoryError("helper out of memory")

        self._patch_matmul(monkeypatch, on_caller=0.02, on_helper=fail)
        for call in (lambda: net.forward_batch(params, sentences, masks),
                     lambda: backward(params, trace, labels),
                     lambda: net.predict_logits(params, sentences)):
            with pytest.raises(MemoryError, match="helper out of memory"):
                call()
        monkeypatch.undo()
        monkeypatch.setattr(net, "_helper_on", True)
        assert net.predict_logits(params, sentences).tobytes() == expected

    def test_a_product_that_fails_on_the_caller_raises_and_leaves_no_helper_job(
            self, monkeypatch):
        # Every product the caller computes fails, while the helper holds each
        # of its own for 50 ms, so jobs are still queued when the caller's
        # fails: each call raises, no helper job starts or runs after it
        # returns, and the next call gives the same bytes.
        params, sentences, masks, labels = self._setup("nonstatic")
        monkeypatch.setattr(net, "_helper_on", True)
        expected, _ = self._outputs(params, sentences, masks, labels)
        _, trace = net.forward_batch(params, sentences, masks)
        started, finished, matmul = [], [], np.matmul

        def patched(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raise MemoryError("caller out of memory")
            started.append(1)
            time.sleep(0.05)
            result = matmul(*args, **kwargs)
            finished.append(1)
            return result

        monkeypatch.setattr(np, "matmul", patched)
        for call in (lambda: net.forward_batch(params, sentences, masks),
                     lambda: backward(params, trace, labels),
                     lambda: net.predict_logits(params, sentences * 30)):
            with pytest.raises(MemoryError, match="caller out of memory"):
                try:
                    call()
                finally:
                    done, running = len(started), len(started) - len(finished)
            assert running == 0
            time.sleep(0.2)
            assert len(started) == len(finished) == done
        monkeypatch.setattr(np, "matmul", matmul)
        assert self._outputs(params, sentences, masks, labels)[0] == expected

    @pytest.mark.parametrize("helper_on", [True, False])
    def test_every_product_is_handed_out_once_in_order_under_frequent_switches(
            self, monkeypatch, helper_on):
        # Many short queues of small products, with a thread switch every
        # microsecond: each product is equal to its serial bytes and handed
        # out once, in order.  A lost update of the queue would skip or
        # repeat a product, or hang, so the run is time-bounded.
        monkeypatch.setattr(net, "_helper_on", helper_on)
        rng = np.random.default_rng(72)
        pairs = [(rng.normal(size=(8, 6)), rng.normal(size=(6, 5))) for _ in range(12)]
        expected = [(a @ b).tobytes() for a, b in pairs]
        results = []

        def run():
            for held in (1, 2, 3, len(pairs)) * 50:
                products = net._products(pairs, net._HELPER_MIN_MACS, held)
                results.append([product.tobytes() for product in products])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert results == [expected] * 200

    def test_a_queue_closed_after_its_first_product_computes_no_more(self, monkeypatch):
        monkeypatch.setattr(net, "_helper_on", False)
        rng = np.random.default_rng(73)
        pairs = [(rng.normal(size=(8, 6)), rng.normal(size=(6, 5))) for _ in range(4)]
        expected = (pairs[0][0] @ pairs[0][1]).tobytes()
        names = self._patch_matmul(monkeypatch)
        products = net._products(pairs, net._HELPER_MIN_MACS, len(pairs))
        assert next(products).tobytes() == expected
        products.close()
        assert names == ["MainThread"]

    @pytest.mark.parametrize("env, cores, expected", [
        ({}, {0, 1}, False),  # unset: OpenBLAS takes every core
        ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, {0}, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, {0, 1}, False),
        ({"OMP_NUM_THREADS": "1"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1}, False),
        ({"OPENBLAS_NUM_THREADS": "one"}, {0, 1}, False),
        ({"GOTO_NUM_THREADS": "1"}, {0, 1}, True),  # OpenBLAS reads it before OMP_NUM_THREADS
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1}, False),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2"}, {0, 1}, True),
        # OpenBLAS reads each with atoi: the leading integer, the rest ignored
        ({"OMP_NUM_THREADS": "1,1"}, {0, 1}, True),  # an OpenMP nested list
        ({"OPENBLAS_NUM_THREADS": "1x"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "1.5"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "2_0"}, {0, 1, 2, 3}, True)])  # two threads, not 20
    def test_the_helper_runs_when_blas_leaves_a_core_idle(self, monkeypatch, env, cores,
                                                          expected):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        assert net._blas_leaves_a_core() is expected

    @staticmethod
    def _infinite_frozen_row():
        params, sentences, masks, labels = TestGemmHelper._setup("multichannel", seed=71)
        frozen = params.channels[0].matrix.copy()
        frozen[5] = np.inf  # its weights have both signs: inf - inf in the GEMM
        params.channels[0] = EmbeddingChannel(frozen, trainable=False)
        sentences[0][0] = 5
        return params, sentences, masks, labels

    def test_the_helper_runs_in_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(net, "_helper_on", True)
        params, sentences, masks, labels = self._infinite_frozen_row()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                logits, trace = net.forward_batch(params, sentences, masks)
                backward(params, trace, labels)
                net.predict_logits(params, sentences)
        assert np.isnan(trace.z).any()
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid value encountered in matmul"):
                net.forward_batch(params, sentences, masks)
            with pytest.raises(FloatingPointError, match="invalid value encountered in matmul"):
                net.predict_logits(params, sentences)

    def test_a_forked_child_starts_its_own_helper(self, monkeypatch):
        # The parent's helper thread is not copied into a forked child; a
        # child that queued its GEMMs for it would wait for ever.
        monkeypatch.setattr(net, "_helper_on", True)
        params, sentences, masks, labels = self._setup("nonstatic")
        expected = net.predict_logits(params, sentences).tobytes()
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()
        child = context.Process(target=lambda: child_end.send(
            net.predict_logits(params, sentences).tobytes()))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0
        assert parent_end.poll(0) and parent_end.recv() == expected
