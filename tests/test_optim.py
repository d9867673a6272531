"""Adadelta updates, norm projection, batching, training loop, early stopping."""

import dataclasses
import re

import numpy as np
import pytest

import synthdata
from oracles import dense_gradients, tensor_hashes
from sentconv import corpus, embed, evaluate, net, optim
from sentconv._seeds import DROPOUT
from sentconv.optim import (
    TrainConfig,
    adadelta_step,
    config_to_text,
    fit,
    history_to_csv,
    init_state,
    l2_renorm,
    make_minibatches,
    parse_config,
    train_epoch,
)


def whole_tensor_adadelta(param, grad, acc_grad_sq, acc_update_sq, rho, eps):
    """The oracle: one Adadelta step on every row, both accumulators decayed
    over the whole tensor, untouched rows stepping with zero gradient."""
    acc_grad_sq *= rho
    acc_grad_sq += (1.0 - rho) * grad * grad
    step = -np.sqrt(acc_update_sq + eps) / np.sqrt(acc_grad_sq + eps) * grad
    acc_update_sq *= rho
    acc_update_sq += (1.0 - rho) * step * step
    param += step


def caught_up(state):
    """Both accumulators with the decay each row still owes applied:
    `rho ** (steps - last)`, what the whole-tensor update would hold now."""
    gap = state.steps - state.last
    decay = (state.rho ** gap).reshape(gap.shape + (1,) * (state.acc_grad_sq.ndim - 1))
    return state.acc_grad_sq * decay, state.acc_update_sq * decay


def unit_decay_adadelta_step(param, grad, state, rows=None):
    """`adadelta_step` as written before it skipped a decay of exactly 1.0:
    every row stepped multiplies both accumulators by `rho ** gap`, gap 0
    included."""
    grad = np.asarray(grad, dtype=np.float64)
    rho, eps = state.rho, state.eps
    state.steps += 1
    rows = slice(None) if rows is None else rows
    decay = rho ** (state.steps - 1 - state.last[rows])
    decay = decay.reshape(decay.shape + (1,) * (param.ndim - 1))
    acc_g, acc_u = state.acc_grad_sq[rows], state.acc_update_sq[rows]
    acc_g *= decay
    acc_u *= decay
    acc_g *= rho
    acc_g += (1.0 - rho) * grad * grad
    step = -np.sqrt(acc_u + eps) / np.sqrt(acc_g + eps) * grad
    acc_u *= rho
    acc_u += (1.0 - rho) * step * step
    state.acc_grad_sq[rows], state.acc_update_sq[rows] = acc_g, acc_u
    param[rows] += step
    state.last[rows] = state.steps


class TestAdadeltaStep:
    def test_zero_gradient_is_a_no_op(self):
        param = np.array([1.0, -2.0])
        state = init_state(param, rho=0.95, eps=1e-6)
        adadelta_step(param, np.zeros(2), state)
        assert param.tolist() == [1.0, -2.0]

    def test_first_step_formula(self):
        g = 0.37
        rho, eps = 0.95, 1e-6
        param = np.array([0.0])
        state = init_state(param, rho, eps)
        adadelta_step(param, np.array([g]), state)
        expected = -np.sqrt(eps) * g / np.sqrt((1 - rho) * g * g + eps)
        assert np.isclose(param[0], expected, rtol=1e-12)

    def test_deterministic_across_runs(self):
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        p1, p2 = np.zeros(5), np.zeros(5)
        s1 = init_state(p1, 0.95, 1e-6)
        s2 = init_state(p2, 0.95, 1e-6)
        for _ in range(10):
            adadelta_step(p1, rng1.normal(size=5), s1)
        for _ in range(10):
            adadelta_step(p2, rng2.normal(size=5), s2)
        assert np.array_equal(p1, p2)

    def test_non_finite_gradient_raises(self):
        param = np.zeros(2)
        state = init_state(param, 0.95, 1e-6)
        with pytest.raises(ValueError, match="diverged"):
            adadelta_step(param, np.array([np.nan, 0.0]), state)

    def test_gradient_of_another_shape_raises(self):
        param = np.zeros((3, 2))
        state = init_state(param, 0.95, 1e-6)
        for grad, rows in ((np.ones(2), None), (np.ones((3, 2)), np.array([0, 2]))):
            with pytest.raises(ValueError, match="gradient of shape"):
                adadelta_step(param, grad, state, rows)
        assert state.steps == 0 and not param.any()

    def test_whole_tensor_step_equals_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(3)
        param = rng.normal(size=(4, 3, 5))
        want, acc_g, acc_u = param.copy(), np.zeros(param.shape), np.zeros(param.shape)
        state = init_state(param, 0.95, 1e-6)
        for _ in range(5):
            grad = rng.normal(size=param.shape)
            adadelta_step(param, grad, state, None)
            whole_tensor_adadelta(want, grad, acc_g, acc_u, 0.95, 1e-6)
            assert param.tobytes() == want.tobytes()
            assert state.acc_grad_sq.tobytes() == acc_g.tobytes()
            assert state.acc_update_sq.tobytes() == acc_u.tobytes()
        assert state.steps == 5 and np.all(state.last == 5)

    # A row that waited `gap` steps is decayed by one multiply by rho ** gap
    # where the oracle multiplied by rho `gap` times; each rounds on its own,
    # so gapped rows agree within this tolerance relative to the tensor's
    # largest entry, and rows stepped at every step agree byte for byte.
    LAZY_RTOL = 1e-14

    @pytest.mark.parametrize("rho", [0.95, 0.5, 0.0])
    def test_lazy_rows_match_the_whole_tensor_oracle(self, rho):
        rng = np.random.default_rng(4)
        lazy = rng.normal(size=(12, 5))
        lazy[3] = -0.0  # never touched: keeps its sign bit
        want, acc_g, acc_u = lazy.copy(), np.zeros(lazy.shape), np.zeros(lazy.shape)
        state = init_state(lazy, rho, 1e-6)
        every, never = 2, [3, 11]
        for _ in range(40):
            # uneven gaps: each step touches row 2 and a random few of the rest
            others = np.setdiff1d(np.arange(12), [every] + never)
            rows = np.union1d([every], rng.choice(others, size=int(rng.integers(0, 5)),
                                                  replace=False))
            row_grad = rng.normal(size=(len(rows), 5))
            row_grad[rng.integers(len(rows))] = 0.0  # a touched row may get a zero gradient
            grad = np.zeros(lazy.shape)
            grad[rows] = row_grad
            untouched = np.setdiff1d(np.arange(12), rows)
            before = [a[untouched].tobytes()
                      for a in (lazy, state.acc_grad_sq, state.acc_update_sq)]
            adadelta_step(lazy, row_grad, state, rows)
            whole_tensor_adadelta(want, grad, acc_g, acc_u, rho, 1e-6)
            assert [a[untouched].tobytes() for a in
                    (lazy, state.acc_grad_sq, state.acc_update_sq)] == before
            got = (lazy,) + caught_up(state)
            for got_t, want_t in zip(got, (want, acc_g, acc_u)):
                assert got_t[every].tobytes() == want_t[every].tobytes()
                assert np.max(np.abs(got_t - want_t)) <= self.LAZY_RTOL * np.max(np.abs(want_t))
                if rho == 0.0:
                    assert got_t.tobytes() == want_t.tobytes()
        assert lazy[never].tobytes() == want[never].tobytes()
        assert np.all(state.acc_grad_sq[never] == 0.0)

    def test_skipping_the_unit_decay_changes_no_bit(self):
        # The 8 dense tensors of the MR-shaped model (3 x 100 filters, k=300,
        # two classes), stepped whole, and a table stepped on random rows.
        shapes = [(100, h, 300) for h in (3, 4, 5)] + [(100,)] * 3 + [(2, 300), (2,)]
        shapes.append((400, 300))
        rng = np.random.default_rng(9)
        got = [rng.normal(size=shape) for shape in shapes]
        want = [t.copy() for t in got]
        got_states = [init_state(t, 0.95, 1e-6) for t in got]
        want_states = [init_state(t, 0.95, 1e-6) for t in want]
        dense_grads = [[rng.normal(size=shape) for shape in shapes[:-1]] for _ in range(3)]
        for step in range(300):
            rows = np.unique(rng.integers(0, 400, size=30))
            grads = dense_grads[step % 3] + [rng.normal(size=(len(rows), 300))]
            for i, grad in enumerate(grads):
                table_rows = rows if i == len(shapes) - 1 else None
                adadelta_step(got[i], grad, got_states[i], table_rows)
                unit_decay_adadelta_step(want[i], grad, want_states[i], table_rows)
        for g, w, gs, ws in zip(got, want, got_states, want_states):
            assert g.tobytes() == w.tobytes()
            assert gs.acc_grad_sq.tobytes() == ws.acc_grad_sq.tobytes()
            assert gs.acc_update_sq.tobytes() == ws.acc_update_sq.tobytes()
            assert np.array_equal(gs.last, ws.last)

    def test_scale_freeness_at_first_step(self):
        # The ratio-normalized update grows sublinearly in the gradient.
        g = np.array([0.2, -1.5, 3.0])
        p1, p2 = np.zeros(3), np.zeros(3)
        s1 = init_state(p1, 0.95, 1e-6)
        s2 = init_state(p2, 0.95, 1e-6)
        adadelta_step(p1, g, s1)
        adadelta_step(p2, 10.0 * g, s2)
        assert np.all(np.abs(p2) < 10.0 * np.abs(p1))


class TestL2Renorm:
    def test_long_row_rescaled(self):
        out = net.OutputLayer(np.array([[6.0, 0.0]]), np.zeros(1))
        l2_renorm(out, 3.0)
        assert np.allclose(out.weights[0], [3.0, 0.0])

    def test_short_row_untouched_bitwise(self):
        row = np.array([[1.1, 0.7]])
        out = net.OutputLayer(row.copy(), np.zeros(1))
        l2_renorm(out, 3.0)
        assert out.weights.tobytes() == row.tobytes()

    def test_random_rows_property(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(0, 3, size=(20, 8))
        before = weights.copy()
        out = net.OutputLayer(weights, np.zeros(20))
        l2_renorm(out, 3.0)
        norms = np.linalg.norm(out.weights, axis=1)
        assert np.all(norms <= 3.0 + 1e-9)
        for old, new in zip(before, out.weights):
            cos = old @ new / (np.linalg.norm(old) * np.linalg.norm(new))
            assert np.isclose(cos, 1.0, atol=1e-12)

    def test_exact_idempotence(self):
        rng = np.random.default_rng(3)
        out = net.OutputLayer(rng.normal(0, 4, size=(10, 6)), np.zeros(10))
        l2_renorm(out, 3.0)
        once = out.weights.tobytes()
        l2_renorm(out, 3.0)
        assert out.weights.tobytes() == once

    def test_biases_untouched(self):
        out = net.OutputLayer(np.array([[9.0, 0.0]]), np.array([5.0]))
        l2_renorm(out, 3.0)
        assert out.biases[0] == 5.0

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            l2_renorm(net.OutputLayer(np.ones((1, 2)), np.zeros(1)), 0.0)


class TestMakeMinibatches:
    def test_single_full_batch(self):
        batches = make_minibatches(50, 50, seed=1, epoch=1)
        assert len(batches) == 1 and len(batches[0]) == 50

    def test_short_final_batch_kept(self):
        batches = make_minibatches(53, 50, seed=1, epoch=1)
        assert [len(b) for b in batches] == [50, 3]

    def test_epochs_reshuffle_same_indices(self):
        b1 = np.concatenate(make_minibatches(40, 7, seed=1, epoch=1))
        b2 = np.concatenate(make_minibatches(40, 7, seed=1, epoch=2))
        assert not np.array_equal(b1, b2)
        assert sorted(b1.tolist()) == sorted(b2.tolist()) == list(range(40))

    def test_deterministic(self):
        a = make_minibatches(40, 7, seed=3, epoch=5)
        b = make_minibatches(40, 7, seed=3, epoch=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def assert_shares_only_frozen_channels(copy, live):
    frozen = {f"channel{i}" for i, ch in enumerate(live.channels) if not ch.trainable}
    assert frozen
    for (name, got), (_, original) in zip(net.all_tensors(copy), net.all_tensors(live)):
        if name in frozen:
            assert got is original
        else:
            assert not np.shares_memory(got, original), name


def tiny_setup(variant="rand", n=120, keep_prob=1.0, seed=7, separable=False,
               **overrides):
    """A small synthetic problem with matching params and config."""
    settings = dict(variant=variant, widths=(2, 3), maps_per_width=3, dim=8,
                    keep_prob=keep_prob, batch_size=20, max_epochs=5,
                    patience=5, seed=seed)
    settings.update(overrides)
    config = TrainConfig(**settings)
    if separable:
        pairs = synthdata.separable_pairs(n, seed=11)
    else:
        pairs = synthdata.trigger_bigram_pairs(n, seed=11, n_filler=30)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, max(config.widths))
    if variant == "rand":
        base, _ = embed.build_base_matrix(vocab, config.dim, "rand", config.seed)
    else:
        base = synthdata.planted_vectors(vocab, config.dim, seed=5)
    params = evaluate.initial_params(config, base, dataset.num_classes)
    return params, dataset, config


class TestTrainEpoch:
    def run_epochs(self, params, dataset, config, n_epochs):
        states = optim.init_states(params, config.rho, config.eps)
        mask_rng = np.random.default_rng([config.seed, 0])
        losses = []
        for epoch in range(1, n_epochs + 1):
            losses.append(train_epoch(params, dataset.examples, config, states,
                                      mask_rng, config.seed, epoch))
        return losses

    def test_loss_decreases_without_dropout(self):
        params, dataset, config = tiny_setup(keep_prob=1.0, separable=True,
                                             init_scale=0.1, batch_size=10)
        losses = self.run_epochs(params, dataset, config, 5)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_static_embeddings_bit_unchanged(self):
        params, dataset, config = tiny_setup(variant="static")
        before = params.channels[0].matrix.tobytes()
        self.run_epochs(params, dataset, config, 2)
        assert params.channels[0].matrix.tobytes() == before

    def test_output_rows_respect_norm_limit(self):
        params, dataset, config = tiny_setup(norm_limit=0.05)
        self.run_epochs(params, dataset, config, 3)
        norms = np.linalg.norm(params.output.weights, axis=1)
        assert np.all(norms <= 0.05 + 1e-9)

    @pytest.mark.parametrize("variant", ["rand", "non-static", "multichannel"])
    def test_pad_rows_stay_zero(self, variant):
        # Nothing pins the pad row: Adadelta steps only the batch's non-pad
        # rows, and `backward` never writes the pad row.  The width-16 filter
        # pads every sentence (7 to 15 words).
        params, dataset, config = tiny_setup(variant=variant, keep_prob=0.5, widths=(3, 16))
        assert all(np.any(ex.token_ids == corpus.PAD_ID) for ex in dataset.examples)
        self.run_epochs(params, dataset, config, 2)
        for ch in params.channels:
            assert np.all(ch.matrix[corpus.PAD_ID] == 0.0)

    @pytest.mark.parametrize("variant,trainable_channels", [
        ("rand", ["channel0"]),
        ("static", []),
        ("non-static", ["channel0"]),
        ("multichannel", ["channel1"]),
    ])
    def test_exactly_the_trainable_tensors_change(self, variant, trainable_channels):
        params, dataset, config = tiny_setup(variant=variant, keep_prob=0.5)
        before = tensor_hashes(params)
        self.run_epochs(params, dataset, config, 1)
        after = tensor_hashes(params)
        changed = {name for name in before if before[name] != after[name]}
        expected = set(trainable_channels)
        expected |= {f"conv{h}.{part}" for h in config.widths for part in ("weights", "biases")}
        expected |= {"output.weights", "output.biases"}
        assert changed == expected


    @pytest.mark.parametrize("variant,tensor", [("static", "conv2.weights"),
                                                ("multichannel", "channel1")])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_frozen_row_fails_as_divergence(self, variant, tensor, value):
        # The row's weights have both signs, so its windows' preactivations
        # are NaN; pooling must still pick in-range rows and training must
        # stop on the non-finite gradient, at the first batch holding the token.
        params, dataset, config = tiny_setup(variant=variant, keep_prob=0.5)
        token = 31
        frozen = params.channels[0].matrix.copy()  # a frozen table is read-only
        frozen[token] = value
        params.channels[0] = embed.EmbeddingChannel(frozen, trainable=False)
        batches = make_minibatches(len(dataset.examples), config.batch_size, config.seed, 3)
        number = next(i for i, batch in enumerate(batches, 1)
                      if any(token in dataset.examples[idx].token_ids for idx in batch))
        states = optim.init_states(params, config.rho, config.eps)
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=rf"^diverged: non-finite gradient in {tensor} "
                                  rf"at epoch 3, batch {number}$"):
            train_epoch(params, dataset.examples, config, states,
                        np.random.default_rng(0), config.seed, 3)


def dense_reference_epoch(params, examples, config, states, mask_rng, shuffle_seed, epoch):
    """`train_epoch` as a plain loop: fresh zeroed dense gradients every batch
    and whole-tensor Adadelta steps, the embedding tables included."""
    for batch in make_minibatches(len(examples), config.batch_size, shuffle_seed, epoch):
        grads = {name: np.zeros_like(t) for name, t in net.trainable_tensors(params)}
        for idx in batch:
            ex = examples[idx]
            mask = (mask_rng.random(params.num_filters) < params.keep_prob).astype(np.float64)
            _, trace = net.forward(params, ex.token_ids, mask=mask)
            _, one = net.backward(params, trace, [ex.label])
            for name, grad in dense_gradients(params, trace, one).items():
                grads[name] += grad
        for name, tensor in net.trainable_tensors(params):
            adadelta_step(tensor, grads[name] * (1.0 / len(batch)), states[name], None)
        l2_renorm(params.output, config.norm_limit)
        for ch in params.channels:
            if ch.trainable:
                ch.matrix[corpus.PAD_ID] = 0.0


class TestTrainEpochAgainstReference:
    # The batched backward sums a batch's examples in another order than the
    # per-example loop, and the table's lazy decay multiplies by rho ** gap
    # once where the reference multiplied `gap` times, so after two epochs
    # every tensor and both Adadelta accumulators, with the decay each row
    # still owes applied, agree within this tolerance relative to the
    # reference tensor's largest entry.
    RTOL = 1e-14

    @pytest.mark.parametrize("variant,keep_prob", [
        pytest.param("non-static", 0.5, id="non-static"),
        pytest.param("multichannel", 0.5, id="multichannel"),
        pytest.param("non-static", 1.0, id="non-static-keep_prob-1"),
    ])
    def test_matches_dense_reference_loop(self, variant, keep_prob):
        results = []
        for epoch_fn in (train_epoch, dense_reference_epoch):
            params, dataset, config = tiny_setup(variant=variant, keep_prob=keep_prob)
            states = optim.init_states(params, config.rho, config.eps)
            # the dropout stream `fit` hands to fold 0
            mask_rng = np.random.default_rng([config.seed, DROPOUT, 0])
            for epoch in (1, 2):  # six batches of 20 per epoch
                epoch_fn(params, dataset.examples, config, states, mask_rng, config.seed, epoch)
            tensors = dict(net.all_tensors(params))
            for name, state in states.items():
                tensors[f"{name}.acc_grad_sq"], tensors[f"{name}.acc_update_sq"] = \
                    caught_up(state)
            results.append(tensors)
        got, want = results
        assert got.keys() == want.keys()
        for name in want:
            assert np.max(np.abs(got[name] - want[name])) <= \
                self.RTOL * np.max(np.abs(want[name])), name

    def test_adadelta_called_through_the_module_once_per_tensor(self, monkeypatch):
        params, dataset, config = tiny_setup(variant="non-static", keep_prob=0.5)
        calls = []

        def recording_step(*args):
            param, grad, _, rows = args
            if rows is None:
                assert grad.shape == param.shape
            else:
                assert grad.shape == (len(rows), param.shape[1])
            touched = None if rows is None else rows[np.any(grad != 0.0, axis=1)]
            calls.append((param, rows, touched))
            return adadelta_step(*args)

        monkeypatch.setattr(optim, "adadelta_step", recording_step)
        states = optim.init_states(params, config.rho, config.eps)
        train_epoch(params, dataset.examples, config, states,
                    np.random.default_rng(0), config.seed, 1)
        batches = make_minibatches(len(dataset.examples), config.batch_size, config.seed, 1)
        names = [name for name, _ in net.trainable_tensors(params)]
        assert len(calls) == len(batches) * len(names)
        embedding = params.channels[0].matrix
        for batch, batch_calls in zip(batches, np.split(np.arange(len(calls)), len(batches))):
            stepped = [calls[i] for i in batch_calls]
            assert [c[0] is embedding for c in stepped] == [n == "channel0" for n in names]
            tokens = np.unique(np.concatenate([dataset.examples[i].token_ids for i in batch]))
            _, rows, touched = stepped[names.index("channel0")]
            assert np.array_equal(rows, tokens[tokens != corpus.PAD_ID])
            assert len(touched) > 0 and np.all(np.isin(touched, rows))

    def test_one_batch_forward_per_minibatch_with_sequential_masks(self, monkeypatch):
        # One `net.forward_batch` call per minibatch, through the module, with
        # that minibatch's sentences in `make_minibatches` order, and a boolean
        # mask stack byte-equal to one `random(m)` draw per example in turn, so
        # the DROPOUT stream is the one the per-example loop consumed; the
        # trace holds it as 0/1 float64.  Then one
        # `net.backward` call, through the module, on that call's trace with
        # the minibatch's labels; the epoch loss is its losses' sum, added in
        # example order.
        params, dataset, config = tiny_setup(variant="non-static", keep_prob=0.5)
        events, calls, backward_calls = [], [], []
        original_forward, original_backward = net.forward_batch, net.backward

        def recording_forward_batch(*args):
            events.append("forward_batch")
            logits, trace = original_forward(*args)
            calls.append((*args, trace))
            return logits, trace

        def recording_backward(*args):
            events.append("backward")
            losses, grads = original_backward(*args)
            backward_calls.append((*args, losses))
            return losses, grads

        monkeypatch.setattr(net, "forward_batch", recording_forward_batch)
        monkeypatch.setattr(net, "backward", recording_backward)
        states = optim.init_states(params, config.rho, config.eps)
        mean_loss = train_epoch(params, dataset.examples, config, states,
                                np.random.default_rng(0), config.seed, 1)
        batches = make_minibatches(len(dataset.examples), config.batch_size, config.seed, 1)
        assert events == ["forward_batch", "backward"] * len(batches)
        total = 0.0
        for *_, losses in backward_calls:
            for loss in losses.tolist():
                total += loss
        assert mean_loss == total / len(dataset.examples)
        sequential = np.random.default_rng(0)
        for (called_params, sentences, masks, trace), backward_call, batch in zip(
                calls, backward_calls, batches):
            assert backward_call[0] is params and backward_call[1] is trace
            assert list(backward_call[2]) == [dataset.examples[idx].label for idx in batch]
            assert called_params is params
            assert len(sentences) == len(batch)
            for token_ids, idx in zip(sentences, batch):
                assert token_ids is dataset.examples[idx].token_ids
            expected = np.stack([sequential.random(params.num_filters) < params.keep_prob
                                 for _ in batch])
            assert masks.dtype == expected.dtype and masks.shape == expected.shape
            assert masks.tobytes() == expected.tobytes()
            assert trace.masks.dtype == np.float64
            assert trace.masks.tobytes() == expected.astype(np.float64).tobytes()

    def test_non_finite_gradient_names_tensor_epoch_and_batch(self, monkeypatch):
        params, dataset, config = tiny_setup(variant="non-static")
        calls = []
        original = net.backward

        def poisoned_backward(params, trace, labels):
            losses, grads = original(params, trace, labels)
            calls.append(None)
            if len(calls) == 2:  # the second batch's one backward call
                grads["conv3.weights"][0, 0, 0] = np.inf
            return losses, grads

        monkeypatch.setattr(net, "backward", poisoned_backward)
        states = optim.init_states(params, config.rho, config.eps)
        with pytest.raises(ValueError, match=r"^diverged: non-finite gradient in "
                                             r"conv3\.weights at epoch 4, batch 2$"):
            train_epoch(params, dataset.examples, config, states,
                        np.random.default_rng(0), config.seed, 4)


class TestFit:
    @staticmethod
    def scripted_fit(monkeypatch, accuracies, patience, max_epochs):
        """`fit` with `net.accuracy` returning `accuracies` in turn; returns the
        result and the live params' tensor hashes at each epoch's dev score."""
        params, dataset, config = tiny_setup(keep_prob=0.5)
        config = dataclasses.replace(config, patience=patience, max_epochs=max_epochs)
        scripted, seen = iter(accuracies), []

        def scripted_accuracy(scored, examples):
            seen.append(tensor_hashes(scored))
            return next(scripted)

        monkeypatch.setattr(net, "accuracy", scripted_accuracy)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        return fit(params, train_ds.examples, dev_ds.examples, config), seen

    def test_stops_after_patience_stale_epochs(self, monkeypatch):
        result, seen = self.scripted_fit(monkeypatch, [0.6, 0.7, 0.68, 0.69], 2, 10)
        assert [acc for _, _, acc in result.history] == [0.6, 0.7, 0.68, 0.69]
        assert result.best_epoch == 2 and result.best_dev_accuracy == 0.7
        assert tensor_hashes(result.params) == seen[1] != seen[3]

    def test_tie_keeps_earlier_epoch(self, monkeypatch):
        result, seen = self.scripted_fit(monkeypatch, [0.7, 0.7, 0.7], 5, 3)
        assert len(result.history) == 3
        assert result.best_epoch == 1 and result.best_dev_accuracy == 0.7
        assert tensor_hashes(result.params) == seen[0] != seen[2]

    def test_returns_best_epoch_params(self):
        params, dataset, config = tiny_setup(keep_prob=0.5)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert 1 <= result.best_epoch <= len(result.history)
        best_dev = max(acc for _, _, acc in result.history)
        assert result.best_dev_accuracy == best_dev
        assert net.accuracy(result.params, dev_ds.examples) == best_dev

    def test_max_epochs_one(self):
        params, dataset, config = tiny_setup()
        config = dataclasses.replace(config, max_epochs=1)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert len(result.history) == 1

    def test_max_epochs_one_returns_a_copy_of_epoch_one(self):
        # Epoch 1's finite dev accuracy always beats the initial -inf best, so
        # it sets the result.
        params, dataset, config = tiny_setup(keep_prob=0.5)
        config = dataclasses.replace(config, max_epochs=1)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        initial = tensor_hashes(params)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert result.best_epoch == 1
        assert result.params is not params
        assert tensor_hashes(params) != initial
        assert tensor_hashes(result.params) == tensor_hashes(params)
        for (_, best), (_, live) in zip(net.all_tensors(result.params), net.all_tensors(params)):
            assert not np.shares_memory(best, live)

    @pytest.mark.parametrize("variant", ["static", "multichannel"])
    def test_best_params_share_only_the_frozen_channel(self, variant):
        # Training never writes a frozen channel, so the returned copy shares
        # it with the live params; every trainable tensor is a copy.
        params, dataset, config = tiny_setup(variant=variant, keep_prob=0.5)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert_shares_only_frozen_channels(result.params, params)

    def test_early_stop_bounds_epochs(self):
        params, dataset, config = tiny_setup()
        config = dataclasses.replace(config, max_epochs=20, patience=2)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        stale = len(result.history) - result.best_epoch
        assert stale <= config.patience

    def test_empty_dev_raises(self):
        params, dataset, config = tiny_setup()
        with pytest.raises(ValueError, match="dev"):
            fit(params, dataset.examples, [], config)

    def test_bit_identical_reruns(self):
        runs = []
        for _ in range(2):
            params, dataset, config = tiny_setup(variant="multichannel", keep_prob=0.5)
            train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
            result = fit(params, train_ds.examples, dev_ds.examples, config)
            runs.append((tensor_hashes(result.params), result.history))
        assert runs[0] == runs[1]

    def test_synthetic_separable_reaches_high_accuracy(self):
        params, dataset, config = tiny_setup(n=240, keep_prob=0.5, separable=True,
                                             init_scale=0.1, batch_size=10)
        config = dataclasses.replace(config, max_epochs=25, patience=25)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert result.best_dev_accuracy >= 0.95


class TestFitChecksTheModel:
    """`fit`, and through it the dev-split fit and cross-validation, refuse a
    config that does not describe the model before any training: a report's
    config is then the one that ran."""

    RUNS = {
        "fit": lambda params, dataset, config: fit(
            params, dataset.examples[:100], dataset.examples[100:], config),
        "fit_with_dev_split": evaluate.fit_with_dev_split,
        "run_cross_validation": lambda params, dataset, config: (
            evaluate.run_cross_validation(dataset, config, params)),
    }

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("variant, change, message", [
        ("rand", {"keep_prob": 0.5}, "keep_prob"),
        ("rand", {"activation": "tanh"}, "activation"),
        ("rand", {"widths": (3, 2)}, "tensor shapes"),
        ("rand", {"maps_per_width": 4}, "tensor shapes"),
        ("rand", {"dim": 9}, "tensor shapes"),
        ("rand", {"variant": "static"}, "channels"),
        ("non-static", {"variant": "multichannel"}, "tensor shapes")],
        ids=["keep_prob", "activation", "widths-reordered", "maps", "dim",
             "static-for-rand", "multichannel-for-non-static"])
    def test_a_config_that_does_not_describe_the_model_raises(self, monkeypatch, run,
                                                               variant, change, message):
        params, dataset, config = tiny_setup(variant=variant)
        epochs = []
        monkeypatch.setattr(optim, "train_epoch", lambda *args: epochs.append(args) or 0.0)
        with pytest.raises(ValueError, match=message):
            self.RUNS[run](params, dataset, dataclasses.replace(config, **change))
        assert epochs == []

    def test_rand_and_non_static_give_the_same_model(self):
        params, _, config = tiny_setup(variant="rand")
        optim.check_model(dataclasses.replace(config, variant="non-static"), params)


class TestFitChecksTheLabels:
    """A label outside the model's classes raises ValueError in `fit`: a
    training one in its own batch, a dev one at the first scoring."""

    @pytest.mark.parametrize("bad", [-1, 2], ids=["minus-one", "the-class-count"])
    @pytest.mark.parametrize("where", ["train", "dev"])
    def test_a_label_outside_the_classes_raises(self, where, bad):
        # At the parent, a training -1 trained as the last class and a
        # training 2 raised numpy's IndexError; a dev one scored as a miss.
        params, dataset, config = tiny_setup()
        train, dev = dataset.examples[:100], dataset.examples[100:]
        if where == "train":
            train = train[:-1] + [dataclasses.replace(train[-1], label=bad)]
        else:
            dev = dev[:-1] + [dataclasses.replace(dev[-1], label=bad)]
        with pytest.raises(ValueError, match="^label outside the model's classes$"):
            fit(params, train, dev, config)


class TestConfigIsValidOnceMade:
    def test_fields_cannot_be_assigned(self):
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 2
        assert config == TrainConfig()

    def test_values_are_stored_as_their_text_reads_back(self):
        config = TrainConfig(widths=[2, np.int64(4)], norm_limit=np.float64(2.5),
                             seed=np.int64(3), keep_prob=1)
        assert config == TrainConfig(widths=(2, 4), norm_limit=2.5, seed=3, keep_prob=1.0)
        assert [type(v) for v in (config.widths, config.norm_limit, config.seed)] == [
            tuple, float, int]
        assert parse_config(config_to_text(config)) == config

    @pytest.mark.parametrize("change, message", [
        ({"widths": 3}, "bad value for 'widths': "), ({"seed": 1.5}, "bad value for 'seed': "),
        ({"norm_limit": None}, "bad value for 'norm_limit': "),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"dev_fraction": float("inf")}, "dev_fraction must be finite, got inf"),
        ({"widths": ()}, "bad value for 'widths': invalid literal for int() with base 10: ''")],
        ids=["int-widths", "float-seed", "none-norm-limit", "zero-batch", "inf-dev-fraction",
             "empty-widths"])
    def test_a_bad_value_raises_when_made(self, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            TrainConfig(**change)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            dataclasses.replace(TrainConfig(), **change)


class TestConfigText:
    def test_round_trip(self):
        config = TrainConfig(variant="multichannel", widths=(2, 4), maps_per_width=7,
                             dim=12, keep_prob=0.4, norm_limit=2.5, batch_size=10,
                             rho=0.9, eps=1e-7, max_epochs=3, patience=2, seed=99)
        assert parse_config(config_to_text(config)) == config

    def test_defaults_round_trip(self):
        assert parse_config(config_to_text(TrainConfig())) == TrainConfig()

    def test_comments_and_blanks(self):
        text = "# a comment\n\nseed = 4  # inline\nwidths = 2,3\n"
        config = parse_config(text)
        assert config.seed == 4 and config.widths == (2, 3)

    @pytest.mark.parametrize("brk", ["\x0c", "\u2028", "\x1e", "\x85"])
    def test_only_a_newline_ends_a_comment(self, brk):
        # `str.splitlines` would end the comment at `brk` and read its key.
        assert parse_config(f"# note{brk}seed = 9\n").seed == TrainConfig().seed
        assert parse_config(f"seed = 9{brk}\n").seed == 9

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2.*momentum"):
            parse_config("seed = 1\nmomentum = 0.9\n")

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="^line 2: duplicate key 'seed'$"):
            parse_config("seed = 1\nseed = 7\n")

    def test_empty_widths_report_line(self):
        # The tuple reader refuses an empty list before any check could.
        message = "line 2: bad value for 'widths': invalid literal for int() with base 10: ''"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config("seed = 1\nwidths =\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("batch_size = many\n")

    # `int` reads "3,4_0" as widths (3, 40) and "1_0" as 10.
    @pytest.mark.parametrize("text", ["widths = 3,4_0\n", "seed = 1_0\n",
                                      "maps_per_width = \u0661\n", "batch_size = \uff15\n"])
    def test_integers_are_ascii_decimal(self, text):
        key = text.split(" = ")[0]
        with pytest.raises(ValueError, match=f"^line 1: bad value for {key!r}: "):
            parse_config(text)

    # `float` reads "1_0.5" as 10.5 and Arabic-Indic digits as ASCII ones.
    @pytest.mark.parametrize("text", ["norm_limit = 1_0.5\n", "rho = \u0660.\u0669\n",
                                      "eps = 1e-0_6\n"])
    def test_floats_are_ascii_decimal(self, text):
        key = text.split(" = ")[0]
        with pytest.raises(ValueError, match=f"^line 1: bad value for {key!r}: "):
            parse_config(text)

    def test_signed_integers_still_read(self):
        assert parse_config("seed = +3\nwidths = 2, 4\n").seed == 3
        with pytest.raises(ValueError, match="seed must be non-negative"):
            parse_config("seed = -1\n")

    def test_validation_rejects_bad_fields(self):
        for text in ("keep_prob = 0.0\n", "variant = magic\n", "widths = 0\n",
                     "widths = 3,3\n", "norm_limit = -1.0\n", "norm_limit = nan\n",
                     "norm_limit = inf\n", "eps = nan\n", "init_scale = nan\n",
                     "init_scale = 0\n", "init_scale = -1\n", "rand_init_a = nan\n",
                     "rand_init_a = 0\n", "keep_prob = nan\n", "dev_fraction = inf\n"):
            with pytest.raises(ValueError, match=text.split()[0]):
                parse_config(text)

    def test_history_csv_shape(self):
        csv = history_to_csv([(1, 0.5, 0.8), (2, 0.25, 0.9)])
        lines = csv.splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc"
        assert lines[1] == "1,0.500000,0.800000"
        assert len(lines) == 3
