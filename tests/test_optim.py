"""Adadelta updates, norm projection, batching, training loop, early stopping."""

import hashlib

import numpy as np
import pytest

import synthdata
from sentconv import corpus, embed, evaluate, net, optim
from sentconv.optim import (
    EarlyStopper,
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


def tensor_hashes(params):
    return {name: hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest()
            for name, t in net.all_tensors(params)}


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

    def test_pad_rows_stay_zero(self):
        params, dataset, config = tiny_setup(variant="multichannel")
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


class TestEarlyStopper:
    def test_stops_after_patience_stale_epochs(self):
        stopper = EarlyStopper(patience=2)
        decisions = [stopper.update(e, acc)
                     for e, acc in enumerate([0.6, 0.7, 0.68, 0.69], start=1)]
        assert decisions == [False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best_metric == 0.7

    def test_tie_keeps_earlier_epoch(self):
        stopper = EarlyStopper(patience=5)
        for e, acc in enumerate([0.7, 0.7, 0.7], start=1):
            stopper.update(e, acc)
        assert stopper.best_epoch == 1


class TestFit:
    def test_returns_best_epoch_params(self):
        params, dataset, config = tiny_setup(keep_prob=0.5)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert 1 <= result.best_epoch <= len(result.history)
        best_dev = max(acc for _, _, acc in result.history)
        assert result.best_dev_accuracy == best_dev
        assert evaluate.accuracy(result.params, dev_ds.examples) == best_dev

    def test_max_epochs_one(self):
        params, dataset, config = tiny_setup()
        config.max_epochs = 1
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert len(result.history) == 1

    def test_early_stop_bounds_epochs(self):
        params, dataset, config = tiny_setup()
        config.max_epochs, config.patience = 20, 2
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
        config.max_epochs, config.patience = 25, 25
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=3)
        result = fit(params, train_ds.examples, dev_ds.examples, config)
        assert result.best_dev_accuracy >= 0.95


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

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2.*momentum"):
            parse_config("seed = 1\nmomentum = 0.9\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("batch_size = many\n")

    def test_validation_rejects_bad_fields(self):
        for text in ("keep_prob = 0.0\n", "variant = magic\n", "widths = 0\n",
                     "widths = 3,3\n", "norm_limit = -1.0\n"):
            with pytest.raises(ValueError):
                parse_config(text)

    def test_history_csv_shape(self):
        csv = history_to_csv([(1, 0.5, 0.8), (2, 0.25, 0.9)])
        lines = csv.splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc"
        assert lines[1] == "1,0.500000,0.800000"
        assert len(lines) == 3
