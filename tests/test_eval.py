"""Accuracy, the cross-validation protocol, and nearest-neighbor rankings."""

import tracemalloc

import numpy as np
import pytest

import synthdata
from oracles import tensor_hashes
from sentconv import corpus, embed, evaluate, net, optim
from sentconv.corpus import Example, build_vocabulary
from sentconv.evaluate import (
    accuracy,
    cv_fold_plan,
    nearest_neighbors,
    neighbor_report,
    run_cross_validation,
)


def constant_classifier(num_classes, winner, vocab_size=5, dim=4):
    """Params whose logits are the output biases: zero embeddings, zero filters."""
    channels = [embed.EmbeddingChannel(np.zeros((vocab_size, dim)), trainable=True)]
    params = net.init_params(channels, num_classes, (2,), 2, seed=0, init_scale=0.0)
    params.output.biases[winner] = 1.0
    return params


class TestAccuracy:
    def test_all_correct(self):
        params = constant_classifier(3, winner=1)
        examples = [Example(np.array([1, 2, 3]), 1) for _ in range(5)]
        assert accuracy(params, examples) == 1.0

    def test_single_example_is_zero_or_one(self):
        params = constant_classifier(2, winner=0)
        assert accuracy(params, [Example(np.array([1, 2]), 0)]) == 1.0
        assert accuracy(params, [Example(np.array([1, 2]), 1)]) == 0.0

    def test_random_params_near_chance_on_balanced_data(self):
        rng = np.random.default_rng(21)
        table = np.vstack([np.zeros((1, 6)),
                           np.random.default_rng(1).uniform(-0.25, 0.25, (49, 6))])
        channels = [embed.EmbeddingChannel(table, True)]
        params = net.init_params(channels, 2, (2, 3), 4, seed=2, init_scale=0.1)
        examples = [Example(rng.integers(1, 50, size=8), i % 2) for i in range(2000)]
        acc = accuracy(params, examples)
        assert 0.45 <= acc <= 0.55

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(constant_classifier(2, 0), [])


def cv_setup(variant="rand", n=80, seed=7):
    config = optim.TrainConfig(variant=variant, widths=(2,), maps_per_width=2, dim=6,
                               keep_prob=0.5, batch_size=20, max_epochs=2, patience=2,
                               seed=seed)
    pairs = synthdata.separable_pairs(n, seed=13)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, max(config.widths))
    if variant == "rand":
        base, _ = embed.build_base_matrix(vocab, config.dim, "rand", config.seed)
    else:
        base = synthdata.planted_vectors(vocab, config.dim, seed=5)
    return dataset, config, base, vocab


class TestCrossValidation:
    def test_ten_fold_report(self):
        dataset, config, base, _ = cv_setup()
        params0 = evaluate.initial_params(config, base, dataset.num_classes)
        accuracies = run_cross_validation(dataset, config, params0)
        assert len(accuracies) == 10
        assert all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in accuracies)

    def test_fold_plan_uniform_across_variants(self):
        dataset, config_rand, _, _ = cv_setup("rand")
        _, config_static, _, _ = cv_setup("static")
        plan_a = cv_fold_plan(len(dataset), config_rand)
        plan_b = cv_fold_plan(len(dataset), config_static)
        assert np.array_equal(plan_a, plan_b)

    def test_every_example_tested_exactly_once(self):
        dataset, config, _, _ = cv_setup()
        plan = cv_fold_plan(len(dataset), config)
        tested = np.concatenate([np.flatnonzero(plan == f) for f in range(10)])
        assert sorted(tested.tolist()) == list(range(len(dataset)))

    @pytest.mark.parametrize("variant", ["static", "multichannel"])
    def test_folds_share_only_the_frozen_channel(self, variant, monkeypatch):
        # Each fold trains a clone of the initial params and returns the
        # best epoch's clone; both share the frozen table and copy the rest.
        dataset, config, base, _ = cv_setup(variant)
        fits = []
        original = evaluate.fit_with_dev_split

        def recording_fit(params, *args):
            result = original(params, *args)
            fits.append((params, result.params))
            return result

        monkeypatch.setattr(evaluate, "fit_with_dev_split", recording_fit)
        params0 = evaluate.initial_params(config, base, dataset.num_classes)
        run_cross_validation(dataset, config, params0)
        assert len(fits) == 10
        frozen = params0.channels[0].matrix  # channel0 is the frozen one
        for live, best in fits:
            for (name, got), (_, original) in zip(net.all_tensors(best), net.all_tensors(live)):
                if name == "channel0":
                    assert got is original is frozen
                else:
                    assert not np.shares_memory(got, original), name

    def test_deterministic_report(self):
        dataset, config, base, _ = cv_setup()
        params0 = evaluate.initial_params(config, base, dataset.num_classes)
        assert run_cross_validation(dataset, config, params0) == \
            run_cross_validation(dataset, config, params0)


class TestFrozenChannels:
    """A frozen table is held once: a read-only view of the base, which
    clones share."""

    @pytest.mark.parametrize("variant", ["static", "multichannel"])
    def test_initial_params_view_the_base_read_only(self, variant):
        dataset, config, base, _ = cv_setup(variant)
        params = evaluate.initial_params(config, base, dataset.num_classes)
        frozen, *tuned = params.channels
        assert not frozen.trainable and np.shares_memory(frozen.matrix, base)
        with pytest.raises(ValueError, match="read-only"):
            frozen.matrix[1, 0] = 0.0
        assert base.flags.writeable  # the caller's array is not frozen
        assert not any(np.shares_memory(ch.matrix, base) for ch in tuned)

    @pytest.mark.parametrize("variant", ["static", "multichannel"])
    def test_clones_share_the_read_only_table(self, variant):
        dataset, config, base, _ = cv_setup(variant)
        params = evaluate.initial_params(config, base, dataset.num_classes)
        clone = net.clone_params(params)
        assert clone.channels[0].matrix is params.channels[0].matrix
        with pytest.raises(ValueError, match="read-only"):
            clone.channels[0].matrix[1, 0] = 0.0

    @pytest.mark.parametrize("variant,copies", [("static", 0), ("multichannel", 1)])
    def test_initial_params_copy_only_trainable_tables(self, variant, copies):
        # tracemalloc sees numpy's buffers: each trainable channel allocates
        # one V x k table, a frozen one none.
        rng = np.random.default_rng(8)
        base = np.zeros((5000, 50))
        base[1:] = rng.uniform(-0.25, 0.25, (4999, 50))
        config = optim.TrainConfig(variant=variant, widths=(2,), maps_per_width=2, dim=50)
        tracemalloc.start()
        try:
            evaluate.initial_params(config, base, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert copies * base.nbytes <= peak < (copies + 1) * base.nbytes


class TestEvaluationPurity:
    def test_accuracy_and_neighbors_do_not_mutate_params(self):
        dataset, config, base, vocab = cv_setup()
        params = evaluate.initial_params(config, base, dataset.num_classes)
        before = tensor_hashes(params)
        accuracy(params, dataset.examples[:10])
        neighbor_report(params, vocab, vocab.id_to_word[1], count=3)
        assert tensor_hashes(params) == before


class TestNearestNeighbors:
    def fixture_matrix(self):
        vocab = build_vocabulary([["query", "twin", "ortho", "faint", "dead"]])
        matrix = np.zeros((len(vocab), 3))
        matrix[vocab.id("query")] = [1.0, 0.0, 0.0]
        matrix[vocab.id("twin")] = [1.0, 0.0, 0.0]
        matrix[vocab.id("ortho")] = [0.0, 1.0, 0.0]
        matrix[vocab.id("faint")] = [1.0, 1.0, 0.0]
        # "dead" stays the zero vector
        return vocab, matrix

    def test_duplicate_row_ranks_first_with_cosine_one(self):
        vocab, matrix = self.fixture_matrix()
        ranked = nearest_neighbors(matrix, vocab, "query", count=4)
        assert ranked[0] == ("twin", 1.0)

    def test_orthogonal_below_positive(self):
        vocab, matrix = self.fixture_matrix()
        ranked = nearest_neighbors(matrix, vocab, "query", count=4)
        words = [w for w, _ in ranked]
        assert words.index("faint") < words.index("ortho")
        sim = dict(ranked)
        assert np.isclose(sim["ortho"], 0.0)

    def test_zero_norm_row_ranks_last_with_minus_one(self):
        vocab, matrix = self.fixture_matrix()
        ranked = nearest_neighbors(matrix, vocab, "query", count=4)
        assert ranked[-1] == ("dead", -1.0)

    def test_query_excluded(self):
        vocab, matrix = self.fixture_matrix()
        ranked = nearest_neighbors(matrix, vocab, "query", count=4)
        assert "query" not in [w for w, _ in ranked]

    def test_scale_invariance(self):
        vocab, matrix = self.fixture_matrix()
        scaled = matrix.copy()
        scaled[vocab.id("query")] *= 37.5
        assert nearest_neighbors(matrix, vocab, "query", 4) == \
            nearest_neighbors(scaled, vocab, "query", 4)

    def test_unknown_query_raises(self):
        vocab, matrix = self.fixture_matrix()
        with pytest.raises(ValueError, match="unknown word"):
            nearest_neighbors(matrix, vocab, "nope", 4)
        with pytest.raises(ValueError, match="unknown word '<pad>'"):
            nearest_neighbors(matrix, vocab, "<pad>", 4)  # reserved, never a text word

    def test_count_larger_than_candidates_raises(self):
        vocab, matrix = self.fixture_matrix()
        with pytest.raises(ValueError, match="candidates"):
            nearest_neighbors(matrix, vocab, "query", 10)


class TestNeighborReport:
    def test_tsv_layout(self):
        vocab = build_vocabulary([["a", "b", "c"]])
        matrix = np.zeros((len(vocab), 2))
        matrix[1:] = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]
        params = net.ModelParams(
            [embed.EmbeddingChannel(matrix, False), embed.EmbeddingChannel(matrix, True)],
            [net.FilterBank(2, np.zeros((1, 2, 2)), np.zeros(1))],
            net.OutputLayer(np.zeros((2, 1)), np.zeros(2)))
        ranked = neighbor_report(params, vocab, "a", count=2)
        assert ranked == [nearest_neighbors(matrix, vocab, "a", 2)] * 2
        assert [w for w, _ in ranked[0]] == ["b", "c"]

    def test_fine_tuned_channel_diverges_from_static(self):
        # After multichannel training on the trigger task, the trainable
        # channel's neighborhood of a trigger word must differ from the
        # static channel's.
        config = optim.TrainConfig(variant="multichannel", widths=(2, 3),
                                   maps_per_width=4, dim=12, keep_prob=0.5,
                                   batch_size=25, max_epochs=8, patience=8, seed=3,
                                   init_scale=0.1)
        pairs = synthdata.trigger_bigram_pairs(400, seed=17, n_filler=40)
        token_lists, labels = corpus.tokenize_corpus(pairs)
        vocab = corpus.build_vocabulary(token_lists)
        dataset = corpus.encode_corpus(token_lists, labels, vocab, 3)
        base = synthdata.planted_vectors(vocab, config.dim, seed=5)
        params = evaluate.initial_params(config, base, dataset.num_classes)
        train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=4)
        result = optim.fit(params, train_ds.examples, dev_ds.examples, config)

        static, tuned = neighbor_report(result.params, vocab, synthdata.TRIGGER_WORDS[0], 4)
        static_words = {w for w, _ in static}
        tuned_words = {w for w, _ in tuned}
        assert static_words != tuned_words
