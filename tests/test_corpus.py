"""Tokenization, vocabulary, encoding, fold and dev-split behavior."""

import numpy as np
import pytest

from sentconv import corpus, embed, net
from sentconv.corpus import (
    PAD_ID,
    PAD_TOKEN,
    Dataset,
    Example,
    Vocabulary,
    assign_folds,
    build_vocabulary,
    clean_and_tokenize,
    encode_and_pad,
    select_dev_split,
)


class TestCleanAndTokenize:
    def test_lowercase_and_split(self):
        assert clean_and_tokenize("Hello World") == ["hello", "world"]

    def test_contraction_and_punctuation(self):
        assert clean_and_tokenize("don't stop!") == ["do", "n't", "stop", "!"]

    def test_empty(self):
        assert clean_and_tokenize("") == []

    def test_all_contraction_suffixes(self):
        text = "I've you're he'll can't it's we'd"
        assert clean_and_tokenize(text) == [
            "i", "'ve", "you", "'re", "he", "'ll", "ca", "n't", "it", "'s", "we", "'d",
        ]

    def test_punctuation_isolated(self):
        assert clean_and_tokenize("wow, (really)? yes!") == [
            "wow", ",", "(", "really", ")", "?", "yes", "!",
        ]

    def test_other_symbols_become_spaces(self):
        assert clean_and_tokenize("a&b c;d") == ["a", "b", "c", "d"]

    def test_stray_apostrophes_become_spaces(self):
        assert clean_and_tokenize("o'clock dogs' 'tis") == ["o", "clock", "dogs", "tis"]

    def test_idempotent_on_clean_output(self):
        raws = [
            "don't stop!",
            "The movie, while (long), isn't bad?",
            "she'd've -- known; it's 12,000 o'clock",
            "weird\tchars\nandé accents",
        ]
        rng = np.random.default_rng(0)
        alphabet = list("abc '!?,()&;.x0")
        raws += ["".join(rng.choice(alphabet, 40)) for _ in range(50)]
        for raw in raws:
            once = clean_and_tokenize(raw)
            assert clean_and_tokenize(" ".join(once)) == once


class TestVocabulary:
    def test_first_occurrence_order(self):
        v = build_vocabulary([["b", "a"], ["a", "c"]])
        assert v.id_to_word == [PAD_TOKEN, "b", "a", "c"]

    def test_distinct_count_with_pad(self):
        v = build_vocabulary([["a", "b"], ["b", "c"]])
        assert len(v) == 4

    def test_roundtrip(self):
        v = build_vocabulary([["x", "y", "z", "y"]])
        for w in v.id_to_word:
            assert v.id_to_word[v.word_to_id[w]] == w
        for i, w in enumerate(v.id_to_word):
            assert v.word_to_id[w] == i

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([])

    def test_single_empty_example(self):
        assert len(build_vocabulary([[]])) == 1

    def test_pad_token_rejected_in_text(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", PAD_TOKEN])

    def test_pad_is_id_zero(self):
        v = build_vocabulary([["a"]])
        assert v.id(PAD_TOKEN) == PAD_ID == 0


class TestEncodeAndPad:
    def test_pads_to_window_width(self):
        v = build_vocabulary([["a"]])
        ids = encode_and_pad(["a"], v, 5)
        assert ids.tolist() == [v.id("a"), 0, 0, 0, 0]

    def test_long_sentence_unchanged(self):
        toks = list("abcdefg")
        v = build_vocabulary([toks])
        assert len(encode_and_pad(toks, v, 5)) == 7

    def test_unseen_token_maps_to_pad(self):
        v = build_vocabulary([["a"]])
        assert encode_and_pad(["zzz"], v, 3).tolist() == [PAD_ID] * 3

    def test_unseen_sentence_still_scores(self):
        v = build_vocabulary([["a", "b"]])
        channels = [embed.EmbeddingChannel(embed.random_matrix(len(v), 4, seed=1), True)]
        params = net.init_params(channels, 2, (2,), 3, seed=2, keep_prob=0.5)
        ids = encode_and_pad(["totally", "new", "words"], v, 2)
        probs = net.predict_probs(params, ids)
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_length_always_at_least_h_max(self):
        v = build_vocabulary([["a", "b", "c"]])
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_toks = int(rng.integers(0, 12))
            h_max = int(rng.integers(1, 8))
            toks = list(rng.choice(["a", "b", "c", "zz"], n_toks))
            assert len(encode_and_pad(toks, v, h_max)) >= h_max

    def test_bad_width_raises(self):
        v = build_vocabulary([["a"]])
        with pytest.raises(ValueError):
            encode_and_pad(["a"], v, 0)


class TestAssignFolds:
    def test_each_fold_size_one(self):
        plan = assign_folds(10, 10, seed=5)
        assert plan.sizes().tolist() == [1] * 10

    def test_pigeonhole_sizes(self):
        plan = assign_folds(10662, 10, seed=5)
        sizes = plan.sizes()
        assert sorted(set(sizes.tolist())) == [1066, 1067]
        assert sizes.sum() == 10662
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        a = assign_folds(100, 10, seed=9)
        b = assign_folds(100, 10, seed=9)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_every_example_assigned_once(self):
        plan = assign_folds(53, 10, seed=2)
        seen = np.concatenate([plan.indices(f) for f in range(10)])
        assert sorted(seen.tolist()) == list(range(53))

    def test_errors(self):
        with pytest.raises(ValueError):
            assign_folds(5, 10, seed=0)
        with pytest.raises(ValueError):
            assign_folds(10, 1, seed=0)

    def test_tsv_export(self):
        plan = assign_folds(3, 2, seed=0)
        lines = plan.to_tsv().splitlines()
        assert len(lines) == 3
        idx, fold = lines[0].split("\t")
        assert idx == "0" and int(fold) in (0, 1)


def _dummy_dataset(n, num_classes=2):
    examples = [Example(np.array([1, 2, 3]), i % num_classes) for i in range(n)]
    return Dataset(examples, num_classes)


class TestSelectDevSplit:
    def test_sizes_100(self):
        train, dev = select_dev_split(_dummy_dataset(100), 0.10, seed=1)
        assert (len(train), len(dev)) == (90, 10)

    def test_sizes_10662(self):
        train, dev = select_dev_split(_dummy_dataset(10662), 0.10, seed=1)
        assert len(dev) == 1066
        assert len(train) == 10662 - 1066

    def test_seeds_change_membership_not_sizes(self):
        ds = _dummy_dataset(100)
        for i, ex in enumerate(ds.examples):
            ex.token_ids = np.array([i])  # tag examples by index
        t1, d1 = select_dev_split(ds, 0.10, seed=1)
        t2, d2 = select_dev_split(ds, 0.10, seed=2)
        assert len(d1) == len(d2) == 10
        ids1 = {int(ex.token_ids[0]) for ex in d1.examples}
        ids2 = {int(ex.token_ids[0]) for ex in d2.examples}
        assert ids1 != ids2

    def test_disjoint_and_exhaustive(self):
        ds = _dummy_dataset(37)
        for i, ex in enumerate(ds.examples):
            ex.token_ids = np.array([i])
        train, dev = select_dev_split(ds, 0.10, seed=4)
        ids = sorted(int(ex.token_ids[0]) for ex in train.examples + dev.examples)
        assert ids == list(range(37))

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            select_dev_split(_dummy_dataset(9), 0.10, seed=0)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset([Example(np.array([1]), 2)], num_classes=2)


class TestLoadTsv:
    def test_happy_path_and_blank_lines(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("0\thello there\n\n1\tgood stuff\n", encoding="utf-8")
        assert corpus.load_tsv(p) == [(0, "hello there"), (1, "good stuff")]

    def test_missing_tab_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("0\tok\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            corpus.load_tsv(p)

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("0\tok\nx\toops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            corpus.load_tsv(p)

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            corpus.load_tsv(p)
