"""Tokenization, vocabulary, encoding, fold and dev-split behavior."""

import re

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


def reference_tokenize(raw):
    """The per-text, per-token tokenizer that `tokenize_texts` replaced; it
    stays as the oracle the one-pass version must equal."""
    s = re.sub(r"[^a-z0-9(),!?']+", " ", raw.lower())
    for suffix in ("'ve", "'re", "'ll", "n't", "'s", "'d"):
        s = s.replace(suffix, " " + suffix)
    s = re.sub(r"([,!?()])", r" \1 ", s)
    tokens = []
    for tok in s.split():
        if "'" not in tok or tok in ("'ve", "'re", "'ll", "n't", "'s", "'d"):
            tokens.append(tok)
        else:
            tokens.extend(tok.replace("'", " ").split())
    return tokens


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


    @pytest.mark.parametrize("raw, tokens", [
        ("\u0130stanbul \u0130S", ["i", "stanbul", "i", "s"]),  # İ lowers to i + U+0307
        ("\u03a3\u0391\u03a3 a\u03a3 \u03a3a \u03c3\u03c2", ["a", "a"]),  # final sigma
        ("one\ntwo\rthree\x0bfour\tfive\x0csix", ["one", "two", "three", "four", "five", "six"]),
        ("DON'T I'VE YOU'RE HE'LL IT'S WE'D",
         ["do", "n't", "i", "'ve", "you", "'re", "he", "'ll", "it", "'s", "we", "'d"]),
        ("rock 'n' roll '' '", ["rock", "n", "roll"]),
        ("\u039a\u0391\u039b\u0397\u03a3'S", ["'s"]),
        ("\u212aelvin \u212b", ["kelvin"]),  # the Kelvin sign lowers to k
        ("x\x85y\xa0z\u2028w", ["x", "y", "z", "w"]),
        ("i\u0307 \u0130's", ["i", "i", "'s"]),
        ("can'T won't", ["ca", "n't", "wo", "n't"]),
        ("\u03a3\u0391\u03a3\n\u03a3", []),
        ("(a,b)!?", ["(", "a", ",", "b", ")", "!", "?"]),
    ])
    def test_golden_unicode_whitespace_and_case(self, raw, tokens):
        assert clean_and_tokenize(raw) == tokens == reference_tokenize(raw)
        assert corpus.tokenize_texts(["x", raw, "\u03a3"]) == [["x"], tokens, []]

    def test_corpus_pass_equals_the_per_text_oracle(self):
        rng = np.random.default_rng(1)
        alphabet = list("aBz09 '!?,()&;.\n\r\x0b\t\u0130\u03a3\u03c3\u03c2\u212a") + [
            "N'T", "'VE", "'S", "'Re", "'LL", "'D", "n't", "<pad>"]
        texts = ["".join(rng.choice(alphabet, int(rng.integers(0, 30)))) for _ in range(2000)]
        pairs = [(i % 3, text) for i, text in enumerate(texts)]
        token_lists, labels = corpus.tokenize_corpus(pairs)
        assert token_lists == [reference_tokenize(text) for text in texts]
        assert token_lists == [clean_and_tokenize(text) for text in texts]
        assert labels == [i % 3 for i in range(2000)]
        assert corpus.tokenize_corpus([]) == ([], [])


class TestVocabulary:
    def test_constructor_keeps_first_occurrence_order(self):
        v = Vocabulary(["c", "a", "c", "b", "a"])
        assert v.id_to_word == [PAD_TOKEN, "c", "a", "b"]
        assert v.word_to_id == {PAD_TOKEN: 0, "c": 1, "a": 2, "b": 3}

    @pytest.mark.parametrize("words", [[PAD_TOKEN], ["a", "a", PAD_TOKEN, "b"]])
    def test_constructor_rejects_pad(self, words):
        with pytest.raises(ValueError, match="reserved"):
            Vocabulary(iter(words))

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

    def test_any_iterable_of_tokens(self):
        v = build_vocabulary([["a", "b"]])
        ids = encode_and_pad(iter(["b", "a"]), v, 3)
        assert ids.dtype == np.int64 and ids.tolist() == [2, 1, 0]

    def test_unseen_token_maps_to_pad(self):
        v = build_vocabulary([["a"]])
        assert encode_and_pad(["zzz"], v, 3).tolist() == [PAD_ID] * 3

    def test_unseen_sentence_still_scores(self):
        v = build_vocabulary([["a", "b"]])
        channels = [embed.EmbeddingChannel(embed.build_base_matrix(v, 4, "rand", seed=1)[0], True)]
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


class TestEncodeCorpus:
    def test_examples_equal_encode_and_pad(self):
        rng = np.random.default_rng(4)
        vocab = build_vocabulary([["a", "b", "c"]])
        token_lists = [list(rng.choice(["a", "b", "c", "zz"], int(rng.integers(0, 9))))
                       for _ in range(300)]
        labels = [i % 2 for i in range(300)]
        for h_max in (1, 3, 5):
            ds = corpus.encode_corpus(token_lists, labels, vocab, h_max)
            assert ds.num_classes == 2 and len(ds) == 300
            for toks, label, ex in zip(token_lists, labels, ds.examples):
                expected = [vocab.word_to_id.get(t, PAD_ID) for t in toks]
                expected += [PAD_ID] * (h_max - len(toks))
                assert ex.token_ids.dtype == np.int64
                assert ex.token_ids.tolist() == expected
                assert encode_and_pad(toks, vocab, h_max).tolist() == expected
                assert ex.label == label

    def test_short_sentences_right_padded(self):
        vocab = build_vocabulary([["a", "b"]])
        ds = corpus.encode_corpus([["b"], [], ["a", "b", "a"]], [0, 1, 0], vocab, 2)
        assert [ex.token_ids.tolist() for ex in ds.examples] == [[2, 0], [0, 0], [1, 2, 1]]

    def test_bad_width_raises(self):
        with pytest.raises(ValueError, match="h_max"):
            corpus.encode_corpus([["a"]], [0], build_vocabulary([["a"]]), 0)


class TestAssignFolds:
    def test_each_fold_size_one(self):
        plan = assign_folds(10, 10, seed=5)
        assert plan.dtype == np.int64 and plan.shape == (10,)
        assert np.bincount(plan, minlength=10).tolist() == [1] * 10

    def test_pigeonhole_sizes(self):
        plan = assign_folds(10662, 10, seed=5)
        sizes = np.bincount(plan, minlength=10)
        assert sorted(set(sizes.tolist())) == [1066, 1067]
        assert sizes.sum() == 10662
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        a = assign_folds(100, 10, seed=9)
        b = assign_folds(100, 10, seed=9)
        assert np.array_equal(a, b)

    def test_every_example_assigned_once(self):
        plan = assign_folds(53, 10, seed=2)
        seen = np.concatenate([np.flatnonzero(plan == f) for f in range(10)])
        assert sorted(seen.tolist()) == list(range(53))

    def test_errors(self):
        with pytest.raises(ValueError):
            assign_folds(5, 10, seed=0)
        with pytest.raises(ValueError):
            assign_folds(10, 1, seed=0)


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

    def test_class_count_needs_every_label_from_zero(self):
        assert corpus.count_classes([1, 0, 2, 1]) == 3
        assert corpus.count_classes([0, 0]) == 1
        with pytest.raises(ValueError, match="missing 1, 2, 3, 4$"):
            corpus.count_classes([0, 5, 0])
        with pytest.raises(ValueError, match="missing 0$"):
            corpus.count_classes([1, 1])
        # a stray huge label is named without enumerating the gap
        with pytest.raises(ValueError, match=r"missing 2, 3, 4, 5, 6, \.\.\.$"):
            corpus.count_classes([0, 1, 10**12])


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

    # `int` reads each of these as a label: 1, 10, 1 and 1.
    @pytest.mark.parametrize("label", ["0_1", "1_0", "\u0661", "\uff11"])
    def test_label_is_ascii_decimal(self, tmp_path, label):
        p = tmp_path / "d.tsv"
        p.write_text(f"0\tok\n{label}\toops\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: bad label {label!r}"):
            corpus.load_tsv(p)

    def test_signed_and_spaced_labels_still_read(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(" 1 \tspaced\n+0\tsigned\n-1\tnegative\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: negative label -1"):
            corpus.load_tsv(p)
        p.write_text(" 1 \tspaced\n+0\tsigned\n", encoding="utf-8")
        assert corpus.load_tsv(p) == [(1, "spaced"), (0, "signed")]

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            corpus.load_tsv(p)
