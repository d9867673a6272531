"""Word-vector parsing/writing, unknown-word init, channel assembly."""

import io
import re

import numpy as np
import pytest

from sentconv import embed
from sentconv.corpus import PAD_ID, build_vocabulary
from sentconv.embed import (
    EmbeddingChannel,
    assemble_channels,
    build_base_matrix,
    load_vectors,
    parse_word2vec_binary,
    parse_word2vec_text,
    random_matrix,
    variance_matched_init,
    write_word2vec_binary,
    write_word2vec_text,
)


def binary_fixture(records, dim=None):
    """Raw word2vec binary bytes for (word, values) records."""
    dim = dim if dim is not None else len(records[0][1])
    out = io.BytesIO()
    out.write(f"{len(records)} {dim}\n".encode("ascii"))
    for word, values in records:
        out.write(word.encode("utf-8") + b" ")
        out.write(np.asarray(values, dtype="<f4").tobytes())
        out.write(b"\n")
    return out.getvalue()


CAT_DOG = [("cat", [1.0, 2.0, 3.0]), ("dog", [-1.0, 0.5, 0.25])]


class TestParseBinary:
    def test_exact_values_recovered(self):
        vocab = build_vocabulary([["cat", "dog"]])
        matrix, matched = parse_word2vec_binary(io.BytesIO(binary_fixture(CAT_DOG)), vocab)
        assert matched == {"cat", "dog"}
        assert matrix[vocab.id("cat")].tolist() == [1.0, 2.0, 3.0]
        assert matrix[vocab.id("dog")].tolist() == [-1.0, 0.5, 0.25]
        assert matrix.dtype == np.float64

    def test_file_word_absent_from_vocab_skipped(self):
        vocab = build_vocabulary([["cat"]])
        matrix, matched = parse_word2vec_binary(io.BytesIO(binary_fixture(CAT_DOG)), vocab)
        assert matched == {"cat"}
        assert matrix.shape == (2, 3)

    def test_unmatched_vocab_rows_stay_zero(self):
        vocab = build_vocabulary([["cat", "bird"]])
        matrix, matched = parse_word2vec_binary(io.BytesIO(binary_fixture(CAT_DOG)), vocab)
        assert matched == {"cat"}
        assert np.all(matrix[vocab.id("bird")] == 0.0)

    def test_bad_header(self):
        vocab = build_vocabulary([["cat"]])
        for blob in (b"", b"2\n", b"a b\n", b"2 0\n"):
            with pytest.raises(ValueError, match="bad header"):
                parse_word2vec_binary(io.BytesIO(blob), vocab)

    def test_truncated_record(self):
        vocab = build_vocabulary([["cat", "dog"]])
        blob = binary_fixture(CAT_DOG)
        with pytest.raises(ValueError, match="truncated record"):
            parse_word2vec_binary(io.BytesIO(blob[:-8]), vocab)
        # word bytes cut before the separating space
        with pytest.raises(ValueError, match="truncated record"):
            parse_word2vec_binary(io.BytesIO(b"1 3\nca"), vocab)

    def test_header_bounded_by_the_bytes_that_follow(self):
        vocab = build_vocabulary([["cat"]])
        # a record is at least the word's space plus 4 bytes per value
        matrix, matched = parse_word2vec_binary(io.BytesIO(b"1 3\n " + bytes(12)), vocab)
        assert matrix.shape == (2, 3) and matched == set()
        with pytest.raises(ValueError, match="truncated records: .* need at least 13 bytes, 12"):
            parse_word2vec_binary(io.BytesIO(b"1 3\n" + bytes(12)), vocab)
        # neither header may size the V x dim matrix
        tail = b"\ncat " + bytes(8)
        with pytest.raises(ValueError, match="truncated records"):
            parse_word2vec_binary(io.BytesIO(b"1 2000000000000" + tail), vocab)
        with pytest.raises(ValueError, match="dimension 2000000000000 needs at least"):
            parse_word2vec_binary(io.BytesIO(b"0 2000000000000" + tail), vocab)

    def test_dim_mismatch(self):
        vocab = build_vocabulary([["cat"]])
        with pytest.raises(ValueError, match="expected 5"):
            parse_word2vec_binary(io.BytesIO(binary_fixture(CAT_DOG)), vocab, expected_dim=5)

    def test_no_trailing_newline_accepted(self):
        vocab = build_vocabulary([["cat"]])
        blob = b"1 3\ncat " + np.asarray([1, 2, 3], dtype="<f4").tobytes()
        matrix, matched = parse_word2vec_binary(io.BytesIO(blob), vocab)
        assert matched == {"cat"}
        assert matrix[vocab.id("cat")].tolist() == [1.0, 2.0, 3.0]

    def test_lowercase_fallback_and_exact_priority(self):
        vocab = build_vocabulary([["cat"]])
        # fallback only
        m1, matched1 = parse_word2vec_binary(
            io.BytesIO(binary_fixture([("Cat", [9.0, 9.0, 9.0])])), vocab)
        assert matched1 == {"cat"}
        assert m1[vocab.id("cat")].tolist() == [9.0, 9.0, 9.0]
        # exact match wins regardless of file order
        for records in ([("Cat", [9.0] * 3), ("cat", [1.0] * 3)],
                        [("cat", [1.0] * 3), ("Cat", [9.0] * 3)]):
            m, matched = parse_word2vec_binary(io.BytesIO(binary_fixture(records)), vocab)
            assert matched == {"cat"}
            assert m[vocab.id("cat")].tolist() == [1.0, 1.0, 1.0]

    def test_pad_row_never_filled(self):
        vocab = build_vocabulary([["cat"]])
        blob = binary_fixture([("<pad>", [5.0, 5.0, 5.0])])
        matrix, matched = parse_word2vec_binary(io.BytesIO(blob), vocab)
        assert matched == set()
        assert np.all(matrix[PAD_ID] == 0.0)


class TestRoundTrips:
    def test_binary_parse_write_parse_is_byte_identical(self):
        vocab = build_vocabulary([["cat", "dog"]])
        blob = binary_fixture(CAT_DOG)
        matrix, _ = parse_word2vec_binary(io.BytesIO(blob), vocab)
        out = io.BytesIO()
        write_word2vec_binary(out, ["cat", "dog"],
                              matrix[[vocab.id("cat"), vocab.id("dog")]])
        assert out.getvalue() == blob

    def test_binary_survives_float32_noise(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(20)]
        matrix = rng.normal(0, 0.3, (20, 7)).astype(np.float32).astype(np.float64)
        out = io.BytesIO()
        write_word2vec_binary(out, words, matrix)
        vocab = build_vocabulary([words])
        parsed, matched = parse_word2vec_binary(io.BytesIO(out.getvalue()), vocab)
        assert matched == set(words)
        assert np.array_equal(parsed[1:], matrix)
        out2 = io.BytesIO()
        write_word2vec_binary(out2, words, parsed[1:])
        assert out2.getvalue() == out.getvalue()

    def test_text_write_parse_write_identical(self):
        rng = np.random.default_rng(1)
        words = ["alpha", "beta"]
        matrix = rng.normal(size=(2, 4))
        out = io.BytesIO()
        write_word2vec_text(out, words, matrix)
        vocab = build_vocabulary([words])
        parsed, matched = parse_word2vec_text(io.BytesIO(out.getvalue()), vocab)
        assert matched == set(words)
        assert np.array_equal(parsed[1:], matrix)
        out2 = io.BytesIO()
        write_word2vec_text(out2, words, parsed[1:])
        assert out2.getvalue() == out.getvalue()

    def test_text_bad_line_reports_number(self):
        vocab = build_vocabulary([["a"]])
        with pytest.raises(ValueError, match="line 2"):
            parse_word2vec_text(io.BytesIO(b"a 1.0 2.0\nb 1.0\n"), vocab)


class TestLoadVectors:
    def test_sniffs_binary(self, tmp_path):
        p = tmp_path / "v.bin"
        p.write_bytes(binary_fixture(CAT_DOG))
        vocab = build_vocabulary([["cat", "dog"]])
        matrix, matched = load_vectors(p, vocab)
        assert matched == {"cat", "dog"}
        assert matrix[vocab.id("cat")].tolist() == [1.0, 2.0, 3.0]

    def test_sniffs_text(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"cat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n")
        vocab = build_vocabulary([["cat", "dog"]])
        matrix, matched = load_vectors(p, vocab)
        assert matched == {"cat", "dog"}
        assert matrix[vocab.id("dog")].tolist() == [-1.0, 0.5, 0.25]

    def test_non_finite_vector_names_word_and_file(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]])
        binary = tmp_path / "v.bin"
        binary.write_bytes(binary_fixture([("cat", [1.0, 2.0, 3.0]), ("dog", [np.inf, 0, 0])]))
        text = tmp_path / "v.txt"
        text.write_bytes(b"cat 1.0 nan 3.0\ndog -1.0 0.5 0.25\n")
        for path, word in ((binary, "dog"), (text, "cat")):
            with pytest.raises(ValueError, match=re.escape(f"{path}: vector for '{word}'")):
                load_vectors(path, vocab)
        # a record for a word outside the vocabulary is skipped, whatever it holds
        text.write_bytes(b"cat 1.0 2.0 3.0\nemu nan inf -inf\n")
        assert load_vectors(text, vocab)[1] == {"cat"}

    def test_parse_errors_name_the_file(self, tmp_path):
        vocab = build_vocabulary([["cat"]])
        path = tmp_path / "v.bin"
        path.write_bytes(binary_fixture(CAT_DOG)[:-8])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated record")):
            load_vectors(path, vocab)

    def test_fuzzed_tiny_vector_file(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]])
        path = tmp_path / "tiny.bin"
        blob = binary_fixture(CAT_DOG)
        path.write_bytes(blob)
        assert load_vectors(path, vocab)[1] == {"cat", "dog"}

        def loads_or_rejects(data):
            path.write_bytes(data)
            try:
                matrix, _ = load_vectors(path, vocab)
            except ValueError:
                return
            assert matrix.shape[0] == len(vocab) and matrix.shape[1] <= len(data)

        for end in range(len(blob)):
            loads_or_rejects(blob[:end])
        for i in range(len(blob)):
            loads_or_rejects(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])


class TestVarianceMatchedInit:
    def test_half_width_matches_pooled_variance(self):
        rng = np.random.default_rng(2)
        matrix = np.zeros((10, 5))
        matrix[1:4] = rng.normal(0, 0.7, (3, 5))
        pooled = matrix[1:4].var()
        a = variance_matched_init(matrix, [1, 2, 3], [4, 5, 6], seed=0)
        assert np.isclose(a * a / 3.0, pooled, rtol=1e-12)

    def test_zero_variance_falls_back(self):
        matrix = np.zeros((6, 4))
        a = variance_matched_init(matrix, [1, 2], [3, 4, 5], seed=0)
        assert a == 0.25
        assert np.all(np.abs(matrix[3:]) <= 0.25)
        assert np.any(matrix[3:] != 0.0)

    def test_no_matched_rows_falls_back(self):
        matrix = np.zeros((4, 4))
        assert variance_matched_init(matrix, [], [1, 2, 3], seed=0) == 0.25

    def test_sampled_variance_within_5_percent(self):
        rng = np.random.default_rng(3)
        dim = 50
        matrix = np.zeros((2003, dim))
        matrix[1:3] = rng.normal(0, 0.4, (2, dim))
        pooled = matrix[1:3].var()
        variance_matched_init(matrix, [1, 2], list(range(3, 2003)), seed=11)
        sampled = matrix[3:].var()  # 2000 * 50 = 1e5 entries
        assert abs(sampled - pooled) / pooled < 0.05

    def test_deterministic(self):
        m1 = np.zeros((8, 3))
        m2 = np.zeros((8, 3))
        m1[1] = m2[1] = [0.3, -0.2, 0.1]
        variance_matched_init(m1, [1], [2, 3], seed=9)
        variance_matched_init(m2, [1], [2, 3], seed=9)
        assert np.array_equal(m1, m2)


class TestAssembleChannels:
    def setup_method(self):
        self.base = random_matrix(12, 6, seed=4)

    def test_multichannel_copies_and_flags(self):
        ch = assemble_channels("multichannel", self.base)
        assert [c.trainable for c in ch] == [False, True]
        assert np.array_equal(ch[0].matrix, ch[1].matrix)
        ch[1].matrix[3, 0] += 1.0
        assert not np.array_equal(ch[0].matrix, ch[1].matrix)
        assert np.array_equal(ch[0].matrix, self.base)

    def test_static_single_untrainable(self):
        ch = assemble_channels("static", self.base)
        assert len(ch) == 1 and ch[0].trainable is False

    def test_non_static_trainable(self):
        ch = assemble_channels("non-static", self.base)
        assert len(ch) == 1 and ch[0].trainable is True

    def test_rand_rows_differ_from_pretrained(self):
        pretrained = np.zeros((12, 6))
        pretrained[1:] = np.random.default_rng(5).normal(0, 0.3, (11, 6))
        rand_base = random_matrix(12, 6, seed=6)
        ch = assemble_channels("rand", rand_base)[0]
        assert ch.trainable is True
        for row in ch.matrix[1:]:
            assert not any(np.array_equal(row, p) for p in pretrained[1:])

    def test_pad_row_zero_in_every_variant(self):
        for variant in embed.VARIANTS:
            for ch in assemble_channels(variant, self.base):
                assert np.all(ch.matrix[PAD_ID] == 0.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            assemble_channels("frozen", self.base)

    def test_channel_requires_zero_pad_row(self):
        bad = np.ones((4, 3))
        with pytest.raises(ValueError, match="pad row"):
            EmbeddingChannel(bad, trainable=True)


class TestBuildBaseMatrix:
    def test_rand_ignores_vectors(self):
        vocab = build_vocabulary([["cat", "dog"]])
        matrix, matched = build_base_matrix(vocab, 3, "rand", seed=1)
        assert matched == set()
        assert matrix.shape == (3, 3)
        assert np.all(matrix[PAD_ID] == 0.0)

    def test_pretrained_requires_path(self):
        vocab = build_vocabulary([["cat"]])
        with pytest.raises(ValueError, match="requires"):
            build_base_matrix(vocab, 3, "static", seed=1)

    def test_variance_matched_fill(self, tmp_path):
        p = tmp_path / "v.bin"
        p.write_bytes(binary_fixture(CAT_DOG))
        vocab = build_vocabulary([["cat", "dog", "bird", "fish"]])
        matrix, matched = build_base_matrix(vocab, 3, "static", seed=1, vectors_path=p)
        assert matched == {"cat", "dog"}
        pooled = matrix[[vocab.id("cat"), vocab.id("dog")]].var()
        a = np.sqrt(3 * pooled)
        unknown = matrix[[vocab.id("bird"), vocab.id("fish")]]
        assert np.all(np.abs(unknown) <= a)
        assert np.any(unknown != 0.0)

    def test_fixed_fill_bounded_by_quarter(self, tmp_path):
        p = tmp_path / "v.bin"
        p.write_bytes(binary_fixture(CAT_DOG))
        vocab = build_vocabulary([["cat", "dog", "bird"]])
        matrix, _ = build_base_matrix(vocab, 3, "non-static", seed=1, vectors_path=p,
                                      unknown_init="fixed")
        assert np.all(np.abs(matrix[vocab.id("bird")]) <= 0.25)
