"""Word-vector parsing/writing, unknown-word init, channel assembly."""

import io
import re
import tracemalloc

import numpy as np
import pytest

from sentconv import embed, optim
from sentconv._seeds import RAND_MATRIX, UNKNOWN_INIT, derive_seed
from sentconv.corpus import PAD_ID, build_vocabulary
from sentconv.embed import (
    EmbeddingChannel,
    assemble_channels,
    build_base_matrix,
    load_vectors,
    parse_word2vec_binary,
    parse_word2vec_text,
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

    # `int` reads b"1_0" as 10, so "1_0 3" was a header of ten records.
    @pytest.mark.parametrize("first", [b"1_0 3\n", b"1 0_3\n", b"\xd9\xa1 3\n"])
    def test_header_fields_are_ascii_decimal(self, first):
        assert embed._header(first.split()) is None
        with pytest.raises(ValueError, match="^bad header$"):
            parse_word2vec_binary(io.BytesIO(first + b"cat " + bytes(12) * 10),
                                  build_vocabulary([["cat"]]))

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


def _straddling_blob():
    """A binary file whose records exercise the reader's edge cases: leading
    newlines, a word holding a newline, records with and without their
    trailing newline, a lowercase fallback, a repeated word and non-matches."""
    words = ["\n\nalpha", "BETA", "ga\nmma", "beta", "delta", "x", "alpha"]
    values = np.arange(len(words) * 3, dtype="<f4").reshape(-1, 3) + 0.5
    records = b"".join(w.encode() + b" " + v.tobytes() + b"\n" * (i % 2)
                       for i, (w, v) in enumerate(zip(words, values)))
    return f"{len(words)} 3\n".encode() + records


class TestBufferedReader:
    VOCAB = build_vocabulary([["alpha", "beta", "ga\nmma", "delta", "omega"]])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 13, 64])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        blob = _straddling_blob()
        expected = parse_word2vec_binary(io.BytesIO(blob), self.VOCAB)
        monkeypatch.setattr(embed, "_CHUNK", chunk)
        matrix, matched = parse_word2vec_binary(io.BytesIO(blob), self.VOCAB)
        assert matrix.tobytes() == expected[0].tobytes()
        assert matched == expected[1] == {"alpha", "beta", "ga\nmma", "delta"}
        v = self.VOCAB.word_to_id
        # first records win: the leading newlines are skipped, BETA falls back
        # to beta until the exact beta replaces it, the second alpha is ignored
        assert matrix[v["alpha"]].tolist() == [0.5, 1.5, 2.5]
        assert matrix[v["beta"]].tolist() == [9.5, 10.5, 11.5]
        assert matrix[v["ga\nmma"]].tolist() == [6.5, 7.5, 8.5]
        assert not matrix[v["omega"]].any()

    @pytest.mark.parametrize("chunk", [1, 4, 1 << 20])
    def test_every_truncation_names_the_end_of_file(self, monkeypatch, chunk):
        monkeypatch.setattr(embed, "_CHUNK", chunk)
        blob = _straddling_blob()
        per_record = 0
        for cut in range(len(blob)):
            with pytest.raises(ValueError) as info:
                parse_word2vec_binary(io.BytesIO(blob[:cut]), self.VOCAB)
            message = str(info.value)
            if message.startswith("truncated record "):
                assert message == f"truncated record at byte {cut}"
                per_record += 1
            else:
                assert re.match("bad header|truncated records: ", message), message
        assert per_record == 35  # the cuts past the header's size bound, 91 bytes of records


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

    def test_text_word_may_hold_unicode_space(self):
        # fastText splits at ASCII whitespace, so a no-break space stays in the word
        vocab = build_vocabulary([["new\u00a0york"]])
        matrix, matched = parse_word2vec_text(io.BytesIO("new\u00a0york 1.0 2.0\n".encode()), vocab)
        assert matched == {"new\u00a0york"}
        assert matrix[1].tolist() == [1.0, 2.0]


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

    @pytest.mark.parametrize("blob", [b"2 3\ncat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n",
                                      b"2 3 \n\ncat 1.0 2.0 3.0 \ndog -1.0 0.5 0.25 \n"])
    def test_headered_text_loads_like_headerless(self, tmp_path, blob):
        vocab = build_vocabulary([["cat", "dog"]])
        headed, bare = tmp_path / "headed.txt", tmp_path / "bare.txt"
        headed.write_bytes(blob)
        bare.write_bytes(b"cat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n")
        matrix, matched = load_vectors(headed, vocab, expected_dim=3)
        expected, expected_matched = load_vectors(bare, vocab)
        assert matched == expected_matched == {"cat", "dog"}
        assert np.array_equal(matrix, expected)
        assert np.array_equal(parse_word2vec_text(io.BytesIO(blob), vocab)[0], expected)
        with pytest.raises(ValueError, match="file declares 3-dimensional vectors, expected 5"):
            load_vectors(headed, vocab, expected_dim=5)

    @pytest.mark.parametrize("blob, found", [
        (b"5 8\ngoodish 1 2 3 4 5 6 7 8\n", 1),       # truncated .vec
        (b"2 3\ncat 1 2 3\ndog 4 5 6\nemu 7 8 9\n", 3),  # records past the count
    ])
    def test_text_header_count_checked(self, tmp_path, blob, found):
        path = tmp_path / "counted.vec"
        path.write_bytes(blob)
        vocab = build_vocabulary([["cat", "dog", "goodish"]])
        declared = blob.split()[0].decode()
        with pytest.raises(ValueError, match=f"counted.vec: the header declares {declared} "
                                             f"vectors, {found} follow it"):
            load_vectors(path, vocab)

    def test_one_dim_binary_without_whitespace_bytes(self, tmp_path):
        # `cat <4 bytes>` splits into a word and one field, which is no number
        path = tmp_path / "v.bin"
        path.write_bytes(binary_fixture([("cat", [1.0]), ("dog", [2.0])]))
        vocab = build_vocabulary([["cat", "dog"]])
        matrix, matched = load_vectors(path, vocab)
        assert matched == {"cat", "dog"}
        assert matrix[1:].tolist() == [[1.0], [2.0]]

    SNIFF_CASES = [  # (file bytes, whether the body is text)
        (b"2 3\ncat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n", True),
        (b"2 3 \ncat 1.0 2.0 3.0 \ndog -1.0 0.5 0.25 \n", True),  # fastText .vec
        (b"2 3\n\n \r\n\t\ncat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n", True),  # blank lines first
        (binary_fixture(CAT_DOG), False),
        (b"2 3\n" + b"".join(w.encode() + b" " + np.asarray(v, dtype="<f4").tobytes()
                             for w, v in CAT_DOG), False),  # no record newlines
    ]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 13, 64])
    def test_sniff_chunk_size_changes_nothing(self, tmp_path, monkeypatch, chunk):
        vocab = build_vocabulary([["cat", "dog"]])
        path = tmp_path / "v"
        for blob, is_text in self.SNIFF_CASES:
            path.write_bytes(blob)
            expected = load_vectors(path, vocab)[0]
            with monkeypatch.context() as patch:
                patch.setattr(embed, "_CHUNK", chunk)
                stream = io.BytesIO(blob)
                stream.readline()
                assert embed._text_body(stream, 3) is is_text
                assert load_vectors(path, vocab)[0].tobytes() == expected.tobytes()
            assert expected[1:].tolist() == [[1.0, 2.0, 3.0], [-1.0, 0.5, 0.25]]

    def test_sniff_reads_a_binary_body_without_newlines_in_chunks(self, tmp_path):
        # 8,000 zero vectors of 300 values, no newline after the header: the
        # body is one 9.2 MiB line, which the sniff must not hold whole.
        path = tmp_path / "flat.bin"
        zeros = np.zeros(300, dtype="<f4").tobytes()
        path.write_bytes(b"8000 300\n" + b"".join(b"w%d " % i + zeros for i in range(8000)))
        vocab = build_vocabulary([["w0", "w7999"]])
        tracemalloc.start()
        try:
            matrix, matched = load_vectors(path, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matched == {"w0", "w7999"} and not matrix.any()
        assert peak < 4 << 20

    def test_fuzzed_tiny_vector_file(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]])
        path = tmp_path / "tiny.bin"

        def loads_or_rejects(data):
            path.write_bytes(data)
            try:
                matrix, _ = load_vectors(path, vocab)
            except ValueError:
                return
            assert matrix.shape[0] == len(vocab) and matrix.shape[1] <= len(data)

        # binary, then text with a `<count> <dim>` header
        for blob in (binary_fixture(CAT_DOG), b"2 3\ncat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n"):
            path.write_bytes(blob)
            assert load_vectors(path, vocab)[1] == {"cat", "dog"}
            for end in range(len(blob)):
                loads_or_rejects(blob[:end])
            for i in range(len(blob)):
                loads_or_rejects(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])


def words(n):
    return [f"w{i}" for i in range(n)]


def base_with_vectors(tmp_path, vocab_words, records, seed=0, **kwargs):
    """`build_base_matrix` for a static model whose vector file holds `records`."""
    path = tmp_path / "v.bin"
    path.write_bytes(binary_fixture(records))
    vocab = build_vocabulary([vocab_words])
    matrix, matched = build_base_matrix(vocab, len(records[0][1]), "static", seed,
                                        vectors_path=path, **kwargs)
    return vocab, matrix, matched


def unknown_draw(seed, stream, a, n_rows, dim):
    """The rows `build_base_matrix` draws for unmatched words, oracle version."""
    return np.random.default_rng(derive_seed(seed, stream)).uniform(-a, a, (n_rows, dim))


class TestVarianceMatchedInit:
    def test_half_width_matches_pooled_variance(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [(w, rng.normal(0, 0.7, 5).astype(np.float32)) for w in ("w1", "w3", "w4")]
        vocab, matrix, matched = base_with_vectors(tmp_path, words(7), records, seed=8)
        assert matched == {"w1", "w3", "w4"}
        matched_ids = [vocab.id(w) for w in ("w1", "w3", "w4")]
        a = np.sqrt(3 * np.var(matrix[matched_ids]))
        unknown_ids = [vocab.id(w) for w in ("w0", "w2", "w5", "w6")]
        assert np.array_equal(matrix[unknown_ids], unknown_draw(8, UNKNOWN_INIT, a, 4, 5))
        assert np.array_equal(matrix[matched_ids], np.array([r[1] for r in records], np.float64))

    def test_zero_variance_falls_back(self, tmp_path):
        records = [("w1", [0.5] * 4), ("w2", [0.5] * 4)]
        for rand_a in (0.25, 0.1):
            _, matrix, _ = base_with_vectors(tmp_path, words(6), records, rand_a=rand_a)
            unknown = matrix[[1, *range(4, 7)]]  # w0, w3, w4, w5
            assert np.array_equal(unknown, unknown_draw(0, UNKNOWN_INIT, rand_a, 4, 4))

    @pytest.mark.parametrize("unknown_init", ["variance_matched", "fixed"])
    def test_no_matched_rows_rejected(self, tmp_path, unknown_init):
        # A pre-trained variant whose file matches no vocabulary word would
        # train a random table, frozen when static: rejected, naming the file.
        with pytest.raises(ValueError, match=r"v\.bin: no vector matches a vocabulary word"):
            base_with_vectors(tmp_path, words(4), [("emu", [1.0] * 4)],
                              unknown_init=unknown_init)
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        vocab = build_vocabulary([words(4)])
        for variant in ("static", "non-static", "multichannel"):
            with pytest.raises(ValueError,
                               match=r"empty\.txt: no vector matches a vocabulary word"):
                build_base_matrix(vocab, 4, variant, seed=0, vectors_path=empty,
                                  unknown_init=unknown_init)

    def test_unknown_init_modes_have_one_message(self, tmp_path):
        # The config and the matrix builder read one list of modes.
        with pytest.raises(ValueError) as from_config:
            optim.TrainConfig(unknown_init="bogus")
        with pytest.raises(ValueError) as from_builder:
            build_base_matrix(build_vocabulary([words(4)]), 4, "static", seed=0,
                              vectors_path=tmp_path / "unread.bin", unknown_init="bogus")
        assert str(from_config.value) == str(from_builder.value) == "unknown unknown_init 'bogus'"

    def test_sampled_variance_within_5_percent(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [(w, rng.normal(0, 0.4, 50)) for w in ("w0", "w1")]
        _, matrix, _ = base_with_vectors(tmp_path, words(2002), records, seed=11)
        pooled = matrix[1:3].var()
        sampled = matrix[3:].var()  # 2000 * 50 = 1e5 entries
        assert abs(sampled - pooled) / pooled < 0.05

    def test_deterministic(self, tmp_path):
        records = [("w0", [0.3, -0.2, 0.1])]
        m1 = base_with_vectors(tmp_path, words(3), records, seed=9)[1]
        m2 = base_with_vectors(tmp_path, words(3), records, seed=9)[1]
        m3 = base_with_vectors(tmp_path, words(3), records, seed=10)[1]
        assert np.array_equal(m1, m2)
        assert np.array_equal(m1[1], m3[1])
        assert not np.array_equal(m1[2:], m3[2:])


class TestAssembleChannels:
    def setup_method(self):
        self.base = np.vstack([np.zeros((1, 6)),
                               np.random.default_rng(4).uniform(-0.25, 0.25, (11, 6))])

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
        rand_base, _ = build_base_matrix(build_vocabulary([words(11)]), 6, "rand", seed=6)
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
    def test_rand_ignores_vectors(self, tmp_path):
        p = tmp_path / "v.bin"
        p.write_bytes(binary_fixture(CAT_DOG))
        vocab = build_vocabulary([["cat", "dog"]])
        matrix, matched = build_base_matrix(vocab, 3, "rand", seed=1, vectors_path=p)
        assert matched == set()
        assert matrix.shape == (3, 3)
        assert np.all(matrix[PAD_ID] == 0.0)
        assert np.array_equal(matrix[1:], unknown_draw(1, RAND_MATRIX, 0.25, 2, 3))
        matrix, _ = build_base_matrix(vocab, 3, "rand", seed=1, rand_a=0.5)
        assert np.array_equal(matrix[1:], unknown_draw(1, RAND_MATRIX, 0.5, 2, 3))

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
        assert np.array_equal(matrix[[vocab.id("bird")]], unknown_draw(1, UNKNOWN_INIT, 0.25, 1, 3))
        matrix, _ = build_base_matrix(vocab, 3, "non-static", seed=1, vectors_path=p,
                                      unknown_init="fixed", rand_a=0.05)
        assert np.array_equal(matrix[[vocab.id("bird")]], unknown_draw(1, UNKNOWN_INIT, 0.05, 1, 3))
