"""Command-line behavior: exit codes, output formats, checkpoint round trips."""

import dataclasses
import errno
import gc
import hashlib
import math
import operator
import os
import re
import stat
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import synthdata
from sentconv import checkpoint, cli, corpus, embed, evaluate, net, optim
from sentconv.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from sentconv.cli import EXIT_CORRUPT, EXIT_OK, EXIT_QUERY, EXIT_USAGE, EXIT_VALIDATION, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset, config, vector file, and a trained multichannel checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    pairs = synthdata.separable_pairs(120, seed=13)
    data = root / "data.tsv"
    synthdata.write_tsv(data, pairs)

    config_text = (
        "variant = multichannel\nwidths = 2,3\nmaps_per_width = 3\ndim = 8\n"
        "keep_prob = 0.5\nbatch_size = 20\nmax_epochs = 3\npatience = 3\n"
        "seed = 7\ninit_scale = 0.1\n"
    )
    config = root / "model.cfg"
    config.write_text(config_text, encoding="utf-8")

    token_lists, _ = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    vectors = root / "vectors.bin"
    planted = synthdata.planted_vectors(vocab, 8, seed=5)
    with open(vectors, "wb") as fh:
        embed.write_word2vec_binary(fh, vocab.id_to_word[1:], planted[1:])

    ckpt = root / "model.ckpt"
    code = main(["train", "--config", str(config), "--data", str(data),
                 "--vectors", str(vectors), "--checkpoint", str(ckpt)])
    assert code == EXIT_OK
    return {"root": root, "data": data, "config": config, "vectors": vectors,
            "ckpt": ckpt, "vocab": vocab}


def _non_finite_vectors(workdir, tmp_path):
    """A vector file whose records for the first two vocabulary words hold inf and nan."""
    words = workdir["vocab"].id_to_word[1:3]
    path = tmp_path / "bad.bin"
    with open(path, "wb") as fh:
        embed.write_word2vec_binary(fh, words, np.array([[np.inf] * 8, [np.nan] * 8]))
    return path, words[0]


def _huge_header_vectors(tmp_path, header):
    """A vector file whose header declares vectors far larger than the file."""
    path = tmp_path / "huge.bin"
    path.write_bytes(header + b"\ncat " + bytes(8))
    return path


HUGE_HEADERS = [b"1 2000000000000", b"0 2000000000000"]


class TestTrainCommand:
    def test_cv_run_prints_csv_report(self, workdir, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code = main(["train", "--data", str(workdir["data"]), "--variant", "rand",
                     "--seed", "7", "--cv", "--out", str(out_file),
                     "--config", str(workdir["config"])])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        lines = captured.splitlines()
        assert lines[0].startswith("# seed=7 variant=rand config=")
        assert lines[1] == "fold,accuracy"
        assert len(lines) == 13  # comment + header + 10 folds + mean
        assert lines[-1].startswith("mean,")
        assert out_file.read_text(encoding="utf-8") == captured

    def test_cv_report_bytes(self, workdir, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluate, "run_cross_validation", lambda *args: [0.5, 0.75])
        out_file = tmp_path / "report.csv"
        code = main(["train", "--data", str(workdir["data"]), "--variant", "rand",
                     "--seed", "7", "--cv", "--out", str(out_file),
                     "--config", str(workdir["config"])])
        config = dataclasses.replace(optim.load_config(workdir["config"]), variant="rand")
        expected = (f"# seed=7 variant=rand config={evaluate.config_fingerprint(config)}\n"
                    "fold,accuracy\n0,0.500000\n1,0.750000\nmean,0.625000\n")
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected
        assert out_file.read_text(encoding="utf-8") == expected

    def test_cv_rerun_is_byte_identical(self, workdir, capsys):
        args = ["train", "--data", str(workdir["data"]), "--variant", "rand",
                "--seed", "7", "--cv", "--config", str(workdir["config"])]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_fit_mode_reports_and_writes_history(self, workdir, capsys, tmp_path):
        hist = tmp_path / "history.csv"
        code = main(["train", "--config", str(workdir["config"]),
                     "--data", str(workdir["data"]), "--vectors", str(workdir["vectors"]),
                     "--out", str(hist)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("seed\t7\nvariant\tmultichannel\n")
        assert "dev_accuracy\t" in out
        assert hist.read_text(encoding="utf-8").splitlines()[0] == "epoch,train_loss,dev_acc"

    def test_token_lists_are_dropped_before_the_fit(self, workdir, monkeypatch):
        class TokenLists(list):  # a list that a weak reference can follow
            pass

        load, fit, refs, alive = cli._load_and_encode, evaluate.fit_with_dev_split, [], []

        def recording_load(*args):
            dataset, vocab, token_lists = load(*args)
            token_lists = TokenLists(token_lists)
            refs.append(weakref.ref(token_lists))
            return dataset, vocab, token_lists

        def checked_fit(*args):
            gc.collect()
            alive.append(refs[0]() is not None)
            return fit(*args)

        monkeypatch.setattr(cli, "_load_and_encode", recording_load)
        monkeypatch.setattr(evaluate, "fit_with_dev_split", checked_fit)
        assert main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--variant", "rand"]) == EXIT_OK
        assert alive == [False]

    def test_rand_says_it_ignores_vectors(self, workdir, capsys, monkeypatch, tmp_path):
        # rand is the default variant, so a run that forgot `--variant static`
        # would otherwise train random embeddings without a word.  The file
        # is never opened.
        monkeypatch.setattr(evaluate, "run_cross_validation", lambda *args: [0.5, 0.75])
        for extra in ([], ["--cv"]):
            args = ["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                    "--variant", "rand"] + extra
            assert main(args) == EXIT_OK
            plain = capsys.readouterr()
            assert main(args + ["--vectors", str(tmp_path / "absent.bin")]) == EXIT_OK
            warned = capsys.readouterr()
            assert (plain.err, warned.out) == ("", plain.out)
            assert warned.err == ("sentconv: the rand variant draws its embeddings; "
                                  "--vectors is ignored\n")

    def test_static_without_vectors_is_validation_error(self, workdir, capsys):
        code = main(["train", "--data", str(workdir["data"]), "--variant", "static"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "sentconv: static variant requires pre-trained vectors\n"

    def test_static_on_headered_text_vectors(self, workdir, capsys, tmp_path):
        """A text file with word2vec's `<count> <dim>` header (fastText's
        `.vec`) trains the model that the binary file of the same vectors does."""
        vocab = workdir["vocab"]
        with open(workdir["vectors"], "rb") as fh:
            planted, _ = embed.parse_word2vec_binary(fh, vocab)
        text = tmp_path / "vectors.vec"
        with open(text, "wb") as fh:
            fh.write(f"{len(vocab) - 1} 8\n".encode("ascii"))
            embed.write_word2vec_text(fh, vocab.id_to_word[1:], planted[1:])
        outputs = []
        for vectors in (workdir["vectors"], text):
            code = main(["train", "--config", str(workdir["config"]), "--data",
                         str(workdir["data"]), "--vectors", str(vectors), "--variant", "static"])
            assert code == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        text.write_bytes(b"1 5\ngoodish 1 2 3 4 5\n")
        code = main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--vectors", str(text), "--variant", "static"])
        assert code == EXIT_VALIDATION
        assert f"{text}: file declares 5-dimensional vectors, expected 8" in capsys.readouterr().err

    @pytest.mark.parametrize("blob, message", [
        (b"", "no vector matches a vocabulary word"),
        (b"zzyzx 1 2 3 4 5 6 7 8\n", "no vector matches a vocabulary word"),
        (b"5 8\ngoodish 1 2 3 4 5 6 7 8\n", "the header declares 5 vectors, 1 follow it"),
    ])
    def test_vectors_that_fill_no_row_rejected(self, workdir, capsys, tmp_path, blob, message):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(blob)
        code = main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--vectors", str(vectors), "--variant", "static"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert f"{vectors}: {message}" in captured.err

    def test_missing_data_file(self, capsys):
        code = main(["train", "--data", "/nonexistent/d.tsv", "--variant", "rand"])
        assert code == EXIT_VALIDATION

    def test_malformed_dataset_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\tfine\nnot a pair\n", encoding="utf-8")
        code = main(["train", "--data", str(bad), "--variant", "rand"])
        assert code == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    def test_malformed_dataset_reported_before_missing_vectors(self, tmp_path, capsys):
        # The data is read before the vector file is asked for.
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\tfine\nnot a pair\n", encoding="utf-8")
        code = main(["train", "--data", str(bad), "--variant", "static"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"sentconv: {bad}: line 2: "
                                           "expected <label><TAB><sentence>\n")

    def test_one_class_corpus_rejected(self, tmp_path, capsys):
        # `inspect-data` describes such a corpus; `train` and `--cv` refuse
        # to fit it, since a one-class model predicts that class at 1.0.
        data = tmp_path / "one.tsv"
        data.write_text("".join(f"0\tsentence number {i} here\n" for i in range(11)),
                        encoding="utf-8")
        cfg = tmp_path / "one.cfg"
        cfg.write_text("variant = rand\ndim = 8\nwidths = 2,3\nmaps_per_width = 4\n"
                       "max_epochs = 2\n", encoding="utf-8")
        assert main(["inspect-data", "--data", str(data)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("c\t1\n")
        for extra in ([], ["--cv"]):
            code = main(["train", "--config", str(cfg), "--data", str(data)] + extra)
            captured = capsys.readouterr()
            assert code == EXIT_VALIDATION
            assert captured.out == ""
            assert captured.err == "sentconv: need at least two classes, got 1\n"

    def test_unknown_config_key_rejected(self, tmp_path, workdir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 1.0\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(workdir["data"])])
        assert code == EXIT_VALIDATION
        assert "unknown key" in capsys.readouterr().err

    def test_duplicate_config_key_rejected(self, tmp_path, workdir, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\nseed = 7\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(workdir["data"])])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err == "sentconv: line 2: duplicate key 'seed'\n"

    def test_non_contiguous_labels_rejected(self, tmp_path, capsys):
        data = tmp_path / "gap.tsv"
        data.write_text("0\tfine film\n5\tdull film\n" * 10, encoding="utf-8")
        code = main(["train", "--data", str(data), "--variant", "rand"])
        assert code == EXIT_VALIDATION
        assert "missing 1, 2, 3, 4" in capsys.readouterr().err

    def test_non_finite_vectors_rejected(self, workdir, tmp_path, capsys):
        vectors, word = _non_finite_vectors(workdir, tmp_path)
        code = main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--vectors", str(vectors), "--variant", "static"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert f"{vectors}: vector for {word!r} holds non-finite values" in captured.err

    @pytest.mark.parametrize("header", HUGE_HEADERS)
    def test_huge_vector_header_rejected(self, workdir, tmp_path, capsys, header):
        vectors = _huge_header_vectors(tmp_path, header)
        code = main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--vectors", str(vectors), "--variant", "static"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith(f"sentconv: {vectors}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("line", ["norm_limit = nan", "norm_limit = inf", "eps = nan",
                                      "init_scale = 0", "rand_init_a = -1"])
    def test_bad_float_config_value_rejected(self, workdir, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        key = line.split()[0]
        kept = [other for other in workdir["config"].read_text(encoding="utf-8").splitlines()
                if other.split()[0] != key]  # a repeated key is rejected before its value
        cfg.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
                     "--variant", "rand"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith(f"sentconv: {key} must be ")

    # Both configs ask for more than the 128 TiB a process can address, so the
    # allocation fails at once under any overcommit policy.
    @pytest.mark.parametrize("lines", [
        "widths = 3\nmaps_per_width = 100000000000\ndim = 300\n",  # 655 TiB of conv weights
        "widths = 3,4,100000000000000\n",  # 727 TiB of pad ids per sentence
    ], ids=["maps_per_width", "widths"])
    def test_unallocatable_sizes_exit_validation(self, workdir, tmp_path, capsys, lines):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("variant = rand\n" + lines, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(workdir["data"])])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith("sentconv: out of memory: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_divergence_names_tensor_epoch_and_batch(self, workdir, capsys, monkeypatch):
        calls = []
        original = net.backward

        def poisoned_backward(params, trace, labels):
            losses, grads = original(params, trace, labels)
            calls.append(None)
            if len(calls) == 2:  # the second batch's one backward call
                grads["output.biases"][0] = np.nan
            return losses, grads

        monkeypatch.setattr(net, "backward", poisoned_backward)
        code = main(["train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
                     "--vectors", str(workdir["vectors"])])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err == ("sentconv: diverged: non-finite gradient in output.biases "
                                "at epoch 1, batch 2\n")

    def test_usage_error_exit_code(self, capsys):
        assert main(["train"]) == EXIT_USAGE  # --data is required
        assert main(["no-such-command"]) == EXIT_USAGE

    # argparse's `int` reads "1_0" as 10 and an Arabic-Indic three as 3.
    @pytest.mark.parametrize("argv", [
        ["train", "--data", "missing.tsv", "--seed", "1_0"],
        ["train", "--data", "missing.tsv", "--seed", "\u0663"],
        ["neighbors", "--checkpoint", "missing.ckpt", "good", "--count", "1_0"],
        ["neighbors", "--checkpoint", "missing.ckpt", "good", "--count", "\u0663"]],
        ids=["seed-underscore", "seed-arabic-indic", "count-underscore", "count-arabic-indic"])
    def test_seed_and_count_are_ascii_decimal(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"sentconv: argument {argv[-2]}: invalid decimal_int value: "
                                f"{argv[-1]!r}\n")


def _predict_process(ckpt, stdin: bytes, source="-"):
    """`python -m sentconv predict` on `source`, fed `stdin`, under the C
    locale, whose stdin would pass undecodable bytes through."""
    return subprocess.run([sys.executable, "-m", "sentconv", "predict", "--checkpoint",
                           str(ckpt), "--input", source], input=stdin, capture_output=True,
                          env={**os.environ, "LC_ALL": "C"})


class TestPredictCommand:
    def test_probabilities_sum_to_one(self, workdir, capsys, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("this is goodish stuff\nutterly dreadful thing\n", encoding="utf-8")
        code = main(["predict", "--checkpoint", str(workdir["ckpt"]), "--input", str(inp)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        for line in lines:
            cls, dist = line.split("\t")
            probs = [float(x) for x in dist.split()]
            assert int(cls) in (0, 1)
            assert abs(sum(probs) - 1.0) <= 1e-9
            assert int(cls) == int(np.argmax(probs))

    def test_empty_line_is_all_pad_prediction(self, workdir, capsys, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("\n\n", encoding="utf-8")
        main(["predict", "--checkpoint", str(workdir["ckpt"]), "--input", str(inp)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]

        ckpt = load_checkpoint(workdir["ckpt"])
        ids = corpus.encode_and_pad([], ckpt.vocab, max(ckpt.config.widths))
        expected = net.predict_probs(ckpt.params, ids)
        got = [float(x) for x in lines[0].split("\t")[1].split()]
        assert np.allclose(got, expected, atol=1e-10)

    def test_same_line_twice_identical(self, workdir, capsys, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("f1 f2 goodish\nf1 f2 goodish\n", encoding="utf-8")
        main(["predict", "--checkpoint", str(workdir["ckpt"]), "--input", str(inp)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == lines[1]

    def test_stdin_input(self, workdir):
        proc = _predict_process(workdir["ckpt"], b"plainly goodish\n")
        assert proc.returncode == EXIT_OK
        assert len(proc.stdout.splitlines()) == 1

    def test_one_row_per_line(self, workdir, capsys, tmp_path):
        # U+2028 and a form feed are line breaks to `str.splitlines`, not to
        # the dataset reader; here they separate tokens within one line.
        text = "plainly goodish\u2028utterly dreadful\r\n\nf1\x0cf2 dreadful\n"
        spaced = tmp_path / "spaced.txt"
        spaced.write_text("plainly goodish utterly dreadful\n\nf1 f2 dreadful\n",
                          encoding="utf-8")
        main(["predict", "--checkpoint", str(workdir["ckpt"]), "--input", str(spaced)])
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == 3
        inp = tmp_path / "in.txt"
        inp.write_bytes(text.encode("utf-8"))
        assert main(["predict", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(inp)]) == EXIT_OK
        assert capsys.readouterr().out == expected
        proc = _predict_process(workdir["ckpt"], text.encode("utf-8"))
        assert proc.returncode == EXIT_OK
        assert proc.stdout.decode("utf-8") == expected

    def test_file_and_stdin_give_the_same_bytes(self, workdir, tmp_path):
        text = "a\rplainly goodish\r\nf1\x0cf2 dreadful\u2028caf\u00e9 \u00fcber\n\n"
        data = text.encode("utf-8")
        inp = tmp_path / "in.bin"
        inp.write_bytes(data)
        via_file = _predict_process(workdir["ckpt"], b"", str(inp))
        via_stdin = _predict_process(workdir["ckpt"], data)
        assert via_file.returncode == via_stdin.returncode == EXIT_OK
        assert len(via_file.stdout.splitlines()) == 4
        assert via_stdin.stdout == via_file.stdout

    def test_invalid_utf8_exits_validation_by_either_route(self, workdir, tmp_path):
        data = b"plainly goodish\ngood \xff line\n"
        inp = tmp_path / "in.bin"
        inp.write_bytes(data)
        for proc in (_predict_process(workdir["ckpt"], b"", str(inp)),
                     _predict_process(workdir["ckpt"], data)):
            assert proc.returncode == EXIT_VALIDATION
            assert proc.stdout == b""
            assert b"utf-8" in proc.stderr and b"Traceback" not in proc.stderr

    def test_closed_stdin_exits_validation(self, workdir):
        # The shell starts the command with no file descriptor 0 at all.
        proc = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m",
                               "sentconv", "predict", "--checkpoint", str(workdir["ckpt"])],
                              capture_output=True)
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stdout == b""
        assert b"Bad file descriptor" in proc.stderr and b"Traceback" not in proc.stderr

    def test_lines_are_encoded_one_block_at_a_time(self, workdir, capsys, tmp_path,
                                                    monkeypatch):
        # On an input of three blocks or more, only the first block's lines
        # and the line that ended it are encoded before the first score table.
        ckpt = load_checkpoint(workdir["ckpt"])
        lines = ["plainly goodish stuff here", "utterly dreadful thing"] * 3000
        encoded = [corpus.encode_and_pad(corpus.clean_and_tokenize(line), ckpt.vocab,
                                         max(ckpt.config.widths)) for line in lines]
        ends = np.cumsum([len(ids) for ids in encoded])
        assert ends[-1] > 2 * net._BLOCK_ROWS
        first = np.searchsorted(ends, net._BLOCK_ROWS, side="right")  # the first block's lines
        inp = tmp_path / "in.txt"
        inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        encode, score_tables, calls, at_tables = corpus.encode_and_pad, net._score_tables, [0], []

        def counted_encode(*args):
            calls[0] += 1
            return encode(*args)

        def recorded(rows, banks):
            at_tables.append(calls[0])
            return score_tables(rows, banks)

        monkeypatch.setattr(corpus, "encode_and_pad", counted_encode)
        monkeypatch.setattr(net, "_score_tables", recorded)
        assert main(["predict", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(inp)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == calls[0] == len(lines)
        assert at_tables[0] <= first + 1

    def test_three_classes_formatted_row_by_row(self, workdir, capsys, tmp_path):
        rng = np.random.default_rng(4)
        config = optim.TrainConfig(variant="rand", widths=(2, 3), maps_per_width=4, dim=8,
                                   init_scale=1.0)
        base = rng.normal(size=(len(workdir["vocab"]), 8))
        base[corpus.PAD_ID] = 0.0
        params = evaluate.initial_params(config, base, 3)
        params.output.weights[:] = rng.normal(scale=3.0, size=params.output.weights.shape)
        path = tmp_path / "three.ckpt"
        save_checkpoint(path, params, workdir["vocab"], config)
        lines = [" ".join(rng.choice(workdir["vocab"].id_to_word[1:], 6)) for _ in range(30)]
        inp = tmp_path / "in.txt"
        inp.write_text("\n".join(lines + [""]) + "\n", encoding="utf-8")
        assert main(["predict", "--checkpoint", str(path), "--input", str(inp)]) == EXIT_OK
        out = capsys.readouterr().out

        ckpt = load_checkpoint(path)
        sentences = [corpus.encode_and_pad(corpus.clean_and_tokenize(line), ckpt.vocab, 3)
                     for line in lines + [""]]
        probs, _ = net.loss_and_probs(net.predict_logits(ckpt.params, sentences),
                                      np.zeros(len(sentences), dtype=np.int64))
        assert set(np.argmax(probs, axis=1)) == {0, 1, 2}
        # The reference: each row formatted on its own.
        expected = "".join(f"{int(np.argmax(row))}\t" + " ".join(f"{p:.10f}" for p in row) + "\n"
                           for row in probs)
        assert out == expected

    def test_corrupt_checkpoint_exit_code(self, workdir, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(workdir["ckpt"].read_bytes()[:-8])
        code = main(["predict", "--checkpoint", str(corrupt), "--input", "-"])
        assert code == EXIT_CORRUPT
        assert "truncated" in capsys.readouterr().err


class TestNeighborsCommand:
    def test_default_count_and_columns(self, workdir, capsys):
        code = main(["neighbors", "--checkpoint", str(workdir["ckpt"]), "goodish"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4  # default count
        assert len(lines[0].split("\t")) == 4  # two channels, word + cosine each

    def test_planted_duplicate_listed_first(self, tmp_path, capsys):
        vocab = corpus.build_vocabulary([["query", "twin", "other", "noise"]])
        matrix = np.zeros((len(vocab), 4))
        matrix[vocab.id("query")] = [0.5, 0.5, 0.0, 0.0]
        matrix[vocab.id("twin")] = [0.5, 0.5, 0.0, 0.0]
        matrix[vocab.id("other")] = [-0.5, 0.2, 0.1, 0.0]
        matrix[vocab.id("noise")] = [0.0, 0.0, -1.0, 0.2]
        config = optim.TrainConfig(variant="static", widths=(2,), maps_per_width=2,
                                   dim=4, keep_prob=1.0)
        params = evaluate.initial_params(config, matrix, 2)
        path = tmp_path / "fixture.ckpt"
        save_checkpoint(path, params, vocab, config)

        code = main(["neighbors", "--checkpoint", str(path), "query", "--count", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "twin\t1.000"  # single channel: one column pair

    def test_unknown_word_exit_code(self, workdir, capsys):
        code = main(["neighbors", "--checkpoint", str(workdir["ckpt"]), "zzzqqq"])
        assert code == EXIT_QUERY
        assert "unknown word" in capsys.readouterr().err

    def test_pad_token_is_an_unknown_word(self, workdir, capsys):
        code = main(["neighbors", "--checkpoint", str(workdir["ckpt"]), corpus.PAD_TOKEN])
        captured = capsys.readouterr()
        assert code == EXIT_QUERY
        assert captured.out == ""
        assert f"unknown word {corpus.PAD_TOKEN!r}" in captured.err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_validation_error(self, workdir, capsys, count):
        code = main(["neighbors", "--checkpoint", str(workdir["ckpt"]), "goodish",
                     "--count", count])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert "at least 1" in captured.err


class TestInspectDataCommand:
    def test_reports_table_statistics(self, workdir, capsys):
        code = main(["inspect-data", "--data", str(workdir["data"]),
                     "--vectors", str(workdir["vectors"])])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        stats = dict(line.split("\t") for line in out.splitlines())
        assert stats["c"] == "2"
        assert stats["N"] == "120"
        assert int(stats["V"]) == len(workdir["vocab"]) - 1
        assert stats["V_pre"] == stats["V"]  # planted vectors cover everything
        assert stats["test"] == "cv"
        assert 4 <= int(stats["l"]) <= 9

    def test_vectors_optional(self, workdir, capsys):
        main(["inspect-data", "--data", str(workdir["data"])])
        assert "V_pre" not in capsys.readouterr().out

    def test_non_finite_vectors_rejected(self, workdir, tmp_path, capsys):
        vectors, word = _non_finite_vectors(workdir, tmp_path)
        code = main(["inspect-data", "--data", str(workdir["data"]), "--vectors", str(vectors)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert f"{vectors}: vector for {word!r} holds non-finite values" in captured.err

    @pytest.mark.parametrize("header", HUGE_HEADERS)
    def test_huge_vector_header_rejected(self, workdir, tmp_path, capsys, header):
        vectors = _huge_header_vectors(tmp_path, header)
        code = main(["inspect-data", "--data", str(workdir["data"]), "--vectors", str(vectors)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith(f"sentconv: {vectors}: ")
        assert "2000000000000" in captured.err

    def test_non_contiguous_labels_rejected(self, tmp_path, capsys):
        data = tmp_path / "gap.tsv"
        data.write_text("0\tfine film\n5\tdull film\n", encoding="utf-8")
        code = main(["inspect-data", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert "missing 1, 2, 3, 4" in captured.err

    def test_label_with_a_digit_group_underscore_rejected(self, tmp_path, capsys):
        # `int` reads "0_1" as 1, which would train it as class 1.
        data = tmp_path / "underscore.tsv"
        data.write_text("0_1\tfine film\n0\tdull film\n1\tgood film\n", encoding="utf-8")
        code = main(["inspect-data", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert "line 1: bad label '0_1'" in captured.err


class TestCheckpointRoundTrip:
    def test_save_load_save_identical_bytes(self, workdir, tmp_path):
        ckpt = load_checkpoint(workdir["ckpt"])
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, ckpt.params, ckpt.vocab, ckpt.config, ckpt.history_csv)
        assert again.read_bytes() == workdir["ckpt"].read_bytes()

    def test_loaded_model_predicts_identically(self, workdir):
        ckpt = load_checkpoint(workdir["ckpt"])
        reloaded = load_checkpoint(workdir["ckpt"])
        rng = np.random.default_rng(3)
        for _ in range(25):
            ids = rng.integers(0, len(ckpt.vocab), size=rng.integers(3, 10))
            a = net.predict_probs(ckpt.params, ids)
            b = net.predict_probs(reloaded.params, ids)
            assert np.array_equal(a, b)

    def test_frozen_table_loads_read_only(self, workdir):
        frozen, tuned = load_checkpoint(workdir["ckpt"]).params.channels  # multichannel
        assert not frozen.trainable and not frozen.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frozen.matrix[1, 0] = 0.0
        tuned.matrix[1, 0] += 1.0  # the fine-tuned table stays writeable

    def test_truncation_detected(self, workdir, tmp_path):
        blob = workdir["ckpt"].read_bytes()
        bad = tmp_path / "t.ckpt"
        bad.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)

    def test_magic_mismatch_detected(self, workdir, tmp_path):
        blob = workdir["ckpt"].read_bytes()
        bad = tmp_path / "m.ckpt"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_trailing_garbage_detected(self, workdir, tmp_path):
        bad = tmp_path / "g.ckpt"
        bad.write_bytes(workdir["ckpt"].read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(bad)

    def test_unsupported_version_detected(self, workdir, tmp_path):
        blob = bytearray(workdir["ckpt"].read_bytes())
        bad = tmp_path / "v.ckpt"
        for version in (1, 99):  # VERSION 1 files have no reader
            blob[4:8] = version.to_bytes(4, "little")
            bad.write_bytes(bytes(blob))
            with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
                load_checkpoint(bad)

    @pytest.mark.parametrize("word", ["", "two words", "tab\tword", "line\nbreak", "nbsp\xa0"])
    def test_word_the_vocabulary_blob_cannot_hold(self, workdir, tmp_path, word):
        # Tokens come from str.split(), so no text word is empty or holds whitespace.
        ckpt = load_checkpoint(workdir["ckpt"])
        vocab = corpus.Vocabulary(ckpt.vocab.id_to_word[1:] + [word])
        path = tmp_path / "bad-word.ckpt"
        with pytest.raises(ValueError, match="empty or holds whitespace"):
            save_checkpoint(path, ckpt.params, vocab, ckpt.config)
        assert not path.exists()

    def test_variant_flags_restored(self, workdir, tmp_path):
        vocab = workdir["vocab"]
        base = synthdata.planted_vectors(vocab, 8, seed=5)
        for variant in embed.VARIANTS:
            config = optim.TrainConfig(variant=variant, widths=(2, 3), maps_per_width=3,
                                       dim=8, keep_prob=0.4)
            params = evaluate.initial_params(config, base, 2)
            path = tmp_path / f"{variant}.ckpt"
            save_checkpoint(path, params, vocab, config)
            ckpt = load_checkpoint(path)
            assert [ch.trainable for ch in ckpt.params.channels] == \
                [ch.trainable for ch in params.channels], variant
            assert ckpt.params.keep_prob == ckpt.config.keep_prob == 0.4
            again = tmp_path / f"{variant}-again.ckpt"
            save_checkpoint(again, ckpt.params, ckpt.vocab, ckpt.config, ckpt.history_csv)
            assert again.read_bytes() == path.read_bytes(), variant
            # No per-tensor headers: the texts, the class count, then raw float64s.
            texts = [optim.config_to_text(config), "", "\n".join(vocab.id_to_word)]
            header = 8 + sum(4 + len(text.encode("utf-8")) for text in texts) + 4
            values = sum(tensor.size for _, tensor in net.all_tensors(params))
            assert path.stat().st_size == header + 8 * values, variant


class TestCheckpointDescribesTheModel:
    """`save_checkpoint` refuses a config that does not describe the model's
    tensors, channels, keep_prob or activation, and leaves the file alone."""

    @pytest.fixture
    def saved(self, workdir, tmp_path):
        vocab = workdir["vocab"]
        config = optim.TrainConfig(variant="rand", widths=(3, 5), maps_per_width=3, dim=8)
        params = evaluate.initial_params(config, synthdata.planted_vectors(vocab, 8, seed=5), 2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        return path, params, vocab, config

    @pytest.mark.parametrize("change, message", [
        ({"widths": (5, 3)}, "tensor shapes"), ({"dim": 9}, "tensor shapes"),
        ({"maps_per_width": 4}, "tensor shapes"), (None, "tensor shapes"),
        ({"variant": "static"}, "channels"), ({"activation": "tanh"}, "activation"),
        ({"keep_prob": 1.0}, "keep_prob")],
        ids=["widths-reordered", "dim", "maps", "vocabulary", "variant", "activation",
             "keep_prob"])
    def test_a_config_that_does_not_describe_the_model_raises(self, saved, change, message):
        path, params, vocab, config = saved
        before = path.read_bytes()
        if change is None:  # a vocabulary of another size than the tables
            vocab = corpus.Vocabulary(vocab.id_to_word[1:] + ["unheard"])
        else:
            config = dataclasses.replace(config, **change)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(path, params, vocab, config)
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [path.name]

    # Each config is stored as its text reads it back: a list of widths as a
    # tuple, a numpy float as a float.  Both once saved text that load refused.
    @pytest.mark.parametrize("change", [{"widths": [3, 5]}, {"norm_limit": np.float64(3.0)}],
                             ids=["list-widths", "numpy-float"])
    def test_what_save_writes_load_reads(self, saved, change):
        path, params, vocab, config = saved
        given = dataclasses.replace(config, **change)
        assert given == config
        save_checkpoint(path, params, vocab, given)
        assert load_checkpoint(path).config == given

    def test_the_unchecked_writer_writes_what_save_writes(self, saved, tmp_path):
        path, params, vocab, config = saved
        _write_unchecked(tmp_path / "unchecked.ckpt", params, vocab, optim.config_to_text(config))
        assert (tmp_path / "unchecked.ckpt").read_bytes() == path.read_bytes()


def _tiny_model(variant="rand"):
    """A tiny model, its vocabulary and config: widths 1 and 2, two classes."""
    vocab = corpus.build_vocabulary([["good", "bad", "film"]])
    config = optim.TrainConfig(variant=variant, widths=(1, 2), maps_per_width=1, dim=2)
    base = np.ones((len(vocab), 2))
    base[corpus.PAD_ID] = 0.0
    return evaluate.initial_params(config, base, 2), vocab, config


def _keep_classes(params, classes):
    """Cut the output layer to its first `classes` rows: a model can no longer
    be made so, but its writable output layer can still be changed."""
    params.output.weights = params.output.weights[:classes]
    params.output.biases = params.output.biases[:classes]


def _one_class(params):
    _keep_classes(params, 1)


class TestSaveRefusesWhatLoadRefuses:
    """`save_checkpoint` and `load_checkpoint` share one rule for what a
    checkpoint may hold, so save refuses, with load's reason, every model
    that load would refuse once written."""

    # A config change is a dict of fields: no such config can be made, so its
    # half of the rule is that making it raises load's reason.
    @pytest.mark.parametrize("spoil, message", [
        (_one_class, "need at least two classes, got 1"),
        ({"norm_limit": float("nan")}, "norm_limit must be finite, got nan"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        (lambda params: operator.setitem(params.output.weights, (0, 0), np.nan),
         "tensor output.weights holds non-finite values"),
        (lambda params: operator.setitem(params.filters[1].biases, 0, np.inf),
         "tensor conv2.biases holds non-finite values"),
        (lambda params: operator.setitem(params.channels[0].matrix, corpus.PAD_ID, 0.5),
         "pad row must be zero")],
        ids=["one-class", "nan-config", "zero-batch", "nan-weight", "inf-bias", "pad-row"])
    def test_save_refuses_with_the_reason_load_gives(self, tmp_path, spoil, message):
        params, vocab, config = _tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        before = path.read_bytes()
        config_text = optim.config_to_text(config)
        if isinstance(spoil, dict):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(config, **spoil)
            (key, value), = spoil.items()
            config_text = re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", config_text)
            message = f"bad embedded config: {message}"
        else:
            spoil(params)
            with pytest.raises(ValueError, match=re.escape(message)):
                save_checkpoint(path, params, vocab, config)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]
        unchecked = tmp_path / "unchecked.ckpt"
        _write_unchecked(unchecked, params, vocab, config_text)
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_checkpoint(unchecked)


class TestCheckpointMapping:
    """Loaded tensors are copy-on-write views of the mapped file, and a save
    replaces a file instead of rewriting it."""

    @pytest.fixture
    def copied(self, workdir, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(workdir["ckpt"].read_bytes())
        return path

    def test_load_copies_no_table(self, tmp_path):
        vocab = corpus.Vocabulary([f"w{i}" for i in range(3500)])
        config = optim.TrainConfig(variant="multichannel", widths=(2,), maps_per_width=2)
        base = np.random.default_rng(1).uniform(-0.25, 0.25, (len(vocab), config.dim))
        base[corpus.PAD_ID] = 0.0
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, evaluate.initial_params(config, base, 2), vocab, config)
        table = base.nbytes
        assert table >= 8 * 2**20
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table / 4, (peak, table)
        assert all(np.array_equal(ch.matrix, base) for ch in ckpt.params.channels)

    def test_write_to_a_loaded_table_never_reaches_the_file(self, copied):
        before = hashlib.sha256(copied.read_bytes()).hexdigest()
        tuned = load_checkpoint(copied).params.channels[1]  # multichannel
        assert tuned.trainable and tuned.matrix.flags.writeable
        tuned.matrix += 1.0
        assert hashlib.sha256(copied.read_bytes()).hexdigest() == before
        assert np.array_equal(load_checkpoint(copied).params.channels[1].matrix + 1.0,
                              tuned.matrix)

    def test_save_over_the_loaded_file(self, copied):
        # In a child process: a save that truncated the mapped file would
        # fault there, killing the child and not the test run.
        script = f"""
import numpy as np
from sentconv import net
from sentconv.checkpoint import load_checkpoint, save_checkpoint
path = {str(copied)!r}
before = open(path, "rb").read()
ckpt = load_checkpoint(path)
kept = [np.array(t) for _, t in net.all_tensors(ckpt.params)]
save_checkpoint(path, ckpt.params, ckpt.vocab, ckpt.config, ckpt.history_csv)
assert all(np.array_equal(t, k) for (_, t), k in zip(net.all_tensors(ckpt.params), kept))
again = load_checkpoint(path)
assert all(np.array_equal(t, k) for (_, t), k in zip(net.all_tensors(again.params), kept))
assert open(path, "rb").read() == before
print("ok")
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(checkpoint.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
        assert os.listdir(copied.parent) == [copied.name]

    def test_failed_save_leaves_the_old_file(self, workdir, copied, monkeypatch):
        before = copied.read_bytes()
        ckpt = load_checkpoint(workdir["ckpt"])
        reached = []

        class FullDisk:
            """A file whose write fails once the file would pass half the
            checkpoint's size, after the earlier writes reached the disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, data):
                if self.fh.tell() + memoryview(data).nbytes > len(before) // 2:
                    self.fh.flush()
                    reached.append(os.fstat(self.fh.fileno()).st_size)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open", lambda *args: FullDisk(open(*args)),
                            raising=False)
        with pytest.raises(OSError) as failed:
            save_checkpoint(copied, ckpt.params, ckpt.vocab, ckpt.config)
        assert failed.value.errno == errno.ENOSPC
        assert reached and reached[0] > 0  # bytes reached the temporary file
        assert copied.read_bytes() == before
        assert os.listdir(copied.parent) == [copied.name]

    def test_non_numeric_tensor_refused_before_any_file(self, workdir, copied):
        before = copied.read_bytes()
        ckpt = load_checkpoint(workdir["ckpt"])
        ckpt.params.output.biases = np.array(["not a number"] * 2, dtype=object)
        with pytest.raises(ValueError, match="tensor output.biases is not numeric"):
            save_checkpoint(copied, ckpt.params, ckpt.vocab, ckpt.config)
        assert copied.read_bytes() == before
        assert os.listdir(copied.parent) == [copied.name]

    def test_save_gives_the_mode_open_gives(self, workdir, tmp_path):
        ckpt = load_checkpoint(workdir["ckpt"])
        with open(tmp_path / "opened", "wb"):
            pass
        fresh = tmp_path / "fresh.ckpt"
        save_checkpoint(fresh, ckpt.params, ckpt.vocab, ckpt.config)
        assert fresh.stat().st_mode == (tmp_path / "opened").stat().st_mode
        fresh.chmod(0o640)
        save_checkpoint(fresh, ckpt.params, ckpt.vocab, ckpt.config)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640


def _write_unchecked(path, params, vocab, config_text, history_csv=""):
    """The checkpoint format written with no check that the config text is a
    config, or one that describes the model, as a faulty or foreign writer
    could leave a file."""
    with open(path, "wb") as fh:
        fh.write(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION))
        for text in (config_text, history_csv, "\n".join(vocab.id_to_word)):
            data = text.encode("utf-8")
            fh.write(struct.pack("<I", len(data)) + data)
        fh.write(struct.pack("<I", params.num_classes))
        for _, tensor in net.all_tensors(params):
            fh.write(np.ascontiguousarray(tensor, dtype="<f8"))


def _resaved(workdir, tmp_path, mutate, history_csv=""):
    """The trained checkpoint, changed by `mutate(params)` and written again
    by `_write_unchecked`."""
    ckpt = load_checkpoint(workdir["ckpt"])
    mutate(ckpt.params)
    path = tmp_path / "changed.ckpt"
    _write_unchecked(path, ckpt.params, ckpt.vocab, optim.config_to_text(ckpt.config),
                     history_csv)
    return path


class TestCheckpointRejections:
    @pytest.fixture(autouse=True)
    def one_line_input(self, tmp_path):
        self.input = tmp_path / "in.txt"
        self.input.write_text("plainly goodish\n", encoding="utf-8")

    def _predict(self, path, capsys):
        code = main(["predict", "--checkpoint", str(path), "--input", str(self.input)])
        return code, capsys.readouterr()

    # The writer stores no shapes, so tensors smaller than the config says
    # leave the reader short of bytes.
    # A one-class output layer would "predict" class 0 with probability 1.
    @pytest.mark.parametrize("change,message", [
        ("conv", "truncated"), ("output", "truncated"),
        ("no-classes", "two classes"), ("one-class", "two classes")])
    def test_shape_disagreeing_with_config(self, workdir, tmp_path, capsys, change, message):
        def reshape(params):
            if change == "conv":
                params.filters[0].weights = params.filters[0].weights[:, :, :-1]
            elif change == "output":
                params.output.weights = params.output.weights[:, :-1]
            else:
                _keep_classes(params, 0 if change == "no-classes" else 1)
        path = _resaved(workdir, tmp_path, reshape)
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert message in captured.err

    def test_a_one_class_checkpoint_gives_the_model_s_reason(self, workdir, tmp_path, capsys):
        code, captured = self._predict(_resaved(workdir, tmp_path, _one_class), capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert captured.err == "sentconv: corrupt checkpoint: need at least two classes, got 1\n"

    def test_non_finite_values(self, workdir, tmp_path, capsys):
        def poison(params):
            params.output.weights[0, 0] = np.nan
        path = _resaved(workdir, tmp_path, poison)
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_invalid_embedded_config(self, workdir, tmp_path, capsys):
        # No config holds nan, so the bad value is planted in the config text.
        ckpt = load_checkpoint(workdir["ckpt"])
        text = re.sub("(?m)^norm_limit = .*$", "norm_limit = nan",
                      optim.config_to_text(ckpt.config))
        path = tmp_path / "nan-config.ckpt"
        _write_unchecked(path, ckpt.params, ckpt.vocab, text)
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert "bad embedded config: norm_limit must be finite" in captured.err

    def test_non_utf8_string(self, workdir, tmp_path, capsys):
        marker = "history-\u00e9"
        path = _resaved(workdir, tmp_path, lambda params: None, history_csv=marker)
        blob = path.read_bytes()
        encoded = marker.encode("utf-8")
        assert blob.count(encoded) == 1
        path.write_bytes(blob.replace(encoded, encoded[:-2] + b"\xff\xfe"))
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert "UTF-8" in captured.err

    @pytest.mark.parametrize("replacement, word", [
        pytest.param(b"good sh", "good sh", id="good sh"),
        pytest.param(b"good\n\nh", "", id="good\n\nh")])
    def test_vocabulary_word_with_whitespace(self, workdir, tmp_path, capsys, replacement, word):
        path = _resaved(workdir, tmp_path, lambda params: None)
        blob = path.read_bytes()
        assert blob.count(b"\ngoodish\n") == 1
        path.write_bytes(blob.replace(b"\ngoodish\n", b"\n" + replacement + b"\n"))
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert f"vocabulary word {word!r} is empty or holds whitespace" in captured.err

    @pytest.mark.parametrize("field", ["dim", "classes"])
    def test_impossible_dims(self, workdir, tmp_path, capsys, monkeypatch, field):
        # The embedded config and the class count size every tensor.  Sizes
        # that need more bytes than the file holds are refused before any
        # array is allocated or any view of the mapped file is made for them.
        ckpt = load_checkpoint(workdir["ckpt"])
        path = tmp_path / "huge.ckpt"
        config = ckpt.config
        if field == "dim":
            config = dataclasses.replace(config, dim=1099511627776)
        _write_unchecked(path, ckpt.params, ckpt.vocab, optim.config_to_text(config))
        if field == "classes":
            blob = bytearray(path.read_bytes())
            at = len(blob) - 8 * sum(t.size for _, t in net.all_tensors(ckpt.params)) - 4
            assert blob[at:at + 4] == struct.pack("<I", ckpt.params.num_classes)
            blob[at:at + 4] = struct.pack("<I", 2**32 - 1)
            path.write_bytes(bytes(blob))
        size = path.stat().st_size
        empty, frombuffer = np.empty, np.frombuffer

        def bounded_empty(shape, dtype=float):
            assert np.dtype(dtype).itemsize * math.prod(shape) <= size, shape
            return empty(shape, dtype)

        def bounded_frombuffer(buffer, dtype=float, count=-1, offset=0):
            assert np.dtype(dtype).itemsize * count <= size, count
            return frombuffer(buffer, dtype, count, offset)

        monkeypatch.setattr(np, "empty", bounded_empty)
        monkeypatch.setattr(np, "frombuffer", bounded_frombuffer)
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert captured.err == "sentconv: corrupt checkpoint: truncated checkpoint\n"

    def test_fuzzed_tiny_checkpoint(self, tmp_path):
        self._fuzz(tmp_path, "rand")

    def test_fuzzed_tiny_multichannel_checkpoint(self, tmp_path):
        self._fuzz(tmp_path, "multichannel")

    @staticmethod
    def _fuzz(tmp_path, variant):
        """Every truncation is rejected; every flipped byte is rejected, or
        loads and saves back to its own bytes (save accepts what load does)."""
        params, vocab, config = _tiny_model(variant)
        path, again = tmp_path / "tiny.ckpt", tmp_path / "again.ckpt"
        save_checkpoint(path, params, vocab, config, "epoch,train_loss,dev_acc\n")
        blob = path.read_bytes()
        assert isinstance(load_checkpoint(path), Checkpoint)

        def loads_or_rejects(data):
            path.write_bytes(data)
            try:
                ckpt = load_checkpoint(path)
            except CheckpointError:
                return
            save_checkpoint(again, ckpt.params, ckpt.vocab, ckpt.config, ckpt.history_csv)
            assert again.read_bytes() == data

        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        for i in range(len(blob)):
            loads_or_rejects(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])


class TestModuleInvocation:
    @pytest.mark.parametrize("command", [["predict", "--input", "in.txt"],
                                         ["neighbors", "goodish"]])
    def test_checkpoint_loaded_through_the_cli_module(self, workdir, monkeypatch, capsys,
                                                      tmp_path, command):
        # The benchmark times `cli.load_checkpoint` by wrapping the module attribute.
        calls = []

        def recording_load(path):
            calls.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", recording_load)
        (tmp_path / "in.txt").write_text("plainly goodish\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = main([command[0], "--checkpoint", str(workdir["ckpt"]), *command[1:]])
        assert code == EXIT_OK
        assert calls == [str(workdir["ckpt"])]

    def test_python_dash_m_entry_point(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "sentconv", "inspect-data", "--data",
             str(workdir["data"])],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[0] == "c\t2"

    def test_usage_exit_code_via_subprocess(self):
        proc = subprocess.run([sys.executable, "-m", "sentconv"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
