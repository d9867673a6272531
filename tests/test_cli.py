"""Command-line behavior: exit codes, output formats, checkpoint round trips."""

import io
import subprocess
import sys

import numpy as np
import pytest

import synthdata
from sentconv import corpus, embed, evaluate, net, optim
from sentconv.cli import (
    EXIT_CORRUPT,
    EXIT_OK,
    EXIT_QUERY,
    EXIT_USAGE,
    EXIT_VALIDATION,
    CheckpointError,
    load_checkpoint,
    main,
    save_checkpoint,
)


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
        embed.write_word2vec_binary(fh, vocab.words(), planted[1:])

    ckpt = root / "model.ckpt"
    code = main(["train", "--config", str(config), "--data", str(data),
                 "--vectors", str(vectors), "--checkpoint", str(ckpt)])
    assert code == EXIT_OK
    return {"root": root, "data": data, "config": config, "vectors": vectors,
            "ckpt": ckpt, "vocab": vocab}


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

    def test_static_without_vectors_is_validation_error(self, workdir, capsys):
        code = main(["train", "--data", str(workdir["data"]), "--variant", "static"])
        assert code == EXIT_VALIDATION
        assert "requires --vectors" in capsys.readouterr().err

    def test_missing_data_file(self, capsys):
        code = main(["train", "--data", "/nonexistent/d.tsv", "--variant", "rand"])
        assert code == EXIT_VALIDATION

    def test_malformed_dataset_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\tfine\nnot a pair\n", encoding="utf-8")
        code = main(["train", "--data", str(bad), "--variant", "rand"])
        assert code == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, workdir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 1.0\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(workdir["data"])])
        assert code == EXIT_VALIDATION
        assert "unknown key" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["train"]) == EXIT_USAGE  # --data is required
        assert main(["no-such-command"]) == EXIT_USAGE


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

    def test_stdin_input(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("plainly goodish\n"))
        code = main(["predict", "--checkpoint", str(workdir["ckpt"])])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1

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
        blob[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "v.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

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


def _resaved(workdir, tmp_path, mutate, history_csv=""):
    """The trained checkpoint, changed by `mutate(params)` and saved again."""
    ckpt = load_checkpoint(workdir["ckpt"])
    mutate(ckpt.params)
    path = tmp_path / "changed.ckpt"
    save_checkpoint(path, ckpt.params, ckpt.vocab, ckpt.config, history_csv)
    return path


class TestCheckpointRejections:
    @pytest.fixture(autouse=True)
    def one_line_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("plainly goodish\n"))

    def _predict(self, path, capsys):
        code = main(["predict", "--checkpoint", str(path), "--input", "-"])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("change,message", [
        ("conv", "shape"), ("output", "shape"), ("no-classes", "no classes")])
    def test_shape_disagreeing_with_config(self, workdir, tmp_path, capsys, change, message):
        def reshape(params):
            if change == "conv":
                params.filters[0].weights = params.filters[0].weights[:, :, :-1]
            elif change == "output":
                params.output.weights = params.output.weights[:, :-1]
            else:
                params.output = net.OutputLayer(params.output.weights[:0],
                                                params.output.biases[:0])
        path = _resaved(workdir, tmp_path, reshape)
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert message in captured.err

    def test_non_finite_values(self, workdir, tmp_path, capsys):
        def poison(params):
            params.output.weights[0, 0] = np.nan
        path = _resaved(workdir, tmp_path, poison)
        code, captured = self._predict(path, capsys)
        assert code == EXIT_CORRUPT
        assert captured.out == ""
        assert "non-finite" in captured.err

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


class TestModuleInvocation:
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
