"""The reference run's `learning`, `six-class` and `short` configs are runs
that learn: every variant's dev accuracy beats its dev split's majority
share by the config's margin.  The check reads no bits, so it holds on any
BLAS.  Its `wide` config reaches the GEMM helper.  The run's outputs keep
the bytes `reference_manifest.txt` names, on its numpy and BLAS library."""

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import reference_run
import synthdata

from sentconv import cli, corpus, embed, net, optim
from sentconv._seeds import DEV_SPLIT, derive_seed

HERE = Path(__file__).parent

MARGIN = 0.25  # measured: 0.97-1.00 against a majority share of 0.60
# Measured: static 0.50, the other variants 0.87-0.93, against a majority
# share of 0.23.  The planted vectors put every trigger word near one
# direction, so a static channel tells the five bigrams apart poorly.
SIX_CLASS_MARGIN = 0.15
# Measured: static 0.93, the other variants 1.00, against a majority share
# of 0.57 on sentences of 1-4 tokens and widths 3,4,5.
SHORT_MARGIN = 0.25


def _inputs(root, name, make_pairs, margin):
    """The config file, corpus and vector file of config `name`, and the dev
    accuracy a variant must reach on them."""
    text = reference_run.config_text(name)
    config = root / f"{name}.cfg"
    config.write_text(text, encoding="utf-8")
    settings = optim.parse_config(text)
    data, vectors, *_ = reference_run.write_inputs(root, make_pairs, settings.dim)
    token_lists, labels = corpus.tokenize_corpus(corpus.load_tsv(data))
    dataset = corpus.encode_corpus(token_lists, labels, corpus.build_vocabulary(token_lists),
                                   max(settings.widths))
    _, dev = corpus.select_dev_split(dataset, settings.dev_fraction,
                                     derive_seed(settings.seed, DEV_SPLIT, 0))
    share = np.bincount([ex.label for ex in dev.examples]).max() / len(dev)
    return config, data, vectors, share + margin


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("reference"), "learning",
                   synthdata.trigger_bigram_pairs, MARGIN)


@pytest.fixture(scope="module")
def six_class_inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("six-class"), "six-class",
                   synthdata.six_class_pairs, SIX_CLASS_MARGIN)


@pytest.fixture(scope="module")
def short_inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("short"), "short", synthdata.short_pairs,
                   SHORT_MARGIN)


def _dev_accuracy(config, data, vectors, variant, capsys) -> float:
    code = cli.main(["train", "--config", str(config), "--data", str(data),
                     "--vectors", str(vectors), "--variant", variant])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    return float(dict(line.split("\t") for line in out.splitlines())["dev_accuracy"])


@pytest.mark.parametrize("variant", embed.VARIANTS)
def test_learning_config_beats_the_majority_share(inputs, variant, capsys):
    *paths, floor = inputs
    assert _dev_accuracy(*paths, variant, capsys) >= floor


@pytest.mark.parametrize("variant", embed.VARIANTS)
def test_six_class_config_beats_the_majority_share(six_class_inputs, variant, capsys):
    *paths, floor = six_class_inputs
    assert _dev_accuracy(*paths, variant, capsys) >= floor


@pytest.mark.parametrize("variant", embed.VARIANTS)
def test_short_config_beats_the_majority_share(short_inputs, variant, capsys):
    *paths, floor = short_inputs
    assert _dev_accuracy(*paths, variant, capsys) >= floor


def test_wide_config_reaches_the_gemm_helper(tmp_path, monkeypatch, capsys):
    # Its calls' products cross net._HELPER_MIN_MACS, so with the helper on
    # (as where BLAS leaves a core idle) a run hands it GEMMs; the k=16
    # configs' calls all stay below the cut-over.
    *paths, _ = _inputs(tmp_path, "wide", synthdata.trigger_bigram_pairs, 0.0)
    matmul, counts = np.matmul, {"helper": 0}

    def counted_matmul(*args, **kwargs):
        counts["helper"] += threading.current_thread().name.startswith("sentconv-gemm")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(net, "_helper_on", True)
    monkeypatch.setattr(np, "matmul", counted_matmul)
    _dev_accuracy(*paths, "non-static", capsys)
    assert counts["helper"] > 0, counts


@pytest.mark.parametrize("name", list(reference_run.CONFIGS))
def test_long_held_out_file_spans_more_than_one_block(tmp_path, name):
    # Each line is padded to the widest filter, so it holds that many rows at least.
    settings = optim.parse_config(reference_run.config_text(name))
    make_pairs = reference_run.OWN_CORPUS.get(name, synthdata.trigger_bigram_pairs)
    *_, long = reference_run.write_inputs(tmp_path, make_pairs, settings.dim)
    lines = long.read_text(encoding="utf-8").splitlines()
    rows = sum(max(len(corpus.clean_and_tokenize(line)), max(settings.widths)) for line in lines)
    assert rows > net._BLOCK_ROWS


def _manifest(text):
    """The header line and the {path: sha256} of a manifest's text."""
    header, *lines = text.splitlines()
    return header, {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_outputs_keep_the_committed_bytes(tmp_path):
    # The run without CV, plus the `wide` non-static CV, whose calls reach
    # the GEMM helper where BLAS leaves a core idle: every output has the
    # bytes the committed manifest of the full run names.  Bytes are pinned
    # for one numpy and BLAS library only, which the manifest's header names.
    header, committed = _manifest((HERE / "reference_manifest.txt").read_text(encoding="utf-8"))
    if header != reference_run.header():
        pytest.skip(f"the manifest holds the bytes of {header[2:]}; this is "
                    f"{reference_run.header()[2:]}")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(net.__file__)))
    proc = subprocess.run([sys.executable, str(HERE / "reference_run.py"), str(tmp_path),
                           "--cv", "wide-non-static"], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    cv_output = re.compile(r"-cv(-report)?\.txt$")
    assert _manifest(proc.stdout) == (header, {
        path: digest for path, digest in committed.items()
        if not cv_output.search(path) or path.startswith("wide-non-static-")})
