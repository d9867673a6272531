"""The reference run's `learning` config is a run that learns: every variant's
dev accuracy beats its dev split's majority share by MARGIN.  The check reads
no bits, so it holds on any BLAS."""

import numpy as np
import pytest
import reference_run

from sentconv import cli, corpus, embed, optim
from sentconv._seeds import DEV_SPLIT, derive_seed

MARGIN = 0.25  # measured: 0.97-1.00 against a majority share of 0.60


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    text = reference_run.BASE + reference_run.CONFIGS["learning"]
    config = root / "learning.cfg"
    config.write_text(text, encoding="utf-8")
    data, vectors, _ = reference_run.write_inputs(root)
    settings = optim.parse_config(text)
    token_lists, labels = corpus.tokenize_corpus(corpus.load_tsv(data))
    dataset = corpus.encode_corpus(token_lists, labels, corpus.build_vocabulary(token_lists),
                                   max(settings.widths))
    _, dev = corpus.select_dev_split(dataset, settings.dev_fraction,
                                     derive_seed(settings.seed, DEV_SPLIT, 0))
    share = np.bincount([ex.label for ex in dev.examples]).max() / len(dev)
    return config, data, vectors, share


@pytest.mark.parametrize("variant", embed.VARIANTS)
def test_learning_config_beats_the_majority_share(inputs, variant, capsys):
    config, data, vectors, share = inputs
    code = cli.main(["train", "--config", str(config), "--data", str(data),
                     "--vectors", str(vectors), "--variant", variant])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = dict(line.split("\t") for line in out.splitlines())
    assert float(report["dev_accuracy"]) >= share + MARGIN
