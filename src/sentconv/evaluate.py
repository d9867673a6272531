"""Accuracy, the 10-fold cross-validation protocol, and channel neighbor lists."""

from __future__ import annotations

import hashlib

import numpy as np

from . import corpus, embed, net, optim
from ._seeds import DEV_SPLIT, FOLDS, PARAMS, derive_seed
from .corpus import Dataset, Vocabulary


def config_fingerprint(config: optim.TrainConfig) -> str:
    return hashlib.sha256(optim.config_to_text(config).encode("utf-8")).hexdigest()[:12]


def cv_fold_plan(n_examples: int, config: optim.TrainConfig,
                 n_folds: int = 10) -> np.ndarray:
    """Each example's fold index: a function of the seed only, so every
    model variant run with the same seed shares it."""
    return corpus.assign_folds(n_examples, n_folds, derive_seed(config.seed, FOLDS))


def initial_params(config: optim.TrainConfig, base_matrix, num_classes: int) -> net.ModelParams:
    """Variant channels plus freshly initialized filters and output layer.

    The parameter draw depends only on the seed and the architecture, never
    on the variant, so variant comparisons start from identical filters.
    """
    channels = embed.assemble_channels(config.variant, base_matrix)
    return net.init_params(channels, num_classes, config.widths, config.maps_per_width,
                           derive_seed(config.seed, PARAMS), keep_prob=config.keep_prob,
                           activation=config.activation, init_scale=config.init_scale)


def fit_with_dev_split(params: net.ModelParams, dataset: Dataset, config: optim.TrainConfig,
                       fold: int = 0) -> optim.FitResult:
    """Fit on `dataset` minus the fold's seeded dev split, which drives early stopping."""
    train_ds, dev_ds = corpus.select_dev_split(dataset, config.dev_fraction,
                                               derive_seed(config.seed, DEV_SPLIT, fold))
    return optim.fit(params, train_ds.examples, dev_ds.examples, config, fold=fold)


def run_cross_validation(dataset: Dataset, config: optim.TrainConfig,
                         params0: net.ModelParams, n_folds: int = 10) -> list[float]:
    """For each fold of a seed-fixed plan, train a clone of `params0` on the other
    9 folds, with an inner dev split for early stopping; returns the held-out folds'
    accuracies in order.  A model `config` does not describe raises at fold 0."""
    plan = cv_fold_plan(len(dataset), config, n_folds)

    accuracies = []
    for fold in range(n_folds):
        result = fit_with_dev_split(net.clone_params(params0),
                                    dataset.subset(np.flatnonzero(plan != fold)), config, fold)
        accuracies.append(net.accuracy(result.params,
                                       dataset.subset(np.flatnonzero(plan == fold)).examples))
    return accuracies


def nearest_neighbors(channel_matrix, vocab: Vocabulary, query: str,
                      count: int = 4) -> list[tuple[str, float]]:
    """Non-pad words ranked by cosine similarity to the query row.

    Zero-norm rows (and every row when the query row itself has zero norm)
    get similarity -1, ranking last; ties break on the smaller word id.
    """
    if query not in vocab:
        raise ValueError(f"unknown word {query!r}")
    matrix = np.asarray(channel_matrix, dtype=np.float64)
    qid = vocab.id(query)
    if count < 1:
        raise ValueError(f"requested {count} neighbors; the count must be at least 1")
    if count > len(vocab) - 2:
        raise ValueError(f"requested {count} neighbors but only {len(vocab) - 2} candidates exist")
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    sims = np.full(len(matrix), -1.0)
    if norms[qid] > 0.0:
        ok = norms > 0.0
        sims[ok] = (matrix @ matrix[qid])[ok] / (norms[ok] * norms[qid])
    candidates = np.delete(np.arange(len(vocab)), [corpus.PAD_ID, qid])
    sims = sims[candidates]
    order = np.lexsort((candidates, -sims))[:count]
    return [(vocab.id_to_word[candidates[i]], float(sims[i])) for i in order]


def neighbor_report(params: net.ModelParams, vocab: Vocabulary, query: str,
                    count: int = 4) -> list[list[tuple[str, float]]]:
    """`nearest_neighbors` of the query in each channel, in channel order."""
    return [nearest_neighbors(ch.matrix, vocab, query, count) for ch in params.channels]
