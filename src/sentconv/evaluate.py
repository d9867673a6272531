"""Accuracy, the 10-fold cross-validation protocol, and channel neighbor lists."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import corpus, embed, net, optim
from ._seeds import DEV_SPLIT, FOLDS, PARAMS, derive_seed
from .corpus import Dataset, Vocabulary
from .net import accuracy


@dataclass
class CvReport:
    accuracies: list[float]
    mean: float
    config_fingerprint: str
    seed: int

    def to_csv(self) -> str:
        lines = ["fold,accuracy"]
        lines += [f"{i},{acc:.6f}" for i, acc in enumerate(self.accuracies)]
        lines.append(f"mean,{self.mean:.6f}")
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = [f"seed\t{self.seed}", f"config\t{self.config_fingerprint}"]
        lines += [f"{i}\t{acc:.6f}" for i, acc in enumerate(self.accuracies)]
        lines.append(f"mean\t{self.mean:.6f}")
        return "\n".join(lines) + "\n"


def config_fingerprint(config: optim.TrainConfig) -> str:
    return hashlib.sha256(optim.config_to_text(config).encode("utf-8")).hexdigest()[:12]


def cv_fold_plan(n_examples: int, config: optim.TrainConfig,
                 n_folds: int = 10) -> corpus.FoldPlan:
    """The fold plan for a dataset: a function of the seed only, so every
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


def run_cross_validation(dataset: Dataset, config: optim.TrainConfig, base_matrix,
                         n_folds: int = 10) -> CvReport:
    """Train on 9 folds (with an inner dev split for early stopping) and score
    the held-out fold, for each fold in a seed-fixed plan."""
    config.validate()
    plan = cv_fold_plan(len(dataset), config, n_folds)
    params0 = initial_params(config, base_matrix, dataset.num_classes)

    accuracies = []
    for fold in range(n_folds):
        test_idx = plan.indices(fold)
        train_idx = np.flatnonzero(plan.fold_of != fold)
        train_ds, dev_ds = corpus.select_dev_split(
            dataset.subset(train_idx), config.dev_fraction,
            derive_seed(config.seed, DEV_SPLIT, fold))
        result = optim.fit(net.clone_params(params0), train_ds.examples,
                           dev_ds.examples, config, fold=fold)
        accuracies.append(accuracy(result.params, dataset.subset(test_idx).examples))
    return CvReport(accuracies, float(np.mean(accuracies)),
                    config_fingerprint(config), config.seed)


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
    candidates = np.array([i for i in range(1, len(vocab)) if i != qid], dtype=np.int64)
    if count < 1:
        raise ValueError(f"requested {count} neighbors; the count must be at least 1")
    if count > candidates.size:
        raise ValueError(f"requested {count} neighbors but only {candidates.size} candidates exist")
    q = matrix[qid]
    q_norm = np.linalg.norm(q)
    rows = matrix[candidates]
    norms = np.linalg.norm(rows, axis=1)
    sims = np.full(candidates.size, -1.0)
    if q_norm > 0.0:
        ok = norms > 0.0
        sims[ok] = rows[ok] @ q / (norms[ok] * q_norm)
    order = np.lexsort((candidates, -sims))[:count]
    return [(vocab.id_to_word[candidates[i]], float(sims[i])) for i in order]


@dataclass
class NeighborReport:
    query: str
    channels: list[list[tuple[str, float]]]

    def to_tsv(self) -> str:
        lines = []
        for rank in range(len(self.channels[0])):
            cells = []
            for channel in self.channels:
                word, sim = channel[rank]
                cells.append(f"{word}\t{sim:.3f}")
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def neighbor_report(params: net.ModelParams, vocab: Vocabulary, query: str,
                    count: int = 4) -> NeighborReport:
    ranked = [nearest_neighbors(ch.matrix, vocab, query, count) for ch in params.channels]
    return NeighborReport(query, ranked)
