"""Convolutional sentence classification over word vectors, from scratch.

Single-layer convolution with multiple filter widths, max-over-time pooling,
dropout with test-time weight scaling, an L2 row-norm constraint, Adadelta
updates, and one or two embedding channels (static and/or fine-tuned).
"""

from . import checkpoint, cli, corpus, embed, evaluate, net, optim
from .corpus import (
    Dataset,
    Example,
    FoldPlan,
    Vocabulary,
    assign_folds,
    build_vocabulary,
    clean_and_tokenize,
    encode_and_pad,
    select_dev_split,
)
from .embed import EmbeddingChannel, assemble_channels, build_base_matrix
from .evaluate import (
    CvReport,
    NeighborReport,
    accuracy,
    nearest_neighbors,
    run_cross_validation,
)
from .net import ModelParams, backward, loss_and_probs
from .optim import TrainConfig, fit, parse_config

__all__ = [
    "checkpoint", "cli", "corpus", "embed", "evaluate", "net", "optim",
    "Dataset", "Example", "FoldPlan", "Vocabulary",
    "assign_folds", "build_vocabulary", "clean_and_tokenize", "encode_and_pad",
    "select_dev_split",
    "EmbeddingChannel", "assemble_channels", "build_base_matrix",
    "CvReport", "NeighborReport", "accuracy", "nearest_neighbors",
    "run_cross_validation",
    "ModelParams", "backward", "loss_and_probs",
    "TrainConfig", "fit", "parse_config",
]

__version__ = "0.1.0"
