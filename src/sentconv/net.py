"""Forward and backward passes of the convolutional sentence classifier.

A sentence is a sequence of embedding rows (summed over channels, since
filters are shared across channels).  Each filter of width h produces one
feature per window, the feature map is max-pooled over positions, the
pooled vector is dropout-masked during training, and a linear layer plus
softmax yields class probabilities.  The backward pass is written by hand:
gradient flows only through each feature map's argmax window, only where
the activation was live, only through unmasked pooled units, and only into
trainable channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_ID
from .embed import EmbeddingChannel

ACTIVATIONS = ("relu", "tanh")


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (pre > 0.0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class FilterBank:
    """All filters of one width, stacked: weights (F, h, k), biases (F,)."""

    width: int
    weights: np.ndarray
    biases: np.ndarray


@dataclass
class OutputLayer:
    weights: np.ndarray  # (classes, total filters)
    biases: np.ndarray   # (classes,)


@dataclass
class ModelParams:
    channels: list[EmbeddingChannel]
    filters: list[FilterBank]
    output: OutputLayer
    keep_prob: float = 1.0
    activation: str = "relu"

    @property
    def num_classes(self) -> int:
        return self.output.weights.shape[0]

    @property
    def num_filters(self) -> int:
        return sum(bank.weights.shape[0] for bank in self.filters)

    @property
    def max_width(self) -> int:
        return max(bank.width for bank in self.filters)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs to replay one forward exactly."""

    token_ids: np.ndarray
    windows: list[np.ndarray]   # per width group: (n_windows, h, k), summed over channels
    preacts: list[np.ndarray]   # per width group: (n_windows, F)
    argmax: list[np.ndarray]    # per width group: (F,) first index of the max feature
    z: np.ndarray               # (m,) pooled features
    mask: np.ndarray | None     # (m,) 0/1 dropout mask, None at inference
    logits: np.ndarray
    train: bool


@dataclass
class Gradients:
    """Per-example loss gradients.

    Channel entries are sparse `(rows, vecs)` pairs (rows may repeat and are
    accumulated on use); static channels carry None.
    """

    channels: list
    filter_weights: list[np.ndarray]
    filter_biases: list[np.ndarray]
    output_weights: np.ndarray
    output_biases: np.ndarray

    def dense_channel(self, index: int, shape) -> np.ndarray:
        dense = np.zeros(shape, dtype=np.float64)
        entry = self.channels[index]
        if entry is not None:
            rows, vecs = entry
            np.add.at(dense, rows, vecs)
        return dense


def init_params(channels: list[EmbeddingChannel], num_classes: int, widths,
                maps_per_width: int, seed: int, *, keep_prob: float = 1.0,
                activation: str = "relu", init_scale: float = 0.01) -> ModelParams:
    """Fresh parameters: filter/output weights U[-init_scale, init_scale], zero biases."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    dim = channels[0].dim
    rng = np.random.default_rng(seed)
    banks = []
    for h in widths:
        weights = rng.uniform(-init_scale, init_scale, size=(maps_per_width, h, dim))
        banks.append(FilterBank(h, weights, np.zeros(maps_per_width)))
    m = maps_per_width * len(list(widths))
    out_w = rng.uniform(-init_scale, init_scale, size=(num_classes, m))
    return ModelParams(channels, banks, OutputLayer(out_w, np.zeros(num_classes)),
                       keep_prob=keep_prob, activation=activation)


def summed_embedding(channels, token_ids: np.ndarray) -> np.ndarray:
    """Row lookups summed over channels: filters are shared, so adding the
    per-channel windows before the dot product equals adding the responses."""
    total = channels[0].matrix[token_ids]
    for ch in channels[1:]:
        total = total + ch.matrix[token_ids]
    return total


def _window_stack(embedded: np.ndarray, h: int) -> np.ndarray:
    """(n, k) -> (n - h + 1, h, k) sliding windows; needs n >= h."""
    view = np.lib.stride_tricks.sliding_window_view(embedded, h, axis=0)
    return np.ascontiguousarray(view.transpose(0, 2, 1))


def forward(params: ModelParams, token_ids, *, train: bool = False,
            rng: np.random.Generator | None = None,
            mask: np.ndarray | None = None):
    """One forward pass; returns (logits, trace).

    Train mode masks the pooled vector with a fresh (or supplied) 0/1
    dropout mask.  Inference mode applies no mask and scales the output
    weights by keep_prob on the fly, leaving the stored weights untouched.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.shape[0] < params.max_width:
        raise ValueError("sentence shorter than the widest filter; pad it first")
    embedded = summed_embedding(params.channels, token_ids)

    windows, preacts, argmaxes, pooled = [], [], [], []
    for bank in params.filters:
        win = _window_stack(embedded, bank.width)
        flat = win.reshape(win.shape[0], -1)
        pre = flat @ bank.weights.reshape(bank.weights.shape[0], -1).T + bank.biases
        act = _activate(pre, params.activation)
        arg = np.argmax(act, axis=0)
        windows.append(win)
        preacts.append(pre)
        argmaxes.append(arg)
        pooled.append(act[arg, np.arange(act.shape[1])])
    z = np.concatenate(pooled)

    if train:
        if mask is None:
            if params.keep_prob >= 1.0:
                mask = np.ones_like(z)
            elif rng is None:
                raise ValueError("train-mode forward needs an rng or an explicit mask")
            else:
                mask = (rng.random(z.shape[0]) < params.keep_prob).astype(np.float64)
        else:
            mask = np.asarray(mask, dtype=np.float64)
        logits = params.output.weights @ (z * mask) + params.output.biases
    else:
        mask = None
        logits = (params.keep_prob * params.output.weights) @ z + params.output.biases

    trace = ForwardTrace(token_ids, windows, preacts, argmaxes, z, mask, logits, train)
    return logits, trace


def loss_and_probs(logits: np.ndarray, label: int):
    """Stable softmax probabilities and the negative log-likelihood of `label`."""
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    return np.exp(log_probs), float(-log_probs[label])


def backward(params: ModelParams, trace: ForwardTrace, label: int) -> Gradients:
    """Analytic gradients of the cross-entropy loss for one example.

    Dropout-masked pooled units contribute zero everywhere upstream; each
    filter's gradient flows only through its argmax window and only where
    the activation derivative is nonzero; embedding gradients cover only
    trainable channels and never the pad row.
    """
    if not trace.train:
        raise ValueError("backward needs a train-mode trace")
    if len(trace.windows) != len(params.filters) or \
            trace.z.shape[0] != params.output.weights.shape[1] or \
            trace.logits.shape[0] != params.num_classes:
        raise ValueError("trace does not match params")

    probs, _ = loss_and_probs(trace.logits, label)
    dlogits = probs.copy()
    dlogits[label] -= 1.0

    masked_z = trace.z * trace.mask
    d_out_w = np.outer(dlogits, masked_z)
    d_out_b = dlogits.copy()
    dz = (params.output.weights.T @ dlogits) * trace.mask

    filter_w_grads, filter_b_grads = [], []
    all_rows, all_vecs = [], []
    offset = 0
    for g, bank in enumerate(params.filters):
        n_maps = bank.weights.shape[0]
        h = bank.width
        dz_g = dz[offset:offset + n_maps]
        offset += n_maps
        arg = trace.argmax[g]
        pre_win = trace.preacts[g][arg, np.arange(n_maps)]
        dpre = dz_g * _activate_grad(pre_win, params.activation)
        filter_w_grads.append(dpre[:, None, None] * trace.windows[g][arg])
        filter_b_grads.append(dpre.copy())
        rows = trace.token_ids[arg[:, None] + np.arange(h)[None, :]]
        vecs = dpre[:, None, None] * bank.weights
        keep = rows.ravel() != PAD_ID
        all_rows.append(rows.ravel()[keep])
        all_vecs.append(vecs.reshape(n_maps * h, -1)[keep])

    rows = np.concatenate(all_rows)
    vecs = np.concatenate(all_vecs)
    channel_grads = [(rows, vecs) if ch.trainable else None for ch in params.channels]
    return Gradients(channel_grads, filter_w_grads, filter_b_grads, d_out_w, d_out_b)


def predict_probs(params: ModelParams, token_ids) -> np.ndarray:
    logits, _ = forward(params, token_ids, train=False)
    probs, _ = loss_and_probs(logits, 0)
    return probs


def predict_class(params: ModelParams, token_ids) -> int:
    logits, _ = forward(params, token_ids, train=False)
    return int(np.argmax(logits))


def accuracy(params: ModelParams, examples) -> float:
    """Fraction of examples whose inference-mode argmax class is the label."""
    examples = list(examples)
    if not examples:
        raise ValueError("no examples to score")
    hits = sum(predict_class(params, ex.token_ids) == ex.label for ex in examples)
    return hits / len(examples)


def all_tensors(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Named views of every tensor, static channels included, in update order."""
    tensors = [(f"channel{i}", ch.matrix) for i, ch in enumerate(params.channels)]
    for bank in params.filters:
        tensors.append((f"conv{bank.width}.weights", bank.weights))
        tensors.append((f"conv{bank.width}.biases", bank.biases))
    tensors.append(("output.weights", params.output.weights))
    tensors.append(("output.biases", params.output.biases))
    return tensors


def trainable_tensors(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """`all_tensors` without the frozen channels: what the optimizer updates."""
    frozen = {f"channel{i}" for i, ch in enumerate(params.channels) if not ch.trainable}
    return [(name, tensor) for name, tensor in all_tensors(params) if name not in frozen]


def clone_params(params: ModelParams) -> ModelParams:
    channels = [EmbeddingChannel(ch.matrix.copy(), ch.trainable) for ch in params.channels]
    banks = [FilterBank(b.width, b.weights.copy(), b.biases.copy()) for b in params.filters]
    output = OutputLayer(params.output.weights.copy(), params.output.biases.copy())
    return ModelParams(channels, banks, output, keep_prob=params.keep_prob,
                       activation=params.activation)
