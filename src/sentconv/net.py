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
_CHUNK_ROWS = 1024  # rows per batched-inference GEMM; 512 and 2,048 time the same


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
    embedded: np.ndarray        # (n, k) row lookups summed over channels
    preacts: list[np.ndarray]   # per width group: (n_windows, F)
    argmax: list[np.ndarray]    # per width group: (F,) first index of the max feature
    z: np.ndarray               # (m,) pooled features
    mask: np.ndarray | None     # (m,) 0/1 dropout mask; None marks an inference trace
    logits: np.ndarray


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


def _conv(params: ModelParams, token_ids: np.ndarray) -> list[np.ndarray]:
    """Per filter width h, the (n - h + 1, F) preactivations of every window
    of the n tokens `token_ids`; needs n >= h.  Offset j of a window scores
    its token's row against every filter's offset-j slice, which depends only
    on the token, so each distinct token is scored once: one GEMM of the U
    distinct tokens' summed rows against the free (F·h, k) view of the
    weights gives a (U, F, h) table, stored offset-major, and window p sums,
    offsets in order, offset j's scores of the token at p + j."""
    distinct, inverse = np.unique(token_ids, return_inverse=True)
    rows = summed_embedding(params.channels, distinct)
    n = token_ids.shape[0]
    preacts = []
    for bank in params.filters:
        n_maps, h, k = bank.weights.shape
        table = (rows @ bank.weights.reshape(n_maps * h, k).T).reshape(-1, n_maps, h)
        table = np.ascontiguousarray(table.transpose(2, 0, 1))
        n_windows = n - h + 1
        pre = table[0].take(inverse[:n_windows], axis=0)
        for j in range(1, h):
            pre += table[j].take(inverse[j:j + n_windows], axis=0)
        pre += bank.biases
        preacts.append(pre)
    return preacts


def _sentences(params: ModelParams, sentences) -> tuple[list[np.ndarray], np.ndarray]:
    """The sentences as int64 arrays and their lengths; each must hold a
    window of the widest filter."""
    sentences = [np.asarray(ids, dtype=np.int64) for ids in sentences]
    lengths = np.array([len(ids) for ids in sentences], dtype=np.int64)
    if np.any(lengths < params.max_width):
        raise ValueError("sentence shorter than the widest filter; pad it first")
    return sentences, lengths


def _ragged_pool(params: ModelParams, preacts: list[np.ndarray], lengths: np.ndarray):
    """Max-over-time of sentences whose rows were concatenated without
    padding and convolved as one sequence by `_conv`.

    Windows that run past their sentence's last row are set to -inf after
    the activation, so the max from each sentence's first row pools its own
    windows only.  Returns the (B, m) pooled features and, per width, the
    masked (n_windows, F) activations.
    """
    starts = np.cumsum(lengths) - lengths
    row_end = np.repeat(starts + lengths, lengths)  # per row: one past its sentence's end
    acts, pooled = [], []
    for bank, pre in zip(params.filters, preacts):
        act = _activate(pre, params.activation)
        n_windows = act.shape[0]
        act[np.arange(n_windows) + bank.width > row_end[:n_windows]] = -np.inf
        acts.append(act)
        pooled.append(np.maximum.reduceat(act, starts, axis=0))
    return np.concatenate(pooled, axis=1), acts


def forward(params: ModelParams, token_ids, mask: np.ndarray | None = None):
    """One forward pass; returns (logits, trace).

    A 0/1 dropout `mask` over the pooled vector makes it a training pass
    whose trace `backward` accepts.  Without one it is inference: no mask,
    and the output weights are scaled by keep_prob on the fly, leaving the
    stored weights untouched.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.shape[0] < params.max_width:
        raise ValueError("sentence shorter than the widest filter; pad it first")
    embedded = summed_embedding(params.channels, token_ids)

    preacts = _conv(params, token_ids)
    argmaxes, pooled = [], []
    for pre in preacts:
        act = _activate(pre, params.activation)
        arg = np.argmax(act, axis=0)
        argmaxes.append(arg)
        pooled.append(act[arg, np.arange(act.shape[1])])
    z = np.concatenate(pooled)

    if mask is None:
        logits = (params.keep_prob * params.output.weights) @ z + params.output.biases
    else:
        mask = np.asarray(mask, dtype=np.float64)
        logits = params.output.weights @ (z * mask) + params.output.biases

    trace = ForwardTrace(token_ids, embedded, preacts, argmaxes, z, mask, logits)
    return logits, trace


def loss_and_probs(logits: np.ndarray, label: int):
    """Stable softmax probabilities and the negative log-likelihood of `label`."""
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    return np.exp(log_probs), float(-log_probs[label])


def backward(params: ModelParams, trace: ForwardTrace, label: int,
             grads: dict[str, np.ndarray]) -> float:
    """Add one example's cross-entropy gradients into `grads`; return its loss.

    `grads` holds one C-contiguous array per `trainable_tensors` name.
    Dropout-masked pooled units contribute zero everywhere upstream; each
    filter's gradient flows only through its argmax window and only where
    the activation derivative is nonzero; embedding gradients go only into
    trainable channels and never into the pad row.

    Only live filters (nonzero preactivation gradient) are visited, one window
    offset at a time, so every temporary is (live filters) x k.  A dead filter
    would add ±0 into buffers that never hold -0, so the conv, bias and output
    gradients are those of an all-filter pass bit for bit; the embedding GEMM
    sums over fewer filters.
    """
    if trace.mask is None:
        raise ValueError("backward needs a train-mode trace")
    if len(trace.preacts) != len(params.filters) or \
            trace.z.shape[0] != params.output.weights.shape[1] or \
            trace.logits.shape[0] != params.num_classes:
        raise ValueError("trace does not match params")

    dlogits, loss = loss_and_probs(trace.logits, label)
    dlogits[label] -= 1.0
    grads["output.weights"] += np.outer(dlogits, trace.z * trace.mask)
    grads["output.biases"] += dlogits
    dz = (params.output.weights.T @ dlogits) * trace.mask

    tuned = [grads[f"channel{i}"] for i, ch in enumerate(params.channels) if ch.trainable]
    d_embedded = np.zeros_like(trace.embedded) if tuned else None
    offset = 0
    for bank, pre, arg in zip(params.filters, trace.preacts, trace.argmax):
        n_maps, h = bank.weights.shape[0], bank.width
        dz_g = dz[offset:offset + n_maps]
        offset += n_maps
        dpre = dz_g * _activate_grad(pre[arg, np.arange(n_maps)], params.activation)
        grads[f"conv{h}.biases"] += dpre
        live = np.flatnonzero(dpre)
        if live.size == 0:
            continue
        d_live, at = dpre[live], arg[live]
        conv = grads[f"conv{h}.weights"]
        if tuned:
            # Transposed convolution: live filter l's gradient sits at its
            # argmax window, and window offset j lands on position p + j.
            d_map = np.zeros((len(pre), live.size))
            d_map[at, np.arange(live.size)] = d_live
        for j in range(h):
            conv[live, j] += d_live[:, None] * trace.embedded[at + j]
            if tuned:
                d_embedded[j:j + len(pre)] += d_map @ bank.weights[live, j]
    if tuned:
        # One flat index per (row, column) of the sentence's non-pad tokens:
        # np.add.at adds in the same order as with row indices, on its much
        # faster 1-D path.  A C-contiguous buffer's flat reshape is a view.
        keep = trace.token_ids != PAD_ID
        k = d_embedded.shape[1]
        cells = (trace.token_ids[keep, None] * k + np.arange(k)).ravel()
        for dense in tuned:
            if not dense.flags.c_contiguous:
                raise ValueError("gradient buffers must be C-contiguous")
            np.add.at(dense.reshape(-1), cells, d_embedded[keep].ravel())
    return loss


def predict_probs(params: ModelParams, token_ids) -> np.ndarray:
    logits, _ = forward(params, token_ids)
    probs, _ = loss_and_probs(logits, 0)
    return probs


def predict_class(params: ModelParams, token_ids) -> int:
    logits, _ = forward(params, token_ids)
    return int(np.argmax(logits))


def forward_batch(params: ModelParams, sentences, masks):
    """Training forward of a minibatch; returns (logits, traces).

    `masks` is the (B, m) stack of 0/1 dropout masks.  Logits row i and
    trace i equal `forward(params, sentences[i], masks[i])`'s up to summation
    order, and `backward` takes each trace.  The sentences are concatenated
    without padding and convolved once; each trace views its sentence's rows
    of the batch's lookups and preactivations.
    """
    sentences, lengths = _sentences(params, sentences)
    token_ids = np.concatenate(sentences)
    preacts = _conv(params, token_ids)
    z, acts = _ragged_pool(params, preacts, lengths)
    embedded = summed_embedding(params.channels, token_ids)
    masks = np.asarray(masks, dtype=np.float64)

    logits = np.empty((len(sentences), params.num_classes))
    traces = []
    start = 0
    for i, ids in enumerate(sentences):
        n = ids.shape[0]
        pres, args = [], []
        for bank, pre, act in zip(params.filters, preacts, acts):
            end = start + n - bank.width + 1
            pres.append(pre[start:end])
            args.append(np.argmax(act[start:end], axis=0))
        logits[i] = params.output.weights @ (z[i] * masks[i]) + params.output.biases
        traces.append(ForwardTrace(ids, embedded[start:start + n], pres, args, z[i],
                                   masks[i], logits[i]))
        start += n
    return logits, traces


def predict_logits(params: ModelParams, sentences) -> np.ndarray:
    """Inference logits of many sentences at once: (B, classes), row i for
    sentence i, each equal to `forward`'s up to summation order.

    The sentences are concatenated without padding, about _CHUNK_ROWS rows
    at a time, and each chunk is convolved as one sequence and pooled per
    sentence by `_ragged_pool`.
    """
    sentences, lengths = _sentences(params, sentences)
    firsts, rows = [], 0  # each chunk's first sentence
    for i, n in enumerate(lengths):
        if not firsts or rows + n > _CHUNK_ROWS:
            firsts.append(i)
            rows = 0
        rows += n

    z = np.empty((len(sentences), params.num_filters))
    for lo, hi in zip(firsts, firsts[1:] + [len(sentences)]):
        preacts = _conv(params, np.concatenate(sentences[lo:hi]))
        z[lo:hi], _ = _ragged_pool(params, preacts, lengths[lo:hi])
    return z @ (params.keep_prob * params.output.weights).T + params.output.biases


def accuracy(params: ModelParams, examples) -> float:
    """Fraction of examples whose inference-mode argmax class is the label."""
    examples = list(examples)
    if not examples:
        raise ValueError("no examples to score")
    logits = predict_logits(params, [ex.token_ids for ex in examples])
    labels = np.array([ex.label for ex in examples])
    return int(np.count_nonzero(np.argmax(logits, axis=1) == labels)) / len(examples)


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
