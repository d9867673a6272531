"""Forward and backward passes of the convolutional sentence classifier.

A sentence is a sequence of embedding rows (summed over channels, since
filters are shared across channels).  Each filter of width h produces one
feature per window, the feature map is max-pooled over positions, the
pooled vector is dropout-masked during training, and a linear layer plus
softmax yields class probabilities.  One convolution engine serves both
passes: `_lookup` checks a run of sentences and finds its distinct tokens
and their rows once, `_score_tables` scores each distinct token against
every filter offset, and `_window_preacts` sums a window's scores from that
table.  Training runs `forward_batch`, one table per width for the whole
minibatch, whose trace `backward` replays; inference runs `predict_logits`,
with no trace, one table per block of sentences and slab of filters.
Each call's GEMMs go through one bounded queue (`_products`) that the caller
works through, and a helper thread too when BLAS leaves a core idle
(`_helper_on`); every output keeps its bytes.
The backward pass is written by hand: gradient flows only through each
feature map's argmax window, only where the activation was live, only
through unmasked pooled units, and only into trainable channels.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import itertools
import os
import re
from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np

from .corpus import PAD_ID
from .embed import EmbeddingChannel

ACTIVATIONS = ("relu", "tanh")
# Inference sizes: rows gathered and pooled at once (512 and 2,048 timed the
# same), rows whose distinct tokens share score tables, and filters per
# table.  On the benchmark's 400 predict lines, blocks of 6 chunks held 1.8 MB
# less but ran 6-9% slower and slabs of 25 filters 10% slower.  Dead ends, one
# BLAS thread: whole blocks gathered with no chunks ran 18-23% slower at a
# 19.7 MiB tracemalloc peak (12.0 with chunks); whole-width tables with no
# slabs ran no faster, peaked at 17.8 MiB and moved last bits.
_CHUNK_ROWS = 1024
_BLOCK_ROWS = 8 * _CHUNK_ROWS
_SLAB_MAPS = 50


def _blas_leaves_a_core() -> bool:
    """Whether the usable cores outnumber the BLAS threads, counted as
    OpenBLAS counts them: the first positive leading integer, read as atoi
    reads it, of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS,
    else every core.  Where the usable cores are unknown, it says no."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        leading = re.match(r"\s*\+?\d+", os.environ.get(name, ""), re.ASCII)
        if leading and int(leading[0]) > 0:
            usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
            return len(usable) > int(leading[0])
    return False


# The GEMM helper: one thread, kept between calls, that runs `np.matmul` into
# arrays the caller allocates, in the caller's context (numpy's errstate is a
# context variable).  It runs only when BLAS leaves a core idle: with BLAS
# unpinned on 2 cores it slowed an MR-shaped fit from 118-130 to 145-153 ms.
# A call whose products hold fewer than _HELPER_MIN_MACS multiply-adds never
# reaches it: a hand-over and back took 45-90 us, the time of a one-thread
# float64 GEMM of about a million multiply-adds.  There is no option for the
# helper; tests set `_helper_on`.
_helper_on = _blas_leaves_a_core()
_HELPER_MIN_MACS = 1 << 22
# Score tables a forward or inference call holds with the helper on: the one
# being pooled and two ahead.  Static predict gained 0-9% with two, 8-28% with
# three; every table gained no more and cost 12-28 MB of non-static peak RSS.
_TABLES_HELD = 3


def _new_helper() -> None:
    """A helper whose thread starts with its first job and lives to the end of
    the process: at import, and in a forked child, which has no copy of its
    parent's helper thread, and whose copy of the parent's executor can hold
    a lock that was taken at the moment of the fork."""
    global _helper
    _helper = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="sentconv-gemm")


_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def _products(pairs, macs: int, held: int):
    """Yield a @ b for each (a, b) of the iterable `pairs`, in order, each the
    same np.matmul into an output the caller allocates as it draws the pair,
    at most `held` products ahead of the last one handed out: one unless
    `_helper_on` and the call's products hold _HELPER_MIN_MACS multiply-adds,
    when each drawn product is also a job queued on the helper.  While the
    product the caller asks for is not done, the caller walks the queue from
    the oldest job, cancels each one the helper has not started and computes
    it itself.  A product that fails on the caller raises at once, even ahead
    of its turn; one that fails on the helper raises when it is asked for.
    Closing the generator cancels the queued jobs and waits for the running
    one, so a call that raises leaves no helper job running.  With the helper
    on or off, each product is the same matmul of the same operands, so the
    helper changes no output byte."""
    offload = _helper_on and macs >= _HELPER_MIN_MACS
    run, pairs, jobs = contextvars.copy_context().run, iter(pairs), collections.deque()
    try:
        while True:
            for a, b in itertools.islice(pairs, (held if offload else 1) - len(jobs)):
                out = np.empty((a.shape[0], b.shape[1]))
                jobs.append((_helper.submit(run, np.matmul, a, b, out=out) if offload
                             else futures.Future(), a, b, out))
            if not jobs:
                return
            for job, a, b, out in jobs:
                if jobs[0][0].done():
                    break
                if job.cancel():  # the helper has not started it
                    np.matmul(a, b, out=out)
            del job, a, b, out  # the walk binds them; none may keep a product the caller drops
            if not jobs[0][0].cancelled():
                jobs[0][0].result()  # waits for the helper, and raises its failure
            yield jobs.popleft()[3]  # its job dropped too: a done job holds its product
    finally:
        futures.wait([job for job, *_ in jobs if not job.cancel()])


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0)
    return np.tanh(pre)


def _activate_grad(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (pre > 0.0).astype(np.float64)
    t = np.tanh(pre)
    return 1.0 - t * t


@dataclass
class FilterBank:
    """All filters of one width, stacked: weights (F, h, k), biases (F,)."""

    weights: np.ndarray
    biases: np.ndarray

    @property
    def width(self) -> int:
        return self.weights.shape[1]


@dataclass
class OutputLayer:
    weights: np.ndarray  # (classes, total filters)
    biases: np.ndarray   # (classes,)


@dataclass(frozen=True)
class ModelParams:
    """A model, checked when made and frozen; the arrays it holds stay writable.
    Shapes: 1+ channels (V, k), 1+ banks (F, h, k), (F,) with F, h >= 1, output (c, ΣF), (c,)."""

    channels: list[EmbeddingChannel]
    filters: list[FilterBank]
    output: OutputLayer
    keep_prob: float = 1.0
    activation: str = "relu"

    def __post_init__(self) -> None:
        if any(bank.weights.ndim != 3 for bank in self.filters) or self.output.weights.ndim != 2:
            raise ValueError("the model's tensors do not fit together")  # before shapes are read
        # Tensors are named by width: two banks of one width would share gradients and states.
        if len({bank.width for bank in self.filters}) != len(self.filters):
            raise ValueError("filter widths must be distinct")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got {self.num_classes}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        table = self.channels[0].matrix.shape if self.channels else ()
        shapes = [table] * len(self.channels)
        for bank in self.filters:
            shapes += [bank.weights.shape[:2] + table[1:], bank.weights.shape[:1]]
        shapes += [(self.num_classes, self.num_filters), (self.num_classes,)]
        if not self.channels or shapes != [tensor.shape for _, tensor in all_tensors(self)] or \
                min((min(bank.weights.shape[:2]) for bank in self.filters), default=0) < 1:
            raise ValueError("the model's tensors do not fit together")

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
    """Everything `backward` needs to replay a `forward_batch` call exactly.

    The batch's B sentences (one from `forward`) are concatenated without
    padding; row p of a width's preactivations is the window that starts at
    position p.  A fine-tuned table's gradient lives on `table_rows`.
    """

    distinct: np.ndarray        # (U,) the batch's distinct token ids, sorted
    inverse: np.ndarray         # (n,) each position's index into `distinct`
    rows: np.ndarray            # (U, k) the distinct tokens' rows summed over channels
    preacts: list[np.ndarray]   # per width group: (n - h + 1, F) over the concatenation
    argmax: list[np.ndarray]    # per width group: (B, F) row of each sentence's first max window
    z: np.ndarray               # (B, m) pooled features
    masks: np.ndarray           # (B, m) 0/1 dropout masks
    logits: np.ndarray          # (B, classes)

    @property
    def table_rows(self) -> np.ndarray:
        """(U',) the distinct non-pad token ids, the last U' of `distinct`: ids
        are >= 0, so the pad id 0 can only come first.  The pad row gets no gradient."""
        return self.distinct[int(self.distinct[0] == PAD_ID):]


def init_params(channels: list[EmbeddingChannel], num_classes: int, widths,
                maps_per_width: int, seed: int, *, keep_prob: float = 1.0,
                activation: str = "relu", init_scale: float = 0.01) -> ModelParams:
    """Fresh parameters: filter/output weights U[-init_scale, init_scale], zero
    biases, drawn first; `ModelParams` then checks the model, even one of no channels."""
    dim = channels[0].dim if channels else 0
    rng = np.random.default_rng(seed)
    banks = [FilterBank(rng.uniform(-init_scale, init_scale, size=(maps_per_width, h, dim)),
                        np.zeros(maps_per_width)) for h in widths]
    out_w = rng.uniform(-init_scale, init_scale, size=(num_classes, maps_per_width * len(banks)))
    return ModelParams(channels, banks, OutputLayer(out_w, np.zeros(num_classes)),
                       keep_prob=keep_prob, activation=activation)


def summed_embedding(channels, token_ids: np.ndarray) -> np.ndarray:
    """Row lookups summed over channels: filters are shared, so adding the
    per-channel windows before the dot product equals adding the responses."""
    total = channels[0].matrix[token_ids]
    for ch in channels[1:]:
        total += ch.matrix[token_ids]
    return total


def _offset_major(bank: FilterBank) -> np.ndarray:
    """The bank's (h·F, k) weights, row j·F + f holding filter f's offset j."""
    n_maps, h, k = bank.weights.shape
    return bank.weights.transpose(1, 0, 2).reshape(h * n_maps, k)


def _score_tables(rows: np.ndarray, banks: list[FilterBank]):
    """Yield each bank with its score table of U tokens' (U, k) summed `rows`,
    in order, from one `_products` queue.  A bank's table is one GEMM against
    its offset-major weights, reshaped for free to (U·h, F): row u·h + j holds
    token u's scores against every filter's offset-j slice.  A score depends
    only on the token, so each token is scored once however often it occurs,
    and the FLOPs scale with the distinct tokens, not the positions (an
    MR-shaped batch of 50 sentences holds about 1,000 positions and 485
    distinct tokens).
    A caller that drops each table before asking for the next holds one at a
    time with the helper off, else at most _TABLES_HELD; it closes the
    generator when it stops early."""
    macs = rows.size * sum(bank.weights.shape[0] * bank.width for bank in banks)
    with contextlib.closing(_products(((rows, _offset_major(bank).T) for bank in banks), macs,
                                      _TABLES_HELD)) as tables:
        for bank in banks:
            yield bank, next(tables).reshape(-1, bank.weights.shape[0])


def _window_preacts(table: np.ndarray, bank: FilterBank, inverse: np.ndarray) -> np.ndarray:
    """The (n - h + 1, F) preactivations of every window of the n positions
    `inverse`, each an index into `table`'s tokens: window p sums, offsets in
    order, offset j's scores of the token at p + j, then adds the biases."""
    h = bank.width
    n_windows = inverse.shape[0] - h + 1
    at = inverse * h  # each position's offset-0 row
    pre = table.take(at[:n_windows], axis=0)
    for j in range(1, h):
        pre += table.take(at[j:j + n_windows] + j, axis=0)
    pre += bank.biases
    return pre


def _lookup(params: ModelParams, sentences):
    """The front end of both passes: a list of sentences' (B,) lengths, (U,)
    sorted distinct ids, each position's index into those, and the ids' (U, k)
    rows summed over channels.  A sentence shorter than the widest filter,
    an id that is not an integer, or an id outside the table's rows [0, V)
    raises ValueError.  The dtype rule is the concatenation's cast: lists and
    integer arrays of any width pass, a float id does not, even a whole one,
    and a uint64 id of 2**63 or more wraps negative and fails the range
    check.  The distinct ids come sorted, so that check reads only the
    first and the last."""
    lengths = np.array([len(ids) for ids in sentences], dtype=np.int64)
    if np.any(lengths < params.max_width):
        raise ValueError("sentence shorter than the widest filter; pad it first")
    try:
        ids = np.concatenate(sentences, dtype=np.int64, casting="same_kind")
    except TypeError:
        raise ValueError("token ids must be integers") from None
    distinct, inverse = np.unique(ids, return_inverse=True)
    if distinct[0] < 0 or distinct[-1] >= params.channels[0].matrix.shape[0]:
        raise ValueError("token id outside the embedding table")
    return lengths, distinct, inverse, summed_embedding(params.channels, distinct)


def _ragged_pool(pre: np.ndarray, width: int, lengths: np.ndarray, activation: str):
    """Max-over-time of one width's (n_windows, F) preactivations of sentences
    of `lengths` whose rows were concatenated without padding and convolved
    as one sequence.

    Windows that run past their sentence's last row are set to -inf after
    the activation, so the max from each sentence's first row pools its own
    windows only.  Returns the (B, F) pooled features and the masked
    (n_windows, F) activations.
    """
    starts = np.cumsum(lengths) - lengths
    act = _activate(pre, activation)
    n_windows = act.shape[0]
    row_end = np.repeat(starts + lengths, lengths)[:n_windows]  # one past its sentence's end
    act[np.arange(n_windows) + width > row_end] = -np.inf
    return np.maximum.reduceat(act, starts, axis=0), act


def _first_argmax(act: np.ndarray, best: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The (B, F) row of each sentence's first window that pools to its max,
    from one width's activations and features as `_ragged_pool` returns them.

    This is numpy's argmax rule per sentence: the first maximum, or the first
    NaN when a column holds one (the pooled max is then NaN too), so a batch
    whose preactivations went NaN still fails as a non-finite gradient.
    """
    n_windows = act.shape[0]
    hit = (act == np.repeat(best, lengths, axis=0)[:n_windows]) | np.isnan(act)
    return np.minimum.reduceat(np.where(hit, np.arange(n_windows)[:, None], n_windows),
                               np.cumsum(lengths) - lengths, axis=0)


def forward_batch(params: ModelParams, sentences, masks):
    """Training forward pass of a minibatch: the (B, classes) logits and the
    trace `backward` takes whole.  `masks` is the (B, m) stack of 0/1 dropout
    masks.  The sentences are concatenated without padding; `_lookup` finds
    their distinct tokens, and one `_score_tables` table per width scores them."""
    lengths, distinct, inverse, rows = _lookup(params, list(sentences))
    preacts, pooled, argmax = [], [], []
    with contextlib.closing(_score_tables(rows, params.filters)) as tables:
        for bank, table in tables:
            pre = _window_preacts(table, bank, inverse)
            del table
            best, act = _ragged_pool(pre, bank.width, lengths, params.activation)
            preacts.append(pre)
            pooled.append(best)
            argmax.append(_first_argmax(act, best, lengths))
    z = np.concatenate(pooled, axis=1)
    masks = np.asarray(masks, dtype=np.float64)
    logits = (z * masks) @ params.output.weights.T + params.output.biases
    return logits, ForwardTrace(distinct, inverse, rows, preacts, argmax, z, masks, logits)


def forward(params: ModelParams, token_ids, mask: np.ndarray):
    """One sentence's training forward pass: `forward_batch` with B = 1,
    returning the (classes,) logits and the trace."""
    logits, trace = forward_batch(params, [token_ids], [mask])
    return logits[0], trace


def _labels(labels, classes: int) -> np.ndarray:
    """int64 `labels`, or ValueError unless of an integer or bool dtype and in [0, classes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu" or np.any((labels < 0) | (labels >= classes)):
        raise ValueError("label outside the model's classes")
    return labels.astype(np.int64)


def loss_and_probs(logits: np.ndarray, labels):
    """Row-wise stable softmax: the probabilities of (B, classes) logits and the (B,)
    negative log-likelihoods of `labels` (`_labels`); a row and a scalar label give a 0-d loss."""
    labels = _labels(labels, logits.shape[-1])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    losses = -np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    return np.exp(log_probs), losses


def backward(params: ModelParams, trace: ForwardTrace,
             labels) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A batch's cross-entropy gradients, summed over its examples: returns
    the (B,) per-example losses and a fresh dict keyed by the
    `trainable_tensors` names.

    The filter and output gradients have their tensors' shapes.  Each
    trainable channel gets the (U', k) gradient of the rows
    `trace.table_rows`, one array that every trainable channel shares: the
    pad row and the rows the batch does not hold get none.  Dropout-masked
    pooled units contribute zero everywhere upstream, and each filter's
    gradient flows only through its argmax window and only where the
    activation derivative is nonzero.

    Per width this is the transpose of `forward_batch`'s distinct-token GEMM.  One
    bincount puts example b's preactivation gradient dpre[b, f] at cell
    (token at its argmax window + j, f, j) of a (U, F·h) matrix S for every
    offset j.  The weight gradient is then S.T @ rows, and the distinct
    tokens' row gradient is S @ W over the (F·h, k) weight view.  Every
    width's S is built first; one `_products` queue holding them all then
    runs the products, and the row gradients are added in width order.  Each
    column of S holds at most B nonzero cells of U.  The output layer's
    gradients are two GEMMs over the batch.  The sums over the examples run
    in another order than a per-sentence loop, so the gradients agree with
    one within about 1e-15 relative, not bit for bit.
    """
    if len(trace.preacts) != len(params.filters) or \
            trace.z.shape[1] != params.output.weights.shape[1] or \
            trace.logits.shape[1] != params.num_classes:
        raise ValueError("trace does not match params")
    labels = _labels(labels, params.num_classes)
    if labels.shape != trace.logits.shape[:1]:
        raise ValueError("need one label per example of the trace")

    dlogits, losses = loss_and_probs(trace.logits, labels)
    dlogits[np.arange(labels.shape[0]), labels] -= 1.0
    grads = {"output.weights": dlogits.T @ (trace.z * trace.masks),
             "output.biases": dlogits.sum(axis=0)}
    dz = (dlogits @ params.output.weights) * trace.masks

    tuned = [name for name, _ in trainable_tensors(params) if name.startswith("channel")]
    n_distinct = trace.distinct.shape[0]
    offset, pairs = 0, []
    for bank, pre, arg in zip(params.filters, trace.preacts, trace.argmax):
        n_maps, h, k = bank.weights.shape
        dpre = dz[:, offset:offset + n_maps] * \
            _activate_grad(pre[arg, np.arange(n_maps)], params.activation)
        offset += n_maps
        grads[f"conv{h}.biases"] = dpre.sum(axis=0)
        cells = trace.inverse[arg[:, :, None] + np.arange(h)] * (n_maps * h) + \
            np.arange(n_maps * h).reshape(n_maps, h)
        scores = np.bincount(cells.ravel(), np.repeat(dpre.ravel(), h),
                             n_distinct * n_maps * h).reshape(n_distinct, n_maps * h)
        pairs.append((scores.T, trace.rows))
        if tuned:
            pairs.append((scores, bank.weights.reshape(n_maps * h, k)))
    macs = sum(a.shape[0] * a.shape[1] * b.shape[1] for a, b in pairs)
    products = iter(list(_products(pairs, macs, len(pairs))))
    d_rows = np.zeros_like(trace.rows) if tuned else None
    for bank in params.filters:
        grads[f"conv{bank.width}.weights"] = next(products).reshape(bank.weights.shape)
        if tuned:
            d_rows += next(products)
    if tuned:
        grads.update(dict.fromkeys(tuned, d_rows[trace.distinct.size - trace.table_rows.size:]))
    return losses, grads


# These two and `forward` are the one-sentence cases of the batched passes.
# Nothing in the package calls them; they stay because the benchmark wraps
# and calls them.
def predict_probs(params: ModelParams, token_ids) -> np.ndarray:
    return loss_and_probs(predict_logits(params, [token_ids])[0], 0)[0]


def predict_class(params: ModelParams, token_ids) -> int:
    return int(np.argmax(predict_logits(params, [token_ids])[0]))


def _runs(items, limit: int):
    """Greedy runs of consecutive items whose lengths sum to at most `limit`
    (or of one longer item), each a list yielded once the next item is drawn."""
    run, total = [], 0
    for item in items:
        if run and total + len(item) > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += len(item)
    if run:
        yield run


def _pool_block(params: ModelParams, slabs: list[FilterBank], block: list) -> np.ndarray:
    """A block's (b, m) pooled features.  `_lookup` finds the block's distinct
    tokens once; per slab of filters, one score table of them is gathered,
    activated and pooled chunk by chunk, runs of sentences of about
    _CHUNK_ROWS rows, and freed before the next slab's."""
    lengths, _, inverse, rows = _lookup(params, block)
    row_at = np.concatenate([[0], np.cumsum(lengths)])
    chunks = list(itertools.accumulate(map(len, _runs(block, _CHUNK_ROWS)), initial=0))
    z, col = np.empty((len(block), params.num_filters)), 0
    with contextlib.closing(_score_tables(rows, slabs)) as tables:
        for slab, table in tables:
            cols = slice(col, col + slab.biases.shape[0])
            for lo, hi in zip(chunks, chunks[1:]):
                pre = _window_preacts(table, slab, inverse[row_at[lo]:row_at[hi]])
                z[lo:hi, cols], _ = _ragged_pool(pre, slab.width, lengths[lo:hi],
                                                 params.activation)
            col = cols.stop
            del table, pre
    return z


def predict_logits(params: ModelParams, sentences) -> np.ndarray:
    """Inference logits of any iterable of sentences: (B, classes), row i for
    sentence i, with the output weights scaled by keep_prob.

    The sentences are read one block at a time, a run of about _BLOCK_ROWS
    rows, and each block is split into chunks of about _CHUNK_ROWS, both runs
    of whole sentences; a sentence longer than a block or a chunk is one
    alone, and one shorter than the widest filter or with an id outside the
    table raises ValueError when its block is read.  Per width, and per slab
    of _SLAB_MAPS filters in it, `_pool_block` builds one score table of the
    block's distinct tokens, and gathers, activates and pools each chunk,
    its sentences concatenated without padding, with `_ragged_pool`, no
    trace and no argmax.  The output layer turns each block's features into its
    logits, and the blocks' logits are joined at the end.

    Memory: with R = max(_BLOCK_ROWS, longest sentence) rows and b <= R/h
    sentences in a block, C = max(_CHUNK_ROWS, longest sentence) rows in a
    chunk, U <= R distinct tokens in a block, k the embedding size, h the
    widest filter, m filters, c classes and S = _SLAB_MAPS, a call holds at
    once, besides the block it reads as int64 arrays and 8·B·c bytes of
    logits, twice while they are joined, at most 8·(2·U·k + T·h·S·(U + k) +
    24·R + 4·S·C + b·(m + 2·c)) bytes: one block's summed rows (twice while
    channels are summed), T slabs' weight views and tables, the block's index
    arrays, one chunk's gathered and activated scores, and the block's
    features and logits.  T is 1, or _TABLES_HELD while the GEMM helper runs.
    On the MR shape (k = 300, h = 5, m = 300, c = 2) that is 64 MB, or 97 MB
    with the helper, whatever B, when every token of a block is distinct.

    Every copy of a token in a block reads the same table row, so a row does
    not depend on where its sentence sits in the block; its last bits can
    depend on the block's other sentences, whose distinct tokens set the
    size of the score GEMM and so the BLAS kernels it runs: a row agrees
    with scoring its sentence alone within 1e-12, not byte for byte.
    """
    slabs = [FilterBank(bank.weights[f:f + _SLAB_MAPS], bank.biases[f:f + _SLAB_MAPS])
             for bank in params.filters for f in range(0, bank.biases.shape[0], _SLAB_MAPS)]
    weights = (params.keep_prob * params.output.weights).T
    return np.concatenate([np.empty((0, params.num_classes))] + [
        _pool_block(params, slabs, block) @ weights + params.output.biases
        for block in _runs(sentences, _BLOCK_ROWS)])


def accuracy(params: ModelParams, examples) -> float:
    """Fraction of examples whose inference-mode argmax class is the label, from
    one `predict_logits` call (dev evaluation in `optim.fit`, and the held-out
    folds of cross-validation); a label `_labels` refuses raises ValueError first."""
    examples = list(examples)
    if not examples:
        raise ValueError("no examples to score")
    labels = _labels([ex.label for ex in examples], params.num_classes)
    logits = predict_logits(params, [ex.token_ids for ex in examples])
    return int(np.count_nonzero(logits.argmax(axis=1) == labels)) / len(examples)


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
    """A copy that training `params` further leaves as it is.  Frozen channels
    are shared, not copied: their tables are read-only."""
    channels = [EmbeddingChannel(ch.matrix.copy() if ch.trainable else ch.matrix, ch.trainable)
                for ch in params.channels]
    banks = [FilterBank(b.weights.copy(), b.biases.copy()) for b in params.filters]
    output = OutputLayer(params.output.weights.copy(), params.output.biases.copy())
    return replace(params, channels=channels, filters=banks, output=output)
