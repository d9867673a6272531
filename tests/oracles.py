"""Oracles and helpers that more than one test module uses: a naive
feature map, central finite differences, tensor hashes, and a dense view of
`net.backward`'s compact embedding gradient."""

import hashlib
import math

import numpy as np

from sentconv import net


def oracle_feature_map(token_ids, channels, weights, bias, activation="relu"):
    """One filter's activated feature map by a naive triple loop: explicit
    sums over the window's offsets, the embedding dims and the channels."""
    n, h = len(token_ids), len(weights)
    values = []
    for i in range(n - h + 1):
        total = bias
        for ch in channels:
            for t in range(h):
                for d in range(ch.matrix.shape[1]):
                    total += weights[t, d] * ch.matrix[token_ids[i + t], d]
        values.append(math.tanh(total) if activation == "tanh" else max(0.0, total))
    return np.array(values)


def finite_difference(loss_fn, tensor, step=1e-5):
    """The central-difference gradient of `loss_fn()` in each entry of
    `tensor`, which is perturbed in place and restored."""
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + step
        up = loss_fn()
        tensor[idx] = orig - step
        down = loss_fn()
        tensor[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def tensor_hashes(params):
    """The sha256 of every tensor's bytes, keyed by its `net.all_tensors` name."""
    return {name: hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest()
            for name, t in net.all_tensors(params)}


def dense_gradients(params, trace, grads):
    """A copy of `backward`'s `grads`, keyed like `net.trainable_tensors`, in
    which each trainable channel's (U', k) row gradient is scattered at
    `trace.table_rows` of a V x k table of zeros, so that every gradient has
    its tensor's shape, as the dense oracles' do."""
    dense = {}
    for name, tensor in net.trainable_tensors(params):
        if name.startswith("channel"):
            dense[name] = np.zeros_like(tensor)
            dense[name][trace.table_rows] = grads[name]
        else:
            dense[name] = grads[name].copy()
    return dense
