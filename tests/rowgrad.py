"""Dense view of `net.backward`'s compact embedding gradient, for the tests."""

import numpy as np

from sentconv import net


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
