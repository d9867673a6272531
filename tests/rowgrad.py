"""Dense view of `net.backward`'s compact embedding gradient, for the tests."""

import numpy as np

from sentconv.corpus import PAD_ID


def scatter_row_gradient(params, trace, grads):
    """Add `backward`'s (U', k) row gradient, popped from `grads["embedding"]`,
    at the trace's distinct non-pad rows of a V x k `grads["channel{i}"]`
    (zeros when absent) for each trainable channel, so that `grads` is keyed
    like `net.trainable_tensors`, as the dense oracles are.  Returns `grads`."""
    row_grad = grads.pop("embedding", None)
    if row_grad is None:
        return grads
    rows = trace.distinct[trace.distinct != PAD_ID]
    for i, channel in enumerate(params.channels):
        if channel.trainable:
            grads.setdefault(f"channel{i}", np.zeros_like(channel.matrix))[rows] += row_grad
    return grads
