"""Verify the hand-written backward pass against finite differences.

Every analytic gradient (output layer, every filter, trainable embedding
rows) is compared to central differences of the loss on a small two-channel
model with a fixed dropout mask.

Run: python3 demos/gradient_check.py
"""

import numpy as np

from sentconv import embed, net

rng = np.random.default_rng(4)
vocab_size, dim = 12, 6
static = np.zeros((vocab_size, dim))
static[1:] = rng.normal(0, 0.6, (vocab_size - 1, dim))
tuned = np.zeros((vocab_size, dim))
tuned[1:] = rng.normal(0, 0.6, (vocab_size - 1, dim))
channels = [embed.EmbeddingChannel(static, trainable=False),
            embed.EmbeddingChannel(tuned, trainable=True)]
params = net.init_params(channels, num_classes=3, widths=(2, 3), maps_per_width=4,
                         seed=8, keep_prob=0.5, init_scale=0.5)

token_ids = np.array([3, 7, 1, 9, 4, 11, 6])
mask = np.array([1, 0, 1, 1, 1, 1, 0, 1], dtype=float)
label = 2


def loss():
    logits, _ = net.forward(params, token_ids, mask=mask)
    return net.loss_and_probs(logits, label)[1]


def finite_difference(tensor, step=1e-5):
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        keep = tensor[i]
        tensor[i] = keep + step
        up = loss()
        tensor[i] = keep - step
        down = loss()
        tensor[i] = keep
        grad[i] = (up - down) / (2 * step)
    return grad


_, trace = net.forward(params, token_ids, mask=mask)
_, grads = net.backward(params, trace, [label])  # a one-sentence trace: one label
# The table's gradient comes back compact, one row per distinct non-pad token
# of the sentence; scatter it into the table's shape to compare entry by entry.
dense = np.zeros_like(tuned)
dense[trace.table_rows] = grads["channel1"]
grads["channel1"] = dense

print(f"{'tensor':18s} {'entries':>8s} {'max |analytic - numeric|':>26s}")
for name, tensor in net.trainable_tensors(params):
    numeric = finite_difference(tensor)
    worst = np.max(np.abs(grads[name] - numeric))
    print(f"{name:18s} {tensor.size:8d} {worst:26.3e}")

print("\nstatic channel receives no gradient:", "channel0" not in grads)
print("masked pooled units (positions 1 and 6) backpropagate exactly zero:",
      bool(np.all(grads["conv2.weights"][1] == 0)
           and np.all(grads["conv3.weights"][2] == 0)))
