"""Train all four model variants on a synthetic trigger-bigram task.

A sentence is positive iff one of five specific word bigrams occurs; some
negatives contain isolated trigger words, so the model must learn word
order, not just word presence.  The "pre-trained" vectors cluster the
trigger words, which the static/non-static/multichannel variants can
exploit.  After training, the multichannel model's fine-tuned channel is
compared to its static twin via nearest neighbors.

Run: python3 demos/train_variants.py   (a few seconds)
"""

import io
import time

import numpy as np

from sentconv import corpus, embed, evaluate, net, optim

# --- build the dataset ----------------------------------------------------
TRIGGERS = [f"t{i}" for i in range(10)]
BIGRAMS = [(TRIGGERS[2 * i], TRIGGERS[2 * i + 1]) for i in range(5)]


def make_pairs(n, seed):
    rng = np.random.default_rng(seed)
    fillers = [f"w{i:03d}" for i in range(200)]
    rows = []
    for _ in range(n):
        sent = list(rng.choice(fillers, int(rng.integers(7, 15))))
        label = int(rng.random() < 0.5)
        if label:
            first, second = BIGRAMS[rng.integers(0, 5)]
            pos = int(rng.integers(0, len(sent) - 1))
            sent[pos:pos + 2] = [first, second]
        elif rng.random() < 0.5:
            sent[int(rng.integers(0, len(sent)))] = TRIGGERS[rng.integers(0, 10)]
        rows.append((label, " ".join(sent)))
    return rows


pairs = make_pairs(2000, seed=42)
token_lists, labels = corpus.tokenize_corpus(pairs)
vocab = corpus.build_vocabulary(token_lists)
dataset = corpus.encode_corpus(token_lists, labels, vocab, h_max=3)
perm = np.random.default_rng(99).permutation(len(dataset))
held = dataset.subset(sorted(perm[:400].tolist()))
pool = dataset.subset(sorted(perm[400:].tolist()))
train, dev = corpus.select_dev_split(pool, 0.10, seed=123)
print(f"dataset: {len(train)} train / {len(dev)} dev / {len(held)} held-out, "
      f"|V| = {len(vocab) - 1}")

# --- plant informative vectors and push them through the binary format -----
rng = np.random.default_rng(7)
anchor = rng.uniform(-0.25, 0.25, 16)
anchor /= np.linalg.norm(anchor)
planted = np.zeros((len(vocab), 16))
for wid in range(1, len(vocab)):
    word = vocab.id_to_word[wid]
    if word in TRIGGERS:
        planted[wid] = 0.5 * anchor + rng.normal(0, 0.02, 16)
    else:
        planted[wid] = rng.uniform(-0.25, 0.25, 16)
blob = io.BytesIO()
embed.write_word2vec_binary(blob, vocab.id_to_word[1:], planted[1:])

# --- train each variant from the same seed ---------------------------------
results = {}
for variant in embed.VARIANTS:
    config = optim.TrainConfig(variant=variant, widths=(2, 3), maps_per_width=8,
                               dim=16, keep_prob=0.5, batch_size=50, max_epochs=25,
                               patience=8, seed=5)
    if variant == "rand":
        base, _ = embed.build_base_matrix(vocab, config.dim, "rand", config.seed)
    else:
        blob.seek(0)
        base, _ = embed.parse_word2vec_binary(blob, vocab, config.dim)
    params = evaluate.initial_params(config, base, dataset.num_classes)
    start = time.monotonic()
    fit = optim.fit(params, train.examples, dev.examples, config)
    acc = net.accuracy(fit.params, held.examples)
    results[variant] = fit
    print(f"{variant:13s} held-out accuracy {acc:.4f}  "
          f"(best epoch {fit.best_epoch}, {time.monotonic() - start:.0f}s)")

# --- how fine-tuning moved the trigger words --------------------------------
print("\nnearest neighbors of trigger word 't0' in the multichannel model:")
static, tuned = evaluate.neighbor_report(results["multichannel"].params, vocab, "t0", count=4)
print(f"  {'static channel':24s} fine-tuned channel")
for (sw, ss), (tw, ts) in zip(static, tuned):
    print(f"  {sw:12s} {ss:6.3f}      {tw:12s} {ts:6.3f}")
