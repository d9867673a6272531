"""Deterministic synthetic corpora shared across the test suite.

The classification task: a sentence is positive iff it contains one of five
trigger bigrams; `six_class_pairs` asks which of the five, if any, and
`short_pairs` poses the binary task on sentences of 1-4 tokens.  Negative
sentences may contain a single isolated trigger word, so unigram shortcuts
do not solve the task.  `planted_vectors` builds an informative
"pre-trained" matrix with all trigger words clustered around one direction,
which a static-channel model can exploit immediately.
"""

import numpy as np

from sentconv import corpus

N_TRIGGERS = 10
TRIGGER_WORDS = [f"t{i}" for i in range(N_TRIGGERS)]
TRIGGER_BIGRAMS = [(TRIGGER_WORDS[2 * i], TRIGGER_WORDS[2 * i + 1]) for i in range(5)]


def trigger_bigram_pairs(n, seed, n_filler=200):
    """(label, sentence) pairs; label 1 iff a trigger bigram is present."""
    rng = np.random.default_rng(seed)
    fillers = [f"w{i:03d}" for i in range(n_filler)]
    rows = []
    for _ in range(n):
        length = int(rng.integers(7, 15))
        sent = list(rng.choice(fillers, length))
        label = int(rng.random() < 0.5)
        if label:
            first, second = TRIGGER_BIGRAMS[rng.integers(0, len(TRIGGER_BIGRAMS))]
            pos = int(rng.integers(0, len(sent) - 1))
            sent[pos:pos + 2] = [first, second]
        elif rng.random() < 0.5:
            sent[int(rng.integers(0, len(sent)))] = TRIGGER_WORDS[rng.integers(0, N_TRIGGERS)]
        rows.append((label, " ".join(sent)))
    return rows


def six_class_pairs(n, seed, n_filler=200):
    """(label, sentence) pairs over six classes: a sentence of class c < 5
    holds trigger bigram c, and one of class 5 holds none, only perhaps a
    lone trigger word."""
    rng = np.random.default_rng(seed)
    fillers = [f"w{i:03d}" for i in range(n_filler)]
    rows = []
    for _ in range(n):
        sent = list(rng.choice(fillers, int(rng.integers(7, 15))))
        label = int(rng.integers(0, 6))
        if label < len(TRIGGER_BIGRAMS):
            pos = int(rng.integers(0, len(sent) - 1))
            sent[pos:pos + 2] = TRIGGER_BIGRAMS[label]
        elif rng.random() < 0.5:
            sent[int(rng.integers(0, len(sent)))] = TRIGGER_WORDS[rng.integers(0, N_TRIGGERS)]
        rows.append((label, " ".join(sent)))
    return rows


def short_pairs(n, seed, n_filler=200):
    """(label, sentence) pairs of 1-4 tokens, shorter than a width-5 filter:
    label 1 iff a trigger bigram is present.  A negative sentence may hold a
    lone trigger word, as in `trigger_bigram_pairs`."""
    rng = np.random.default_rng(seed)
    fillers = [f"w{i:03d}" for i in range(n_filler)]
    rows = []
    for _ in range(n):
        label = int(rng.random() < 0.5)
        sent = list(rng.choice(fillers, int(rng.integers(2 if label else 1, 5))))
        if label:
            pos = int(rng.integers(0, len(sent) - 1))
            sent[pos:pos + 2] = TRIGGER_BIGRAMS[rng.integers(0, len(TRIGGER_BIGRAMS))]
        elif rng.random() < 0.5:
            sent[int(rng.integers(0, len(sent)))] = TRIGGER_WORDS[rng.integers(0, N_TRIGGERS)]
        rows.append((label, " ".join(sent)))
    return rows


def separable_pairs(n, seed, n_filler=20):
    """Trivially separable task: every positive sentence contains 'goodish',
    every negative one 'dreadful'."""
    rng = np.random.default_rng(seed)
    fillers = [f"f{i}" for i in range(n_filler)]
    rows = []
    for i in range(n):
        length = int(rng.integers(4, 9))
        sent = list(rng.choice(fillers, length))
        label = i % 2
        sent[int(rng.integers(0, len(sent)))] = "goodish" if label else "dreadful"
        rows.append((label, " ".join(sent)))
    return rows


def planted_vectors(vocab, dim, seed):
    """Trigger words near a shared anchor direction, fillers spread uniformly."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((len(vocab), dim))
    anchor = rng.uniform(-0.25, 0.25, dim)
    anchor /= np.linalg.norm(anchor)
    trigger_ids = {vocab.id(w) for w in TRIGGER_WORDS if w in vocab}
    for wid in range(1, len(vocab)):
        if wid in trigger_ids:
            matrix[wid] = 0.5 * anchor + rng.normal(0.0, 0.02, dim)
        else:
            matrix[wid] = rng.uniform(-0.25, 0.25, dim)
    return matrix


def encoded_corpus(n=2000, seed=42, h_max=3, holdout=400, holdout_seed=99):
    """Tokenized, encoded dataset plus a train/held-out split and the vocab."""
    pairs = trigger_bigram_pairs(n, seed)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, h_max)
    perm = np.random.default_rng(holdout_seed).permutation(n)
    held = dataset.subset(sorted(perm[:holdout].tolist()))
    train = dataset.subset(sorted(perm[holdout:].tolist()))
    return dataset, train, held, vocab


def write_tsv(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for label, text in pairs:
            fh.write(f"{label}\t{text}\n")
