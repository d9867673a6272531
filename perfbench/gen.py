"""Seeded synthetic inputs with the shape of the paper's datasets.

Every input the benchmark feeds the program is made here from one workload
seed, so no download is needed and the same seed gives the same bytes:

* a `<label>TAB<sentence>` corpus whose tokens follow a Zipf-like lexicon,
  with a planted signal the model can learn;
* a word2vec binary file that covers a fixed share of the vocabulary, holds
  distractor records (phrases, words absent from the corpus) and some
  title-case records that only match through the lowercase fallback;
* held-out lines for `predict`.

A sentence is positive iff it holds one of five trigger bigrams (negatives
may hold a single trigger word, so word order matters).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

SYLLABLES = [c + v for c in "bdfghjklmnprstvwz" for v in "aeiou"]


@dataclass(frozen=True)
class Shape:
    """Target shape of one corpus and its vector file."""

    name: str
    classes: int
    n: int              # sentences in the corpus
    vocab: int          # distinct tokens the corpus should realize
    len_mean: float     # sentence length (tokens) ~ round(N(mean, sd)) clipped
    len_sd: float
    len_min: int
    len_max: int
    coverage: float     # share of vocabulary types with a pre-trained vector
    dim: int
    predict_lines: int  # held-out lines written for `predict`


MR = Shape("mr", 2, 10662, 18765, 20.0, 8.0, 5, 40, 0.88, 300, 400)
MR_TINY = Shape("mr-tiny", 2, 600, 700, 12.0, 4.0, 5, 20, 0.88, 12, 40)

# Allowed relative error of the realized vocabulary size (3% plus the
# 1/sqrt(V) sampling noise that dominates at tiny sizes), absolute error of
# the coverage share, and absolute error (tokens) of the median length.
VOCAB_TOL = 0.03
COVERAGE_TOL = 0.02
MEDIAN_LEN_TOL = 2

# Norm of the anchor each planted word sits near (fillers have norm ~2.5).
# Large enough that the benchmark's six one-epoch fits (18 Adadelta steps)
# learn the planted signal from a random initialization.
PLANT_SCALE = 16.0

# Share of MR negatives that hold one lone trigger word, so that a model
# which only detects trigger words cannot reach full accuracy.
MR_LONE_TRIGGER_SHARE = 0.25

MR_BIGRAMS = [(f"pos{i}a", f"pos{i}b") for i in range(5)]
MR_TRIGGERS = [w for pair in MR_BIGRAMS for w in pair]


def lexicon_word(i: int) -> str:
    """The i-th lexicon word: letters only, so it never meets a trigger
    word (those carry digits)."""
    parts = []
    i += 1
    while i:
        i, r = divmod(i - 1, len(SYLLABLES))
        parts.append(SYLLABLES[r])
    return "".join(parts)


def _zipf_probs(size: int) -> np.ndarray:
    p = 1.0 / np.arange(1, size + 1) ** 1.05
    return p / p.sum()


def lexicon_size(target_types: int, tokens: int) -> int:
    """Lexicon size whose Zipf draw of `tokens` tokens is expected to
    realize `target_types` distinct words (bisection on the expectation)."""
    def expected(size):
        return float(-np.expm1(tokens * np.log1p(-_zipf_probs(size))).sum())
    lo, hi = target_types, 64 * target_types
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if expected(mid) < target_types else (lo, mid)
    return hi


def _lengths(shape: Shape, rng, count: int) -> np.ndarray:
    raw = np.rint(rng.normal(shape.len_mean, shape.len_sd, count))
    return np.clip(raw, shape.len_min, shape.len_max).astype(np.int64)


# Mean number of lexicon draws per sentence that the planted signal
# overwrites: a bigram in half the sentences, one trigger in a share of the
# negatives.
PLANTED_PER_SENTENCE = 1.0 + 0.5 * MR_LONE_TRIGGER_SHARE


def _sentences(rng, lengths, lexicon_probs):
    """One (label, tokens) pair per entry of `lengths`, carrying the
    planted signal."""
    count = len(lengths)
    draws = rng.choice(len(lexicon_probs), size=int(lengths.sum()), p=lexicon_probs)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    rows = []
    for i in range(count):
        toks = [lexicon_word(int(j)) for j in draws[bounds[i]:bounds[i + 1]]]
        label = int(rng.random() < 0.5)
        if label:
            first, second = MR_BIGRAMS[rng.integers(len(MR_BIGRAMS))]
            pos = int(rng.integers(len(toks) - 1))
            toks[pos:pos + 2] = [first, second]
        elif rng.random() < MR_LONE_TRIGGER_SHARE:
            toks[int(rng.integers(len(toks)))] = MR_TRIGGERS[rng.integers(len(MR_TRIGGERS))]
        if len(toks) > 4 and rng.random() < 0.3:
            toks.insert(int(rng.integers(1, len(toks) - 1)), ",")
        rows.append((label, toks))
    return rows


def raw_text(tokens) -> str:
    """Surface form that `clean_and_tokenize` maps back to `tokens`: a
    capitalized first word, commas glued to the word before them, and a
    trailing full stop."""
    text = " ".join(tokens).replace(" ,", ",")
    return text[:1].upper() + text[1:] + " ."


def _planted_vectors(shape: Shape, rng, words) -> np.ndarray:
    """Fillers ~ U[-0.25, 0.25]; the first and the second trigger words of
    the bigrams each sit near their own anchor direction, which gives
    pre-trained variants a head start."""
    vecs = rng.uniform(-0.25, 0.25, size=(len(words), shape.dim))
    groups = [[a for a, _ in MR_BIGRAMS], [b for _, b in MR_BIGRAMS]]
    anchors = np.linalg.qr(rng.normal(size=(shape.dim, len(groups))))[0].T
    index = {w: i for i, w in enumerate(words)}
    for anchor, group in zip(anchors, groups):
        for w in group:
            vecs[index[w]] = PLANT_SCALE * anchor + rng.normal(0.0, 0.02, shape.dim)
    return vecs.astype("<f4")


def _write_vectors(path, records) -> None:
    dim = records[0][1].shape[0]
    with open(path, "wb") as fh:
        fh.write(f"{len(records)} {dim}\n".encode("ascii"))
        for word, vec in records:
            fh.write(word.encode("utf-8") + b" " + vec.tobytes() + b"\n")


def generate(shape: Shape, seed: int, out_dir, batch_size: int, train_slice: int) -> dict:
    """Write corpus.tsv, vectors.bin, predict.txt and shape.json into
    `out_dir`; return the realized shape.  Distinct rows per batch are
    counted over consecutive `batch_size` chunks of the first `train_slice`
    sentences.  Raises ValueError when the realized shape falls outside the
    stated tolerance of the targets."""
    rng = np.random.default_rng([seed, 0x5E17])
    lengths = _lengths(shape, rng, shape.n)
    lexicon_draws = int(lengths.sum() - PLANTED_PER_SENTENCE * shape.n)
    planted = MR_TRIGGERS
    # the planted words and the two punctuation tokens add to the lexicon's types
    probs = _zipf_probs(lexicon_size(shape.vocab - len(planted) - 2, lexicon_draws))
    rows = _sentences(rng, lengths, probs)

    vocab = {}
    for _, toks in rows:
        for t in toks:
            vocab.setdefault(t, len(vocab) + 1)
    words = list(vocab)
    others = [w for w in words if w not in set(planted)]
    n_cover = round(shape.coverage * len(words)) - len(planted)
    covered = sorted(planted) + [others[i] for i in
                                 sorted(rng.choice(len(others), n_cover, replace=False))]
    vecs = _planted_vectors(shape, rng, covered)

    records = []
    for word, vec in zip(covered, vecs):
        kind = rng.random()
        if kind < 0.03 and word.isalpha():
            records.append((word.title(), vec))            # lowercase fallback only
        elif kind < 0.04 and word.isalpha():
            records.append((word.title(), vec[::-1].copy()))  # the exact record wins in any order
            records.append((word, vec))
        else:
            records.append((word, vec))
    n_distract = len(covered) // 5
    for i in range(n_distract):
        name = (lexicon_word(len(probs) + i) if i % 2 else
                f"{lexicon_word(i)}_{lexicon_word(i + 7)}".title())
        records.append((name, rng.uniform(-0.25, 0.25, shape.dim).astype("<f4")))
    order = rng.permutation(len(records))
    records = [records[i] for i in order]

    predict_rows = _sentences(rng, _lengths(shape, rng, shape.predict_lines), probs)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "corpus.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{label}\t{raw_text(toks)}\n" for label, toks in rows)
    with open(os.path.join(out_dir, "predict.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(raw_text(toks) + "\n" for _, toks in predict_rows)
    _write_vectors(os.path.join(out_dir, "vectors.bin"), records)

    lengths = [len(toks) for _, toks in rows]
    ids = [[vocab[t] for t in toks] for _, toks in rows[:train_slice]]
    distinct = [len({i for sent in ids[b:b + batch_size] for i in sent})
                for b in range(0, len(ids), batch_size)]
    realized = {
        "shape": shape.name,
        "seed": seed,
        "N": len(rows),
        "V": len(words),
        "classes": shape.classes,
        "length_p50": float(np.percentile(lengths, 50)),
        "length_p90": float(np.percentile(lengths, 90)),
        "vector_coverage": len(covered) / len(words),
        "vector_records": len(records),
        "covered_words": len(covered),
        "distinct_rows_per_batch": float(np.mean(distinct)),
        "predict_lines": len(predict_rows),
        "targets": asdict(shape),
    }
    problems = []
    vocab_tol = VOCAB_TOL + shape.vocab ** -0.5
    if abs(realized["V"] - shape.vocab) > vocab_tol * shape.vocab:
        problems.append(f"V={realized['V']} not within {vocab_tol:.1%} of {shape.vocab}")
    if abs(realized["vector_coverage"] - shape.coverage) > COVERAGE_TOL:
        problems.append(f"coverage={realized['vector_coverage']:.3f} not within "
                        f"{COVERAGE_TOL} of {shape.coverage}")
    if abs(realized["length_p50"] - shape.len_mean) > MEDIAN_LEN_TOL:
        problems.append(f"length p50={realized['length_p50']} not within "
                        f"{MEDIAN_LEN_TOL} of {shape.len_mean}")
    if min(lengths) < shape.len_min or max(lengths) > shape.len_max + 1:
        problems.append("sentence lengths outside the target range")
    if problems:
        raise ValueError(f"{shape.name} seed {seed}: " + "; ".join(problems))
    with open(os.path.join(out_dir, "shape.json"), "w", encoding="utf-8") as fh:
        json.dump(realized, fh)
    return realized


def describe(realized: dict) -> str:
    """One line naming the realized shape, for the benchmark's report."""
    return (f"{realized['shape']} seed={realized['seed']}: N={realized['N']} "
            f"V={realized['V']} c={realized['classes']} "
            f"len p50={realized['length_p50']:.0f} p90={realized['length_p90']:.0f} "
            f"coverage={realized['vector_coverage']:.3f} "
            f"records={realized['vector_records']} "
            f"distinct rows/batch={realized['distinct_rows_per_batch']:.1f}")
