"""Labeled sentence corpora: tokenization, vocabularies, encoding, CV folds."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

PAD_TOKEN = "<pad>"
PAD_ID = 0

# Apostrophe-bearing suffixes detached as their own tokens.
_CONTRACTIONS = ("'ve", "'re", "'ll", "n't", "'s", "'d")
# Everything outside this set becomes a space (apostrophes are resolved later).
_NON_TOKEN = re.compile(r"[^a-z0-9(),!?']+")
_PUNCT = re.compile(r"([,!?()])")


def clean_and_tokenize(raw: str) -> list[str]:
    """Break raw text into lowercase tokens.

    Contraction suffixes ('ve 're 'll n't 's 'd) are detached, the
    punctuation marks , ! ? ( ) become standalone tokens, and every other
    non-alphanumeric character (including apostrophes not consumed by a
    contraction) turns into a space.
    """
    s = _NON_TOKEN.sub(" ", raw.lower())
    for suffix in _CONTRACTIONS:
        s = s.replace(suffix, " " + suffix)
    s = _PUNCT.sub(r" \1 ", s)
    tokens: list[str] = []
    for tok in s.split():
        if "'" not in tok or tok in _CONTRACTIONS:
            tokens.append(tok)
        else:
            tokens.extend(tok.replace("'", " ").split())
    return tokens


class Vocabulary:
    """Bijection between tokens and ids; `<pad>` is always id 0."""

    __slots__ = ("word_to_id", "id_to_word")

    def __init__(self, words=()):
        self.id_to_word: list[str] = [PAD_TOKEN]
        self.word_to_id: dict[str, int] = {PAD_TOKEN: PAD_ID}
        for w in words:
            if w == PAD_TOKEN:
                raise ValueError(f"{PAD_TOKEN!r} is reserved and may not appear in text")
            if w not in self.word_to_id:
                self.word_to_id[w] = len(self.id_to_word)
                self.id_to_word.append(w)

    def __len__(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def id(self, word: str) -> int:
        return self.word_to_id[word]

    def words(self) -> list[str]:
        """All real tokens, i.e. everything except the pad entry."""
        return self.id_to_word[1:]


def build_vocabulary(token_lists) -> Vocabulary:
    """Vocabulary over all distinct tokens, ids in first-occurrence order."""
    token_lists = list(token_lists)
    if not token_lists:
        raise ValueError("empty corpus")
    return Vocabulary(t for toks in token_lists for t in toks)


def encode_and_pad(tokens, vocab: Vocabulary, h_max: int) -> np.ndarray:
    """Map tokens to ids, right-padding so at least one width-h_max window exists.

    Tokens missing from the vocabulary map to the pad id, which is backed by
    a frozen all-zero vector downstream.
    """
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    ids = [vocab.word_to_id.get(t, PAD_ID) for t in tokens]
    if len(ids) < h_max:
        ids.extend([PAD_ID] * (h_max - len(ids)))
    return np.asarray(ids, dtype=np.int64)


@dataclass
class Example:
    token_ids: np.ndarray
    label: int


@dataclass
class Dataset:
    examples: list[Example]
    num_classes: int

    def __post_init__(self):
        for i, ex in enumerate(self.examples):
            if not 0 <= ex.label < self.num_classes:
                raise ValueError(f"example {i}: label {ex.label} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.examples)

    def subset(self, indices) -> "Dataset":
        return Dataset([self.examples[i] for i in indices], self.num_classes)


@dataclass(frozen=True)
class FoldPlan:
    fold_of: np.ndarray
    n_folds: int

    def indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.fold_of, minlength=self.n_folds)

    def to_tsv(self) -> str:
        return "".join(f"{i}\t{f}\n" for i, f in enumerate(self.fold_of))


def assign_folds(n_examples: int, n_folds: int, seed: int) -> FoldPlan:
    """Shuffled round-robin fold assignment; fold sizes differ by at most 1."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_examples < n_folds:
        raise ValueError(f"cannot split {n_examples} examples into {n_folds} folds")
    perm = np.random.default_rng(seed).permutation(n_examples)
    fold_of = np.empty(n_examples, dtype=np.int64)
    fold_of[perm] = np.arange(n_examples) % n_folds
    return FoldPlan(fold_of, n_folds)


def select_dev_split(dataset: Dataset, fraction: float = 0.10, seed: int = 0):
    """Carve a random dev set of round(fraction * N) examples out of `dataset`."""
    n = len(dataset)
    if n * fraction < 1:
        raise ValueError(f"dataset of {n} examples is too small for a {fraction:.0%} dev split")
    n_dev = round(n * fraction)
    perm = np.random.default_rng(seed).permutation(n)
    dev_idx = sorted(perm[:n_dev].tolist())
    train_idx = sorted(perm[n_dev:].tolist())
    return dataset.subset(train_idx), dataset.subset(dev_idx)


def load_tsv(path) -> list[tuple[int, str]]:
    """Read `<label><TAB><sentence>` lines; blank lines are ignored."""
    pairs: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected <label><TAB><sentence>")
            label_s, text = line.split("\t", 1)
            try:
                label = int(label_s)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad label {label_s!r}") from None
            if label < 0:
                raise ValueError(f"{path}: line {lineno}: negative label {label}")
            pairs.append((label, text))
    if not pairs:
        raise ValueError(f"{path}: empty dataset")
    return pairs


def tokenize_corpus(pairs):
    """Tokenize (label, text) pairs into parallel token lists and labels."""
    token_lists = [clean_and_tokenize(text) for _, text in pairs]
    labels = [label for label, _ in pairs]
    return token_lists, labels


def encode_corpus(token_lists, labels, vocab: Vocabulary, h_max: int,
                  num_classes: int | None = None) -> Dataset:
    if num_classes is None:
        num_classes = max(labels) + 1
    examples = [Example(encode_and_pad(toks, vocab, h_max), label)
                for toks, label in zip(token_lists, labels)]
    return Dataset(examples, num_classes)
