"""Labeled sentence corpora: tokenization, vocabularies, encoding, CV folds."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

PAD_TOKEN = "<pad>"
PAD_ID = 0

# Apostrophe-bearing suffixes detached as their own tokens.
_CONTRACTIONS = ("'ve", "'re", "'ll", "n't", "'s", "'d")
# Everything outside this set becomes a space (apostrophes are resolved later).
# Spaces and newlines are left alone: tokens are split at whitespace anyway.
_NON_TOKEN = re.compile(r"[^a-z0-9(),!?' \n]+")


def tokenize_texts(texts) -> list[list[str]]:
    """Break each raw text into lowercase tokens, in one pass over them all,
    with no Python step per character.

    Contraction suffixes ('ve 're 'll n't 's 'd) are detached, the
    punctuation marks , ! ? ( ) become standalone tokens, and every other
    non-alphanumeric character (including apostrophes not consumed by a
    contraction) turns into a space.  The texts are lowercased as one string,
    each ended by a newline once its own newlines are spaces; neither is
    cased nor case-ignorable, so `str.lower`'s context rules stay in a text.
    """
    s = _NON_TOKEN.sub(" ", "".join(t.replace("\n", " ") + "\n" for t in texts).lower())
    for suffix in _CONTRACTIONS:
        s = s.replace(suffix, " " + suffix)
    for mark in ",!?()":
        s = s.replace(mark, f" {mark} ")
    token_lists = []
    for line in s.split("\n")[:-1]:
        if "'" not in line:
            token_lists.append(line.split())
            continue
        tokens = []
        for tok in line.split():
            if "'" not in tok or tok in _CONTRACTIONS:
                tokens.append(tok)
            else:
                tokens.extend(tok.replace("'", " ").split())
        token_lists.append(tokens)
    return token_lists


def clean_and_tokenize(raw: str) -> list[str]:
    """`tokenize_texts` of one text."""
    return tokenize_texts([raw])[0]


class Vocabulary:
    """Bijection between tokens and ids; `<pad>` is always id 0."""

    __slots__ = ("word_to_id", "id_to_word")

    def __init__(self, words=()):
        distinct = dict.fromkeys(words)
        if PAD_TOKEN in distinct:
            raise ValueError(f"{PAD_TOKEN!r} is reserved and may not appear in text")
        self.id_to_word: list[str] = [PAD_TOKEN, *distinct]
        self.word_to_id: dict[str, int] = dict(zip(self.id_to_word, range(len(self.id_to_word))))

    def __len__(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        """Whether `word` is a text word here; the reserved pad token is not."""
        return word != PAD_TOKEN and word in self.word_to_id

    def id(self, word: str) -> int:
        return self.word_to_id[word]


def build_vocabulary(token_lists) -> Vocabulary:
    """Vocabulary over all distinct tokens, ids in first-occurrence order."""
    token_lists = list(token_lists)
    if not token_lists:
        raise ValueError("empty corpus")
    return Vocabulary(itertools.chain.from_iterable(token_lists))


def _encode_padded(token_lists, vocab: Vocabulary, h_max: int) -> list[np.ndarray]:
    """Each token list's ids, right-padded so at least one width-h_max window
    exists, as slices of one int64 array mapped in one pass.

    Tokens missing from the vocabulary map to the pad id, which is backed by
    a frozen all-zero vector downstream.
    """
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    padded = [toks if len(toks) >= h_max else [*toks, *[PAD_TOKEN] * (h_max - len(toks))]
              for toks in token_lists]
    tokens = itertools.chain.from_iterable(padded)
    ids = np.fromiter(map(vocab.word_to_id.get, tokens, itertools.repeat(PAD_ID)), np.int64)
    ends = itertools.accumulate(map(len, padded))
    return [ids[end - len(toks):end] for toks, end in zip(padded, ends)]


def encode_and_pad(tokens, vocab: Vocabulary, h_max: int) -> np.ndarray:
    """Map tokens to ids, right-padding so at least one width-h_max window exists."""
    return _encode_padded([list(tokens)], vocab, h_max)[0]


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


def assign_folds(n_examples: int, n_folds: int, seed: int) -> np.ndarray:
    """The (N,) int64 fold index of each example: a shuffled round-robin
    assignment, so fold sizes differ by at most 1."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_examples < n_folds:
        raise ValueError(f"cannot split {n_examples} examples into {n_folds} folds")
    perm = np.random.default_rng(seed).permutation(n_examples)
    fold_of = np.empty(n_examples, dtype=np.int64)
    fold_of[perm] = np.arange(n_examples) % n_folds
    return fold_of


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


def decimal_int(text: str, kind=int):
    """`kind(text)`, an int unless `kind` is float, without the digit-group
    underscores and non-ASCII digits that int() and float() take."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"invalid decimal number {text!r}")
    return kind(text)


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
                label = decimal_int(label_s)
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
    return tokenize_texts(text for _, text in pairs), [label for label, _ in pairs]


def count_classes(labels) -> int:
    """The class count c: the labels must be exactly 0..c-1, each one used."""
    present = set(labels)
    c = max(present) + 1
    if len(present) < c:
        missing = list(itertools.islice((i for i in range(c) if i not in present), 5))
        more = ", ..." if c - len(present) > len(missing) else ""
        raise ValueError(f"class labels must be 0..{c - 1} with every class present; "
                         f"missing {', '.join(map(str, missing))}{more}")
    return c


def encode_corpus(token_lists, labels, vocab: Vocabulary, h_max: int) -> Dataset:
    """`encode_and_pad` of every token list, as slices of one id array."""
    examples = [Example(ids, label)
                for ids, label in zip(_encode_padded(token_lists, vocab, h_max), labels)]
    return Dataset(examples, count_classes(labels))
