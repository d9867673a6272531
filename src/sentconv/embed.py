"""Word-vector file parsing, unknown-word initialization, channel assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import RAND_MATRIX, UNKNOWN_INIT, derive_seed
from .corpus import PAD_ID, Vocabulary

# Per model variant, the trainable flag of each embedding channel, in channel
# order.  Every channel starts as a copy of the same base matrix.
VARIANT_CHANNELS = {
    "rand": (True,),
    "static": (False,),
    "non-static": (True,),
    "multichannel": (False, True),
}
VARIANTS = tuple(VARIANT_CHANNELS)


@dataclass
class EmbeddingChannel:
    """One V x k lookup table; row 0 backs the pad token and stays zero."""

    matrix: np.ndarray
    trainable: bool

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("channel matrix must be V x k")
        if np.any(self.matrix[PAD_ID] != 0.0):
            raise ValueError("pad row must be zero")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _read_until_space(stream) -> bytes:
    """Word bytes up to a single space; leading newlines left over from the
    previous record are consumed."""
    chunks = []
    while True:
        ch = stream.read(1)
        if ch == b" ":
            break
        if ch == b"":
            raise ValueError(f"truncated record at byte {stream.tell()}")
        if ch == b"\n" and not chunks:
            continue
        chunks.append(ch)
    return b"".join(chunks)


def _store(matrix, vocab, word, vec, exact, fallback):
    """First exact match wins; a lowercase fallback never displaces an exact one."""
    if word in vocab:
        vid = vocab.id(word)
        if vid != PAD_ID and vid not in exact:
            matrix[vid] = vec
            exact.add(vid)
            fallback.discard(vid)
        return
    lower = word.lower()
    if lower in vocab:
        vid = vocab.id(lower)
        if vid != PAD_ID and vid not in exact and vid not in fallback:
            matrix[vid] = vec
            fallback.add(vid)


def parse_word2vec_binary(stream, vocab: Vocabulary, expected_dim: int | None = None):
    """Fill vocabulary rows from a word2vec binary stream.

    Layout: ASCII header `<count> <dim>\\n`, then per record the word bytes
    terminated by one space, `dim` little-endian float32 values, and an
    optional newline.  Values are widened to float64.  Returns the V x dim
    matrix (unmatched rows zero) and the set of matched vocabulary words.
    """
    header = stream.readline()
    parts = header.split()
    try:
        count, dim = int(parts[0]), int(parts[1])
        if len(parts) != 2 or count < 0 or dim < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise ValueError("bad header") from None
    if expected_dim is not None and dim != expected_dim:
        raise ValueError(f"file declares {dim}-dimensional vectors, expected {expected_dim}")

    matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    exact: set[int] = set()
    fallback: set[int] = set()
    record_bytes = 4 * dim
    for _ in range(count):
        word = _read_until_space(stream).decode("utf-8", errors="replace")
        buf = stream.read(record_bytes)
        if len(buf) != record_bytes:
            raise ValueError(f"truncated record at byte {stream.tell()}")
        vec = np.frombuffer(buf, dtype="<f4").astype(np.float64)
        _store(matrix, vocab, word, vec, exact, fallback)
    matched = {vocab.id_to_word[v] for v in exact | fallback}
    return matrix, matched


def parse_word2vec_text(stream, vocab: Vocabulary, expected_dim: int | None = None):
    """Plain-text variant: one `word v1 ... vk` line per record, no header."""
    matrix = None
    exact: set[int] = set()
    fallback: set[int] = set()
    dim = expected_dim
    for lineno, raw in enumerate(stream, 1):
        line = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
        fields = line.split()
        if not fields:
            continue
        if dim is None:
            dim = len(fields) - 1
            if dim < 1:
                raise ValueError(f"line {lineno}: no vector values")
        if len(fields) != dim + 1:
            raise ValueError(f"line {lineno}: expected {dim} values, got {len(fields) - 1}")
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value") from None
        if matrix is None:
            matrix = np.zeros((len(vocab), dim), dtype=np.float64)
        _store(matrix, vocab, fields[0], vec, exact, fallback)
    if matrix is None:
        if dim is None:
            raise ValueError("empty vector file")
        matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    matched = {vocab.id_to_word[v] for v in exact | fallback}
    return matrix, matched


def write_word2vec_binary(stream, words, matrix) -> None:
    matrix = np.asarray(matrix)
    stream.write(f"{len(words)} {matrix.shape[1]}\n".encode("ascii"))
    for word, row in zip(words, matrix):
        stream.write(word.encode("utf-8") + b" ")
        stream.write(row.astype("<f4").tobytes())
        stream.write(b"\n")


def write_word2vec_text(stream, words, matrix) -> None:
    for word, row in zip(words, np.asarray(matrix)):
        line = word + " " + " ".join(repr(float(x)) for x in row) + "\n"
        stream.write(line.encode("utf-8"))


def load_vectors(path, vocab: Vocabulary, expected_dim: int | None = None):
    """Parse a vector file, sniffing binary vs. text by the header line."""
    with open(path, "rb") as fh:
        fields = fh.readline().split()
        fh.seek(0)
        is_binary = len(fields) == 2
        if is_binary:
            try:
                int(fields[0]), int(fields[1])
            except ValueError:
                is_binary = False
        if is_binary:
            return parse_word2vec_binary(fh, vocab, expected_dim)
        return parse_word2vec_text(fh, vocab, expected_dim)


def variance_matched_init(matrix, matched_ids, unknown_ids, seed: int,
                          fallback_a: float = 0.25) -> float:
    """Fill unknown rows from U[-a, a] with a chosen so the new entries have
    the same variance as the matched ones (Var U[-a,a] = a^2/3).

    Returns the half-width actually used; zero matched variance (or no
    matched rows) falls back to `fallback_a`.
    """
    matched_ids = np.asarray(sorted(matched_ids), dtype=np.int64)
    pooled_var = float(matrix[matched_ids].var()) if matched_ids.size else 0.0
    a = float(np.sqrt(3.0 * pooled_var)) if pooled_var > 0.0 else fallback_a
    fill_uniform(matrix, unknown_ids, a, seed)
    return a


def fill_uniform(matrix, ids, a: float, seed: int) -> None:
    ids = np.asarray(sorted(ids), dtype=np.int64)
    if ids.size:
        rng = np.random.default_rng(seed)
        matrix[ids] = rng.uniform(-a, a, size=(ids.size, matrix.shape[1]))


def random_matrix(vocab_size: int, dim: int, seed: int, a: float = 0.25) -> np.ndarray:
    """All-random V x k matrix with a zero pad row."""
    matrix = np.zeros((vocab_size, dim), dtype=np.float64)
    fill_uniform(matrix, range(1, vocab_size), a, seed)
    return matrix


def build_base_matrix(vocab: Vocabulary, dim: int, variant: str, seed: int,
                      vectors_path=None, unknown_init: str = "variance_matched",
                      rand_a: float = 0.25):
    """Base embedding matrix for a model variant.

    `rand` ignores any vector file; the other variants require one and
    initialize vocabulary words missing from it either variance-matched to
    the matched entries or from a fixed U[-rand_a, rand_a].  Returns the
    matrix and the matched-word set (empty for `rand`).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "rand":
        return random_matrix(len(vocab), dim, derive_seed(seed, RAND_MATRIX), rand_a), set()
    if vectors_path is None:
        raise ValueError(f"{variant} variant requires pre-trained vectors")
    matrix, matched = load_vectors(vectors_path, vocab, dim)
    matched_ids = {vocab.id(w) for w in matched}
    unknown_ids = [i for i in range(1, len(vocab)) if i not in matched_ids]
    if unknown_init == "variance_matched":
        variance_matched_init(matrix, matched_ids, unknown_ids,
                              derive_seed(seed, UNKNOWN_INIT), fallback_a=rand_a)
    elif unknown_init == "fixed":
        fill_uniform(matrix, unknown_ids, rand_a, derive_seed(seed, UNKNOWN_INIT))
    else:
        raise ValueError(f"unknown unknown_init mode {unknown_init!r}")
    return matrix, matched


def assemble_channels(variant: str, base_matrix) -> list[EmbeddingChannel]:
    """Turn a fully initialized base matrix into the variant's channel list.

    Every channel gets its own copy, so fine-tuning one channel can never
    leak into another.
    """
    if variant not in VARIANT_CHANNELS:
        raise ValueError(f"unknown variant {variant!r}")
    base = np.asarray(base_matrix, dtype=np.float64)
    return [EmbeddingChannel(base.copy(), trainable=flag) for flag in VARIANT_CHANNELS[variant]]
