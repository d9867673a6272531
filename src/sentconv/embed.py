"""Word-vector file parsing, unknown-word initialization, channel assembly."""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass

import numpy as np

from ._seeds import RAND_MATRIX, UNKNOWN_INIT, derive_seed
from .corpus import PAD_ID, Vocabulary, decimal_int

# Per model variant, the trainable flag of each embedding channel, in channel
# order.  Every channel starts from the same base matrix.
VARIANT_CHANNELS = {
    "rand": (True,),
    "static": (False,),
    "non-static": (True,),
    "multichannel": (False, True),
}
VARIANTS = tuple(VARIANT_CHANNELS)
UNKNOWN_INITS = ("variance_matched", "fixed")
# Bytes the binary reader and the format sniff take from the file per read.
_CHUNK = 1 << 20


@dataclass
class EmbeddingChannel:
    """One V x k lookup table; row 0 backs the pad token and stays zero.  A
    frozen table is a read-only view, so a stray write raises."""

    matrix: np.ndarray
    trainable: bool

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if not self.trainable and self.matrix.flags.writeable:
            self.matrix = self.matrix.view()
            self.matrix.flags.writeable = False
        if self.matrix.ndim != 2:
            raise ValueError("channel matrix must be V x k")
        if np.any(self.matrix[PAD_ID] != 0.0):
            raise ValueError("pad row must be zero")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _header(fields, expected_dim: int | None = None):
    """`(count, dim)` if a first line's fields are word2vec's `<count> <dim>` header
    (two non-negative decimal integers), else None; a zero or unexpected `dim` is rejected."""
    try:
        count, dim = (decimal_int(field.decode("ascii")) for field in fields)
    except ValueError:
        return None
    if count < 0 or dim < 0:
        return None
    if dim == 0:
        raise ValueError("bad header")
    if expected_dim is not None and dim != expected_dim:
        raise ValueError(f"file declares {dim}-dimensional vectors, expected {expected_dim}")
    return count, dim


def _fill(vocab: Vocabulary, dim: int, records):
    """The V x dim matrix of `(word, vector)` records, unmatched rows zero, and
    the matched vocabulary words.  The first exact match wins; a lowercase
    fallback never displaces an exact one."""
    matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    exact_of: dict[int, bool] = {}
    get = vocab.word_to_id.get
    for word, vec in records:
        exact = (vid := get(word, PAD_ID)) != PAD_ID  # the pad token is no text word
        if not exact and (vid := get(word.lower(), PAD_ID)) == PAD_ID:
            continue
        if vid not in exact_of or (exact and not exact_of[vid]):
            matrix[vid] = vec
            exact_of[vid] = exact
    return matrix, {vocab.id_to_word[v] for v in exact_of}


def parse_word2vec_binary(stream, vocab: Vocabulary, expected_dim: int | None = None):
    """`_fill` from a word2vec binary stream: the header line `<count> <dim>`,
    then per record the word bytes, one space, `dim` little-endian float32
    values (widened to float64) and an optional newline.  The stream must be
    seekable: the header is checked against the bytes after it, so a corrupt
    count or dimension never sizes the matrix.  Records are found in `_CHUNK`
    reads with `bytes.find`, so the whole file is never held."""
    header = _header(stream.readline().split(), expected_dim)
    if header is None:
        raise ValueError("bad header")
    count, dim = header
    start = stream.tell()
    left = stream.seek(0, io.SEEK_END) - start
    stream.seek(start)
    record_min = 1 + 4 * dim  # the word's terminating space, then the values
    if count * record_min > left:
        raise ValueError(f"truncated records: the header's {count} vectors of dimension {dim} "
                         f"need at least {count * record_min} bytes, {left} follow it")
    if record_min > left:
        raise ValueError(f"a record of dimension {dim} needs at least {record_min} bytes, "
                         f"{left} follow the header")

    def records():
        buf, pos = b"", 0
        for _ in range(count):
            # Read on until the buffer holds the word's space and the values after it.
            while (space := buf.find(b" ", pos)) < 0 or space + 4 * dim >= len(buf):
                buf, pos = buf[pos:], 0  # drop what was parsed before reading more
                chunk = stream.read(_CHUNK)
                if not chunk:
                    raise ValueError(f"truncated record at byte {stream.tell()}")
                buf += chunk
            word = buf[pos:space].lstrip(b"\n").decode("utf-8", errors="replace")
            pos = space + 1 + 4 * dim
            yield word, np.frombuffer(buf[space + 1:pos], dtype="<f4")
    return _fill(vocab, dim, records())


def parse_word2vec_text(stream, vocab: Vocabulary, expected_dim: int | None = None):
    """Plain-text variant from a binary stream: an optional `<count> <dim>`
    header line, then one `word v1 ... vk` line per record, as many as the
    header counts.  Fields are split at ASCII whitespace only, as word2vec
    and fastText write them."""
    lines = ((n, raw.split()) for n, raw in enumerate(stream, 1))
    lines = ((n, fields) for n, fields in lines if fields)
    first = next(lines, None)
    header = _header(first[1], expected_dim) if first else None
    dim = header[1] if header else expected_dim
    if not header and first:
        lines = itertools.chain([first], lines)
        dim = len(first[1]) - 1 if dim is None else dim
        if dim < 1:
            raise ValueError(f"line {first[0]}: no vector values")
    if dim is None:
        raise ValueError("empty vector file")

    def records():
        found = 0
        for lineno, fields in lines:
            if len(fields) != dim + 1:
                raise ValueError(f"line {lineno}: expected {dim} values, got {len(fields) - 1}")
            try:
                yield (fields[0].decode("utf-8", errors="replace"),
                       np.array([float(x) for x in fields[1:]], dtype=np.float64))
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value") from None
            found += 1
        if header and found != header[0]:
            raise ValueError(f"the header declares {header[0]} vectors, {found} follow it")
    return _fill(vocab, dim, records())


def write_word2vec_binary(stream, words, matrix) -> None:
    """Write `words` with the rows of `matrix` to a binary stream in the format
    `parse_word2vec_binary` reads, `<count> <dim>` header first."""
    matrix = np.asarray(matrix)
    stream.write(f"{len(words)} {matrix.shape[1]}\n".encode("ascii"))
    for word, row in zip(words, matrix):
        stream.write(word.encode("utf-8") + b" ")
        stream.write(row.astype("<f4").tobytes())
        stream.write(b"\n")


def write_word2vec_text(stream, words, matrix) -> None:
    """Write `words` with the rows of `matrix` to a binary stream in the text
    format `parse_word2vec_text` reads, with no header line."""
    for word, row in zip(words, np.asarray(matrix)):
        line = word + " " + " ".join(repr(float(x)) for x in row) + "\n"
        stream.write(line.encode("utf-8"))


def _text_body(fh, dim: int) -> bool:
    """Whether the first non-blank line from `fh` on (the end of the file
    ends it too) splits at ASCII whitespace into a word and `dim` numbers.
    Reads `_CHUNK` bytes at a time, keeps a field count and the open value
    field, never the word, and stops at the first field that rules text out."""
    count, field = 0, None  # fields ended on the line; the open field's bytes, b"" for the word
    for chunk in itertools.chain(iter(lambda: fh.read(_CHUNK), b""), [b"\n"]):
        for token in (match[0] for match in re.finditer(rb"\S+|\n|[^\S\n]+", chunk)):
            if not token.isspace():
                field = (field or b"") + token if count else b""
            elif field is not None:
                try:
                    if count:
                        float(field)
                except ValueError:
                    return False
                count, field = count + 1, None
            if count > dim + 1 or (token == b"\n" and count):
                return count == dim + 1
    return False


def load_vectors(path, vocab: Vocabulary, expected_dim: int | None = None):
    """Parse a vector file of either format.

    A first line `<count> <dim>` is a header in both; the body is text when
    the next non-blank line splits into a word and `dim` numbers, else
    binary.  A file without a header is text.  Every error names the file;
    a matched vector holding NaN or infinity is rejected, naming the word.
    """
    with open(path, "rb") as fh:
        try:
            header = _header(fh.readline().split())
            is_text = not header or _text_body(fh, header[1])
            fh.seek(0)
            parse = parse_word2vec_text if is_text else parse_word2vec_binary
            matrix, matched = parse(fh, vocab, expected_dim)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: vector for {vocab.id_to_word[bad[0]]!r} "
                         f"holds non-finite values")
    return matrix, matched


def build_base_matrix(vocab: Vocabulary, dim: int, variant: str, seed: int,
                      vectors_path=None, unknown_init: str = "variance_matched",
                      rand_a: float = 0.25):
    """Base embedding matrix for a model variant, and the matched-word set.

    Each non-pad row no vector matched is drawn from U[-a, a], in ascending
    id order.  `rand` reads no vectors, so all its rows are drawn, with
    a = `rand_a`.  The other variants require a file that matches at least
    one vocabulary word, and use a = `rand_a` (`fixed`) or a matching the
    variance of the matched entries, a^2 / 3 (`variance_matched`; `rand_a`
    when that variance is zero).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "rand":
        matrix, matched, stream = np.zeros((len(vocab), dim), dtype=np.float64), set(), RAND_MATRIX
    elif vectors_path is None:
        raise ValueError(f"{variant} variant requires pre-trained vectors")
    elif unknown_init not in UNKNOWN_INITS:
        raise ValueError(f"unknown unknown_init {unknown_init!r}")
    else:
        (matrix, matched), stream = load_vectors(vectors_path, vocab, dim), UNKNOWN_INIT
        if not matched:
            raise ValueError(f"{vectors_path}: no vector matches a vocabulary word")
    matched_ids = np.sort(np.array([vocab.word_to_id[w] for w in matched], dtype=np.int64))
    a = rand_a
    if variant != "rand" and unknown_init == "variance_matched":
        rows = matrix[matched_ids]  # np.var's steps, in place on the one gathered copy
        rows -= rows.mean()
        rows *= rows
        a = float(np.sqrt(3.0 * rows.mean())) or rand_a
    unknown = np.ones(len(vocab), dtype=bool)
    unknown[PAD_ID] = unknown[matched_ids] = False
    unknown_ids = np.flatnonzero(unknown)
    rng = np.random.default_rng(derive_seed(seed, stream))
    matrix[unknown_ids] = rng.uniform(-a, a, size=(unknown_ids.size, dim))
    return matrix, matched


def assemble_channels(variant: str, base_matrix) -> list[EmbeddingChannel]:
    """Turn a fully initialized base matrix into the variant's channel list.

    A trainable channel gets its own copy, so fine-tuning it can never leak
    into another channel; a frozen channel is a read-only view of the base.
    So a `static` model holds one V x k table and a `multichannel` model two.
    """
    if variant not in VARIANT_CHANNELS:
        raise ValueError(f"unknown variant {variant!r}")
    base = np.asarray(base_matrix, dtype=np.float64)
    return [EmbeddingChannel(base.copy() if flag else base, trainable=flag)
            for flag in VARIANT_CHANNELS[variant]]
