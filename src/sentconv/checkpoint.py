"""The checkpoint format: a trained model with its vocabulary, config and history.

Layout (VERSION 2): MAGIC, u32 version, then length-prefixed config text,
history text and vocabulary (the words joined by newlines, pad first), a u32
class count, and finally every tensor's float64 little-endian data in
`net.all_tensors` order.  No tensor carries a name or shape: the embedded
config, the vocabulary size and the class count fix them all
(`optim.tensor_shapes`).  No trailing bytes; other versions, VERSION 1
included, are rejected.  `_model` is the one rule for what a checkpoint may
hold, for save and load alike; save then applies `optim.check_model`.

`load_checkpoint` maps the file once, privately and copy-on-write, and every
tensor it returns is a view of that mapping: no table is read into fresh
memory (the finite check reads the mapped pages), a frozen table's view is
read-only as `embed.EmbeddingChannel` makes it, and a write to a trainable
one copies its page and never reaches the file.  The views start wherever
the texts end, so they are unaligned; numpy copies where BLAS needs
alignment, and every output equals that of aligned copies.  A mapped file
must not be changed in place while a process has it loaded: a truncated
page faults (SIGBUS) on its next read, and a rewritten one may show the new
bytes.  So `save_checkpoint` writes a sibling `<path>.<random hex>.tmp`,
removed if the write fails, and renames it over the path with the mode
`open(path, "wb")` would give; it never truncates a checkpoint, and saving
over a checkpoint the same process has loaded is safe.
"""

from __future__ import annotations

import math
import mmap
import os
import secrets
import shutil
import struct
from dataclasses import dataclass

import numpy as np

from . import embed, net, optim
from .corpus import PAD_TOKEN, Vocabulary

MAGIC = b"SCNV"
VERSION = 2


class CheckpointError(Exception):
    """A checkpoint file that cannot be trusted (bad magic, version, truncation,
    undecodable text, a bad vocabulary or config, tensors that are not finite)."""


class _Reader:
    """Checkpoint fields in file order, from one copy-on-write mapping of the
    file.  No read asks for more bytes than the file has left, so a corrupt
    length, size or class count never sizes an allocation or a view."""

    def __init__(self, fh):
        if os.fstat(fh.fileno()).st_size == 0:  # mmap cannot map an empty file
            raise CheckpointError("truncated checkpoint")
        self.map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        self.at = 0

    @property
    def left(self) -> int:
        return len(self.map) - self.at

    def _take(self, n: int) -> int:
        """The offset of the next `n` bytes, which this read consumes."""
        if n > self.left:
            raise CheckpointError("truncated checkpoint")
        self.at += n
        return self.at - n

    def exact(self, n: int) -> bytes:
        start = self._take(n)
        return self.map[start:start + n]

    def u32(self) -> int:
        return struct.unpack("<I", self.exact(4))[0]

    def text(self) -> str:
        try:
            return self.exact(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("string is not valid UTF-8") from None

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        count = math.prod(shape)
        start = self._take(8 * count)
        return np.frombuffer(self.map, dtype="<f8", count=count, offset=start).reshape(shape)


@dataclass
class Checkpoint:
    params: net.ModelParams
    vocab: Vocabulary
    config: optim.TrainConfig
    history_csv: str


def _model(config: optim.TrainConfig, words: list[str], classes: int,
           tensors) -> tuple[net.ModelParams, Vocabulary]:
    """The model and vocabulary of a checkpoint: the one rule for what one may
    hold, shared by save and load.  `words` start with the pad token; `tensors`
    (in `net.all_tensors` order) are drawn once the words pass; the config's
    and the model's types, not `_model`, check them when made.  Raises
    ValueError, in this order, for a bad vocabulary, other shapes than
    `optim.tensor_shapes`, a nonzero pad row, fewer than two classes, a
    non-numeric or non-finite tensor."""
    if words[0] != PAD_TOKEN:
        raise ValueError("vocabulary does not start with the pad token")
    if "\n".join(words).split() != words:
        bad = next(word for word in words if word.split() != [word])
        raise ValueError(f"vocabulary word {bad!r} is empty or holds whitespace")
    vocab = Vocabulary(words[1:])
    if len(vocab) != len(words):
        raise ValueError("duplicate words in checkpoint vocabulary")
    tensors = list(tensors)
    if [tensor.shape for tensor in tensors] != optim.tensor_shapes(config, len(words), classes):
        raise ValueError("the config and vocabulary give other tensor shapes than the model's")
    flags = embed.VARIANT_CHANNELS[config.variant]
    channels = [embed.EmbeddingChannel(table, trainable=flag)
                for table, flag in zip(tensors, flags)]
    conv = tensors[len(flags):-2]
    banks = [net.FilterBank(weights, biases) for weights, biases in zip(conv[::2], conv[1::2])]
    params = net.ModelParams(channels, banks, net.OutputLayer(*tensors[-2:]),
                             keep_prob=config.keep_prob, activation=config.activation)
    for name, tensor in net.all_tensors(params):
        if tensor.dtype.kind not in "biuf":
            raise ValueError(f"tensor {name} is not numeric")
        if not np.isfinite(tensor).all():
            raise ValueError(f"tensor {name} holds non-finite values")
    return params, vocab


def save_checkpoint(path, params: net.ModelParams, vocab: Vocabulary,
                    config: optim.TrainConfig, history_csv: str = "") -> None:
    """Write the model, its vocabulary, config and history to `path`.  A model that
    `_model`, then `optim.check_model`, refuses raises ValueError before any file is made."""
    tensors = [tensor for _, tensor in net.all_tensors(params)]
    _model(config, vocab.id_to_word, params.num_classes, tensors)
    optim.check_model(config, params)
    # Replace the file, never rewrite it: a process may have it mapped.
    path = os.path.realpath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", VERSION))
            for text in (optim.config_to_text(config), history_csv, "\n".join(vocab.id_to_word)):
                data = text.encode("utf-8")
                fh.write(struct.pack("<I", len(data)) + data)
            fh.write(struct.pack("<I", params.num_classes))
            for tensor in tensors:
                fh.write(np.ascontiguousarray(tensor, dtype="<f8"))
        if os.path.exists(path):  # the mode `open(path, "wb")` would have kept
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.exact(4) != MAGIC:
            raise CheckpointError("magic mismatch: not a checkpoint file")
        version = reader.u32()
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        config_text = reader.text()
        history_csv = reader.text()
        try:
            config = optim.parse_config(config_text)
        except ValueError as exc:
            raise CheckpointError(f"bad embedded config: {exc}") from None
        words = reader.text().split("\n")
        classes = reader.u32()
        tensors = map(reader.array, optim.tensor_shapes(config, len(words), classes))
        try:
            params, vocab = _model(config, words, classes, tensors)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
        if reader.left:
            raise CheckpointError("trailing garbage after checkpoint payload")
    return Checkpoint(params, vocab, config, history_csv)
