"""The checkpoint format: a trained model with its vocabulary, config and history.

Layout (VERSION 2): MAGIC, u32 version, then length-prefixed config text,
history text and vocabulary (the words joined by newlines, pad first), a u32
class count, and finally every tensor's float64 little-endian data in
`net.all_tensors` order.  No tensor carries a name or shape: the embedded
config, the vocabulary size and the class count fix them all.  No trailing
bytes.  Files of other versions, VERSION 1 included, are rejected.
"""

from __future__ import annotations

import math
import os
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


def _write_str(fh, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


class _Reader:
    """Checkpoint fields in file order.  No read asks for more bytes than the
    file has left, so a corrupt length, size or class count never sizes an
    allocation."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def _take(self, n: int) -> None:
        if n > self.left:
            raise CheckpointError("truncated checkpoint")
        self.left -= n

    def exact(self, n: int) -> bytes:
        self._take(n)
        data = self.fh.read(n)
        if len(data) != n:
            raise CheckpointError("truncated checkpoint")
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.exact(4))[0]

    def text(self) -> str:
        try:
            return self.exact(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("string is not valid UTF-8") from None

    def array(self, *shape: int) -> np.ndarray:
        self._take(8 * math.prod(shape))
        out = np.empty(shape, dtype="<f8")
        if self.fh.readinto(out) != out.nbytes:
            raise CheckpointError("truncated checkpoint")
        return out


@dataclass
class Checkpoint:
    params: net.ModelParams
    vocab: Vocabulary
    config: optim.TrainConfig
    history_csv: str


def save_checkpoint(path, params: net.ModelParams, vocab: Vocabulary,
                    config: optim.TrainConfig, history_csv: str = "") -> None:
    words = vocab.id_to_word
    blob = "\n".join(words)
    if blob.split() != words:
        bad = next(word for word in words if word.split() != [word])
        raise ValueError(f"vocabulary word {bad!r} is empty or holds whitespace")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_str(fh, optim.config_to_text(config))
        _write_str(fh, history_csv)
        _write_str(fh, blob)
        fh.write(struct.pack("<I", params.num_classes))
        for _, tensor in net.all_tensors(params):
            fh.write(np.ascontiguousarray(tensor, dtype="<f8"))


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
        blob = reader.text()
        words = blob.split("\n")
        if words[0] != PAD_TOKEN:
            raise CheckpointError("vocabulary does not start with the pad token")
        if blob.split() != words:
            raise CheckpointError("vocabulary holds an empty word or one with whitespace")
        try:
            vocab = Vocabulary(words[1:])
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
        if len(vocab) != len(words):
            raise CheckpointError("duplicate words in checkpoint vocabulary")
        classes = reader.u32()
        if classes < 2:
            raise CheckpointError(f"output layer needs at least two classes, got {classes}")
        flags = embed.VARIANT_CHANNELS[config.variant]
        dim, maps = config.dim, config.maps_per_width
        tables = [reader.array(len(vocab), dim) for _ in flags]
        banks = [net.FilterBank(h, reader.array(maps, h, dim), reader.array(maps))
                 for h in config.widths]
        output = net.OutputLayer(reader.array(classes, maps * len(banks)), reader.array(classes))
        if reader.left:
            raise CheckpointError("trailing garbage after checkpoint payload")

    try:
        channels = [embed.EmbeddingChannel(table, trainable=flag)
                    for table, flag in zip(tables, flags)]
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    params = net.ModelParams(channels, banks, output, keep_prob=config.keep_prob,
                             activation=config.activation)
    for name, tensor in net.all_tensors(params):
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"tensor {name} holds non-finite values")
    return Checkpoint(params, vocab, config, history_csv)
