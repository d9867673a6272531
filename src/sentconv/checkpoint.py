"""The checkpoint format: a trained model with its vocabulary, config and history.

Layout: MAGIC, u32 version, then length-prefixed variant, config text,
history text, the vocabulary, and finally every tensor as (name, u32 rank,
u64 dims..., float64 little-endian data).  No trailing bytes.
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
VERSION = 1


class CheckpointError(Exception):
    """A checkpoint file that cannot be trusted (bad magic, version, truncation,
    undecodable text, tensors that disagree with the config or are not finite)."""


def _write_str(fh, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _write_tensor(fh, name: str, tensor: np.ndarray) -> None:
    _write_str(fh, name)
    fh.write(struct.pack("<I", tensor.ndim))
    for dim in tensor.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


class _Reader:
    """Checkpoint fields in file order.  No read asks for more bytes than the
    file has left, so a corrupt length or dimension never sizes an allocation."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def exact(self, n: int) -> bytes:
        if n > self.left:
            raise CheckpointError("truncated checkpoint")
        self.left -= n
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

    def tensor(self) -> tuple[str, np.ndarray]:
        name = self.text()
        dims = [struct.unpack("<Q", self.exact(8))[0] for _ in range(self.u32())]
        data = np.frombuffer(self.exact(8 * math.prod(dims)), dtype="<f8")
        try:
            return name, data.reshape(dims).copy()
        except ValueError:
            raise CheckpointError(f"tensor {name} has unsupported dims") from None


@dataclass
class Checkpoint:
    params: net.ModelParams
    vocab: Vocabulary
    config: optim.TrainConfig
    history_csv: str


def save_checkpoint(path, params: net.ModelParams, vocab: Vocabulary,
                    config: optim.TrainConfig, history_csv: str = "") -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_str(fh, config.variant)
        _write_str(fh, optim.config_to_text(config))
        _write_str(fh, history_csv)
        words = vocab.id_to_word
        fh.write(struct.pack("<I", len(words)))
        for word in words:
            _write_str(fh, word)
        tensors = net.all_tensors(params)
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors:
            _write_tensor(fh, name, tensor)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.exact(4) != MAGIC:
            raise CheckpointError("magic mismatch: not a checkpoint file")
        version = reader.u32()
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        variant = reader.text()
        config_text = reader.text()
        history_csv = reader.text()
        try:
            config = optim.parse_config(config_text)
        except ValueError as exc:
            raise CheckpointError(f"bad embedded config: {exc}") from None
        if config.variant != variant:
            raise CheckpointError("variant tag disagrees with embedded config")
        words = [reader.text() for _ in range(reader.u32())]
        if not words or words[0] != PAD_TOKEN:
            raise CheckpointError("vocabulary does not start with the pad token")
        try:
            vocab = Vocabulary(words[1:])
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
        if len(vocab) != len(words):
            raise CheckpointError("duplicate words in checkpoint vocabulary")
        tensors = {}
        for _ in range(reader.u32()):
            name, tensor = reader.tensor()
            if name in tensors:
                raise CheckpointError(f"tensor {name} appears twice")
            tensors[name] = tensor
        if reader.left:
            raise CheckpointError("trailing garbage after checkpoint payload")

    flags = embed.VARIANT_CHANNELS[config.variant]
    maps = config.maps_per_width
    out_b = tensors.get("output.biases", np.empty(0))
    classes = out_b.shape[0] if out_b.ndim == 1 else 0
    shapes = {f"channel{i}": (len(vocab), config.dim) for i in range(len(flags))}
    for h in config.widths:
        shapes[f"conv{h}.weights"] = (maps, h, config.dim)
        shapes[f"conv{h}.biases"] = (maps,)
    shapes["output.weights"] = (classes, maps * len(config.widths))
    shapes["output.biases"] = (classes,)
    if sorted(tensors) != sorted(shapes):
        raise CheckpointError("tensor set does not match the embedded config")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise CheckpointError(f"tensor {name} has shape {tensors[name].shape}, "
                                  f"expected {shape} from the vocabulary and config")
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"tensor {name} holds non-finite values")
    if classes < 1:
        raise CheckpointError("output layer has no classes")
    try:
        channels = [embed.EmbeddingChannel(tensors[f"channel{i}"], trainable=flag)
                    for i, flag in enumerate(flags)]
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    banks = [net.FilterBank(h, tensors[f"conv{h}.weights"], tensors[f"conv{h}.biases"])
             for h in config.widths]
    output = net.OutputLayer(tensors["output.weights"], tensors["output.biases"])
    params = net.ModelParams(channels, banks, output, keep_prob=config.keep_prob,
                             activation=config.activation)
    return Checkpoint(params, vocab, config, history_csv)
