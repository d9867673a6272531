"""Command-line entry points and checkpoint serialization.

Commands: train, predict, neighbors, inspect-data.
Exit codes: 0 success, 1 usage, 2 validation, 3 corrupt artifact, 4 query error.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import corpus, embed, evaluate, net, optim
from ._seeds import DEV_SPLIT, derive_seed
from .corpus import PAD_TOKEN, Vocabulary

MAGIC = b"SCNV"
VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CORRUPT = 3
EXIT_QUERY = 4


class CheckpointError(Exception):
    """A checkpoint file that cannot be trusted (bad magic, version, truncation,
    undecodable text, tensors that disagree with the config or are not finite)."""


# ---------------------------------------------------------------------------
# checkpoint format: MAGIC, u32 version, then length-prefixed variant, config
# text, history text, the vocabulary, and finally every tensor as
# (name, u32 rank, u64 dims..., float64 little-endian data).  No trailing bytes.
# ---------------------------------------------------------------------------

def _write_bytes(fh, data: bytes) -> None:
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _write_str(fh, text: str) -> None:
    _write_bytes(fh, text.encode("utf-8"))


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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sentconv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model (or run cross-validation)")
    train.add_argument("--config", help="path to a `key = value` config file")
    train.add_argument("--data", required=True, help="<label>TAB<sentence> lines")
    train.add_argument("--vectors", help="pre-trained vectors (word2vec binary or text)")
    train.add_argument("--variant", choices=embed.VARIANTS, help="override config variant")
    train.add_argument("--seed", type=int, help="override config seed")
    train.add_argument("--cv", action="store_true", help="10-fold cross-validation")
    train.add_argument("--checkpoint", help="where to save the trained model")
    train.add_argument("--out", help="where to write the history/report file")

    predict = sub.add_parser("predict", help="classify sentences, one per line")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--input", default="-", help="input file, or - for stdin")

    neighbors = sub.add_parser("neighbors", help="nearest words per embedding channel")
    neighbors.add_argument("--checkpoint", required=True)
    neighbors.add_argument("query", help="vocabulary word to look up")
    neighbors.add_argument("--count", type=int, default=4)

    inspect = sub.add_parser("inspect-data", help="print dataset summary statistics")
    inspect.add_argument("--data", required=True)
    inspect.add_argument("--vectors", help="count vocabulary coverage of this vector file")
    return parser


def _load_and_encode(data_path, h_max: int):
    pairs = corpus.load_tsv(data_path)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, h_max)
    return dataset, vocab, token_lists


def cmd_train(args) -> int:
    config = optim.load_config(args.config) if args.config else optim.TrainConfig()
    if args.variant is not None:
        config.variant = args.variant
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    if config.variant != "rand" and not args.vectors:
        raise ValueError(f"{config.variant} variant requires --vectors")

    dataset, vocab, _ = _load_and_encode(args.data, max(config.widths))
    base, _ = embed.build_base_matrix(vocab, config.dim, config.variant, config.seed,
                                      vectors_path=args.vectors,
                                      unknown_init=config.unknown_init,
                                      rand_a=config.rand_init_a)

    if args.cv:
        if args.checkpoint:
            sys.stderr.write("sentconv: --cv trains one throwaway model per fold; "
                             "--checkpoint is ignored\n")
        report = evaluate.run_cross_validation(dataset, config, base)
        text = (f"# seed={report.seed} variant={config.variant} "
                f"config={report.config_fingerprint}\n") + report.to_csv()
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return EXIT_OK

    params = evaluate.initial_params(config, base, dataset.num_classes)
    train_ds, dev_ds = corpus.select_dev_split(dataset, config.dev_fraction,
                                               derive_seed(config.seed, DEV_SPLIT, 0))
    result = optim.fit(params, train_ds.examples, dev_ds.examples, config)
    history_csv = optim.history_to_csv(result.history)
    sys.stdout.write(f"seed\t{config.seed}\n")
    sys.stdout.write(f"variant\t{config.variant}\n")
    sys.stdout.write(f"best_epoch\t{result.best_epoch}\n")
    sys.stdout.write(f"dev_accuracy\t{result.best_dev_accuracy:.6f}\n")
    if args.checkpoint:
        save_checkpoint(args.checkpoint, result.params, vocab, config, history_csv)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(history_csv)
    return EXIT_OK


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    h_max = max(ckpt.config.widths)
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.input, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        ids = corpus.encode_and_pad(corpus.clean_and_tokenize(line), ckpt.vocab, h_max)
        probs = net.predict_probs(ckpt.params, ids)
        dist = " ".join(f"{p:.10f}" for p in probs)
        sys.stdout.write(f"{int(np.argmax(probs))}\t{dist}\n")
    return EXIT_OK


def cmd_neighbors(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.query not in ckpt.vocab:
        sys.stderr.write(f"sentconv: unknown word {args.query!r}\n")
        return EXIT_QUERY
    report = evaluate.neighbor_report(ckpt.params, ckpt.vocab, args.query, args.count)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def cmd_inspect_data(args) -> int:
    pairs = corpus.load_tsv(args.data)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    avg_len = float(np.mean([len(toks) for toks in token_lists]))
    sys.stdout.write(f"c\t{corpus.count_classes(labels)}\n")
    sys.stdout.write(f"l\t{round(avg_len)}\n")
    sys.stdout.write(f"N\t{len(pairs)}\n")
    sys.stdout.write(f"V\t{len(vocab) - 1}\n")
    if args.vectors:
        _, matched = embed.load_vectors(args.vectors, vocab)
        sys.stdout.write(f"V_pre\t{len(matched)}\n")
    sys.stdout.write("test\tcv\n")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "neighbors": cmd_neighbors,
    "inspect-data": cmd_inspect_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"sentconv: {exc}\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as exc:
        sys.stderr.write(f"sentconv: corrupt checkpoint: {exc}\n")
        return EXIT_CORRUPT
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"sentconv: {exc}\n")
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())
