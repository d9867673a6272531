"""Command-line entry points.

Commands: train, predict, neighbors, inspect-data.
Exit codes: 0 success, 1 usage, 2 validation, 3 corrupt artifact, 4 query error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import corpus, embed, evaluate, net, optim
# The benchmark wraps and names these as `cli` attributes; the commands call them here.
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CORRUPT = 3
EXIT_QUERY = 4


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
    train.add_argument("--seed", type=corpus.decimal_int, help="override config seed")
    train.add_argument("--cv", action="store_true", help="10-fold cross-validation")
    train.add_argument("--checkpoint", help="where to save the trained model")
    train.add_argument("--out", help="where to write the history/report file")

    predict = sub.add_parser("predict", help="classify sentences, one per line")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--input", default="-", help="input file, or - for stdin")

    neighbors = sub.add_parser("neighbors", help="nearest words per embedding channel")
    neighbors.add_argument("--checkpoint", required=True)
    neighbors.add_argument("query", help="vocabulary word to look up")
    neighbors.add_argument("--count", type=corpus.decimal_int, default=4)

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
    overrides = {"variant": args.variant, "seed": args.seed}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if config.variant == "rand" and args.vectors:
        sys.stderr.write("sentconv: the rand variant draws its embeddings; --vectors is ignored\n")

    dataset, vocab = _load_and_encode(args.data, max(config.widths))[:2]
    # Only the model holds the base matrix: frozen channels view it, trainable
    # ones copy it.  A fit and --cv both start from this one model.
    params = evaluate.initial_params(
        config, embed.build_base_matrix(vocab, config.dim, config.variant, config.seed,
                                        vectors_path=args.vectors,
                                        unknown_init=config.unknown_init,
                                        rand_a=config.rand_init_a)[0], dataset.num_classes)

    if args.cv:
        if args.checkpoint:
            sys.stderr.write("sentconv: --cv trains one throwaway model per fold; "
                             "--checkpoint is ignored\n")
        accuracies = evaluate.run_cross_validation(dataset, config, params)
        text = (f"# seed={config.seed} variant={config.variant} "
                f"config={evaluate.config_fingerprint(config)}\nfold,accuracy\n"
                + "".join(f"{i},{acc:.6f}\n" for i, acc in enumerate(accuracies))
                + f"mean,{np.mean(accuracies):.6f}\n")
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return EXIT_OK

    result = evaluate.fit_with_dev_split(params, dataset, config)
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
    # Stdin (fd 0) is decoded as strictly as a file.  Lines end at \n, \r\n or \r
    # only, as in `corpus.load_tsv`: `str.splitlines` would also break them at
    # form feeds, U+2028 and the like.  Each line is encoded as `predict_logits`
    # draws it, so memory holds one block of sentences, not the whole input.
    stdin = args.input == "-"
    with open(0 if stdin else args.input, encoding="utf-8", closefd=not stdin) as fh:
        logits = net.predict_logits(ckpt.params, (corpus.encode_and_pad(
            corpus.clean_and_tokenize(line.rstrip("\n")), ckpt.vocab, h_max) for line in fh))
    probs, _ = net.loss_and_probs(logits, np.zeros(len(logits), dtype=np.int64))
    row = "{}\t" + " ".join(["{:.10f}"] * probs.shape[1]) + "\n"
    sys.stdout.writelines(row.format(best, *dist) for best, dist in
                          zip(probs.argmax(axis=1).tolist(), map(np.ndarray.tolist, probs)))
    return EXIT_OK


def cmd_neighbors(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.query not in ckpt.vocab:
        sys.stderr.write(f"sentconv: unknown word {args.query!r}\n")
        return EXIT_QUERY
    ranked = evaluate.neighbor_report(ckpt.params, ckpt.vocab, args.query, args.count)
    sys.stdout.write("".join("\t".join(f"{word}\t{sim:.3f}" for word, sim in row) + "\n"
                             for row in zip(*ranked)))
    return EXIT_OK


def cmd_inspect_data(args) -> int:
    dataset, vocab, token_lists = _load_and_encode(args.data, 1)
    # A rejected vector file must exit before the report's first line.
    matched = embed.load_vectors(args.vectors, vocab)[1] if args.vectors else None
    avg_len = float(np.mean([len(toks) for toks in token_lists]))
    sys.stdout.write(f"c\t{dataset.num_classes}\n")
    sys.stdout.write(f"l\t{round(avg_len)}\n")
    sys.stdout.write(f"N\t{len(dataset)}\n")
    sys.stdout.write(f"V\t{len(vocab) - 1}\n")
    if matched is not None:
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
    except MemoryError as exc:  # sizes a config asks for; a bare MemoryError has no message
        sys.stderr.write(f"sentconv: out of memory: {str(exc) or 'an allocation failed'}\n")
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())
