"""Reference run: train, score and cross-validate every variant on a fixed
synthetic corpus, write every output to OUTDIR and print a sha256 manifest.

    PYTHONPATH=src python3 tests/reference_run.py OUTDIR [--cv STEM ...]

It pins one BLAS thread before numpy is imported, so the manifest does not
depend on the machine's core count.  The manifest's first line names the
numpy version and the BLAS library, the scope of its bytes;
`tests/reference_manifest.txt` is the full run's manifest.  With --cv, only
the named config-variant stems (`wide-non-static`) run `train --cv`.

The corpus is `synthdata.trigger_bigram_pairs(300, seed=5)`; a word2vec
binary file holds `synthdata.planted_vectors` for three of every four
vocabulary words.  Seven configs (k=16, widths 2,3,4 unless stated, 10
maps, seed 11):

* `reference`: batch 50, 15 epochs, the config earlier identity checks used
  (its models barely train: six batches an epoch);
* `learning`: the same with batch 10, on which every variant learns;
* `tanh`: `learning` with the tanh activation, so the checks cover the
  tanh activation, derivative and argmax paths too;
* `early-stop`: batch 20, up to 30 epochs, patience 4, init_scale 0.1, so
  early stopping ends the run before its last epoch;
* `six-class`: `learning` on `synthdata.six_class_pairs(300, seed=5)` and
  its own vector file, written under `inputs/six-class/`, so the checks
  cover an output layer of more than two classes;
* `short`: `learning` with widths 3,4,5 on `synthdata.short_pairs(300,
  seed=5)`, sentences of 1-4 tokens, and its own vector file, written under
  `inputs/short/`, so every sentence is right-padded and the checks cover
  windows that hold pad rows;
* `wide`: k=300, 100 maps, widths 3,4,5, batch 50 and 3 epochs, with its
  own 300-wide vector file for the trigger-bigram corpus, written under
  `inputs/wide/`: its calls' products cross `net._HELPER_MIN_MACS`, so
  where BLAS leaves a core idle the checks cover the GEMM helper too.

Per config and variant it writes the `train` stdout, history CSV and
checkpoint, the `predict` output on 42 held-out lines and on 2,000 more
(`held-out-long.txt`, longer than one `predict` block of `net._BLOCK_ROWS`
rows on every corpus), the `neighbors` output for one trigger word, and the
`train --cv` report and stdout.  Two builds
produce the same manifest iff every one of those outputs has the same
bytes, so `diff` of two manifests names every output a change moves.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

# Summation order inside BLAS depends on its thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import synthdata  # noqa: E402
from sentconv import cli, corpus, embed, optim  # noqa: E402

LONG_LINES = 2000  # 10,000 rows or more at widths up to 5: more than one block

BASE = "widths = 2,3,4\nmaps_per_width = 10\ndim = 16\nseed = 11\n"
CONFIGS = {
    "reference": "batch_size = 50\nmax_epochs = 15\n",
    "learning": "batch_size = 10\nmax_epochs = 15\n",
    "tanh": "batch_size = 10\nmax_epochs = 15\nactivation = tanh\n",
    "early-stop": "batch_size = 20\nmax_epochs = 30\npatience = 4\ninit_scale = 0.1\n",
    "six-class": "batch_size = 10\nmax_epochs = 15\n",
    "short": "batch_size = 10\nmax_epochs = 15\nwidths = 3,4,5\n",
    "wide": "batch_size = 50\nmax_epochs = 3\nwidths = 3,4,5\nmaps_per_width = 100\n"
            "dim = 300\n",
}
# Configs with inputs of their own, written under inputs/<name>/; the others
# share the trigger-bigram corpus and 16-wide vectors in inputs/.
OWN_CORPUS = {"six-class": synthdata.six_class_pairs, "short": synthdata.short_pairs,
              "wide": synthdata.trigger_bigram_pairs}


def config_text(name: str) -> str:
    """The config file of `name`: BASE, less the keys CONFIGS[name] sets,
    then CONFIGS[name] (a config file may not set a key twice)."""
    extra = CONFIGS[name]
    own = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in BASE.splitlines(True) if line.split("=")[0].strip() not in own]
    return "".join(kept) + extra


def run(argv, stdout_path=None) -> None:
    """`sentconv ARGV` in this process; its stdout goes to `stdout_path`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != cli.EXIT_OK:
        raise SystemExit(f"sentconv {' '.join(map(str, argv))} exited {code}")
    if stdout_path is not None:
        stdout_path.write_text(out.getvalue(), encoding="utf-8")


def write_inputs(root: Path, make_pairs=synthdata.trigger_bigram_pairs, dim=16):
    """The corpus, `dim`-wide vector file, held-out lines and long held-out
    file of `make_pairs`; returns their paths."""
    pairs = make_pairs(300, seed=5)
    data = root / "data.tsv"
    synthdata.write_tsv(data, pairs)
    vocab = corpus.build_vocabulary(corpus.tokenize_corpus(pairs)[0])
    planted = synthdata.planted_vectors(vocab, dim, seed=5)
    kept = [i for i in range(1, len(vocab)) if i % 4 != 0]
    vectors = root / "vectors.bin"
    with open(vectors, "wb") as fh:
        embed.write_word2vec_binary(fh, [vocab.id_to_word[i] for i in kept], planted[kept])
    lines = [text for _, text in make_pairs(40, seed=6)]
    held_out = root / "held-out.txt"
    held_out.write_text("\n".join(lines + ["", "unseen words only"]) + "\n", encoding="utf-8")
    long = root / "held-out-long.txt"
    long.write_text("".join(text + "\n" for _, text in make_pairs(LONG_LINES, seed=7)),
                    encoding="utf-8")
    return data, vectors, held_out, long


def header() -> str:
    """The manifest's first line: this numpy's version and BLAS library."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"# numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}"


def main(outdir, cv=None) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    inputs = out / "inputs"
    inputs.mkdir(exist_ok=True)
    paths = {None: write_inputs(inputs)}
    for name, make_pairs in OWN_CORPUS.items():
        (inputs / name).mkdir(exist_ok=True)
        paths[name] = write_inputs(inputs / name, make_pairs,
                                   optim.parse_config(config_text(name)).dim)
    query = synthdata.TRIGGER_WORDS[0]
    for name in CONFIGS:
        data, vectors, held_out, long = paths.get(name, paths[None])
        config = inputs / f"{name}.cfg"
        config.write_text(config_text(name), encoding="utf-8")
        for variant in embed.VARIANTS:
            stem = f"{name}-{variant}"
            train = ["train", "--config", config, "--data", data, "--variant", variant]
            if variant != "rand":
                train += ["--vectors", vectors]
            ckpt = out / f"{stem}.ckpt"
            run(train + ["--checkpoint", ckpt, "--out", out / f"{stem}-history.csv"],
                out / f"{stem}-train.txt")
            run(["predict", "--checkpoint", ckpt, "--input", held_out],
                out / f"{stem}-predict.txt")
            run(["predict", "--checkpoint", ckpt, "--input", long],
                out / f"{stem}-predict-long.txt")
            run(["neighbors", "--checkpoint", ckpt, query], out / f"{stem}-neighbors.txt")
            if cv is None or stem in cv:
                run(train + ["--cv", "--out", out / f"{stem}-cv-report.txt"],
                    out / f"{stem}-cv.txt")
    print(header())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("outdir")
    parser.add_argument("--cv", nargs="+", metavar="STEM")
    args = parser.parse_args()
    sys.exit(main(args.outdir, args.cv))
