"""The benchmark's two workloads, their output checks and their metrics.

Workloads (all inputs come from one workload seed; the program only sees
the generated files):

* ``train-nonstatic-mr`` -- MR-shaped corpus, ``non-static`` variant.  The
  embedding table is fine-tuned, so each batch pays for the dense V x k
  gradient scatter, zeroing and Adadelta update (ROADMAP item 2).
* ``train-static-mr`` -- the same corpus, vectors, seed and slice with the
  ``static`` variant.  The table is frozen, so an embedding-table change
  should leave it unchanged and a batched conv engine (item 3) shows cleanly.

Both mirror ``cmd_train`` up to ``optim.fit`` and then call ``optim.fit``
for one epoch at a time on a fixed slice, each call continuing from the
previous call's parameters; the vocabulary still comes from the whole
corpus.  A ``sentconv predict`` call over held-out lines follows every fit,
so the tokenizer, checkpoint load, lookup and output formatting are timed
on both workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import gen
from tracer import Tracer
from sentconv import cli, corpus, embed, evaluate, net, optim
from sentconv._seeds import DEV_SPLIT, derive_seed

FIT_SLICE = 150        # training examples per fit call (3 batches of 50)
QUALITY_FITS = 6       # one-epoch fit calls (18 Adadelta steps) before dev_accuracy is read
# Fit samples per run, at least.  The host's speed drifts over tens of
# seconds; on a shared 2-core x86 box the fastest of 6-8 non-static fits
# (20-30 s) spread 13-15% between stretches of one process, of 12-16 fits
# (40-50 s) 8-10%.
MIN_FITS = 13
DEV_SLICE = 200        # dev examples scored after every epoch
# Set-ups per run; setup_s is their median.  A set-up takes 7-13 s on the
# same box (build_base_matrix dominates), so a run affords two within the
# time budget of a full benchmark pass.
SETUP_REPEATS = 2
ORACLE_LINES = 200     # predict lines compared with the per-line oracle
PROB_TOL = 1e-9        # printed probabilities carry 10 decimals
SUM_TOL = 1e-8
CHANCE_MARGIN = 0.10   # dev accuracy must beat the majority share by this much
PREPARE_TIMEOUT_S = 150

# ROADMAP item 1 baseline, ms per batch of 50 on train-nonstatic-mr.
ROADMAP_BASELINE_MS = {"forward": 81, "backward": 249, "scatter + zeroing": 322 + 48,
                       "Adadelta on the embedding": 347}


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str


WORKLOADS = {w.name: w for w in [
    Workload("train-nonstatic-mr", "non-static"),
    Workload("train-static-mr", "static"),
]}


def train_config(workload: Workload, seed: int, tiny: bool) -> optim.TrainConfig:
    config = optim.TrainConfig(variant=workload.variant, seed=seed, max_epochs=1, patience=1)
    if tiny:
        config = replace(config, dim=gen.MR_TINY.dim, maps_per_width=10)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# the program's steps, called through its public API
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    vocab: corpus.Vocabulary
    matched: set
    params: net.ModelParams
    train: list
    dev: list


def setup_training(inputs: str, config: optim.TrainConfig) -> TrainState:
    """The steps `cmd_train` takes before `fit`, then the fixed slices."""
    pairs = corpus.load_tsv(os.path.join(inputs, "corpus.tsv"))
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, max(config.widths))
    base, matched = embed.build_base_matrix(vocab, config.dim, config.variant, config.seed,
                                            vectors_path=os.path.join(inputs, "vectors.bin"),
                                            unknown_init=config.unknown_init,
                                            rand_a=config.rand_init_a)
    params = evaluate.initial_params(config, base, dataset.num_classes)
    train_ds, dev_ds = corpus.select_dev_split(dataset, config.dev_fraction,
                                               derive_seed(config.seed, DEV_SPLIT, 0))
    return TrainState(vocab, matched, params, train_ds.examples[:FIT_SLICE],
                      dev_ds.examples[:DEV_SLICE])


def batches_per_fit(config: optim.TrainConfig) -> int:
    return math.ceil(FIT_SLICE / config.batch_size) * config.max_epochs


def timed_fit(params: net.ModelParams, state: TrainState, config: optim.TrainConfig):
    """One `optim.fit` call: (result or None, error text, wall seconds)."""
    start = time.perf_counter()
    try:
        result, error = optim.fit(params, state.train, state.dev, config), ""
    except ValueError as exc:
        result, error = None, str(exc)
    return result, error, time.perf_counter() - start


def run_predict(checkpoint: str, lines_path: str) -> tuple[int, str, str]:
    """`sentconv predict` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["predict", "--checkpoint", checkpoint, "--input", lines_path])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    """Pass/fail tallies per named check, plus attempted and failed ops."""

    def __init__(self):
        self.tally: dict[str, list] = {}   # name -> [passed, failed, detail]
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one outcome; the detail of the first failure (or, while
        none failed, of the latest pass) is kept."""
        entry = self.tally.setdefault(name, [0, 0, detail])
        entry[0 if ok else 1] += 1
        if not ok and entry[1] == 1 or ok and not entry[1]:
            entry[2] = detail
        return bool(ok)

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def all_passed(self) -> bool:
        return all(failed == 0 for _, failed, _ in self.tally.values())

    def lines(self) -> list[str]:
        return [f"check {'FAIL' if failed else 'PASS'} {name} [{passed}/{passed + failed}]"
                + (f" ({detail})" if detail else "")
                for name, (passed, failed, detail) in self.tally.items()]


def parse_predictions(text: str, n_lines: int, n_classes: int):
    """Printed (class, probs) per line, or None for a malformed line."""
    rows = text.splitlines()
    parsed = []
    for i in range(n_lines):
        try:
            label_s, dist = rows[i].split("\t")
            probs = np.array([float(p) for p in dist.split()])
            parsed.append((int(label_s), probs) if probs.shape == (n_classes,) else None)
        except (IndexError, ValueError):
            parsed.append(None)
    return parsed, len(rows)


def check_predictions(checks: Checks, text: str, lines: list[str], ckpt: cli.Checkpoint,
                      seed: int) -> int:
    """Every printed distribution is finite and sums to 1; on a seeded sample
    of lines the printed class is the argmax of a per-line `predict_probs`
    oracle and the printed probabilities match it.  Returns the number of
    failed lines."""
    parsed, n_rows = parse_predictions(text, len(lines), ckpt.params.num_classes)
    checks.check("predict: one output line per input line", n_rows == len(lines),
                  f"{n_rows} rows for {len(lines)} lines")
    bad = {i for i, row in enumerate(parsed)
           if row is None or not np.all(np.isfinite(row[1]))
           or abs(row[1].sum() - 1.0) > SUM_TOL}
    checks.check("predict: probabilities finite and sum to 1", not bad,
                 f"{len(bad)} bad lines")
    h_max = max(ckpt.config.widths)
    sample = np.random.default_rng([seed, 0x0AC1E]).choice(
        len(lines), min(ORACLE_LINES, len(lines)), replace=False)
    mismatched = 0
    for i in sample.tolist():
        if i in bad:
            continue
        ids = corpus.encode_and_pad(corpus.clean_and_tokenize(lines[i]), ckpt.vocab, h_max)
        oracle = net.predict_probs(ckpt.params, ids)
        label, probs = parsed[i]
        if label != int(np.argmax(oracle)) or np.max(np.abs(probs - oracle)) > PROB_TOL:
            bad.add(i)
            mismatched += 1
    checks.check("predict: class and probabilities match the per-line oracle",
                 mismatched == 0, f"{mismatched} of {len(sample)} sampled lines differ "
                                  f"(tolerance {PROB_TOL})")
    return len(bad)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _adadelta_hooks(vocab_size: int):
    """Span namer and row counter for `adadelta_step`: the embedding table is
    the only tensor with one row per vocabulary entry."""
    def is_embed(param):
        return param.ndim == 2 and param.shape[0] == vocab_size

    def namer(args):
        return f"optim.adadelta_step[{'embed' if is_embed(args[0]) else 'other'}]"

    def count_rows(tracer, args, _):
        param, grad = args[0], args[1]
        if is_embed(param):
            tracer.counters["embed_rows_touched"] += int(np.count_nonzero(np.any(grad != 0, axis=1)))
            tracer.counters["embed_rows"] += param.shape[0]
    return namer, count_rows


def _forward_flops(tracer, args, _):
    params, token_ids = args[0], args[1]
    n, k = len(token_ids), params.channels[0].dim
    flops = (len(params.channels) - 1) * n * k
    for bank in params.filters:
        flops += 2 * (n - bank.width + 1) * bank.width * k * bank.weights.shape[0]
    tracer.counters["forward_flops"] += flops + 2 * params.output.weights.size


def make_tracer(vocab_size: int) -> Tracer:
    tracer = Tracer()
    for name in ("load_tsv", "tokenize_corpus", "build_vocabulary", "encode_corpus",
                 "select_dev_split", "clean_and_tokenize", "encode_and_pad"):
        tracer.wrap(corpus, name)
    tracer.wrap(embed, "build_base_matrix")
    tracer.wrap(embed, "load_vectors")
    tracer.wrap(evaluate, "initial_params")
    tracer.wrap(net, "forward", after=_forward_flops)
    for name in ("backward", "predict_probs", "predict_class", "clone_params"):
        tracer.wrap(net, name)
    tracer.wrap(optim, "fit")
    tracer.wrap(optim, "train_epoch")
    namer, count_rows = _adadelta_hooks(vocab_size)
    tracer.wrap(optim, "adadelta_step", namer=namer, after=count_rows)
    tracer.wrap(optim, "l2_renorm")
    tracer.wrap(cli, "load_checkpoint")
    # cli.main dispatches through its command table, not the module attribute
    tracer.wrap(cli, "cmd_predict", tables=[getattr(cli, "_COMMANDS", {})])
    return tracer


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def prepare(workload: Workload, seed: int, tiny: bool, out_dir: str) -> None:
    """Write the workload's inputs into `out_dir`.  Runs in its own process,
    so the generator's memory never counts toward the measured run's peak."""
    config = train_config(workload, seed, tiny)
    realized = gen.generate(gen.MR_TINY if tiny else gen.MR, seed, out_dir,
                            config.batch_size, FIT_SLICE)
    print(gen.describe(realized))


def _prepare_in_child(workload: Workload, seed: int, tiny: bool, out_dir: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "run.py"), "--prepare", out_dir,
           "--workload", workload.name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"preparing inputs failed:\n{proc.stderr.strip()}")
    return proc.stdout.strip()


class Run:
    """One benchmark run of one workload: set-up, timed samples, checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 tiny: bool, work_dir: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.tiny, self.inputs = trace, tiny, work_dir
        self.config = train_config(workload, seed, tiny)
        self.checks = Checks()
        self.report: list[str] = []
        self.setup_s: list[float] = []
        self.fit_s = {False: [], True: []}        # keyed by traced
        self.predict_s = {False: [], True: []}
        self.predicted: str | None = None     # first predict output, kept for comparison
        self.metrics: dict[str, tuple[float, str]] = {}
        self.tracer: Tracer | None = None

    def log(self, line: str) -> None:
        self.report.append(line)

    # -- phases -----------------------------------------------------------

    def execute(self) -> None:
        self.log(_prepare_in_child(self.workload, self.seed, self.tiny, self.inputs))
        with open(os.path.join(self.inputs, "shape.json"), encoding="utf-8") as fh:
            self.shape = json.load(fh)
        if self.trace:
            self.tracer = make_tracer(self.shape["V"] + 1)
        with open(os.path.join(self.inputs, "predict.txt"), encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self._train()
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    def _traced(self, run_id: str, traced: bool):
        if traced:
            return self.tracer.installed(run_id)
        return contextlib.nullcontext()

    def _train(self) -> None:
        repeats = 1 if self.trace else SETUP_REPEATS
        for _ in range(repeats):
            state = None  # release the previous set-up before building the next
            with self._traced("setup", self.trace):
                start = time.perf_counter()
                state = setup_training(self.inputs, self.config)
                self.setup_s.append(time.perf_counter() - start)
        self.checks.check("setup: vocabulary matches the generated corpus",
                          len(state.vocab) - 1 == self.shape["V"],
                          f"{len(state.vocab) - 1} vs {self.shape['V']}")
        self.checks.check("setup: every covered word matched in the vector file",
                          len(state.matched) == self.shape["covered_words"],
                          f"{len(state.matched)} vs {self.shape['covered_words']}")
        labels = np.bincount([ex.label for ex in state.dev])
        chance = labels.max() / labels.sum()
        n_batches = batches_per_fit(self.config)
        checkpoint = os.path.join(self.inputs, "model.ckpt")
        params, fits_ok, accuracies = state.params, [], []
        begin = time.perf_counter()
        # One predict call follows every fit, so both kinds of sample spread
        # over the whole run; predict uses the checkpoint of the first fit.
        while len(fits_ok) < MIN_FITS or time.perf_counter() - begin < self.seconds:
            i = len(fits_ok)
            traced = self.trace and i % 2 == 1
            with self._traced(f"fit{i}", traced):
                result, error, elapsed = timed_fit(params, state, self.config)
            if result is None:
                fits_ok.append(self.checks.check("fit: completes", False, error))
            else:
                self.fit_s[traced].append(elapsed)
                fits_ok.append(self.checks.check(
                    "fit: training loss finite every epoch",
                    all(math.isfinite(loss) for _, loss, _ in result.history)))
                params = result.params
                accuracies.append(result.best_dev_accuracy)
            if i == 0:
                cli.save_checkpoint(checkpoint, params, state.vocab, self.config)
            if len(fits_ok) == QUALITY_FITS:
                self.dev_accuracy = accuracies[-1] if accuracies else 0.0
                if not self.checks.check(
                        f"fit: dev accuracy after {QUALITY_FITS} fits beats chance",
                        self.dev_accuracy >= chance + CHANCE_MARGIN,
                        f"{self.dev_accuracy:.3f} vs majority share {chance:.3f} "
                        f"+ {CHANCE_MARGIN}"):
                    fits_ok = [False] * QUALITY_FITS
            self._predict_once(checkpoint, f"predict{i}", traced)
        self.checks.ops(n_batches * len(fits_ok), n_batches * fits_ok.count(False))
        self.log(f"fits: {len(fits_ok)} x {self.config.max_epochs} epoch of {len(state.train)} "
                 f"examples; dev accuracy after each: {accuracies}")
        self.metrics["train_examples_per_s"] = (
            len(state.train) * self.config.max_epochs
            / self._fastest("fit", self.fit_s[False]), "1/s")
        self._predict_metric()

    def _predict_once(self, checkpoint: str, run_id: str, traced: bool) -> None:
        """One `sentconv predict` call over the predict lines, checked: the
        first output in full, every later one against the first."""
        with self._traced(run_id, traced):
            start = time.perf_counter()
            code, text, err = run_predict(checkpoint, os.path.join(self.inputs, "predict.txt"))
            elapsed = time.perf_counter() - start
        n = len(self.lines)
        if not self.checks.check("predict: exit code 0", code == 0, err.strip()):
            self.checks.ops(n, n)
            return
        self.predict_s[traced].append(elapsed)
        if self.predicted is None:
            self.predicted = text
            n_bad = check_predictions(self.checks, text, self.lines,
                                      cli.load_checkpoint(checkpoint), self.seed)
            self.checks.ops(n, n_bad)
        else:
            same = self.checks.check("predict: identical output on every repeat",
                                     text == self.predicted)
            self.checks.ops(n, 0 if same else n)

    def _predict_metric(self) -> None:
        if self.predicted is None:
            raise RuntimeError("predict never succeeded")
        self.metrics["predict_sentences_per_s"] = (
            len(self.lines) / self._fastest("predict", self.predict_s[False]), "1/s")

    def _fastest(self, kind: str, seconds: list[float]) -> float:
        """The fastest sample, logged with the median and the sample count."""
        self.log(f"{kind} samples (untraced): n={len(seconds)} "
                 f"fastest {min(seconds):.4f} s, median {statistics.median(seconds):.4f} s")
        return min(seconds)

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict:
        m = dict(self.metrics)
        m["setup_s"] = (statistics.median(self.setup_s), "s")
        m["dev_accuracy"] = (self.dev_accuracy, "fraction")
        return m



def _ms(seconds: float) -> float:
    return seconds * 1e3


def per_layer_metrics(run: Run) -> dict:
    """Per-layer figures from the traced samples (see README.md for the
    end-to-end metric each one should move)."""
    t = run.tracer
    fits = {s for s in {span[4] for span in t.spans} if s.startswith("fit")}
    predicts = {s for s in {span[4] for span in t.spans} if s.startswith("predict")}
    everything = t.summary()
    setup = t.summary(runs={"setup"}, parents={None})
    in_fit = t.summary(runs=fits)
    in_epoch = t.summary(runs=fits, parents={"optim.train_epoch"})
    under_fit = t.summary(runs=fits, parents={"optim.fit"})
    in_predict = t.summary(runs=predicts)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(table, name):
        return table.get(name, zero)

    def per_call_ms(table, name):
        r = row(table, name)
        return _ms(r["total_s"] / r["calls"]) if r["calls"] else 0.0

    batches = batches_per_fit(run.config) * len(fits)
    epochs = run.config.max_epochs * len(fits)

    def per_batch_ms(value_s):
        return _ms(value_s / batches) if batches else 0.0

    corpus_setup = sum(r["total_s"] for name, r in setup.items() if name.startswith("corpus."))
    vectors = row(everything, "embed.load_vectors")
    tokenize = (row(in_predict, "corpus.clean_and_tokenize")["total_s"]
                + row(in_predict, "corpus.encode_and_pad")["total_s"])
    lines = len(run.lines) * len(predicts)
    fwd = row(in_fit, "net.forward")
    dev_eval = row(under_fit, "net.predict_class")["total_s"]
    rows = t.counters["embed_rows"]
    overhead = _overhead_pct(run)
    n_predict_calls = row(in_predict, "cli.cmd_predict")["calls"]
    metrics = {
        "corpus.setup_ms": (_ms(corpus_setup), "ms"),
        "corpus.tokenize_us_per_line": (tokenize / lines * 1e6 if lines else 0.0, "us"),
        "embed.build_base_matrix_ms": (per_call_ms(setup, "embed.build_base_matrix"), "ms"),
        "embed.vector_records_per_s": (
            run.shape["vector_records"] * vectors["calls"] / vectors["total_s"]
            if vectors["calls"] else 0.0, "1/s"),
        "net.forward.ms_per_call": (per_call_ms(in_fit, "net.forward"), "ms"),
        "net.forward.calls": (fwd["calls"] / max(len(fits), 1), "count"),
        "net.forward.gflop_per_s": (
            t.counters["forward_flops"] / row(everything, "net.forward")["total_s"] / 1e9
            if fwd["calls"] else 0.0, "GFLOP/s"),
        "net.forward.ms_per_batch": (per_batch_ms(row(in_epoch, "net.forward")["total_s"]), "ms"),
        "net.backward.ms_per_call": (per_call_ms(in_fit, "net.backward"), "ms"),
        "net.backward.calls": (row(in_fit, "net.backward")["calls"] / max(len(fits), 1), "count"),
        "net.backward.ms_per_batch": (per_batch_ms(row(in_epoch, "net.backward")["total_s"]),
                                      "ms"),
        "net.predict_probs.ms_per_call": (per_call_ms(in_predict, "net.predict_probs"), "ms"),
        "net.predict_class.ms_per_call": (per_call_ms(in_fit, "net.predict_class"), "ms"),
        "net.clone_params.ms": (per_call_ms(in_fit, "net.clone_params"), "ms"),
        "optim.batch_ms": (per_batch_ms(row(in_fit, "optim.train_epoch")["total_s"]
                                        - row(in_epoch, "tracer.bookkeeping")["total_s"]), "ms"),
        "optim.train_epoch.self_ms_per_batch": (
            per_batch_ms(row(in_fit, "optim.train_epoch")["self_s"]), "ms"),
        "optim.adadelta_step.embed_ms_per_batch": (
            per_batch_ms(row(in_epoch, "optim.adadelta_step[embed]")["total_s"]), "ms"),
        "optim.adadelta_step.other_ms_per_batch": (
            per_batch_ms(row(in_epoch, "optim.adadelta_step[other]")["total_s"]), "ms"),
        "optim.l2_renorm.ms_per_batch": (
            per_batch_ms(row(in_epoch, "optim.l2_renorm")["total_s"]), "ms"),
        "optim.embed_rows_touched_ratio": (
            t.counters["embed_rows_touched"] / rows if rows else 0.0, "ratio"),
        "optim.fit.dev_eval_ms_per_epoch": (_ms(dev_eval / epochs) if epochs else 0.0, "ms"),
        "cli.load_checkpoint_ms": (per_call_ms(everything, "cli.load_checkpoint"), "ms"),
        "cli.cmd_predict.self_ms": (
            _ms(row(in_predict, "cli.cmd_predict")["self_s"] / n_predict_calls)
            if n_predict_calls else 0.0, "ms"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return metrics


def _overhead_pct(run: Run) -> float:
    samples = run.fit_s
    if not samples[True] or not samples[False]:
        return 0.0
    return (min(samples[True]) / min(samples[False]) - 1.0) * 100.0


def trace_report(run: Run, m: dict) -> list[str]:
    """Self-time table, the per-batch breakdown beside the ROADMAP baseline,
    and the tracing overhead; also checks that self times add up."""
    t = run.tracer
    own = t.self_times()
    roots = sum(end - start for _, start, end, parent, _ in t.spans if parent < 0)
    run.checks.check("trace: self times add up to the root spans' time",
                     abs(sum(own) - roots) <= 1e-6, f"{sum(own):.6f} s vs {roots:.6f} s")
    lines = ["self time per span name over all traced samples "
             "(calls, inclusive ms, self ms, share of traced time):"]
    table = t.summary()
    for name, r in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"  {name:<34} {r['calls']:>8} {_ms(r['total_s']):>11.1f} "
                     f"{_ms(r['self_s']):>11.1f} {r['self_s'] / roots:>7.1%}")

    for kind, samples in (("fit", run.fit_s), ("predict", run.predict_s)):
        if samples[False] and samples[True]:
            untraced, traced = min(samples[False]), min(samples[True])
            lines.append(f"tracing overhead on {kind} samples: fastest {traced:.3f} s traced vs "
                         f"{untraced:.3f} s untraced ({(traced / untraced - 1) * 100:+.1f}%)")

    batch = m["optim.batch_ms"][0]
    parts = {
        "forward": m["net.forward.ms_per_batch"][0],
        "backward": m["net.backward.ms_per_batch"][0],
        "scatter + zeroing": m["optim.train_epoch.self_ms_per_batch"][0],
        "Adadelta on the embedding": m["optim.adadelta_step.embed_ms_per_batch"][0],
        "Adadelta on other tensors": m["optim.adadelta_step.other_ms_per_batch"][0],
        "l2_renorm": m["optim.l2_renorm.ms_per_batch"][0],
    }
    lines.append(f"per-batch breakdown (batch of {run.config.batch_size}, {batch:.1f} ms "
                 f"traced; parts add up to {sum(parts.values()):.1f} ms):")
    for name, value in parts.items():
        base = ROADMAP_BASELINE_MS.get(name)
        note = ""
        if base is not None:
            ratio = value / base
            verdict = "agrees" if 0.75 <= ratio <= 1 / 0.75 else "disagrees"
            note = f"  ROADMAP baseline {base} ms, ratio {ratio:.2f}: {verdict}"
        lines.append(f"  {name:<28} {value:>8.1f} ms {value / batch:>6.1%}{note}")
    embed_share = (parts["scatter + zeroing"] + parts["Adadelta on the embedding"]) / batch
    lines.append(f"embedding-table share of the batch (train_epoch self + Adadelta on the "
                 f"embedding): {embed_share:.1%}")
    lines.append("('scatter + zeroing' is train_epoch's self time: the np.add.at scatter, "
                 "gradient zeroing, accumulation and loss; spans inside src/ would split it)")
    return lines
