"""Adadelta training: updates, max-norm projection, mini-batches, early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import corpus, embed, net
from ._seeds import DROPOUT, SHUFFLE, derive_seed

# Comparison slack that keeps the projection exactly idempotent: a row already
# rescaled to norm s can land a few ulps above s and must not be touched again.
_RENORM_SLACK = 1e-12
# Adadelta's update runs over blocks of whole rows, about this many values,
# so its two temporaries stay in cache between the chain's passes; its bits
# are those of the plain expressions.
_STEP_BLOCK = 16384
# Each config value's text writer and reader, by the type of its default.
# Numbers are ASCII decimal: no digit-group underscores, no other scripts' digits.
_CODECS = {int: (str, corpus.decimal_int), str: (str, str),
           float: (lambda value: repr(float(value)), lambda text: corpus.decimal_int(text, float)),
           tuple: (lambda value: ",".join(map(str, value)),  # widths
                   lambda text: tuple(map(corpus.decimal_int, text.split(","))))}


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters, checked when made and never changed: derive
    one with `dataclasses.replace`.  Each value is stored as its text reads it
    back, so parse_config(config_to_text(c)) == c for list or numpy values too."""

    variant: str = "rand"
    widths: tuple[int, ...] = (3, 4, 5)
    maps_per_width: int = 100
    dim: int = 300
    keep_prob: float = 0.5
    norm_limit: float = 3.0
    batch_size: int = 50
    rho: float = 0.95
    eps: float = 1e-6
    max_epochs: int = 25
    patience: int = 8
    seed: int = 1
    activation: str = "relu"
    init_scale: float = 0.01
    rand_init_a: float = 0.25
    unknown_init: str = "variance_matched"
    dev_fraction: float = 0.10

    def __post_init__(self) -> None:
        for f in fields(self):
            write, read = _CODECS[type(f.default)]
            try:
                object.__setattr__(self, f.name, read(write(getattr(self, f.name))))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {f.name!r}: {exc}") from None
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.variant not in embed.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if any(h < 1 for h in self.widths):
            raise ValueError("widths must be positive")
        if len(set(self.widths)) != len(self.widths):
            raise ValueError("widths must be distinct")
        if self.maps_per_width < 1 or self.dim < 1:
            raise ValueError("maps_per_width and dim must be positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        for name in ("norm_limit", "init_scale", "rand_init_a"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.rho < 1.0 or self.eps <= 0.0:
            raise ValueError("need 0 <= rho < 1 and eps > 0")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.activation not in net.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.unknown_init not in embed.UNKNOWN_INITS:
            raise ValueError(f"unknown unknown_init {self.unknown_init!r}")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must be in (0, 1)")


def config_to_text(config: TrainConfig) -> str:
    """Canonical serialization; parse_config(config_to_text(c)) == c."""
    return "".join(f"{f.name} = {_CODECS[type(f.default)][0](getattr(config, f.name))}\n"
                   for f in fields(TrainConfig))


def parse_config(text: str) -> TrainConfig:
    """Parse flat `key = value` lines, which only a newline ends (a form feed
    or U+2028 does not); `#` starts a comment, unknown or repeated keys
    reject."""
    readers = {f.name: _CODECS[type(f.default)][1] for f in fields(TrainConfig)}
    overrides = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in readers:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            overrides[key] = readers[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return TrainConfig(**overrides)


def load_config(path) -> TrainConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def tensor_shapes(config: TrainConfig, vocab_size: int, classes: int) -> list[tuple[int, ...]]:
    """Every tensor's shape, in `net.all_tensors` order, as the config, the
    vocabulary size and the class count fix them."""
    dim, maps = config.dim, config.maps_per_width
    shapes = [(vocab_size, dim)] * len(embed.VARIANT_CHANNELS[config.variant])
    for h in config.widths:
        shapes += [(maps, h, dim), (maps,)]
    return shapes + [(classes, maps * len(config.widths)), (classes,)]


def check_model(config: TrainConfig, params: net.ModelParams) -> None:
    """Raise ValueError unless `params` is the model `config` describes: its shapes
    (`tensor_shapes`), trainable flags, keep_prob and activation.  `rand` and
    `non-static` both give one trainable channel, so no check tells them apart."""
    shapes = [tensor.shape for _, tensor in net.all_tensors(params)]
    if shapes != tensor_shapes(config, len(params.channels[0].matrix), params.num_classes):
        raise ValueError("the config gives other tensor shapes than the model's")
    facts = (tuple(ch.trainable for ch in params.channels), params.keep_prob, params.activation)
    if facts != (embed.VARIANT_CHANNELS[config.variant], config.keep_prob, config.activation):
        raise ValueError("the model's channels, keep_prob or activation are not the config's")


@dataclass
class AdadeltaState:
    """Running E[g^2] and E[dx^2] accumulators for one parameter tensor.

    Both decay lazily per row: `steps` counts the steps taken, and row r of
    each accumulator holds its value as of step `last[r]`, the last step
    that updated the row.  The decay the row missed since then is applied
    when a step next touches it.
    """

    acc_grad_sq: np.ndarray
    acc_update_sq: np.ndarray
    rho: float
    eps: float
    steps: int
    last: np.ndarray


def init_state(param: np.ndarray, rho: float, eps: float) -> AdadeltaState:
    # A row no step touches costs no work; its memory is committed with the
    # first write to its page, which numpy makes a 2 MB huge page where it can.
    return AdadeltaState(np.zeros(param.shape), np.zeros(param.shape), rho, eps, 0,
                         np.zeros(param.shape[0], dtype=np.int64))


def init_states(params: net.ModelParams, rho: float, eps: float) -> dict[str, AdadeltaState]:
    return {name: init_state(tensor, rho, eps)
            for name, tensor in net.trainable_tensors(params)}


def adadelta_step(param: np.ndarray, grad: np.ndarray, state: AdadeltaState,
                  rows=None) -> np.ndarray:
    """One in-place update: step size is RMS(past steps) / RMS(past grads).

    `grad` holds one gradient row per distinct index in `rows`, or, with
    `rows` None, one per row of the tensor.  Only those rows of the parameter
    and of both accumulators are read or written.  A row last updated at
    step s first receives the decay of the steps s+1 .. t-1 it missed,
    `rho ** (t-1-s)` on both accumulators, and then step t's update: E[g^2]
    decays and takes g^2, the step reads E[dx^2] before its own decay, and
    E[dx^2] decays and takes the step^2.  In real arithmetic this is the
    update of the whole tensor with zero gradient on the other rows; in
    floating point one multiply by `rho ** gap` rounds differently from
    `gap` multiplies by rho.  A row stepped at every step, as every row of a
    dense tensor is, missed no decay, so no decay is applied to it.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise ValueError("diverged: non-finite gradient")
    rho, eps = state.rho, state.eps
    rows = slice(None) if rows is None else rows
    gap = state.steps - state.last[rows]  # the steps each row missed before this one
    if grad.shape != gap.shape + param.shape[1:]:  # the blocks below would not broadcast it
        raise ValueError(f"gradient of shape {grad.shape} for rows of shape "
                         f"{gap.shape + param.shape[1:]}")
    state.steps += 1
    # Views for a slice, gathered copies for an index array: written back below.
    acc_g, acc_u = state.acc_grad_sq[rows], state.acc_update_sq[rows]
    if gap.any():  # with no gap the decay is 1.0, and multiplying by it changes no bit
        decay = (rho ** gap).reshape(gap.shape + (1,) * (param.ndim - 1))
        acc_g *= decay
        acc_u *= decay
    # The update as one in-place chain per block, each operation in the order
    # of `acc_g = rho·acc_g + (1-rho)·g·g; step = sqrt(acc_u + eps) /
    # sqrt(acc_g + eps)·g; acc_u = rho·acc_u + (1-rho)·step·step`, then
    # param -= step.  Negation is exact, so this equals adding the negated
    # step bit for bit, and squaring either sign gives the same bits.
    step = np.empty_like(acc_g)
    per_block = max(1, _STEP_BLOCK // max(1, math.prod(grad.shape[1:])))
    scratch = np.empty_like(acc_g[:per_block])
    for lo in range(0, step.shape[0], per_block):
        g, ag, au, s = (a[lo:lo + per_block] for a in (grad, acc_g, acc_u, step))
        t = scratch[:g.shape[0]]
        ag *= rho
        np.multiply(1.0 - rho, g, out=t)
        t *= g
        ag += t
        np.add(au, eps, out=s)
        np.sqrt(s, out=s)
        np.add(ag, eps, out=t)
        np.sqrt(t, out=t)
        s /= t
        s *= g
        au *= rho
        np.multiply(1.0 - rho, s, out=t)
        t *= s
        au += t
    state.acc_grad_sq[rows], state.acc_update_sq[rows] = acc_g, acc_u
    param[rows] -= step
    state.last[rows] = state.steps
    return param


def l2_renorm(output: net.OutputLayer, s: float) -> net.OutputLayer:
    """Scale any class row with L2 norm above `s` back onto the norm-s sphere.

    Rows at or below the limit are left bit-identical; biases are untouched.
    """
    if s <= 0.0:
        raise ValueError("norm limit must be positive")
    weights = output.weights
    norms = np.sqrt((weights * weights).sum(axis=1))
    over = norms > s * (1.0 + _RENORM_SLACK)
    weights[over] *= (s / norms[over])[:, None]
    return output


def make_minibatches(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Fresh deterministic permutation per (seed, epoch), chunked; the final
    short batch is kept."""
    if n < 1:
        raise ValueError("need at least one example")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def train_epoch(params: net.ModelParams, examples, config: TrainConfig,
                states: dict[str, AdadeltaState], mask_rng: np.random.Generator,
                shuffle_seed: int, epoch: int) -> float:
    """One pass over the training set; returns the mean train-mode loss.

    Per mini-batch: one batched forward with fresh dropout masks, one batched
    backward, gradients averaged over the batch, an Adadelta step on every
    trainable tensor, and the output-row norm projection.  No gradient
    buffer is kept: each gradient `backward` returns is scaled by 1/B and
    handed to its tensor's step.  A trainable channel is stepped only at the
    trace's `table_rows`, with the compact row gradient `backward` returns,
    so a batch costs the table in proportion to its tokens, not to the
    vocabulary, and the pad row stays zero.
    """
    total_loss = 0.0
    batches = make_minibatches(len(examples), config.batch_size, shuffle_seed, epoch)
    for number, batch in enumerate(batches, 1):
        # One (B, m) draw equals B sequential draws of m, bit for bit.
        masks = mask_rng.random((len(batch), params.num_filters)) < params.keep_prob
        _, trace = net.forward_batch(params, [examples[idx].token_ids for idx in batch], masks)
        losses, grads = net.backward(params, trace, [examples[idx].label for idx in batch])
        for loss in losses.tolist():  # in example order, as the per-example sum was
            total_loss += loss

        scale = 1.0 / len(batch)
        for name, tensor in net.trainable_tensors(params):
            rows = trace.table_rows if name.startswith("channel") else None
            try:
                # Out of place: trainable channels share one row-gradient array.
                adadelta_step(tensor, grads[name] * scale, states[name], rows)
            except ValueError as exc:
                raise ValueError(f"{exc} in {name} at epoch {epoch}, batch {number}") from None
        l2_renorm(params.output, config.norm_limit)
    return total_loss / len(examples)


@dataclass
class FitResult:
    params: net.ModelParams
    history: list[tuple[int, float, float]]  # (epoch, train loss, dev accuracy)
    best_epoch: int
    best_dev_accuracy: float


def fit(params: net.ModelParams, train_examples, dev_examples, config: TrainConfig,
        *, fold: int = 0) -> FitResult:
    """Train `params` in place, scoring the dev set each epoch; returns the best epoch's model,
    `params` itself if it is the last epoch run, else a copy sharing only frozen channels.
    First, `check_model` refuses a model `config` does not describe.  A label outside
    the classes raises ValueError in its batch, after earlier ones stepped, as divergence does."""
    check_model(config, params)
    if not train_examples:
        raise ValueError("empty training set")
    if not dev_examples:
        raise ValueError("empty dev set")
    states = init_states(params, config.rho, config.eps)
    mask_rng = np.random.default_rng([config.seed, DROPOUT, fold])
    shuffle_seed = derive_seed(config.seed, SHUFFLE, fold)

    # Epoch 1's finite dev accuracy beats -inf and sets `best_params`; ties keep the earlier epoch.
    best_params, best_epoch, best_acc = None, 0, -np.inf
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, config.max_epochs + 1):
        if best_params is params:
            best_params = net.clone_params(params)
        loss = train_epoch(params, train_examples, config, states, mask_rng,
                           shuffle_seed, epoch)
        dev_acc = net.accuracy(params, dev_examples)
        history.append((epoch, loss, dev_acc))
        if dev_acc > best_acc:
            best_params, best_epoch, best_acc = params, epoch, dev_acc
        elif epoch - best_epoch >= config.patience:
            break
    return FitResult(best_params, history, best_epoch, best_acc)


def history_to_csv(history) -> str:
    lines = ["epoch,train_loss,dev_acc"]
    lines += [f"{epoch},{loss:.6f},{acc:.6f}" for epoch, loss, acc in history]
    return "\n".join(lines) + "\n"
