"""Adadelta training: updates, max-norm projection, mini-batches, early stopping."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import embed, net
from ._seeds import DROPOUT, SHUFFLE, derive_seed
from .corpus import PAD_ID

# Comparison slack that keeps the projection exactly idempotent: a row already
# rescaled to norm s can land a few ulps above s and must not be touched again.
_RENORM_SLACK = 1e-12


@dataclass
class TrainConfig:
    """All training hyperparameters, round-trippable through `key = value` text."""

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

    def validate(self) -> None:
        if self.variant not in embed.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.widths or any(h < 1 for h in self.widths):
            raise ValueError("widths must be positive")
        if len(set(self.widths)) != len(self.widths):
            raise ValueError("widths must be distinct")
        if self.maps_per_width < 1 or self.dim < 1:
            raise ValueError("maps_per_width and dim must be positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if self.norm_limit <= 0.0:
            raise ValueError("norm_limit must be positive")
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
        if self.unknown_init not in ("variance_matched", "fixed"):
            raise ValueError(f"unknown unknown_init {self.unknown_init!r}")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must be in (0, 1)")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text: str, kind):
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is str:
        return text
    return tuple(int(v) for v in text.split(","))  # widths


def config_to_text(config: TrainConfig) -> str:
    """Canonical serialization; parse_config(config_to_text(c)) == c."""
    return "".join(f"{f.name} = {_format_value(getattr(config, f.name))}\n"
                   for f in fields(TrainConfig))


def parse_config(text: str) -> TrainConfig:
    """Parse flat `key = value` lines; `#` starts a comment, unknown keys reject."""
    defaults = TrainConfig()
    kinds = {f.name: type(getattr(defaults, f.name)) for f in fields(TrainConfig)}
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _parse_value(value, kinds[key])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    config = replace(TrainConfig(), **overrides)
    config.validate()
    return config


def load_config(path) -> TrainConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass
class AdadeltaState:
    """Running E[g^2] and E[dx^2] accumulators for one parameter tensor."""

    acc_grad_sq: np.ndarray
    acc_update_sq: np.ndarray
    rho: float
    eps: float


def init_state(param: np.ndarray, rho: float, eps: float) -> AdadeltaState:
    return AdadeltaState(np.zeros_like(param), np.zeros_like(param), rho, eps)


def init_states(params: net.ModelParams, rho: float, eps: float) -> dict[str, AdadeltaState]:
    return {name: init_state(tensor, rho, eps)
            for name, tensor in net.trainable_tensors(params)}


def adadelta_step(param: np.ndarray, grad: np.ndarray, state: AdadeltaState) -> np.ndarray:
    """One in-place update: step size is RMS(past steps) / RMS(past grads)."""
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise ValueError("diverged: non-finite gradient")
    rho, eps = state.rho, state.eps
    state.acc_grad_sq *= rho
    state.acc_grad_sq += (1.0 - rho) * grad * grad
    step = -np.sqrt(state.acc_update_sq + eps) / np.sqrt(state.acc_grad_sq + eps) * grad
    state.acc_update_sq *= rho
    state.acc_update_sq += (1.0 - rho) * step * step
    param += step
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
    if np.any(over):
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

    Per mini-batch: per-example forward/backward with fresh dropout masks,
    gradients averaged over the batch, an Adadelta step on every trainable
    tensor, the output-row norm projection, and pad rows pinned to zero.
    """
    trainable_channels = [(i, ch) for i, ch in enumerate(params.channels) if ch.trainable]
    total_loss = 0.0
    for batch in make_minibatches(len(examples), config.batch_size, shuffle_seed, epoch):
        grads = {name: np.zeros_like(tensor) for name, tensor in net.trainable_tensors(params)}
        for idx in batch:
            ex = examples[idx]
            logits, trace = net.forward(params, ex.token_ids, train=True, rng=mask_rng)
            total_loss += net.loss_and_probs(logits, ex.label)[1]
            g = net.backward(params, trace, ex.label)
            for i, _ in trainable_channels:
                rows, vecs = g.channels[i]
                np.add.at(grads[f"channel{i}"], rows, vecs)
            for bank, gw, gb in zip(params.filters, g.filter_weights, g.filter_biases):
                grads[f"conv{bank.width}.weights"] += gw
                grads[f"conv{bank.width}.biases"] += gb
            grads["output.weights"] += g.output_weights
            grads["output.biases"] += g.output_biases

        scale = 1.0 / len(batch)
        for name, tensor in net.trainable_tensors(params):
            adadelta_step(tensor, grads[name] * scale, states[name])
        l2_renorm(params.output, config.norm_limit)
        for _, ch in trainable_channels:
            ch.matrix[PAD_ID] = 0.0
    return total_loss / len(examples)


@dataclass
class EarlyStopper:
    """Keep the best dev metric; stop after `patience` stale epochs.

    Ties resolve in favor of the earlier epoch (strict improvement only).
    """

    patience: int
    best_metric: float = -np.inf
    best_epoch: int = 0
    stale: int = 0

    def update(self, epoch: int, metric: float) -> bool:
        """Record an epoch's metric; returns True when training should stop."""
        if metric > self.best_metric:
            self.best_metric = metric
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


@dataclass
class FitResult:
    params: net.ModelParams
    history: list[tuple[int, float, float]]  # (epoch, train loss, dev accuracy)
    best_epoch: int
    best_dev_accuracy: float


def fit(params: net.ModelParams, train_examples, dev_examples, config: TrainConfig,
        *, fold: int = 0) -> FitResult:
    """Train with per-epoch dev evaluation; returns the best-dev-epoch parameters."""
    if not train_examples:
        raise ValueError("empty training set")
    if not dev_examples:
        raise ValueError("empty dev set")
    config.validate()
    states = init_states(params, config.rho, config.eps)
    mask_rng = np.random.default_rng([config.seed, DROPOUT, fold])
    shuffle_seed = derive_seed(config.seed, SHUFFLE, fold)

    stopper = EarlyStopper(config.patience)
    best_params = net.clone_params(params)
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, config.max_epochs + 1):
        loss = train_epoch(params, train_examples, config, states, mask_rng,
                           shuffle_seed, epoch)
        dev_acc = net.accuracy(params, dev_examples)
        history.append((epoch, loss, dev_acc))
        improved = dev_acc > stopper.best_metric
        should_stop = stopper.update(epoch, dev_acc)
        if improved:
            best_params = net.clone_params(params)
        if should_stop:
            break
    return FitResult(best_params, history, stopper.best_epoch, stopper.best_metric)


def history_to_csv(history) -> str:
    lines = ["epoch,train_loss,dev_acc"]
    lines += [f"{epoch},{loss:.6f},{acc:.6f}" for epoch, loss, acc in history]
    return "\n".join(lines) + "\n"
