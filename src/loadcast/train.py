"""Shared mini-batch training loop with early stopping.

One loop serves the state predictor and both forecaster training modes,
so batching, shuffling, and stopping decisions are identical wherever
two runs are expected to coincide bit-for-bit (e.g. guided training
with alpha=0 versus plain training under the same seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

import numpy as np

from . import nn
from .data import WindowSet, check_window_batch
from .errors import ConfigError, NumericError

DEFAULT_LR = 0.001
DEFAULT_BATCH = 128
DEFAULT_PATIENCE = 10
DEFAULT_MAX_EPOCHS = 100


def check_lr(lr: float) -> None:
    """An Adam step size must be a finite number > 0."""
    if not 0 < lr < math.inf:
        raise ConfigError(f"lr must be finite and > 0, got {lr}")


class Trainable(Protocol):
    def params(self) -> list[np.ndarray]: ...

    def param_names(self) -> list[str]: ...


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    @property
    def best_val_loss(self) -> float:
        return self.val_loss[self.best_epoch - 1]


def train_loop(
    model: Trainable,
    n_train: int,
    batch_fn: Callable[[np.ndarray], tuple[float, list[np.ndarray]]],
    val_fn: Callable[[], float],
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    seed: int = 0,
) -> TrainHistory:
    """Adam + early stopping; restores the best-validation snapshot.

    batch_fn maps an index array into train samples to (loss, grads);
    val_fn scores the current model on the validation set (lower is
    better). Stops once validation fails to improve for `patience`
    consecutive epochs, or at max_epochs. Tail batches smaller than
    batch_size are used as-is. The snapshot is allocated at the first
    improving epoch and overwritten in place after that; a validation
    loss that is never finite raises NumericError.
    """
    if n_train < 1:
        raise ConfigError("training set is empty")
    limits = {"batch_size": batch_size, "max_epochs": max_epochs, "patience": patience}
    for name, value in limits.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    check_lr(lr)
    params = model.params()
    names = model.param_names()
    state = nn.init_adam(params, lr=lr)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 101)))
    history = TrainHistory()
    best_val = np.inf
    best_params = None
    bad_epochs = 0
    for epoch in range(1, max_epochs + 1):
        perm = rng.permutation(n_train)
        epoch_losses = []
        for idx in np.split(perm, range(batch_size, n_train, batch_size)):
            loss, grads = batch_fn(idx)
            nn.adam_step(state, params, grads, names)
            del grads  # else they stay alive through the next batch's backward pass
            epoch_losses.append(loss)
        val = val_fn()
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_loss.append(float(val))
        history.stopped_epoch = epoch
        if val < best_val:
            best_val = val
            if best_params is None:
                best_params = [p.copy() for p in params]
            else:
                for best, p in zip(best_params, params):
                    best[...] = p
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    if best_params is None:
        raise NumericError(
            f"validation loss was never finite in {history.stopped_epoch} epoch(s), "
            f"last {history.val_loss[-1]}"
        )
    for p, best in zip(params, best_params):
        p[...] = best
    return history


def forward_batches(
    model, windows, batch_size: int, *, series: bool = False
) -> Iterator[tuple[slice, np.ndarray]]:
    """Run a model over every window in order, batch_size windows at a
    time (the last batch may be shorter): yields the slice rows of the
    batch's windows and the model's output for them, so y[rows] picks the
    batch's targets. windows is an (n, L, D) array, and each batch is the
    view windows[rows]; with series, windows is a WindowSet that must fit
    the model, and each batch is its series rows with the windows' starts
    (MspModel.forward_batch).
    """
    if series:
        check_window_batch(windows.x, model.config.lookback, model.config.n_variables)
    n = len(windows)
    for start in range(0, n, batch_size):
        rows = slice(start, min(start + batch_size, n))
        if series:
            yield rows, model.forward_batch(windows.series, starts=np.arange(rows.start, rows.stop))
        else:
            yield rows, model.forward_batch(windows[rows])


def stack_inputs(windows: WindowSet) -> np.ndarray:
    """Every window's lookback, a read-only (n, L, D) view; x[idx] gathers a batch."""
    return windows.x


def stack_targets(windows: WindowSet) -> np.ndarray:
    """Every window's target values, a read-only (n, H, D) view."""
    return windows.y


def stack_states(windows: WindowSet) -> np.ndarray:
    """Every window's target state labels, a read-only (n, H, D) view."""
    return windows.s
