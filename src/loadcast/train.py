"""Shared mini-batch training with early stopping.

One routine (fit) trains the state predictor and both forecaster
training modes, so the split checks, the step, the validation pass,
batching, shuffling, and stopping decisions are identical wherever two
runs are expected to coincide bit-for-bit (e.g. guided training with
alpha=0 versus plain training under the same seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import nn
from .data import WindowSet, check_split
from .errors import ConfigError, NumericError, ShapeError

DEFAULT_LR = 0.001
DEFAULT_BATCH = 128
DEFAULT_PATIENCE = 10
DEFAULT_MAX_EPOCHS = 100


def check_lr(lr: float) -> None:
    """An Adam step size must be a finite number > 0."""
    if not 0 < lr < math.inf:
        raise ConfigError(f"lr must be finite and > 0, got {lr}")


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
    model,
    n_train: int,
    batch_fn: Callable[[np.ndarray, Callable[[int, np.ndarray], None]], float],
    val_fn: Callable[[], float],
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    seed: int = 0,
) -> TrainHistory:
    """Adam + early stopping; restores the best-validation snapshot.

    batch_fn(idx, update) returns the loss of the train samples idx and
    hands every parameter block's gradient to update(i, grad) once, i
    indexing model.params(), as soon as the backward pass no longer needs
    that block's current value. update runs nn.adam_step on block i
    with its own Adam state; every block steps once per batch, so the
    steps equal those taken after the whole backward pass, bit for bit.
    A gradient is read only during its update call. Training memory is the
    parameters, Adam's two moments, the best snapshot and one gradient
    block, never a whole gradient set. The teacher's backward pass may
    call update from its helper thread too (see msp.MspModel.backward_batch),
    for other blocks than the caller's, and returns only once that
    thread has stopped; each thread then holds one block. A non-finite
    gradient raises NumericError before its own block moves; blocks
    handed over earlier in that batch have already moved, and with the
    helper running, which of the other thread's blocks have moved depends
    on timing. A block handed over twice, or not at all, in one batch
    raises ShapeError.

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
    states = [nn.init_adam(p, lr=lr) for p in params]
    steps = 0

    def update(i: int, grad: np.ndarray) -> None:
        if states[i].t == steps:
            raise ShapeError(f"gradient of {names[i]} handed over twice in one batch")
        nn.adam_step(states[i], params[i], grad, names[i])

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 101)))
    history = TrainHistory()
    best_val = np.inf
    best_params = None
    bad_epochs = 0
    for epoch in range(1, max_epochs + 1):
        perm = rng.permutation(n_train)
        epoch_losses = []
        for idx in np.split(perm, range(batch_size, n_train, batch_size)):
            steps += 1
            epoch_losses.append(batch_fn(idx, update))
            missing = [name for name, state in zip(names, states) if state.t < steps]
            if missing:
                raise ShapeError(f"batch handed over no gradient of {', '.join(missing)}")
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


def fit(
    model, train_windows: WindowSet, val_windows: WindowSet, step, score, *,
    batch_size: int = DEFAULT_BATCH, **settings,
) -> TrainHistory:
    """train_loop over train_windows, validated on val_windows; both must
    take the model's lookback (check_split). A step runs the model
    forward with a cache on the train windows idx, step(out, idx)
    -> (loss, gradient w.r.t. out), and the model's backward pass, which
    hands each block's gradient to train_loop's update. The validation
    loss adds score(out, rows) -> (total, count) over the batches of
    forward_batches in order from 0.0 and divides once by the summed
    counts. The model's config.seed seeds the shuffling; settings carries
    lr, patience and max_epochs."""
    c = model.config
    for windows in (train_windows, val_windows):
        check_split(windows, c.lookback, c.n_variables)
    series = train_windows.series

    def batch_fn(idx: np.ndarray, update) -> float:
        out, cache = model.forward_batch(series, idx, want_cache=True)
        loss, grad = step(out, idx)
        model.backward_batch(cache, grad, update)
        return loss

    def val_fn() -> float:
        total, count = 0.0, 0
        for rows, out in forward_batches(model, val_windows, batch_size):
            batch_total, batch_count = score(out, rows)
            total += batch_total
            count += batch_count
        return total / count

    # looked up at call time, so a wrapper set on train.train_loop sees every call
    return train_loop(model, n_train=len(train_windows), batch_fn=batch_fn, val_fn=val_fn,
                      batch_size=batch_size, seed=c.seed, **settings)


def forward_batches(
    model, windows: WindowSet, batch_size: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Run a model over every window of a split in order, batch_size
    windows at a time (the last batch may be shorter): yields the slice
    rows of the batch's windows and the model's output for them, so
    y[rows] picks the batch's targets. Each batch is the split's series
    and its window starts, model.forward_batch(windows.series, starts);
    that form cannot show a window's length, so the split's lookback is
    checked against the model's first (check_split).
    """
    c = model.config
    check_split(windows, c.lookback, c.n_variables)
    n = len(windows)
    for start in range(0, n, batch_size):
        rows = slice(start, min(start + batch_size, n))
        yield rows, model.forward_batch(windows.series, np.arange(rows.start, rows.stop))


def stack_inputs(windows: WindowSet) -> np.ndarray:
    """Every window's lookback, a read-only (n, L, D) view."""
    return windows.x


def stack_targets(windows: WindowSet) -> np.ndarray:
    """Every window's target values, a read-only (n, H, D) view."""
    return windows.y


def stack_states(windows: WindowSet) -> np.ndarray:
    """Every window's target state labels, a read-only (n, H, D) view."""
    return windows.s
