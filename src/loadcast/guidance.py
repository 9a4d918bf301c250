"""Event-response guidance: turn frozen state-predictor logits into
per-(step, variable) loss weights and train forecasters under the
combined objective  loss = MAE + alpha * weighted-MAE.

The weight for a future cell is the maximum class probability the
teacher assigns to that variable at that step. It lies in [1/n, 1] for
a variable with n states, so every cell's loss coefficient
1 + alpha * w stays positive, and confidently predicted state patterns
(events and steady operation alike) pull more of the forecaster's
attention than cells the teacher finds noisy. The
teacher is read-only throughout; validation and model selection use
plain MAE so guidance shapes optimization only.

event_weights and guided_loss take whole batches. teacher_weights runs
the teacher over a split with train.forward_batches, and train_guided
trains through train.fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import metrics, nn
from .data import WindowSet
from .errors import ConfigError, ShapeError
from .msp import split_groups
from .train import DEFAULT_BATCH, TrainHistory, fit, forward_batches, stack_targets

def check_alpha(alpha: float) -> None:
    """A guidance strength must be a finite number >= 0."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")


@dataclass
class GuidanceConfig:
    """alpha scales the weighted term of MAE + alpha * weighted-MAE."""

    alpha: float = 1.0

    def __post_init__(self) -> None:
        check_alpha(self.alpha)


def event_weights(z: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Per-(step, variable) max softmax probability from logits z
    (..., H, sumN) -> (..., H, D); nn.softmax_rows runs once per
    variable's group. Every weight lies in [1/n_i, 1] for a variable
    with n_i classes (softmax max is at least uniform).
    """
    return np.stack([nn.softmax_rows(g).max(axis=-1) for g in split_groups(z, counts)], axis=-1)


def guided_loss(
    yhat: np.ndarray, y: np.ndarray, weights: np.ndarray | None, alpha: float
) -> tuple[float, np.ndarray]:
    """Combined loss MAE + alpha * mean(weights * |err|), with its
    subgradient w.r.t. yhat (0 at exact ties); weights None is plain MAE.
    Any shape works, so one call scores a whole (B, H, D) batch."""
    yhat, y = metrics.checked_pair(yhat, y)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != yhat.shape:
            raise ShapeError(
                f"weights shape {weights.shape} does not match predictions {yhat.shape}"
            )
    check_alpha(alpha)
    err = yhat - y
    ae = np.abs(err)
    if weights is None:
        return float(ae.mean()), np.sign(err) / err.size
    loss = float(ae.mean() + alpha * (weights * ae).mean())
    grad = np.sign(err) * (1.0 + alpha * weights) / err.size
    return loss, grad


def teacher_weights(
    msp_model, samples: WindowSet, *, batch_size: int = DEFAULT_BATCH
) -> np.ndarray:
    """Weights for every sample's future block, (n, H, D). The teacher
    is frozen, so these are computed once and reused across epochs."""
    counts = msp_model.config.class_counts
    batches = forward_batches(msp_model, samples, batch_size)
    return np.concatenate([event_weights(z, counts) for _, z in batches], axis=0)


def train_guided(
    model,
    msp_model,
    train_samples: WindowSet,
    val_samples: WindowSet,
    config: GuidanceConfig,
    *,
    batch_size: int = DEFAULT_BATCH,
    precomputed_weights: np.ndarray | None = None,
    **settings,
) -> TrainHistory:
    """Train a forecaster under the guided objective (train.fit),
    validated and selected by plain MAE.

    msp_model None trains under plain MAE (no weights computed); the
    two paths batch, shuffle, and stop identically, so alpha=0 guided
    training reproduces plain training bit-for-bit under one seed.
    precomputed_weights may carry teacher_weights() output for the
    train samples to share one weight pass across runs (the teacher is
    frozen, so recomputation is pure overhead). A teacher must share
    the forecaster's lookback, horizon and variable count. batch_size
    also sizes the teacher-weight batches; settings carries lr, patience
    and max_epochs. train.train_loop holds the defaults of lr, patience
    and max_epochs, and train.fit that of batch_size.
    """
    fc = model.config
    if msp_model is not None:
        mc = msp_model.config
        if (mc.lookback, mc.horizon, mc.n_variables) != (fc.lookback, fc.horizon, fc.n_variables):
            raise ShapeError(
                "state predictor geometry "
                f"(L={mc.lookback}, H={mc.horizon}, D={mc.n_variables}) does not match "
                f"forecaster (L={fc.lookback}, H={fc.horizon}, D={fc.n_variables})"
            )
    y_train = stack_targets(train_samples)
    y_val = stack_targets(val_samples)
    weights = precomputed_weights
    if weights is not None:
        if weights.shape != y_train.shape:
            raise ShapeError(
                f"precomputed weights shape {weights.shape} does not match "
                f"targets {y_train.shape}"
            )
    elif msp_model is not None:
        weights = teacher_weights(msp_model, train_samples, batch_size=batch_size)
    alpha = config.alpha

    def step(yhat: np.ndarray, idx: np.ndarray) -> tuple[float, np.ndarray]:
        wb = None if weights is None else weights[idx]
        return guided_loss(yhat, y_train[idx], wb, alpha)

    def score(yhat: np.ndarray, rows: slice) -> tuple[float, int]:
        return float(np.abs(yhat - y_val[rows]).sum()), yhat.size

    return fit(model, train_samples, val_samples, step, score, batch_size=batch_size, **settings)
