"""Baseline load forecasters: a linear map and a two-layer MLP.

Both map a lookback window (L, D) to a horizon forecast (H, D), and
take a batch as the series rows plus each window's start (see
data.window_batch). The linear model is one L->H map per variable; the
MLP mixes variables through its (L*D)->hidden->(H*D) layers.
Guided training changes only the loss, never the model structure, so a
checkpoint trained either way is interchangeable at inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint, guidance, nn
from .data import WindowSet, window_batch
from .errors import ConfigError
from .train import TrainHistory, forward_batches


FORECASTER_KINDS = ("linear", "mlp")


@dataclass
class ForecasterConfig:
    kind: str  # one of FORECASTER_KINDS
    lookback: int
    horizon: int
    n_variables: int
    hidden: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FORECASTER_KINDS:
            raise ConfigError(f"unknown forecaster kind {self.kind!r}")
        if min(self.lookback, self.horizon, self.n_variables) < 1:
            raise ConfigError("lookback, horizon, and n_variables must all be >= 1")
        if self.kind == "mlp" and self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {self.hidden}")


class LinearForecaster:
    """Per-variable L->H linear maps."""

    def __init__(self, config: ForecasterConfig):
        self.config = config
        c = config
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(c.seed, 23)))
        shape = (c.n_variables, c.lookback, c.horizon)
        self.weights = nn.glorot_uniform(rng, shape, c.lookback, c.horizon)
        self.bias = np.zeros((c.n_variables, c.horizon))

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def param_names(self) -> list[str]:
        return ["weights", "bias"]

    def forward_batch(self, series: np.ndarray, starts, want_cache: bool = False):
        c = self.config
        x = window_batch(series, starts, c.lookback, c.n_variables)
        y = np.einsum("bli,ilh->bhi", x, self.weights, optimize=True) + self.bias.T[None]
        return (y, x) if want_cache else y

    def backward_batch(self, cache, dy: np.ndarray, update) -> None:
        """Hands the weight, then the bias gradient to update(i, grad)
        (see train.train_loop); neither needs a parameter's value."""
        x = cache
        update(0, np.einsum("bli,bhi->ilh", x, dy, optimize=True))
        update(1, dy.sum(axis=0).T)


class MlpForecaster:
    """(L*D) window -> hidden (ReLU) -> (H*D) forecast."""

    def __init__(self, config: ForecasterConfig):
        self.config = config
        c = config
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(c.seed, 23)))
        self.lin1 = nn.init_linear(rng, c.lookback * c.n_variables, c.hidden)
        self.lin2 = nn.init_linear(rng, c.hidden, c.horizon * c.n_variables)

    def params(self) -> list[np.ndarray]:
        return [self.lin1.weights, self.lin1.bias, self.lin2.weights, self.lin2.bias]

    def param_names(self) -> list[str]:
        return ["lin1.weights", "lin1.bias", "lin2.weights", "lin2.bias"]

    def forward_batch(self, series: np.ndarray, starts, want_cache: bool = False):
        c = self.config
        x = window_batch(series, starts, c.lookback, c.n_variables)
        b = x.shape[0]
        xf = x.reshape(b, -1)
        act = nn.linear_forward(self.lin1, xf)
        np.maximum(act, 0.0, out=act)  # ReLU in place
        y = nn.linear_forward(self.lin2, act).reshape(b, c.horizon, c.n_variables)
        return (y, [xf, act]) if want_cache else y

    def backward_batch(self, cache, dy: np.ndarray, update) -> None:
        """Hands every gradient to update(i, grad) in params() order (see
        train.train_loop) once the cache and every backward temporary are
        released, so Adam's scratch never sits beside them; lin2's input
        gradient is taken before any block moves. Empties the cache."""
        xf, act = cache
        cache.clear()
        (dw2, db2), dact = nn.linear_backward(self.lin2, act, dy.reshape(dy.shape[0], -1))
        dact *= act > 0  # ReLU: an activation is positive exactly where its input was
        del act
        (dw1, db1), _ = nn.linear_backward(self.lin1, xf, dact, input_grad=False)
        del xf, dact
        for i, grad in enumerate((dw1, db1, dw2, db2)):
            update(i, grad)


def make_forecaster(config: ForecasterConfig):
    if config.kind == "linear":
        return LinearForecaster(config)
    return MlpForecaster(config)


# rows per prediction pass; the MLP's forecasts depend on it in the last bits
PREDICT_BATCH = 256


def predict_samples(model, samples: WindowSet) -> np.ndarray:
    """Stacked forecasts (n, H, D) over a split's windows."""
    batches = forward_batches(model, samples, PREDICT_BATCH)
    return np.concatenate([yhat for _, yhat in batches], axis=0)


def train_plain(model, train_samples: WindowSet, val_samples: WindowSet, **fit) -> TrainHistory:
    """Minimize plain MAE; best-validation snapshot is restored. fit carries
    batch_size, lr, patience and max_epochs; train.train_loop holds the
    defaults of lr, patience and max_epochs, and train.fit that of batch_size."""
    return guidance.train_guided(
        model, None, train_samples, val_samples, guidance.GuidanceConfig(alpha=0.0), **fit
    )


def train_with_guidance(
    model,
    msp_model,
    train_samples: WindowSet,
    val_samples: WindowSet,
    config: guidance.GuidanceConfig | None = None,
    **fit,
) -> TrainHistory:
    """Event-guided training: same model, same inference path, the loss
    reweighted by the frozen state predictor's class probabilities. fit carries
    batch_size, lr, patience and max_epochs; train.train_loop holds the
    defaults of lr, patience and max_epochs, and train.fit that of batch_size."""
    return guidance.train_guided(
        model, msp_model, train_samples, val_samples, config or guidance.GuidanceConfig(), **fit
    )


def save_forecaster(model, path: str | Path) -> None:
    checkpoint.save_model(path, "forecaster", model)


def load_forecaster(path: str | Path):
    def build(config: dict):
        # older checkpoints carry "per_variable": true; false was a
        # flattened (L*D)->(H*D) linear map, which no longer exists
        if config.pop("per_variable", True) is not True and config.get("kind") == "linear":
            raise ConfigError("per_variable false: the flattened linear map was removed")
        return make_forecaster(ForecasterConfig(**config))

    return checkpoint.load_model(path, "forecaster", build)
