"""Baseline load forecasters: a linear map and a two-layer MLP.

Both map a lookback window (L, D) to a horizon forecast (H, D). The
linear model defaults to one L->H map per variable; a flattened
(L*D)->(H*D) variant and the MLP exercise cross-variable mixing.
Guided training changes only the loss, never the model structure, so a
checkpoint trained either way is interchangeable at inference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import checkpoint, guidance, nn
from .data import WindowSet
from .errors import ConfigError, ShapeError
from .train import (
    DEFAULT_BATCH,
    DEFAULT_LR,
    DEFAULT_MAX_EPOCHS,
    DEFAULT_PATIENCE,
    TrainHistory,
    stack_inputs,
)


FORECASTER_KINDS = ("linear", "mlp")


@dataclass
class ForecasterConfig:
    kind: str  # one of FORECASTER_KINDS
    lookback: int
    horizon: int
    n_variables: int
    hidden: int = 256
    per_variable: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FORECASTER_KINDS:
            raise ConfigError(f"unknown forecaster kind {self.kind!r}")
        if min(self.lookback, self.horizon, self.n_variables) < 1:
            raise ConfigError("lookback, horizon, and n_variables must all be >= 1")
        if self.kind == "mlp" and self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {self.hidden}")


class LinearForecaster:
    """Per-variable L->H linear maps, or one flattened (L*D)->(H*D) map."""

    def __init__(self, config: ForecasterConfig):
        self.config = config
        c = config
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(c.seed, 23)))
        if c.per_variable:
            limit = np.sqrt(6.0 / (c.lookback + c.horizon))
            self.weights = rng.uniform(-limit, limit, size=(c.n_variables, c.lookback, c.horizon))
            self.bias = np.zeros((c.n_variables, c.horizon))
            self.flat = None
        else:
            self.flat = nn.init_linear(rng, c.lookback * c.n_variables, c.horizon * c.n_variables)

    def params(self) -> list[np.ndarray]:
        if self.flat is None:
            return [self.weights, self.bias]
        return [self.flat.weights, self.flat.bias]

    def param_names(self) -> list[str]:
        return ["weights", "bias"]

    def forward_batch(self, x: np.ndarray, want_cache: bool = False):
        c = self.config
        if x.ndim != 3 or x.shape[1:] != (c.lookback, c.n_variables):
            raise ShapeError(
                f"input shape {x.shape} does not match (batch, {c.lookback}, {c.n_variables})"
            )
        b = x.shape[0]
        if self.flat is None:
            y = np.einsum("bli,ilh->bhi", x, self.weights, optimize=True) + self.bias.T[None]
            cache = x
        else:
            xf = x.reshape(b, -1)
            y = nn.linear_forward(self.flat, xf).reshape(b, c.horizon, c.n_variables)
            cache = xf
        return (y, cache) if want_cache else y

    def backward_batch(self, cache, dy: np.ndarray) -> list[np.ndarray]:
        c = self.config
        if self.flat is None:
            x = cache
            dw = np.einsum("bli,bhi->ilh", x, dy, optimize=True)
            db = dy.sum(axis=0).T
            return [dw, db]
        (dw, db), _ = nn.linear_backward(
            self.flat, cache, dy.reshape(dy.shape[0], -1), input_grad=False
        )
        return [dw, db]


class MlpForecaster:
    """Flatten -> hidden (ReLU) -> flatten forecast."""

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

    def forward_batch(self, x: np.ndarray, want_cache: bool = False):
        c = self.config
        if x.ndim != 3 or x.shape[1:] != (c.lookback, c.n_variables):
            raise ShapeError(
                f"input shape {x.shape} does not match (batch, {c.lookback}, {c.n_variables})"
            )
        b = x.shape[0]
        xf = x.reshape(b, -1)
        pre = nn.linear_forward(self.lin1, xf)
        act = nn.relu(pre)
        y = nn.linear_forward(self.lin2, act).reshape(b, c.horizon, c.n_variables)
        return (y, (xf, pre, act)) if want_cache else y

    def backward_batch(self, cache, dy: np.ndarray) -> list[np.ndarray]:
        xf, pre, act = cache
        (dw2, db2), dact = nn.linear_backward(self.lin2, act, dy.reshape(dy.shape[0], -1))
        dpre = nn.relu_backward(pre, dact)
        (dw1, db1), _ = nn.linear_backward(self.lin1, xf, dpre, input_grad=False)
        return [dw1, db1, dw2, db2]


def make_forecaster(config: ForecasterConfig):
    if config.kind == "linear":
        return LinearForecaster(config)
    return MlpForecaster(config)


def predict_samples(model, samples: WindowSet, batch_size: int = 256) -> np.ndarray:
    """Stacked forecasts (n, H, D) over a split's windows."""
    outs = []
    for start in range(0, len(samples), batch_size):
        xb = stack_inputs(samples[start : start + batch_size])
        outs.append(model.forward_batch(xb))
    return np.concatenate(outs, axis=0)


def train_plain(
    model,
    train_samples: WindowSet,
    val_samples: WindowSet,
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
) -> TrainHistory:
    """Minimize plain MAE; best-validation snapshot is restored."""
    return guidance.train_guided(
        model,
        None,
        train_samples,
        val_samples,
        guidance.GuidanceConfig(alpha=0.0),
        lr=lr,
        batch_size=batch_size,
        patience=patience,
        max_epochs=max_epochs,
    )


def train_with_guidance(
    model,
    msp_model,
    train_samples: WindowSet,
    val_samples: WindowSet,
    config: guidance.GuidanceConfig | None = None,
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
) -> TrainHistory:
    """Event-guided training: same model, same inference path, the loss
    reweighted by the frozen state predictor's class probabilities."""
    if config is None:
        config = guidance.GuidanceConfig()
    mc, fc = msp_model.config, model.config
    if (mc.lookback, mc.horizon, mc.n_variables) != (fc.lookback, fc.horizon, fc.n_variables):
        raise ConfigError(
            "state predictor geometry "
            f"(L={mc.lookback}, H={mc.horizon}, D={mc.n_variables}) does not match forecaster "
            f"(L={fc.lookback}, H={fc.horizon}, D={fc.n_variables})"
        )
    return guidance.train_guided(
        model,
        msp_model,
        train_samples,
        val_samples,
        config,
        lr=lr,
        batch_size=batch_size,
        patience=patience,
        max_epochs=max_epochs,
    )


def save_forecaster(model, path: str | Path) -> None:
    config = asdict(model.config)
    checkpoint.save_container(path, "forecaster", config, model.param_names(), model.params())


def load_forecaster(path: str | Path):
    return checkpoint.load_model(
        path, "forecaster", lambda config: make_forecaster(ForecasterConfig(**config))
    )
