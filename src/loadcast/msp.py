"""Multivariate state predictor: forecasts future appliance operational
states from a historical load window.

Architecture: a shared 1-D conv trunk over all variables, one
per-variable extractor head (1-D conv + linear) producing that
variable's future class logits, and a fusion layer mixing the
concatenated per-variable logits at each future step. Trained with
multitask cross-entropy against cluster-derived state labels, it
becomes the frozen teacher whose class probabilities weight the
forecaster's training loss.

The D extractor convs run as one fused conv from trunk_channels to
D*ue_channels channels, on channels-last activations (one row of
channels per time step), so each pass is one matrix product instead of
D. The parameter blocks stay per head: names, shapes and checkpoints
are those of D separate convs, whose weights are concatenated at call
time and whose gradient is split back per head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import checkpoint, nn
from .data import WindowSample
from .errors import ConfigError, ShapeError
from .train import (
    DEFAULT_BATCH,
    DEFAULT_LR,
    DEFAULT_MAX_EPOCHS,
    DEFAULT_PATIENCE,
    TrainHistory,
    stack_inputs,
    stack_states,
    train_loop,
)


@dataclass
class MspConfig:
    lookback: int
    horizon: int
    n_variables: int
    class_counts: list[int]
    trunk_channels: int = 32
    ue_channels: int = 16
    kernel_width: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.lookback, self.horizon, self.n_variables) < 1:
            raise ConfigError("lookback, horizon, and n_variables must all be >= 1")
        if len(self.class_counts) != self.n_variables:
            raise ConfigError(
                f"{len(self.class_counts)} class counts for {self.n_variables} variables"
            )
        if any(not 2 <= int(n) <= 5 for n in self.class_counts):
            raise ConfigError(f"class counts must lie in [2, 5], got {self.class_counts}")
        self.class_counts = [int(n) for n in self.class_counts]

    @property
    def total_classes(self) -> int:
        return int(sum(self.class_counts))

    @property
    def group_offsets(self) -> list[int]:
        offsets = [0]
        for n in self.class_counts:
            offsets.append(offsets[-1] + n)
        return offsets


@dataclass
class GroupedLogits:
    """Future-step class logits, one column group per variable."""

    logits: np.ndarray  # (H, total_classes)
    class_counts: list[int]

    def groups(self):
        start = 0
        for n in self.class_counts:
            yield self.logits[..., start : start + n]
            start += n


class MspModel:
    """Shared trunk, per-variable extractors, per-step fusion layer.

    The extractor convs are stored per head (extractor{i}.conv.*) and run
    as one fused channels-last conv; see the module docstring.
    """

    def __init__(self, config: MspConfig):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 11)))
        c = config
        self.trunk = nn.init_conv1d(rng, c.n_variables, c.trunk_channels, c.kernel_width)
        self.extractor_convs = []
        self.extractor_linears = []
        for n in c.class_counts:
            self.extractor_convs.append(
                nn.init_conv1d(rng, c.trunk_channels, c.ue_channels, c.kernel_width)
            )
            self.extractor_linears.append(
                nn.init_linear(rng, c.ue_channels * c.lookback, c.horizon * n)
            )
        self.fusion = nn.init_linear(rng, c.total_classes, c.total_classes)

    def params(self) -> list[np.ndarray]:
        out = [self.trunk.weights, self.trunk.bias]
        for conv, lin in zip(self.extractor_convs, self.extractor_linears):
            out += [conv.weights, conv.bias, lin.weights, lin.bias]
        out += [self.fusion.weights, self.fusion.bias]
        return out

    def param_names(self) -> list[str]:
        names = ["trunk.weights", "trunk.bias"]
        for i in range(self.config.n_variables):
            names += [
                f"extractor{i}.conv.weights",
                f"extractor{i}.conv.bias",
                f"extractor{i}.linear.weights",
                f"extractor{i}.linear.bias",
            ]
        names += ["fusion.weights", "fusion.bias"]
        return names

    def _fused_conv(self) -> nn.LayerParams:
        """The extractor convs as one trunk_channels -> D*ue_channels conv;
        head i owns output channels [i*ue_channels, (i+1)*ue_channels)."""
        convs = self.extractor_convs
        return nn.LayerParams(
            "conv1d",
            np.concatenate([conv.weights for conv in convs]),
            np.concatenate([conv.bias for conv in convs]),
        )

    def forward_batch(self, x: np.ndarray, want_cache: bool = False):
        """Logits for a batch of windows; x is (B, L, D) -> (B, H, sumN)."""
        c = self.config
        if x.ndim != 3 or x.shape[1:] != (c.lookback, c.n_variables):
            raise ShapeError(
                f"input shape {x.shape} does not match (batch, {c.lookback}, {c.n_variables})"
            )
        b = x.shape[0]
        ue = c.ue_channels
        xc = x.transpose(0, 2, 1)  # (B, D, L) view of the channels-last input
        a1 = nn.conv1d_forward(self.trunk, xc)
        np.maximum(a1, 0.0, out=a1)  # ReLU in place
        # (B, D*ue, L) view of the channels-last (B*L, D*ue) activation matrix
        r = nn.conv1d_forward(self._fused_conv(), a1)
        np.maximum(r, 0.0, out=r)
        group_logits = []
        heads = []
        for i, (lin, n) in enumerate(zip(self.extractor_linears, c.class_counts)):
            f = r[:, i * ue : (i + 1) * ue].reshape(b, -1)  # (channel, time) order
            group_logits.append(nn.linear_forward(lin, f).reshape(b, c.horizon, n))
            if want_cache:
                heads.append(f)
        zu = np.concatenate(group_logits, axis=2)
        zf = zu.reshape(b * c.horizon, c.total_classes)
        z = nn.linear_forward(self.fusion, zf).reshape(b, c.horizon, c.total_classes)
        if want_cache:
            return z, (xc, a1, heads, zf)
        return z

    def backward_batch(self, cache, dz: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter block, in params() order.

        Consumes the cache: each head's input is dropped once its gradient
        is taken. The ReLU masks are read off the cached activations,
        which are positive exactly where their pre-activations were.
        """
        c = self.config
        xc, a1, heads, zf = cache
        b = dz.shape[0]
        ue = c.ue_channels
        (dwf, dbf), dzf = nn.linear_backward(
            self.fusion, zf, dz.reshape(b * c.horizon, c.total_classes)
        )
        dzu = dzf.reshape(b, c.horizon, c.total_classes)
        du = np.empty((b, c.lookback, c.n_variables * ue))  # channels-last
        linear_grads = []
        start = 0
        for i, (lin, n) in enumerate(zip(self.extractor_linears, c.class_counts)):
            dg = np.ascontiguousarray(dzu[:, :, start : start + n]).reshape(b, -1)
            start += n
            f, heads[i] = heads[i], None
            dlin, df = nn.linear_backward(lin, f, dg)
            linear_grads.append(dlin)
            df *= f > 0
            del f
            du[:, :, i * ue : (i + 1) * ue] = df.reshape(b, ue, c.lookback).transpose(0, 2, 1)
        (dwc, dbc), da1 = nn.conv1d_backward(self._fused_conv(), a1, du.transpose(0, 2, 1))
        del du
        da1 *= a1 > 0
        (dwt, dbt), _ = nn.conv1d_backward(self.trunk, xc, da1, input_grad=False)
        grads = [dwt, dbt]
        for i, (dwl, dbl) in enumerate(linear_grads):
            head = slice(i * ue, (i + 1) * ue)
            grads += [dwc[head], dbc[head], dwl, dbl]
        return grads + [dwf, dbf]


def msp_forward(model: MspModel, x: np.ndarray) -> GroupedLogits:
    """Logits for one lookback window; x is (L, D)."""
    c = model.config
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (c.lookback, c.n_variables):
        raise ShapeError(f"input shape {x.shape} does not match ({c.lookback}, {c.n_variables})")
    z = model.forward_batch(x[None])
    return GroupedLogits(z[0], list(c.class_counts))


def decode_states(grouped: GroupedLogits) -> np.ndarray:
    """Argmax class per (step, variable); ties go to the lowest class id."""
    cols = [g.argmax(axis=-1) for g in grouped.groups()]
    return np.stack(cols, axis=-1)


def msp_loss(grouped: GroupedLogits, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Multitask cross-entropy over per-variable softmax groups.

    targets is (H, D) integer states. Returns the scalar loss and its
    gradient w.r.t. the logits (same shape as grouped.logits). The loss
    goes through log-softmax, so it is finite for any finite logits.
    """
    z = grouped.logits
    counts = grouped.class_counts
    h = z.shape[0]
    d = len(counts)
    targets = np.asarray(targets)
    if targets.shape != (h, d):
        raise ShapeError(f"targets shape {targets.shape} does not match ({h}, {d})")
    for i, n in enumerate(counts):
        bad = (targets[:, i] < 0) | (targets[:, i] >= n)
        if bad.any():
            tau = int(np.argmax(bad))
            raise ShapeError(
                f"state target {targets[tau, i]} out of range [0, {n}) at step {tau}, variable {i}"
            )
    log_probs = np.concatenate([nn.log_softmax_rows(g) for g in grouped.groups()], axis=-1)
    cols = np.cumsum([0, *counts[:-1]]) + targets  # (H, D): logit column of each target
    rows = np.arange(h)[:, None]
    loss = -log_probs[rows, cols].sum() / (h * d)
    grad = np.exp(log_probs)
    grad[rows, cols] -= 1.0
    return float(loss), grad / (h * d)


def _batch_loss_grad(z: np.ndarray, targets: np.ndarray, counts: Sequence[int]):
    """Batched version of msp_loss; z is (B, H, sumN), targets (B, H, D).

    The loss goes through log-softmax, so it is finite for any finite
    logits; the gradient is softmax - onehot. Each group's shifted
    logits, exponentials and their sum are computed once and serve both:
    softmax is e / s as in nn.softmax_rows and log-softmax zs - log(s) as
    in nn.log_softmax_rows, bit for bit.
    """
    nn._require_finite(z, "softmax logits")
    b, h, _ = z.shape
    d = len(counts)
    grad = np.empty_like(z)
    loss = 0.0
    start = 0
    bidx = np.arange(b)[:, None]
    hidx = np.arange(h)[None, :]
    for i, n in enumerate(counts):
        t = targets[:, :, i]
        g = z[:, :, start : start + n]
        zs = g - g.max(axis=-1, keepdims=True)
        e = np.exp(zs)
        s = e.sum(axis=-1, keepdims=True)
        grad[:, :, start : start + n] = e / s
        loss += -(zs[bidx, hidx, t] - np.log(s)[:, :, 0]).sum()
        grad[bidx, hidx, start + t] -= 1.0
        start += n
    scale = b * h * d
    return loss / scale, grad / scale


def state_accuracy(
    model: MspModel, samples: Sequence[WindowSample], batch_size: int = DEFAULT_BATCH
) -> float:
    """Fraction of (step, variable) cells whose decoded state matches."""
    if not samples:
        raise ConfigError("no samples to score")
    correct = 0
    total = 0
    counts = model.config.class_counts
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        z = model.forward_batch(stack_inputs(chunk))
        targets = stack_states(chunk)
        cols = []
        off = 0
        for n in counts:
            cols.append(z[:, :, off : off + n].argmax(axis=-1))
            off += n
        decoded = np.stack(cols, axis=-1)
        correct += int((decoded == targets).sum())
        total += targets.size
    return correct / total


def train_msp(
    model: MspModel,
    train_samples: Sequence[WindowSample],
    val_samples: Sequence[WindowSample],
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
) -> TrainHistory:
    """Stage-1 training: minimize multitask cross-entropy with Adam and
    early stopping; the model is left at its best-validation snapshot."""
    if not train_samples or not val_samples:
        raise ConfigError("train and validation sets must both be nonempty")
    counts = model.config.class_counts
    x_train = stack_inputs(train_samples)
    s_train = stack_states(train_samples)
    x_val = stack_inputs(val_samples)
    s_val = stack_states(val_samples)

    def batch_fn(idx: np.ndarray):
        z, cache = model.forward_batch(x_train[idx], want_cache=True)
        loss, dz = _batch_loss_grad(z, s_train[idx], counts)
        return loss, model.backward_batch(cache, dz)

    def val_fn() -> float:
        total = 0.0
        rows = 0
        for start in range(0, x_val.shape[0], batch_size):
            xb = x_val[start : start + batch_size]
            z = model.forward_batch(xb)
            loss, _ = _batch_loss_grad(z, s_val[start : start + batch_size], counts)
            total += loss * xb.shape[0]
            rows += xb.shape[0]
        return total / rows

    return train_loop(
        model,
        n_train=x_train.shape[0],
        batch_fn=batch_fn,
        val_fn=val_fn,
        lr=lr,
        batch_size=batch_size,
        patience=patience,
        max_epochs=max_epochs,
        seed=model.config.seed,
    )


def save_msp(model: MspModel, path: str | Path) -> None:
    config = asdict(model.config)
    checkpoint.save_container(path, "msp", config, model.param_names(), model.params())


def load_msp(path: str | Path) -> MspModel:
    return checkpoint.load_model(path, "msp", lambda config: MspModel(MspConfig(**config)))


def param_checksum(model) -> float:
    """Cheap fingerprint of all parameter values (teacher-frozen checks)."""
    return float(sum(np.abs(p).sum() for p in model.params()))
