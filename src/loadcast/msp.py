"""Multivariate state predictor: forecasts future appliance operational
states from a historical load window.

Architecture: a shared 1-D conv trunk over all variables, one
per-variable extractor head (1-D conv + linear) producing that
variable's future class logits, and a fusion layer mixing the
concatenated per-variable logits at each future step. Trained with
multitask cross-entropy against cluster-derived state labels, it
becomes the frozen teacher whose class probabilities weight the
forecaster's training loss.

Logits are (batch, H, sum of class counts) arrays, one column group per
variable. The loss (msp_loss) and the argmax decoding (decode_states)
take such a batch directly; train_msp and state_accuracy call them once
per batch, and a single window is a batch of one.

The D extractor convs run as one fused conv from trunk_channels to
D*ue_channels channels, on channels-last activations (one row of
channels per time step), so each pass is one matrix product instead of
D. The parameter blocks stay per head: names, shapes and checkpoints
are those of D separate convs, whose weights are concatenated at call
time and whose gradient is split back per head.

A training step keeps that fused conv's output r, (B, L, D*ue) floats,
as its only per-head activation: the forward pass caches r itself, not
a copy of each head's input, and the backward pass writes each head's
input gradient back over the head's channels of r, so r becomes the
fused conv's upstream gradient.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import checkpoint, nn
from .data import WindowSet
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


MIN_CLASSES, MAX_CLASSES = 2, 5  # states per variable the teacher can predict


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
        for name in ("trunk_channels", "ue_channels", "kernel_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.class_counts) != self.n_variables:
            raise ConfigError(
                f"{len(self.class_counts)} class counts for {self.n_variables} variables"
            )
        if any(not MIN_CLASSES <= int(n) <= MAX_CLASSES for n in self.class_counts):
            raise ConfigError(
                f"class counts must lie in [{MIN_CLASSES}, {MAX_CLASSES}], got {self.class_counts}"
            )
        self.class_counts = [int(n) for n in self.class_counts]

    @property
    def total_classes(self) -> int:
        return int(sum(self.class_counts))


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
        for i, (lin, n) in enumerate(zip(self.extractor_linears, c.class_counts)):
            f = r[:, i * ue : (i + 1) * ue].reshape(b, -1)  # (channel, time) order
            group_logits.append(nn.linear_forward(lin, f).reshape(b, c.horizon, n))
        zu = np.concatenate(group_logits, axis=2)
        zf = zu.reshape(b * c.horizon, c.total_classes)
        z = nn.linear_forward(self.fusion, zf).reshape(b, c.horizon, c.total_classes)
        if want_cache:
            return z, [xc, a1, r, zf]
        return z

    def backward_batch(self, cache, dz: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter block, in params() order.

        Empties the cache. The fused conv's activation r becomes its own
        upstream gradient: head i's input is rebuilt from r's channels
        [i*ue, (i+1)*ue), and the head's masked input gradient is written
        back over those channels. After the last head r holds the fused
        conv's grad_out, and no per-head copy outlives its head. The ReLU
        masks are read off the cached activations, which are positive
        exactly where their pre-activations were.
        """
        c = self.config
        xc, a1, r, zf = cache
        cache.clear()
        b = dz.shape[0]
        ue = c.ue_channels
        (dwf, dbf), dzf = nn.linear_backward(
            self.fusion, zf, dz.reshape(b * c.horizon, c.total_classes)
        )
        dzu = dzf.reshape(b, c.horizon, c.total_classes)
        linear_grads = []
        start = 0
        for i, (lin, n) in enumerate(zip(self.extractor_linears, c.class_counts)):
            dg = np.ascontiguousarray(dzu[:, :, start : start + n]).reshape(b, -1)
            start += n
            ri = r[:, i * ue : (i + 1) * ue]
            f = ri.reshape(b, -1)  # (channel, time) order, as in forward_batch
            dlin, df = nn.linear_backward(lin, f, dg)
            linear_grads.append(dlin)
            df *= f > 0
            del f
            ri[...] = df.reshape(b, ue, c.lookback)
            del df
        (dwc, dbc), da1 = nn.conv1d_backward(self._fused_conv(), a1, r)
        del r, ri
        da1 *= a1 > 0
        (dwt, dbt), _ = nn.conv1d_backward(self.trunk, xc, da1, input_grad=False)
        grads = [dwt, dbt]
        for i, (dwl, dbl) in enumerate(linear_grads):
            head = slice(i * ue, (i + 1) * ue)
            grads += [dwc[head], dbc[head], dwl, dbl]
        return grads + [dwf, dbf]


def decode_states(z: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Argmax class per (step, variable) of logits z (..., H, sumN) ->
    (..., H, D); ties go to the lowest class id."""
    cols = []
    start = 0
    for n in counts:
        cols.append(z[..., start : start + n].argmax(axis=-1))
        start += n
    return np.stack(cols, axis=-1)


def msp_loss(z: np.ndarray, targets: np.ndarray, counts: Sequence[int]):
    """Multitask cross-entropy over per-variable softmax groups.

    z is (B, H, sumN) logits, targets (B, H, D) integer states. Returns
    the mean loss over all B*H*D cells and its gradient w.r.t. z,
    (softmax - onehot) / (B*H*D). The loss goes through log-softmax, so
    it is finite for any finite logits. Each group's shifted logits,
    exponentials and their sum are computed once and serve both:
    softmax is e / s as in nn.softmax_rows and log-softmax zs - log(s)
    as in nn.log_softmax_rows, bit for bit. A target outside [0, n)
    raises ShapeError naming its sample in the batch, step and variable.
    """
    nn._require_finite(z, "softmax logits")
    b, h, _ = z.shape
    d = len(counts)
    targets = np.asarray(targets)
    if targets.shape != (b, h, d):
        raise ShapeError(f"targets shape {targets.shape} does not match ({b}, {h}, {d})")
    grad = np.empty_like(z)
    loss = 0.0
    start = 0
    bidx = np.arange(b)[:, None]
    hidx = np.arange(h)[None, :]
    for i, n in enumerate(counts):
        t = targets[:, :, i]
        if t.min() < 0 or t.max() >= n:
            sample, tau = np.argwhere((t < 0) | (t >= n))[0]
            raise ShapeError(
                f"state target {t[sample, tau]} out of range [0, {n}) "
                f"at sample {sample}, step {tau}, variable {i}"
            )
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
    model: MspModel, samples: WindowSet, batch_size: int = DEFAULT_BATCH
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
        correct += int((decode_states(z, counts) == targets).sum())
        total += targets.size
    return correct / total


def _check_states(samples: WindowSet, counts: Sequence[int], split: str) -> None:
    """Reject a state label outside [0, n) before training, naming its
    row in the split (window origin + step) and its variable."""
    s = stack_states(samples)
    d = len(counts)
    if s.shape[2] != d:
        raise ShapeError(f"{split} state labels have {s.shape[2]} variables, the model {d}")
    for i, n in enumerate(counts):
        t = s[:, :, i]
        if t.min() < 0 or t.max() >= n:
            k, tau = np.argwhere((t < 0) | (t >= n))[0]
            origin = samples.first_origin + k
            raise ShapeError(
                f"state target {t[k, tau]} out of range [0, {n}) in the {split} split "
                f"at row {origin + tau} (window origin {origin} + step {tau}), variable {i}"
            )


def train_msp(
    model: MspModel,
    train_samples: WindowSet,
    val_samples: WindowSet,
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
    _check_states(train_samples, counts, "train")
    _check_states(val_samples, counts, "validation")
    x_train = stack_inputs(train_samples)
    s_train = stack_states(train_samples)
    x_val = stack_inputs(val_samples)
    s_val = stack_states(val_samples)

    def batch_fn(idx: np.ndarray):
        z, cache = model.forward_batch(x_train[idx], want_cache=True)
        loss, dz = msp_loss(z, s_train[idx], counts)
        return loss, model.backward_batch(cache, dz)

    def val_fn() -> float:
        total = 0.0
        rows = 0
        for start in range(0, x_val.shape[0], batch_size):
            xb = x_val[start : start + batch_size]
            z = model.forward_batch(xb)
            loss, _ = msp_loss(z, s_val[start : start + batch_size], counts)
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
