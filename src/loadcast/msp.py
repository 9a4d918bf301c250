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
variable; split_groups gives each variable's group as a view. The loss
(msp_loss) and the argmax decoding (decode_states) take such a batch
directly, and a single window is a batch of one. train_msp's validation
and state_accuracy run the model over a split with train.forward_batches.
A batch is the series rows its windows are cut from and each window's
first row, forward_batch(series, starts), as for every model.

The D extractor convs run as one fused conv from trunk_channels to
D*ue_channels channels, on channels-last activations (one row of
channels per time step), so each pass is one matrix product instead of
D. The parameter blocks stay per head: names, shapes and checkpoints
are those of D separate convs, whose weights are concatenated at call
time and whose gradient is split back per head.

Windows one step apart share L - 1 of their L rows, so the trunk and
the fused conv run once over the series rows that a batch's windows
cover (the runs of overlapping windows, concatenated), not over B*L
stacked rows, and each head gathers its (ue, L) input per window from
that output. Only the rows that see a window's own zero padding differ
from the series-level values: the first 2*left and last 2*right rows of
the second conv, left = k-1-(k-1)//2 and right = (k-1)//2 for kernel
width k. They come from strips of 2*(k-1) rows at each window's ends,
convolved on their own, so the logits equal those of per-window convs.
The junctions between concatenated runs disturb only such rows.

A training step keeps the fused conv's output over the covered rows and
the strips as its only per-head activation: the backward pass gathers
each head's input from it again and overlap-adds the head's input
gradient back over the head's channels, so it becomes the fused conv's
upstream gradient. Each conv's weight and bias gradient is one product
over the covered rows plus one over the strips; that sum differs from
the per-window one in its last bits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import checkpoint, nn
from .data import WindowSet, check_window_batch, check_window_starts
from .errors import ConfigError, ShapeError
from .labeling import MAX_STATES, MIN_STATES
from .train import DEFAULT_BATCH, TrainHistory, forward_batches, stack_states, train_loop


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
        if self.lookback < self.kernel_width:
            raise ConfigError(
                f"lookback {self.lookback} is below the kernel width {self.kernel_width}"
            )
        if len(self.class_counts) != self.n_variables:
            raise ConfigError(
                f"{len(self.class_counts)} class counts for {self.n_variables} variables"
            )
        if any(not MIN_STATES <= int(n) <= MAX_STATES for n in self.class_counts):
            raise ConfigError(
                f"class counts must lie in [{MIN_STATES}, {MAX_STATES}], got {self.class_counts}"
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

    def forward_batch(self, series: np.ndarray, starts, want_cache: bool = False):
        """Logits (B, H, sumN) for a batch of windows cut from the (n, D)
        series rows, window b being series[starts[b] : starts[b] + L]."""
        c = self.config
        starts = np.asarray(starts)
        check_window_starts(series, starts, c.lookback, c.n_variables)
        rows, pos = _covered_rows(starts, c.lookback, series.shape[0])
        w, _, _ = _edge_strips(c.lookback, c.kernel_width)
        ends = np.concatenate([starts, starts + c.lookback - w])  # head strips, then tail strips
        parts = [series[rows][None], series[ends[:, None] + np.arange(w)]]
        fused = self._fused_conv()
        acts = []  # (input, trunk output, fused output) over the covered rows, then the strips
        for part in parts:  # (1, R, D), then (2B, w, D)
            xc = part.transpose(0, 2, 1)  # (batch, D, T) view of the channels-last rows
            a1 = nn.conv1d_forward(self.trunk, xc)
            np.maximum(a1, 0.0, out=a1)  # ReLU in place
            # (batch, D*ue, T) view of the channels-last (batch*T, D*ue) activations
            r = nn.conv1d_forward(fused, a1)
            np.maximum(r, 0.0, out=r)
            acts.append((xc, a1, r))
        b = starts.size
        group_logits = []
        for i, (lin, n) in enumerate(zip(self.extractor_linears, c.class_counts)):
            f = self._head_input(i, acts, pos).reshape(b, -1)  # (channel, time) order
            group_logits.append(nn.linear_forward(lin, f).reshape(b, c.horizon, n))
            del f  # before the next head's input is gathered
        zu = np.concatenate(group_logits, axis=2)
        zf = zu.reshape(b * c.horizon, c.total_classes)
        z = nn.linear_forward(self.fusion, zf).reshape(b, c.horizon, c.total_classes)
        if want_cache:
            return z, [acts, pos, zf]
        return z

    def _head_input(self, i: int, acts, pos: np.ndarray) -> np.ndarray:
        """Head i's input, (B, ue, L), per window: the fused conv's output
        at the covered rows the window spans, with its edge rows taken
        from the window's own strips."""
        c = self.config
        ue, lb = c.ue_channels, c.lookback
        head = slice(i * ue, (i + 1) * ue)
        covered = np.ascontiguousarray(acts[0][2][0, head])  # (ue, R), time contiguous
        f = sliding_window_view(covered, lb, axis=1).transpose(1, 0, 2)[pos]
        w, head_n, tail_n = _edge_strips(lb, c.kernel_width)
        strips = acts[1][2][:, head]  # (2B, ue, w)
        f[:, :, :head_n] = strips[: pos.size, :, :head_n]
        f[:, :, lb - tail_n :] = strips[pos.size :, :, w - tail_n :]
        return f

    def _scatter_head(self, i: int, acts, pos: np.ndarray, df: np.ndarray) -> None:
        """Write head i's input gradient df, (B, ue, L) per window, over
        head i's channels of the activations it was read from: the
        interior rows overlap-added onto the covered rows, the edge rows
        onto the strips (the adjoint of _head_input)."""
        c = self.config
        ue, lb = c.ue_channels, c.lookback
        head = slice(i * ue, (i + 1) * ue)
        w, head_n, tail_n = _edge_strips(lb, c.kernel_width)
        covered = acts[0][2][0, head]  # (ue, R)
        acc = np.zeros(covered.shape)
        lo, hi = head_n, lb - tail_n
        for p, d in zip(pos, df):
            acc[:, p + lo : p + hi] += d[:, lo:hi]
        covered[...] = acc
        strips = acts[1][2][:, head]
        strips[...] = 0.0
        strips[: pos.size, :, :head_n] = df[:, :, :head_n]
        strips[pos.size :, :, w - tail_n :] = df[:, :, lb - tail_n :]

    def backward_batch(self, cache, dz: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter block, in params() order.

        Empties the cache. The fused conv's activations become their own
        upstream gradient: head i's input is gathered from its channels,
        and the head's masked input gradient is scattered back over those
        channels. After the last head they hold the fused conv's grad_out,
        and no per-head copy outlives its head. The ReLU masks are read
        off the cached activations, which are positive exactly where their
        pre-activations were. Each conv's weight and bias gradient is the
        sum of one product over the covered rows and one over the strips.
        """
        c = self.config
        acts, pos, zf = cache
        cache.clear()
        b = dz.shape[0]
        (dwf, dbf), dzf = nn.linear_backward(
            self.fusion, zf, dz.reshape(b * c.horizon, c.total_classes)
        )
        dzu = dzf.reshape(b, c.horizon, c.total_classes)
        linear_grads = []
        groups = split_groups(dzu, c.class_counts)
        for i, (lin, dzi) in enumerate(zip(self.extractor_linears, groups)):
            dg = np.ascontiguousarray(dzi).reshape(b, -1)
            f = self._head_input(i, acts, pos).reshape(b, -1)
            dlin, df = nn.linear_backward(lin, f, dg)
            linear_grads.append(dlin)
            df *= f > 0
            del f
            self._scatter_head(i, acts, pos, df.reshape(b, c.ue_channels, c.lookback))
            del df
        fused = self._fused_conv()
        conv_grads = []
        for xc, a1, r in acts:
            (dwc, dbc), da1 = nn.conv1d_backward(fused, a1, r)
            da1 *= a1 > 0
            (dwt, dbt), _ = nn.conv1d_backward(self.trunk, xc, da1, input_grad=False)
            conv_grads.append((dwt, dbt, dwc, dbc))
        del acts, da1
        dwt, dbt, dwc, dbc = (covered + strips for covered, strips in zip(*conv_grads))
        grads = [dwt, dbt]
        ue = c.ue_channels
        for i, (dwl, dbl) in enumerate(linear_grads):
            head = slice(i * ue, (i + 1) * ue)
            grads += [dwc[head], dbc[head], dwl, dbl]
        return grads + [dwf, dbf]


def _covered_rows(starts: np.ndarray, lookback: int, n: int):
    """The rows of an n-row series that windows starting at starts cover,
    in order, and where each window's first row sits among them. A
    window's rows are consecutive there too, because every row between
    its first and last is covered."""
    depth = np.cumsum(
        np.bincount(starts, minlength=n + 1) - np.bincount(starts + lookback, minlength=n + 1)
    )
    covered = depth[:n] > 0
    return np.flatnonzero(covered), (np.cumsum(covered) - 1)[starts]


def _edge_strips(lookback: int, k: int) -> tuple[int, int, int]:
    """(w, head_n, tail_n) of two stacked width-k convs over windows of
    lookback rows. The first head_n and last tail_n output rows of a
    window see its zero padding; they are taken from w-row strips at the
    window's ends, convolved on their own. Every other row is the value
    the convs give over the series' rows. With no such interior row the
    strip is the whole window."""
    left, right = k - 1 - (k - 1) // 2, (k - 1) // 2
    w = min(lookback, 2 * (k - 1))
    if w == lookback:
        return w, lookback, 0
    return w, 2 * left, 2 * right


def split_groups(z: np.ndarray, counts: Sequence[int]) -> list[np.ndarray]:
    """Per-variable views of logits z (..., sumN): group i holds the
    counts[i] columns of variable i."""
    return np.split(z, np.cumsum(counts)[:-1], axis=-1)


def decode_states(z: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Argmax class per (step, variable) of logits z (..., H, sumN) ->
    (..., H, D); ties go to the lowest class id."""
    return np.stack([g.argmax(axis=-1) for g in split_groups(z, counts)], axis=-1)


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
    bidx = np.arange(b)[:, None]
    hidx = np.arange(h)[None, :]
    groups = zip(counts, split_groups(z, counts), split_groups(grad, counts))
    for i, (n, g, dg) in enumerate(groups):
        t = targets[:, :, i]
        if t.min() < 0 or t.max() >= n:
            sample, tau = np.argwhere((t < 0) | (t >= n))[0]
            raise ShapeError(
                f"state target {t[sample, tau]} out of range [0, {n}) "
                f"at sample {sample}, step {tau}, variable {i}"
            )
        zs = g - g.max(axis=-1, keepdims=True)
        e = np.exp(zs)
        s = e.sum(axis=-1, keepdims=True)
        dg[...] = e / s
        loss += -(zs[bidx, hidx, t] - np.log(s)[:, :, 0]).sum()
        dg[bidx, hidx, t] -= 1.0
    scale = b * h * d
    return loss / scale, grad / scale


def state_accuracy(model: MspModel, samples: WindowSet) -> float:
    """Fraction of (step, variable) cells whose decoded state matches."""
    if not samples:
        raise ConfigError("no samples to score")
    counts = model.config.class_counts
    targets = stack_states(samples)
    batches = forward_batches(model, samples, DEFAULT_BATCH)
    correct = sum(int((decode_states(z, counts) == targets[rows]).sum()) for rows, z in batches)
    return correct / targets.size


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
    *,
    batch_size: int = DEFAULT_BATCH,
    **fit,
) -> TrainHistory:
    """Stage-1 training: minimize multitask cross-entropy with Adam and
    early stopping; the model is left at its best-validation snapshot.
    batch_size also sizes the validation batches; fit carries lr,
    patience and max_epochs, whose defaults train_loop holds."""
    if not train_samples or not val_samples:
        raise ConfigError("train and validation sets must both be nonempty")
    c = model.config
    counts = c.class_counts
    _check_states(train_samples, counts, "train")
    _check_states(val_samples, counts, "validation")
    for samples in (train_samples, val_samples):
        check_window_batch(samples.x, c.lookback, c.n_variables)
    series = train_samples.series
    s_train = stack_states(train_samples)
    s_val = stack_states(val_samples)

    def batch_fn(idx: np.ndarray):
        z, cache = model.forward_batch(series, idx, want_cache=True)
        loss, dz = msp_loss(z, s_train[idx], counts)
        return loss, model.backward_batch(cache, dz)

    def val_fn() -> float:
        total = 0.0
        for rows, z in forward_batches(model, val_samples, batch_size):
            loss, _ = msp_loss(z, s_val[rows], counts)
            total += loss * z.shape[0]
        return total / len(val_samples)

    return train_loop(
        model,
        n_train=len(train_samples),
        batch_fn=batch_fn,
        val_fn=val_fn,
        batch_size=batch_size,
        seed=model.config.seed,
        **fit,
    )


def save_msp(model: MspModel, path: str | Path) -> None:
    config = asdict(model.config)
    checkpoint.save_container(path, "msp", config, model.param_names(), model.params())


def load_msp(path: str | Path) -> MspModel:
    return checkpoint.load_model(path, "msp", lambda config: MspModel(MspConfig(**config)))
