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
directly, and a single window is a batch of one. train_msp trains
through train.fit, and state_accuracy runs the model over a split with
train.forward_batches.
A batch is the series rows its windows are cut from and each window's
first row, forward_batch(series, starts), as for every model.

The D extractor convs run as one fused conv from trunk_channels to
D*ue_channels channels, on channels-last activations (one row of
channels per time step), so each pass is one matrix product instead of
D. The model stores that one fused conv. Its parameter blocks stay per
head: head i's conv weights and bias are views of its ue_channels output
channels, so names, shapes and checkpoints are those of D separate
convs, and an update or a load of a head's block writes the fused conv.

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
the per-window one in its last bits. The backward pass hands each
parameter block's gradient to the training loop's Adam update as soon
as no later product reads that block, so a step never holds the whole
gradient set (see train.train_loop).

The heads are independent, so each pass splits its per-head work into
two fixed groups of about equal work (_head_groups) and runs them
through nn.run_parts: the forward pass's head-input gathers and linear
layers, and the backward pass's gathers, linear backward products,
hand-overs of the linear blocks and scatters. When the process may run
on two CPUs and BLAS runs one thread (nn.helper_thread_pays), the second
group runs on one helper thread beside the caller; otherwise the caller
runs both groups. The trunk conv, the fused conv, the fusion layer, the
loss and the conv blocks' hand-over stay on the caller. A head writes
only its own logit columns, activation channels and parameter blocks,
and every product is the one the caller alone computes, so logits,
gradients, Adam updates and checkpoints are the same bits on either
path. The helper costs one more head in flight: its own pair of head
buffers and its head's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import checkpoint, nn
from .data import WindowSet, check_window_starts
from .errors import ConfigError, ShapeError
from .labeling import MAX_STATES, MIN_STATES
from .train import DEFAULT_BATCH, TrainHistory, fit, forward_batches, stack_states


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

    The extractor convs are stored and run as one fused channels-last
    conv, self.extractor; each head's checkpoint blocks
    (extractor{i}.conv.*) are views of it. See the module docstring.
    """

    def __init__(self, config: MspConfig):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 11)))
        c = config
        ue = c.ue_channels
        self.trunk = nn.init_conv1d(rng, c.n_variables, c.trunk_channels, c.kernel_width)
        shape = (c.n_variables * ue, c.trunk_channels, c.kernel_width)
        self.extractor = nn.LayerParams("conv1d", np.empty(shape), np.zeros(shape[0]))
        self.extractor_linears = []
        for i, n in enumerate(c.class_counts):  # each head's conv, then its linear layer
            conv = nn.init_conv1d(rng, c.trunk_channels, ue, c.kernel_width)
            self.extractor.weights[i * ue : (i + 1) * ue] = conv.weights
            self.extractor_linears.append(nn.init_linear(rng, ue * c.lookback, c.horizon * n))
        self.fusion = nn.init_linear(rng, c.total_classes, c.total_classes)
        self._buffers = [None, None]  # see _head_buffers
        self._groups = _head_groups(c.class_counts)

    def _layers(self) -> list[tuple[str, nn.LayerParams]]:
        """(checkpoint name, layer) pairs in params() order: the trunk, each
        head's conv and linear layer, the fusion layer. Head i's conv is a
        view of its ue output channels of the fused extractor conv, a
        C-contiguous axis-0 slice, so an Adam step or a load of it writes
        the conv the model runs; a copy would not."""
        ue = self.config.ue_channels
        layers = [("trunk", self.trunk)]
        for i, lin in enumerate(self.extractor_linears):
            head = slice(i * ue, (i + 1) * ue)
            conv = nn.LayerParams("conv1d", self.extractor.weights[head], self.extractor.bias[head])
            layers += [(f"extractor{i}.conv", conv), (f"extractor{i}.linear", lin)]
        return layers + [("fusion", self.fusion)]

    def params(self) -> list[np.ndarray]:
        return [p for _, layer in self._layers() for p in (layer.weights, layer.bias)]

    def param_names(self) -> list[str]:
        return [f"{name}.{part}" for name, _ in self._layers() for part in ("weights", "bias")]

    def forward_batch(self, series: np.ndarray, starts, want_cache: bool = False):
        """Logits (B, H, sumN) for a batch of windows cut from the (n, D)
        series rows, window b being series[starts[b] : starts[b] + L].
        A pass without a cache (evaluation) drops the buffers that
        training steps reuse, so they are not held beside it."""
        c = self.config
        if not want_cache:
            self._buffers = [None, None]  # see _head_buffers
        starts = np.asarray(starts)
        check_window_starts(series, starts, c.lookback, c.n_variables)
        rows, pos = _covered_rows(starts, c.lookback, series.shape[0])
        w, _, _ = _edge_strips(c.lookback, c.kernel_width)
        ends = np.concatenate([starts, starts + c.lookback - w])  # head strips, then tail strips
        parts = [series[rows][None], series[ends[:, None] + np.arange(w)]]
        acts = []  # (input, trunk output, fused output) over the covered rows, then the strips
        for part in parts:  # (1, R, D), then (2B, w, D)
            xc = part.transpose(0, 2, 1)  # (batch, D, T) view of the channels-last rows
            a1 = nn.conv1d_forward(self.trunk, xc)
            np.maximum(a1, 0.0, out=a1)  # ReLU in place
            # (batch, D*ue, T) view of the channels-last (batch*T, D*ue) activations
            r = nn.conv1d_forward(self.extractor, a1)
            np.maximum(r, 0.0, out=r)
            acts.append((xc, a1, r))
        b = starts.size
        zf = np.empty((b * c.horizon, c.total_classes))
        group_logits = split_groups(zf.reshape(b, c.horizon, c.total_classes), c.class_counts)

        def heads(group: list[int], lane: int) -> None:
            for i in group:
                # the scratch copy is freed as the call returns
                f = self._head_input(i, acts, pos, np.empty(c.ue_channels * rows.size))
                f = f.reshape(b, -1)  # (channel, time) order
                out = nn.linear_forward(self.extractor_linears[i], f)
                group_logits[i][...] = out.reshape(group_logits[i].shape)
                del f, out  # before the next head's input is gathered

        nn.run_parts(heads, self._groups)
        z = nn.linear_forward(self.fusion, zf).reshape(b, c.horizon, c.total_classes)
        if want_cache:
            return z, [acts, pos, zf]
        return z

    def _head_input(self, i: int, acts, pos: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Head i's input, (B, ue, L), per window: the fused conv's output
        at the covered rows the window spans, with its edge rows taken
        from the window's own strips. The head's covered rows are first
        copied, time contiguous, into the flat scratch (ue*R values at
        least); the result does not share it."""
        c = self.config
        ue, lb = c.ue_channels, c.lookback
        head = slice(i * ue, (i + 1) * ue)
        channels = acts[0][2][0, head]  # (ue, R)
        covered = scratch[: channels.size].reshape(channels.shape)
        covered[...] = channels
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
        onto the strips (the adjoint of _head_input), each masked by the
        ReLU of the activation it overwrites. An activation is positive
        exactly where its pre-activation was, and one covered row serves
        every window that reads it, so the sum is masked once rather than
        each window's share. One np.bincount per channel, over the rows
        listed window by window, adds each row's shares in batch order."""
        c = self.config
        ue, lb = c.ue_channels, c.lookback
        head = slice(i * ue, (i + 1) * ue)
        w, head_n, tail_n = _edge_strips(lb, c.kernel_width)
        covered = acts[0][2][0, head]  # (ue, R)
        lo, hi = head_n, lb - tail_n
        rows = (pos[:, None] + np.arange(lo, hi)).ravel()
        for channel, d in zip(covered, df.transpose(1, 0, 2)):
            acc = np.bincount(rows, weights=d[:, lo:hi].ravel(), minlength=channel.size)
            np.copyto(channel, acc, where=channel > 0)  # the rest is the ReLU's 0 already
        strips = acts[1][2][:, head]
        kept = strips > 0
        strips[...] = 0.0
        strips[: pos.size, :, :head_n] = df[:, :, :head_n]
        strips[pos.size :, :, w - tail_n :] = df[:, :, lb - tail_n :]
        np.copyto(strips, 0.0, where=~kept)

    def _head_buffers(self, b: int, lane: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat buffers that take a head's weight gradient and its covered
        rows' copy for b windows (see _head_input), one pair per lane of
        nn.run_parts. They are kept across heads and training steps, so
        their pages are not freed and faulted in again on every step, and
        grown for a larger batch. A forward pass without a cache drops
        both pairs (see forward_batch)."""
        c = self.config
        head_in = c.ue_channels * c.lookback
        pair = self._buffers[lane]
        if pair is None or pair[1].size < b * head_in:
            self._buffers[lane] = pair = None  # the old pair goes before the new one is made
            largest = head_in * c.horizon * max(c.class_counts)
            self._buffers[lane] = pair = (np.empty(largest), np.empty(b * head_in))
        return pair

    def backward_batch(self, cache, dz: np.ndarray, update) -> None:
        """Hands every parameter block's gradient to update(i, grad), i
        indexing params() (see train.train_loop), as soon as no later
        product reads that block's current value: the fusion layer's
        weights and bias first, then each head's linear weights and bias
        right after that head's products, then the trunk's and each
        head's conv blocks. A head's weight gradient is written into a
        buffer reused across heads and steps, so a handed over gradient
        holds only during its update call; its input gradient overwrites
        its gathered input once the weight gradient is taken.

        The heads run in two groups through nn.run_parts (see the module
        docstring): with one BLAS thread and two CPUs, the second group's
        gathers, products, hand-overs and scatters run on a helper thread,
        so its linear blocks reach update from that thread, and the step
        holds a second head buffer pair and head input. Every block is the
        same bits and is handed over once either way. A non-finite
        gradient still raises NumericError (exit 4) before its own block
        moves, after the helper has stopped; which of the other heads'
        linear blocks have moved by then now depends on timing, as the
        step was already not atomic.

        Empties the cache. The fused conv's activations become their own
        upstream gradient: head i's input is gathered from its channels,
        and the head's input gradient is overlap-added back over those
        channels, masked by their ReLU (see _scatter_head). After the
        last head they hold the fused conv's grad_out, and no per-head
        copy outlives its head. Each conv's weight and bias gradient is
        the sum of one product over the covered rows and one over the
        strips.
        """
        c = self.config
        acts, pos, zf = cache
        cache.clear()
        b = dz.shape[0]
        ue, fusion = c.ue_channels, 2 + 4 * c.n_variables  # block indices in params()
        (dwf, dbf), dzf = nn.linear_backward(
            self.fusion, zf, dz.reshape(b * c.horizon, c.total_classes)
        )
        del zf
        update(fusion, dwf)
        update(fusion + 1, dbf)
        dzu = split_groups(dzf.reshape(b, c.horizon, c.total_classes), c.class_counts)

        def heads(group: list[int], lane: int) -> None:
            dw_buf, rows_buf = self._head_buffers(b, lane)
            for i in group:
                lin = self.extractor_linears[i]
                dg = np.ascontiguousarray(dzu[i]).reshape(b, -1)
                f = self._head_input(i, acts, pos, rows_buf).reshape(b, -1)
                dw = dw_buf[: lin.weights.size].reshape(lin.weights.shape)
                # the input gradient overwrites the input, read only for dw
                (_, db), df = nn.linear_backward(lin, f, dg, out=(dw, f))
                update(4 + 4 * i, dw)
                update(5 + 4 * i, db)
                self._scatter_head(i, acts, pos, df.reshape(b, ue, c.lookback))
                del f, df

        nn.run_parts(heads, self._groups)
        conv_grads = []
        for xc, a1, r in acts:
            (dwc, dbc), da1 = nn.conv1d_backward(self.extractor, a1, r)
            da1 *= a1 > 0
            (dwt, dbt), _ = nn.conv1d_backward(self.trunk, xc, da1, input_grad=False)
            conv_grads.append((dwt, dbt, dwc, dbc))
        del acts, da1
        dwt, dbt, dwc, dbc = (covered + strips for covered, strips in zip(*conv_grads))
        update(0, dwt)
        update(1, dbt)
        for i in range(c.n_variables):
            head = slice(i * ue, (i + 1) * ue)
            update(2 + 4 * i, dwc[head])
            update(3 + 4 * i, dbc[head])


def _head_groups(counts: Sequence[int]) -> tuple[list[int], list[int]]:
    """The heads in two groups of about equal work, the two parts of
    nn.run_parts: head i's linear layer costs ue*L*H*counts[i] per
    window, so each head, the most classes first, joins the group with
    fewer classes so far (on a tie, fewer heads; then the first). Each
    group lists its heads in order."""
    groups: tuple[list[int], list[int]] = ([], [])
    for i in sorted(range(len(counts)), key=lambda i: -counts[i]):
        load = [(sum(counts[j] for j in g), len(g)) for g in groups]
        groups[int(load[1] < load[0])].append(i)
    return tuple(sorted(g) for g in groups)


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
    softmax is e / s as in nn.softmax_rows and log-softmax zs - log(s),
    bit for bit what separate max-shifted passes give. A target outside [0, n)
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
    model: MspModel, train_samples: WindowSet, val_samples: WindowSet, **settings
) -> TrainHistory:
    """Stage-1 training (train.fit): minimize multitask cross-entropy
    with Adam and early stopping, validated by the same loss over the
    whole validation split. Every state label is checked against the
    model's class counts first. settings carries batch_size, lr,
    patience and max_epochs; train.train_loop holds the defaults of lr,
    patience and max_epochs, and train.fit that of batch_size."""
    counts = model.config.class_counts
    _check_states(train_samples, counts, "train")
    _check_states(val_samples, counts, "validation")
    s_train = stack_states(train_samples)
    s_val = stack_states(val_samples)

    def step(z: np.ndarray, idx: np.ndarray) -> tuple[float, np.ndarray]:
        return msp_loss(z, s_train[idx], counts)

    def score(z: np.ndarray, rows: slice) -> tuple[float, int]:
        loss, _ = msp_loss(z, s_val[rows], counts)
        return loss * z.shape[0], z.shape[0]

    return fit(model, train_samples, val_samples, step, score, **settings)


def save_msp(model: MspModel, path: str | Path) -> None:
    checkpoint.save_model(path, "msp", model)


def load_msp(path: str | Path) -> MspModel:
    return checkpoint.load_model(path, "msp", lambda config: MspModel(MspConfig(**config)))
