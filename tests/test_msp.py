"""State predictor tests: forward contracts, decoding, loss, gradient
integrity through the full model, and learnability on a task whose
future states are an exact function of the input window."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from loadcast import nn
from loadcast.data import SeriesFrame, sliding_windows
from loadcast.errors import ConfigError, ShapeError
from loadcast.labeling import StateProfile
from loadcast.msp import (
    MspConfig,
    MspModel,
    decode_states,
    msp_loss,
    split_groups,
    state_accuracy,
    train_msp,
)
from loadcast.pipeline import windows_for
from tests.batches import as_series, gradients, windows_at

TINY = dict(trunk_channels=4, ue_channels=3, kernel_width=3)


def tiny_model(lookback=8, horizon=3, counts=(2, 3), seed=0):
    config = MspConfig(
        lookback=lookback,
        horizon=horizon,
        n_variables=len(counts),
        class_counts=list(counts),
        seed=seed,
        **TINY,
    )
    return MspModel(config)


def test_forward_shape_contract():
    model = tiny_model()
    rng = np.random.default_rng(0)
    z = model.forward_batch(*as_series(rng.normal(size=(1, 8, 2))))
    assert z.shape == (1, 3, 5)
    assert decode_states(z, model.config.class_counts).shape == (1, 3, 2)


@pytest.mark.parametrize("field", ["trunk_channels", "ue_channels", "kernel_width"])
@pytest.mark.parametrize("value", [0, -2])
def test_config_rejects_channels_and_kernel_width_below_one(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be >= 1, got {value}"):
        MspConfig(lookback=8, horizon=2, n_variables=1, class_counts=[2], **{field: value})


def test_config_rejects_a_lookback_below_the_kernel_width():
    with pytest.raises(ConfigError, match="lookback 2 is below the kernel width 3"):
        MspConfig(lookback=2, horizon=1, n_variables=1, class_counts=[2], kernel_width=3)
    assert MspConfig(lookback=3, horizon=1, n_variables=1, class_counts=[2]).kernel_width == 3


def test_split_groups_are_views_of_each_variables_columns():
    z = np.arange(2 * 3 * 9, dtype=np.float64).reshape(2, 3, 9)
    groups = split_groups(z, [2, 3, 4])
    assert [g.shape for g in groups] == [(2, 3, 2), (2, 3, 3), (2, 3, 4)]
    for g, cols in zip(groups, (slice(0, 2), slice(2, 5), slice(5, 9))):
        np.testing.assert_array_equal(g, z[..., cols])
        assert np.shares_memory(g, z)


def test_forward_deterministic():
    model = tiny_model()
    x = as_series(np.random.default_rng(1).normal(size=(1, 8, 2)))
    np.testing.assert_array_equal(model.forward_batch(*x), model.forward_batch(*x))


def test_forward_shape_mismatch():
    model = tiny_model()
    too_short = r"window start 0 outside \[0, -1\] for 7 rows and lookback 8"
    with pytest.raises(ShapeError, match=too_short):
        model.forward_batch(*as_series(np.zeros((1, 7, 2))))
    with pytest.raises(ShapeError, match=r"series shape \(8, 3\) does not match \(rows, 2\)"):
        model.forward_batch(*as_series(np.zeros((1, 8, 3))))


def test_zeroed_fusion_forces_constant_logits():
    model = tiny_model()
    model.fusion.weights[:] = 0.0
    model.fusion.bias[:] = np.arange(5, dtype=np.float64)
    rng = np.random.default_rng(2)
    for _ in range(3):
        z = model.forward_batch(*as_series(rng.normal(size=(1, 8, 2))))
        assert (z == np.arange(5)).all()


def test_decode_one_hot_and_ties():
    decoded = decode_states(np.array([[[0.0, 9.0, 1.0, 1.0, 0.0]]]), [2, 3])
    np.testing.assert_array_equal(decoded, [[[1, 0]]])  # tie in group 2 -> class 0


def test_decode_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 4, 5))
    np.testing.assert_array_equal(decode_states(z, [2, 3]), decode_states(3.0 * z + 1.5, [2, 3]))


def test_loss_saturates_at_confident_correct_logits():
    z = np.zeros((2, 5))
    targets = np.array([[1, 2], [0, 0]])
    for tau in range(2):
        z[tau, targets[tau, 0]] = 20.0
        z[tau, 2 + targets[tau, 1]] = 20.0
    loss, _ = msp_loss(z[None], targets[None], [2, 3])
    assert loss < 1e-6


def test_loss_uniform_logits_is_log_n():
    for n in (2, 3, 5):
        z = np.zeros((3, 4, 2 * n))
        targets = np.zeros((3, 4, 2), dtype=int)
        loss, _ = msp_loss(z, targets, [n, n])
        assert loss == pytest.approx(np.log(n), abs=1e-12)


def test_loss_hand_case():
    z = np.array([[[np.log(2.0), 0.0]]])
    loss, _ = msp_loss(z, np.array([[[0]]]), [2])
    assert loss == pytest.approx(-np.log(2.0 / 3.0), abs=1e-12)


def test_loss_finite_for_large_logit_gap():
    loss, _ = msp_loss(np.array([[[800.0, 0.0]]]), np.array([[[1]]]), [2])
    assert np.isfinite(loss) and loss == pytest.approx(800.0)


# -- one variable: plain softmax cross-entropy over its classes ----------------


def test_one_group_loss_perfect_prediction():
    logits = np.array([[[800.0, 0.0, 0.0]]])
    loss, _ = msp_loss(logits, np.array([[[0]]]), [3])
    assert loss == 0.0


def test_one_group_loss_uniform_is_log_n():
    for n in (2, 3, 5):
        logits = np.zeros((4, 1, n))
        loss, _ = msp_loss(logits, np.zeros((4, 1, 1), dtype=int), [n])
        assert abs(loss - np.log(n)) < 1e-12


def test_one_group_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(5, 1, 4))
    targets = rng.integers(0, 4, size=(5, 1, 1))
    _, grad = msp_loss(logits, targets, [4])
    report = nn.grad_check(
        lambda: msp_loss(logits, targets, [4])[0],
        [logits],
        [grad],
    )
    assert report.max_rel_error < 1e-6


def test_one_group_loss_finite_for_large_logit_gap():
    loss, grad = msp_loss(np.array([[[800.0, 0.0]]]), np.array([[[1]]]), [2])
    assert np.isfinite(loss) and loss == pytest.approx(800.0)
    np.testing.assert_allclose(grad, [[[1.0, -1.0]]])


def test_one_group_loss_target_out_of_range():
    logits = np.zeros((2, 1, 3))
    with pytest.raises(ShapeError, match="out of range"):
        msp_loss(logits, np.array([0, 3]).reshape(2, 1, 1), [3])


def _grouped_softmax(z, class_counts):
    probs = np.empty_like(z)
    start = 0
    for n in class_counts:
        probs[..., start : start + n] = nn.softmax_rows(z[..., start : start + n])
        start += n
    return probs


def log_softmax_rows(logits):
    """Row-wise log-softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def two_call_loss_grad(z, targets, counts):
    """Reference: the batched loss with one softmax call for the gradient
    and a second log-softmax call per group for the loss."""
    b, h, _ = z.shape
    grad = _grouped_softmax(z, counts)
    loss = 0.0
    start = 0
    bidx = np.arange(b)[:, None]
    hidx = np.arange(h)[None, :]
    for i, n in enumerate(counts):
        t = targets[:, :, i]
        log_p = log_softmax_rows(z[:, :, start : start + n])
        loss += -log_p[bidx, hidx, t].sum()
        grad[bidx, hidx, start + t] -= 1.0
        start += n
    scale = b * h * len(counts)
    return loss / scale, grad / scale


@pytest.mark.parametrize("seed", range(4))
def test_batched_loss_bit_equal_to_two_call_softmax(seed):
    rng = np.random.default_rng(seed)
    counts = [2, 3, 2, 5, 1, 4, 2, 3, 2]  # sum 24, as in the benchmark teacher
    b, h = 128, 24
    z = rng.normal(scale=rng.uniform(0.5, 40.0), size=(b, h, sum(counts)))
    targets = np.stack([rng.integers(0, n, size=(b, h)) for n in counts], axis=-1)
    loss, grad = msp_loss(z, targets, counts)
    ref_loss, ref_grad = two_call_loss_grad(z, targets, counts)
    assert loss == ref_loss
    np.testing.assert_array_equal(grad, ref_grad)


def test_batched_loss_rejects_non_finite_logits():
    from loadcast.errors import NumericError

    z = np.zeros((2, 3, 5))
    z[1, 2, 4] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        msp_loss(z, np.zeros((2, 3, 2), dtype=np.int64), [2, 3])


def test_batched_loss_finite_for_large_logit_gap():
    b, h, counts = 2, 3, [2, 3]
    z = np.zeros((b, h, 5))
    z[..., 0] = 800.0  # every cell confidently predicts state 0 of variable 0
    z[..., 2] = 800.0  # ... and state 0 of variable 1
    targets = np.zeros((b, h, 2), dtype=np.int64)
    targets[1, 2, 0] = 1  # one confidently wrong cell
    with np.errstate(divide="raise", invalid="raise"):
        loss, grad = msp_loss(z, targets, counts)
    assert np.isfinite(loss) and loss == pytest.approx(800.0 / (b * h * len(counts)))
    onehot = np.zeros_like(z)
    onehot[..., 0] = onehot[..., 2] = 1.0
    onehot[1, 2, :2] = [0.0, 1.0]
    expected = (_grouped_softmax(z, counts) - onehot) / (b * h * len(counts))
    np.testing.assert_array_equal(grad, expected)


def test_loss_out_of_range_target_names_position():
    z = np.zeros((2, 2, 5))
    bad = np.array([[[0, 0], [0, 0]], [[0, 0], [0, 3]]])
    with pytest.raises(ShapeError, match="sample 1, step 1, variable 1"):
        msp_loss(z, bad, [2, 3])


@pytest.mark.parametrize("label", [-1, 2])
def test_train_msp_rejects_state_label_out_of_range(label):
    """A label outside [0, n) used to vanish from the gradient (-1) or end
    in a bare IndexError (n); training now stops with a ShapeError."""
    labels = np.zeros((40, 1), dtype=np.int64)
    labels[20, 0] = label
    frame = SeriesFrame(3600 * np.arange(40), np.arange(40.0)[:, None], ["x"])
    bad_w = sliding_windows(frame, labels, 8, 4)
    config = MspConfig(lookback=8, horizon=4, n_variables=1, class_counts=[2], **TINY)
    with pytest.raises(ShapeError, match=rf"state target {label} out of range \[0, 2\)") as err:
        train_msp(MspModel(config), bad_w, bad_w, max_epochs=1)
    assert "at row 20 " in str(err.value)


def test_train_msp_rejects_labels_of_another_variable_count():
    frame = SeriesFrame(3600 * np.arange(40), np.zeros((40, 3)), ["a", "b", "c"])
    windows = sliding_windows(frame, np.zeros((40, 3), dtype=np.int64), 8, 4)
    config = MspConfig(lookback=8, horizon=4, n_variables=2, class_counts=[2, 2], **TINY)
    with pytest.raises(ShapeError, match="train state labels have 3 variables, the model 2"):
        train_msp(MspModel(config), windows, windows, max_epochs=1)


def test_per_group_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    model = tiny_model()
    z = model.forward_batch(*as_series(rng.normal(size=(1, 8, 2))))
    for start, n in ((0, 2), (2, 3)):
        probs = nn.softmax_rows(z[..., start : start + n])
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_full_model_gradient_matches_finite_differences():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(5)
    series, starts = as_series(rng.normal(size=(2, 8, 2)))
    targets = np.array([[[0, 1], [1, 2], [0, 0]], [[1, 0], [0, 2], [1, 1]]])
    counts = model.config.class_counts
    # Biases start at 0, so a head whose trunk inputs are all dead over a
    # kernel's reach sits exactly on the ReLU kink, where a central
    # difference reads half the one-sided slope. Nonzero biases keep every
    # pre-activation off the kink.
    for name, p in zip(model.param_names(), model.params()):
        if name.endswith("bias"):
            p[:] = rng.normal(scale=0.1, size=p.shape)

    z, cache = model.forward_batch(series, starts, want_cache=True)
    loss, dz = msp_loss(z, targets, counts)
    grads = gradients(model, cache, dz)
    report = nn.grad_check(
        lambda: msp_loss(model.forward_batch(series, starts), targets, counts)[0],
        model.params(),
        grads,
        names=model.param_names(),
    )
    assert report.max_rel_error < 1e-4


def wave_splits(l=260, lookback=8, horizon=4):
    """Deterministic square wave: future states are an exact function of
    the input window's phase."""
    t = np.arange(l)
    series = np.where((t // 4) % 2 == 0, 0.0, 5.0)
    frame = SeriesFrame(3600 * t, series[:, None], ["x"])
    profile = StateProfile((series > 2.5).astype(np.int64)[:, None], [2])
    return windows_for(frame, profile, lookback, [horizon])[1][horizon]


def test_train_msp_learns_deterministic_task():
    train_w, val_w, _ = wave_splits()
    config = MspConfig(
        lookback=8, horizon=4, n_variables=1, class_counts=[2], seed=1, **TINY
    )
    model = MspModel(config)
    history = train_msp(model, train_w, val_w, lr=0.01, batch_size=32, max_epochs=80)
    assert state_accuracy(model, val_w) >= 0.99
    assert history.train_loss[-1] < history.train_loss[0]


def test_train_msp_returns_best_snapshot():
    train_w, val_w, _ = wave_splits(l=160)
    config = MspConfig(
        lookback=8, horizon=4, n_variables=1, class_counts=[2], seed=2, **TINY
    )
    model = MspModel(config)
    history = train_msp(model, train_w, val_w, lr=0.01, batch_size=32, max_epochs=25)
    assert history.best_epoch <= history.stopped_epoch
    assert history.best_val_loss == min(history.val_loss)
    # the restored parameters really are the best-epoch snapshot: re-running
    # validation must reproduce the recorded best loss
    from loadcast.train import stack_states

    z = model.forward_batch(val_w.series, np.arange(len(val_w)))
    loss, _ = msp_loss(z, stack_states(val_w), model.config.class_counts)
    assert loss == pytest.approx(history.best_val_loss, rel=1e-12)


def test_checkpoint_round_trip(tmp_path):
    from loadcast.msp import load_msp, save_msp

    model = tiny_model(seed=9)
    path = tmp_path / "msp.json"
    save_msp(model, path)
    back = load_msp(path)
    assert [p.tobytes() for p in back.params()] == [p.tobytes() for p in model.params()]
    x = as_series(np.random.default_rng(6).normal(size=(1, 8, 2)))
    np.testing.assert_array_equal(back.forward_batch(*x), model.forward_batch(*x))


def test_forward_with_and_without_cache_bit_equal():
    model = tiny_model(seed=3)
    x = as_series(np.random.default_rng(7).normal(size=(5, 8, 2)))
    z, _ = model.forward_batch(*x, want_cache=True)
    np.testing.assert_array_equal(z, model.forward_batch(*x))


def _owned_bytes(arrays) -> int:
    """Bytes of the distinct buffers that the arrays view; nested lists
    and tuples of arrays count too."""
    owners = {}
    stack = list(arrays)
    while stack:
        a = stack.pop()
        if isinstance(a, (list, tuple)):
            stack.extend(a)
            continue
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def test_teacher_step_memory_is_bounded_by_the_fused_activation(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(nn, "helper_thread_pays", lambda: False)  # one head in flight
    config = MspConfig(
        lookback=64, horizon=1, n_variables=4, class_counts=[2, 3, 2, 4],
        trunk_channels=4, ue_channels=16, kernel_width=3, seed=0,
    )
    model = MspModel(config)
    rng = np.random.default_rng(0)
    b = 32
    targets = rng.integers(0, 2, size=(b, 1, 4))
    r_bytes = 8 * b * 64 * 4 * 16  # the fused extractor conv's output over B*L rows
    row_bytes = 8 * (4 + 4 + 4 * 16)  # per conv row: input, trunk output, fused output
    strip_rows = b * 2 * 4  # a 2(k-1)-row strip at each end of every window

    def step(series, starts):
        tracemalloc.start()
        try:
            z, cache = model.forward_batch(series, starts, want_cache=True)
            cached = _owned_bytes(cache)
            _, dz = msp_loss(z, targets, config.class_counts)
            grads = gradients(model, cache, dz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache == []  # consumed
        assert [g.shape for g in grads] == [p.shape for p in model.params()]
        # the window starts (int64) and the fusion layer's input
        return cached - 8 * b - z.nbytes, peak

    # B windows laid end to end, one run each. The cache holds the
    # activations once over their B*L rows (a copy of the input rows
    # among them) and once over the strips, not a copy per head.
    x = rng.normal(size=(b, 64, 4))
    cached, peak = step(*as_series(x))
    assert cached == x.nbytes + r_bytes + 8 * b * 64 * 4 + strip_rows * row_bytes
    # per-head copies next to the fused output, or a separate
    # upstream-gradient buffer, would take the peak above 2.4 r
    assert peak < 2 * r_bytes, peak / r_bytes

    # Overlapping windows in two runs: rows 0-78 and 120-198 of a
    # 200-row series. The convs run over those 158 rows once.
    series = rng.normal(size=(200, 4))
    starts = rng.permutation(np.r_[0:16, 120:136])
    cached, peak = step(series, starts)
    assert cached == (158 + strip_rows) * row_bytes
    assert peak < r_bytes, peak / r_bytes


def one_step_peak(monkeypatch, helper: bool):
    """The traced peak of one teacher step with a live Adam update, on
    the path the helper decision picks, and its parts: what the step holds
    after the loss, a head input (which its input gradient overwrites),
    the head buffer pair, the logits' bytes (the fusion layer's input
    gradient), Adam's scratch rows, and every block."""
    import tracemalloc

    monkeypatch.setattr(nn, "helper_thread_pays", lambda: helper)
    config = MspConfig(
        lookback=64, horizon=24, n_variables=8, class_counts=[5] * 8,
        trunk_channels=4, ue_channels=8, kernel_width=3, seed=0,
    )
    model = MspModel(config)
    params, names = model.params(), model.param_names()
    adam = [nn.init_adam(p) for p in params]  # the moments are not step memory
    rng = np.random.default_rng(0)
    b = 16
    series = rng.normal(size=(200, 8))
    starts = rng.permutation(137)[:b]
    targets = rng.integers(0, 5, size=(b, 24, 8))
    moved = []

    def update(i, grad):
        nn.adam_step(adam[i], params[i], grad, names[i])
        moved.append(i)

    tracemalloc.start()
    try:
        z, cache = model.forward_batch(series, starts, want_cache=True)
        _, dz = msp_loss(z, targets, config.class_counts)
        held = tracemalloc.get_traced_memory()[0]
        model.backward_batch(cache, dz, update)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(moved) == list(range(len(params)))
    sizes = [p.nbytes for p in params]
    head_input = 8 * b * config.ue_channels * config.lookback
    pair = max(sizes) + head_input  # the largest weight gradient, the covered rows' copy
    return peak, held, head_input, pair, z.nbytes, 2 * 8 * nn.ADAM_CHUNK, sum(sizes)


def test_teacher_step_holds_one_gradient_block_not_the_whole_set(monkeypatch):
    """With a live Adam update and the heads on one thread, a step's
    traced peak stays below what it holds after the loss, plus one head
    at a time (its input and its buffer pair), the fusion layer's input
    gradient and Adam's scratch rows. Eight heads' weight gradients
    together are far above that, so a backward pass or a loop that
    gathers every block before stepping fails here."""
    peak, held, head_input, pair, dzf, adam, blocks = one_step_peak(monkeypatch, False)
    bound = held + head_input + pair + dzf + adam
    assert peak < bound, (peak, bound)
    assert held + blocks > 2 * bound  # the whole set would not fit


def test_a_two_thread_teacher_step_holds_one_more_head(monkeypatch):
    """With the helper, the step holds at most one head more than on one
    thread: the helper's own buffer pair, its head input and its Adam
    step's scratch rows."""
    peak, held, head_input, pair, dzf, adam, _ = one_step_peak(monkeypatch, True)
    bound = held + 2 * (head_input + pair + adam) + dzf
    assert peak < bound, (peak, bound)


def scatter_per_window(model, i, acts, pos, df):
    """MspModel._scatter_head as it was written, one window at a time."""
    from loadcast.msp import _edge_strips

    c = model.config
    ue, lb = c.ue_channels, c.lookback
    head = slice(i * ue, (i + 1) * ue)
    w, head_n, tail_n = _edge_strips(lb, c.kernel_width)
    covered = acts[0][2][0, head]
    kept = covered > 0
    acc = np.zeros(covered.shape)
    lo, hi = head_n, lb - tail_n
    for p, d in zip(pos, df):
        acc[:, p + lo : p + hi] += d[:, lo:hi]
    np.copyto(covered, acc, where=kept)
    strips = acts[1][2][:, head]
    kept = strips > 0
    strips[...] = 0.0
    strips[: pos.size, :, :head_n] = df[:, :, :head_n]
    strips[pos.size :, :, w - tail_n :] = df[:, :, lb - tail_n :]
    np.copyto(strips, 0.0, where=~kept)


@pytest.mark.parametrize("lookback, kernel_width", [(12, 3), (9, 5), (10, 4), (4, 3)])
def test_scatter_head_equals_the_per_window_loop_bit_for_bit(lookback, kernel_width):
    """The overlap-add of a head's input gradient, one np.bincount per
    channel, gives the per-window loop's sums bit for bit: every covered
    row adds its windows' shares in batch order from 0.0."""
    c = MspConfig(lookback=lookback, horizon=3, n_variables=2, class_counts=[2, 3],
                  trunk_channels=4, ue_channels=3, kernel_width=kernel_width)
    model = MspModel(c)
    rng = np.random.default_rng(lookback)
    series = rng.normal(size=(70, 2))
    starts = np.array([7, 0, 30, 3, 41, 3, 20, 8])  # overlapping, repeated, out of order
    _, (acts, pos, _) = model.forward_batch(series, starts, want_cache=True)
    for i in range(c.n_variables):
        ours = [[a.copy() for a in part] for part in acts]
        ref = [[a.copy() for a in part] for part in acts]
        df = rng.normal(size=(starts.size, c.ue_channels, lookback)) * 10.0 ** rng.integers(-6, 6)
        model._scatter_head(i, ours, pos, df)
        scatter_per_window(model, i, ref, pos, df)
        for got, want in zip(ours, ref):
            assert got[2].tobytes() == want[2].tobytes()
        assert any(not np.array_equal(o[2], a[2]) for o, a in zip(ours, acts))  # it wrote


def test_an_evaluation_pass_frees_the_training_step_buffers(monkeypatch):
    """A training step leaves the head buffers that the next step reuses
    (a head's weight gradient and a copy of a batch's covered rows), one
    pair per thread that ran heads; a forward pass without a cache frees
    every pair, so validation and the best-epoch snapshot run without
    them."""
    import gc
    import tracemalloc

    c = MspConfig(lookback=32, horizon=8, n_variables=2, class_counts=[2, 4], **TINY)
    rng = np.random.default_rng(0)
    series = rng.normal(size=(100, 2))
    starts = np.arange(0, 68, 2)
    targets = rng.integers(0, 2, size=(starts.size, 8, 2))
    head_in = c.ue_channels * c.lookback
    pair = 8 * (head_in * c.horizon * max(c.class_counts) + starts.size * head_in)
    for helper, pairs in ((False, 1), (True, 2)):  # the two heads run in two groups
        monkeypatch.setattr(nn, "helper_thread_pays", lambda: helper)
        model = MspModel(c)
        tracemalloc.start()
        try:
            z, cache = model.forward_batch(series, starts, want_cache=True)
            _, dz = msp_loss(z, targets, c.class_counts)
            del z
            model.backward_batch(cache, dz, lambda i, grad: None)
            del cache, dz
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            model.forward_batch(series, starts)
            gc.collect()
            freed = kept - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # less at most the few hundred bytes of Python objects the pass leaves
        assert freed > pairs * pair - 2048, (helper, freed, pairs * pair)


# -- oracle: the extractor heads one conv at a time ---------------------------


def _ref_conv(weights, bias, x):
    """Same-length true convolution by einsum over padded windows."""
    k = weights.shape[2]
    left = k - 1 - (k - 1) // 2
    windows = sliding_window_view(np.pad(x, [(0, 0), (0, 0), (left, (k - 1) // 2)]), k, axis=2)
    return np.einsum("bctj,ocj->bot", windows, weights[:, :, ::-1]) + bias[None, :, None]


def _ref_conv_backward(weights, x, g):
    k = weights.shape[2]
    left = k - 1 - (k - 1) // 2
    t = x.shape[2]
    windows = sliding_window_view(np.pad(x, [(0, 0), (0, 0), (left, (k - 1) // 2)]), k, axis=2)
    dw = np.einsum("bctj,bot->ocj", windows, g)[:, :, ::-1]
    dxp = np.zeros((x.shape[0], x.shape[1], t + k - 1))
    for j in range(k):
        dxp[:, :, j : j + t] += np.einsum("bot,oc->bct", g, weights[:, :, k - 1 - j])
    return dw, g.sum(axis=(0, 2)), dxp[:, :, left : left + t]


def _per_head_forward_backward(model, x, dz):
    """Logits and gradients with one conv per extractor head, as the model
    computed them before its heads were fused into one conv."""
    c = model.config
    b = x.shape[0]
    c0 = x.transpose(0, 2, 1)
    t1 = _ref_conv(model.trunk.weights, model.trunk.bias, c0)
    a1 = np.maximum(t1, 0.0)
    heads, logits = [], []
    split = (np.split(a, c.n_variables) for a in (model.extractor.weights, model.extractor.bias))
    convs = [nn.LayerParams("conv1d", w, bias) for w, bias in zip(*split)]
    for conv, lin, n in zip(convs, model.extractor_linears, c.class_counts):
        u = _ref_conv(conv.weights, conv.bias, a1)
        f = np.maximum(u, 0.0).reshape(b, -1)
        logits.append((f @ lin.weights + lin.bias).reshape(b, c.horizon, n))
        heads.append((u, f))
    zf = np.concatenate(logits, axis=2).reshape(b * c.horizon, c.total_classes)
    z = (zf @ model.fusion.weights + model.fusion.bias).reshape(b, c.horizon, -1)

    dzf = dz.reshape(b * c.horizon, c.total_classes)
    dzu = (dzf @ model.fusion.weights.T).reshape(b, c.horizon, c.total_classes)
    da1 = np.zeros_like(a1)
    head_grads = []
    start = 0
    for conv, lin, n, (u, f) in zip(convs, model.extractor_linears, c.class_counts, heads):
        dg = dzu[:, :, start : start + n].reshape(b, -1)
        start += n
        du = (dg @ lin.weights.T).reshape(u.shape) * (u > 0)
        dwc, dbc, da1_i = _ref_conv_backward(conv.weights, a1, du)
        da1 += da1_i
        head_grads += [dwc, dbc, f.T @ dg, dg.sum(axis=0)]
    dwt, dbt, _ = _ref_conv_backward(model.trunk.weights, c0, da1 * (t1 > 0))
    return z, [dwt, dbt] + head_grads + [zf.T @ dzf, dzf.sum(axis=0)]


def _check_against_per_head(model, series, starts, seed):
    c = model.config
    windows = windows_at(series, starts, c.lookback)
    dz = np.random.default_rng(seed).normal(size=(windows.shape[0], c.horizon, c.total_classes))
    z_ref, grads_ref = _per_head_forward_backward(model, windows, dz)
    z, cache = model.forward_batch(series, starts, want_cache=True)
    grads = gradients(model, cache, dz)

    def close(a, ref, what):
        # relative to the block's largest entry too: sums of hundreds of terms
        # can cancel to near zero, where a summation-order change is visible
        np.testing.assert_allclose(a, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=what)

    close(z, z_ref, "logits")
    assert len(grads) == len(grads_ref) == len(model.param_names())
    for name, p, g, g_ref in zip(model.param_names(), model.params(), grads, grads_ref):
        assert g.shape == p.shape, name
        close(g, g_ref, name)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_fused_heads_match_per_head_oracle_small(k):
    config = MspConfig(
        lookback=9, horizon=3, n_variables=3, class_counts=[2, 3, 5],
        trunk_channels=4, ue_channels=3, kernel_width=k, seed=k,
    )
    x = np.random.default_rng(k).normal(size=(4, 9, 3))
    _check_against_per_head(MspModel(config), *as_series(x), seed=k)


def test_fused_heads_match_per_head_oracle_benchmark_geometry():
    counts = [2, 2, 2, 2, 3, 3, 3, 3, 4]  # sum 24
    config = MspConfig(lookback=96, horizon=24, n_variables=9, class_counts=counts, seed=1)
    assert (config.trunk_channels, config.ue_channels) == (32, 16)
    x = np.random.default_rng(1).normal(size=(16, 96, 9))
    _check_against_per_head(MspModel(config), *as_series(x), seed=1)


# -- shared rows: the convs run once over the rows that windows share --------


def _per_window_logits(model, x):
    """Logits with the trunk and the fused conv run over each stacked
    window on its own, B*L rows with per-window zero padding: the forward
    pass as it was before the convs ran over shared rows."""
    c = model.config
    b, ue = x.shape[0], c.ue_channels
    a1 = np.maximum(nn.conv1d_forward(model.trunk, x.transpose(0, 2, 1)), 0.0)
    r = np.maximum(nn.conv1d_forward(model.extractor, a1), 0.0)
    heads = zip(model.extractor_linears, c.class_counts)
    zu = np.concatenate(
        [
            nn.linear_forward(lin, r[:, i * ue : (i + 1) * ue].reshape(b, -1)).reshape(b, c.horizon, n)
            for i, (lin, n) in enumerate(heads)
        ],
        axis=2,
    )
    z = nn.linear_forward(model.fusion, zu.reshape(b * c.horizon, c.total_classes))
    return z.reshape(b, c.horizon, c.total_classes)


def shared_model(lookback=20, kernel_width=3, seed=0):
    # 4 trunk channels and 3*4 fused channels: column counts at which a
    # row of a BLAS matrix product has the same bits wherever it sits
    config = MspConfig(
        lookback=lookback, horizon=3, n_variables=3, class_counts=[2, 3, 4],
        trunk_channels=4, ue_channels=4, kernel_width=kernel_width, seed=seed,
    )
    return MspModel(config)


STARTS = {  # window starts in an 80-row series, lookback 20 (last start 60)
    "random overlapping": np.random.default_rng(3).integers(0, 61, size=12),
    "consecutive": np.arange(5, 37),
    "one window": np.array([17]),
    "first and last": np.array([60, 0]),
    "two disjoint runs": np.r_[50:56, 3:9],
}


@pytest.mark.parametrize("case", list(STARTS))
def test_series_logits_equal_per_window_convs_bit_for_bit(case):
    model = shared_model()
    series = np.random.default_rng(1).normal(size=(80, 3))
    starts = STARTS[case]
    windows = windows_at(series, starts, 20)
    z = model.forward_batch(series, starts)
    assert z.tobytes() == model.forward_batch(*as_series(windows)).tobytes()
    assert z.tobytes() == _per_window_logits(model, windows).tobytes()


@pytest.mark.parametrize(
    "k, lookback",
    # L = k: every row is an edge row; L < 2(k-1): no row is interior
    [(1, 1), (1, 12), (2, 2), (2, 12), (3, 3), (3, 12), (4, 4), (4, 5), (4, 12),
     (5, 5), (5, 7), (5, 12)],
)
def test_series_gradients_match_per_head_oracle(k, lookback):
    model = shared_model(lookback=lookback, kernel_width=k, seed=k)
    series = np.random.default_rng(k).normal(size=(lookback + 15, 3))
    starts = np.random.default_rng(lookback).permutation(16)[:6]
    _check_against_per_head(model, series, starts, seed=k)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_series_form_matches_per_window_convs_for_any_starts(data):
    k = data.draw(st.integers(1, 5), label="k")
    lookback = data.draw(st.integers(k, 14), label="lookback")
    n = data.draw(st.integers(lookback, lookback + 30), label="rows")
    starts = np.array(
        data.draw(st.lists(st.integers(0, n - lookback), min_size=1, max_size=8), label="starts")
    )
    model = shared_model(lookback=lookback, kernel_width=k, seed=n)
    series = np.random.default_rng(n).normal(size=(n, 3))
    windows = windows_at(series, starts, lookback)
    z = model.forward_batch(series, starts)
    ref = _per_window_logits(model, windows)
    if lookback == 1 and len(set(starts.tolist())) == 1 < len(starts):
        # One covered row against B > 1 stacked ones: numpy hands a
        # one-row matrix product to BLAS's matrix-vector routine, which
        # sums in another order than the matrix-matrix one.
        np.testing.assert_allclose(z, ref, rtol=1e-14, atol=1e-14)
    else:
        assert z.tobytes() == ref.tobytes()
    _check_against_per_head(model, series, starts, seed=k)


def test_convs_run_once_over_the_covered_rows(monkeypatch):
    """Each conv call's rows (batch * time), per layer and direction: the
    covered rows plus 2(k-1)-row strips at both ends of every window, at
    most min(B*L, covered rows) plus the edge rows."""
    model = shared_model(lookback=32)
    rows = {}

    def counting(name, fn):
        def wrapper(params, x, *args, **kwargs):
            key = (name, "trunk" if params is model.trunk else "fused")
            rows[key] = rows.get(key, 0) + x.shape[0] * x.shape[2]
            return fn(params, x, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(nn, "conv1d_forward", counting("forward", nn.conv1d_forward))
    monkeypatch.setattr(nn, "conv1d_backward", counting("backward", nn.conv1d_backward))
    series = np.random.default_rng(0).normal(size=(120, 3))
    b, edge_rows = 24, 24 * 2 * 4
    # B windows laid end to end: B runs of one window each
    end_to_end = as_series(np.random.default_rng(2).normal(size=(b, 32, 3)))
    for x, starts in ((series, np.random.default_rng(1).permutation(89)[:b]), end_to_end):
        rows.clear()
        z, cache = model.forward_batch(x, starts, want_cache=True)
        gradients(model, cache, np.ones_like(z))
        covered = len(set().union(*(range(s, s + 32) for s in starts)))
        if x is series:
            assert covered <= 120 < b * 32
        else:
            assert covered == b * 32
        layers = [(d, layer) for d in ("forward", "backward") for layer in ("trunk", "fused")]
        assert rows == dict.fromkeys(layers, covered + edge_rows)


def test_series_batch_is_checked():
    model = shared_model()
    series = np.zeros((30, 3))
    with pytest.raises(ShapeError, match=r"window start 11 outside \[0, 10\]"):
        model.forward_batch(series, [0, 11])
    with pytest.raises(ShapeError, match=r"window start -1 outside"):
        model.forward_batch(series, [-1])
    with pytest.raises(ShapeError, match="no windows"):
        model.forward_batch(series, np.array([], dtype=np.int64))
    with pytest.raises(ShapeError, match="integer"):
        model.forward_batch(series, [0.0])
    with pytest.raises(ShapeError, match=r"series shape \(30, 2\) does not match \(rows, 3\)"):
        model.forward_batch(np.zeros((30, 2)), [0])
    from loadcast.errors import NumericError

    series[5, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        model.forward_batch(series, [0])
    model.forward_batch(series, [6])  # no window covers row 5


def test_teacher_passes_over_a_split_check_its_lookback():
    """The series form cannot see a window's length, so every pass over a
    split checks the split's windows against the model first."""
    train_w, val_w, _ = wave_splits(lookback=12)
    model = MspModel(MspConfig(lookback=8, horizon=4, n_variables=1, class_counts=[2], **TINY))
    message = r"input shape \(\d+, 12, 1\) does not match \(batch, 8, 1\)"
    with pytest.raises(ShapeError, match=message):
        state_accuracy(model, val_w)
    with pytest.raises(ShapeError, match=message):
        train_msp(model, train_w, val_w, max_epochs=1)
    from loadcast.guidance import teacher_weights

    with pytest.raises(ShapeError, match=message):
        teacher_weights(model, train_w)


def test_checkpoint_saved_before_fusion_predicts_the_same(tmp_path):
    """msp_parent_v2.json was written by the per-head model (one conv per
    extractor); its logits on a fixed input are stored next to it."""
    from loadcast.checkpoint import load_container
    from loadcast.msp import load_msp, save_msp

    fixtures = Path(__file__).parent / "fixtures"
    model = load_msp(fixtures / "msp_parent_v2.json")
    expected = json.loads((fixtures / "msp_parent_v2_logits.json").read_text(encoding="utf-8"))
    z = model.forward_batch(*as_series(np.asarray(expected["input"])))
    np.testing.assert_allclose(z, np.asarray(expected["logits"]), rtol=1e-12, atol=1e-12)
    # the same kind, config, blocks, names and shapes go back out bit for bit
    save_msp(model, tmp_path / "again.json")
    kind, config, again = load_container(tmp_path / "again.json")
    fixture_kind, fixture_config, stored = load_container(fixtures / "msp_parent_v2.json")
    assert (kind, config, list(again)) == (fixture_kind, fixture_config, list(stored))
    for name, arr in stored.items():
        assert again[name].shape == arr.shape
        np.testing.assert_array_equal(again[name].view(np.uint64), arr.view(np.uint64))


def test_head_conv_blocks_are_views_of_the_one_fused_conv(tmp_path):
    """Each head's conv blocks view the stored fused conv, so an Adam step
    or a checkpoint load of a head's block moves the conv the model runs."""
    from loadcast.msp import load_msp, save_msp

    t = np.arange(200)
    states = np.stack([(t // 4) % 2, (t // 6) % 2], axis=1)
    frame = SeriesFrame(3600 * t, 5.0 * states, ["a", "b"])
    train_w, val_w, _ = windows_for(frame, StateProfile(states, [2, 2]), 8, [4])[1][4]
    model = tiny_model(lookback=8, horizon=4, counts=(2, 2))
    names, params = model.param_names(), model.params()
    assert len(names) == len(params) == 4 * 2 + 4 and len(set(names)) == len(names)
    fused = model.extractor
    convs = [(name, p) for name, p in zip(names, params) if ".conv." in name]
    assert len(convs) == 4
    for name, p in convs:
        assert np.shares_memory(p, fused.weights if name.endswith("weights") else fused.bias), name

    a1 = np.random.default_rng(0).normal(size=(2, TINY["trunk_channels"], 8))
    initial = nn.conv1d_forward(fused, a1).copy()
    train_msp(model, train_w, val_w, max_epochs=1, batch_size=len(train_w))  # one step
    trained = nn.conv1d_forward(fused, a1).copy()
    assert not np.array_equal(trained, initial)
    save_msp(model, tmp_path / "m.json")
    loaded = load_msp(tmp_path / "m.json")  # built with the initial weights, then loaded
    np.testing.assert_array_equal(nn.conv1d_forward(loaded.extractor, a1), trained)
