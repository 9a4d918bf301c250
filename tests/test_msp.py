"""State predictor tests: forward contracts, decoding, loss, gradient
integrity through the full model, and learnability on a task whose
future states are an exact function of the input window."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from loadcast import nn
from loadcast.data import SeriesFrame, sliding_windows, split_60_20_20, zscore_apply, zscore_fit
from loadcast.errors import ConfigError, ShapeError
from loadcast.msp import (
    MspConfig,
    MspModel,
    decode_states,
    msp_loss,
    split_groups,
    state_accuracy,
    train_msp,
)

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
    z = model.forward_batch(rng.normal(size=(1, 8, 2)))
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
    x = np.random.default_rng(1).normal(size=(1, 8, 2))
    np.testing.assert_array_equal(model.forward_batch(x), model.forward_batch(x))


def test_forward_shape_mismatch():
    model = tiny_model()
    with pytest.raises(ShapeError, match=r"\(1, 7, 2\) does not match \(batch, 8, 2\)"):
        model.forward_batch(np.zeros((1, 7, 2)))


def test_zeroed_fusion_forces_constant_logits():
    model = tiny_model()
    model.fusion.weights[:] = 0.0
    model.fusion.bias[:] = np.arange(5, dtype=np.float64)
    rng = np.random.default_rng(2)
    for _ in range(3):
        z = model.forward_batch(rng.normal(size=(1, 8, 2)))
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
        log_p = nn.log_softmax_rows(z[:, :, start : start + n])
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
    z = model.forward_batch(rng.normal(size=(1, 8, 2)))
    for start, n in ((0, 2), (2, 3)):
        probs = nn.softmax_rows(z[..., start : start + n])
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_full_model_gradient_matches_finite_differences():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 8, 2))
    targets = np.array([[[0, 1], [1, 2], [0, 0]], [[1, 0], [0, 2], [1, 1]]])
    counts = model.config.class_counts
    # Biases start at 0, so a head whose trunk inputs are all dead over a
    # kernel's reach sits exactly on the ReLU kink, where a central
    # difference reads half the one-sided slope. Nonzero biases keep every
    # pre-activation off the kink.
    for name, p in zip(model.param_names(), model.params()):
        if name.endswith("bias"):
            p[:] = rng.normal(scale=0.1, size=p.shape)

    z, cache = model.forward_batch(x, want_cache=True)
    loss, dz = msp_loss(z, targets, counts)
    grads = model.backward_batch(cache, dz)
    report = nn.grad_check(
        lambda: msp_loss(model.forward_batch(x), targets, counts)[0],
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
    labels = (series > 2.5).astype(np.int64)[:, None]
    train, val, test = split_60_20_20(frame)
    stats = zscore_fit(train)
    i1, i2 = train.length, train.length + val.length
    parts = []
    for part, lab in (
        (train, labels[:i1]),
        (val, labels[i1:i2]),
        (test, labels[i2:]),
    ):
        parts.append(sliding_windows(zscore_apply(part, stats), lab, lookback, horizon))
    return parts


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
    from loadcast.train import stack_inputs, stack_states

    z = model.forward_batch(stack_inputs(val_w))
    loss, _ = msp_loss(z, stack_states(val_w), model.config.class_counts)
    assert loss == pytest.approx(history.best_val_loss, rel=1e-12)


def test_checkpoint_round_trip(tmp_path):
    from loadcast.msp import load_msp, save_msp

    model = tiny_model(seed=9)
    path = tmp_path / "msp.json"
    save_msp(model, path)
    back = load_msp(path)
    assert [p.tobytes() for p in back.params()] == [p.tobytes() for p in model.params()]
    x = np.random.default_rng(6).normal(size=(1, 8, 2))
    np.testing.assert_array_equal(back.forward_batch(x), model.forward_batch(x))


def test_forward_with_and_without_cache_bit_equal():
    model = tiny_model(seed=3)
    x = np.random.default_rng(7).normal(size=(5, 8, 2))
    z, _ = model.forward_batch(x, want_cache=True)
    np.testing.assert_array_equal(z, model.forward_batch(x))


def _owned_bytes(arrays) -> int:
    """Bytes of the distinct buffers that the arrays view."""
    owners = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def test_teacher_step_memory_is_bounded_by_the_fused_activation():
    import tracemalloc

    config = MspConfig(
        lookback=64, horizon=1, n_variables=4, class_counts=[2, 3, 2, 4],
        trunk_channels=4, ue_channels=16, kernel_width=3, seed=0,
    )
    model = MspModel(config)
    rng = np.random.default_rng(0)
    b = 32
    x = rng.normal(size=(b, 64, 4))
    targets = rng.integers(0, 2, size=(b, 1, 4))
    a1_bytes = 8 * b * 64 * 4  # the trunk's output
    r_bytes = 8 * b * 64 * 4 * 16  # the fused extractor conv's output
    tracemalloc.start()
    try:
        z, cache = model.forward_batch(x, want_cache=True)
        # the cache holds the fused activation once, not a copy per head
        assert _owned_bytes(cache) == x.nbytes + a1_bytes + r_bytes + z.nbytes
        _, dz = msp_loss(z, targets, config.class_counts)
        grads = model.backward_batch(cache, dz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache == []  # consumed
    # per-head copies next to r, or a separate upstream-gradient buffer,
    # would take the peak above 2.4 r
    assert peak < 2 * r_bytes, peak / r_bytes
    assert [g.shape for g in grads] == [p.shape for p in model.params()]


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
    for conv, lin, n in zip(model.extractor_convs, model.extractor_linears, c.class_counts):
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
    for conv, lin, n, (u, f) in zip(
        model.extractor_convs, model.extractor_linears, c.class_counts, heads
    ):
        dg = dzu[:, :, start : start + n].reshape(b, -1)
        start += n
        du = (dg @ lin.weights.T).reshape(u.shape) * (u > 0)
        dwc, dbc, da1_i = _ref_conv_backward(conv.weights, a1, du)
        da1 += da1_i
        head_grads += [dwc, dbc, f.T @ dg, dg.sum(axis=0)]
    dwt, dbt, _ = _ref_conv_backward(model.trunk.weights, c0, da1 * (t1 > 0))
    return z, [dwt, dbt] + head_grads + [zf.T @ dzf, dzf.sum(axis=0)]


def _check_against_per_head(model, x, seed):
    c = model.config
    dz = np.random.default_rng(seed).normal(size=(x.shape[0], c.horizon, c.total_classes))
    z_ref, grads_ref = _per_head_forward_backward(model, x, dz)
    z, cache = model.forward_batch(x, want_cache=True)
    grads = model.backward_batch(cache, dz)

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
    _check_against_per_head(MspModel(config), x, seed=k)


def test_fused_heads_match_per_head_oracle_benchmark_geometry():
    counts = [2, 2, 2, 2, 3, 3, 3, 3, 4]  # sum 24
    config = MspConfig(lookback=96, horizon=24, n_variables=9, class_counts=counts, seed=1)
    assert (config.trunk_channels, config.ue_channels) == (32, 16)
    x = np.random.default_rng(1).normal(size=(16, 96, 9))
    _check_against_per_head(MspModel(config), x, seed=1)


def test_checkpoint_saved_before_fusion_predicts_the_same(tmp_path):
    """msp_parent_v2.json was written by the per-head model (one conv per
    extractor); its logits on a fixed input are stored next to it."""
    from loadcast.msp import load_msp, save_msp

    fixtures = Path(__file__).parent / "fixtures"
    model = load_msp(fixtures / "msp_parent_v2.json")
    expected = json.loads((fixtures / "msp_parent_v2_logits.json").read_text(encoding="utf-8"))
    z = model.forward_batch(np.asarray(expected["input"]))
    np.testing.assert_allclose(z, np.asarray(expected["logits"]), rtol=1e-12, atol=1e-12)
    # the same blocks, names and shapes go back out byte for byte
    save_msp(model, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (fixtures / "msp_parent_v2.json").read_bytes()
