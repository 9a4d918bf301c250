"""State predictor tests: forward contracts, decoding, loss, gradient
integrity through the full model, and learnability on a task whose
future states are an exact function of the input window."""

import numpy as np
import pytest

from loadcast import nn
from loadcast.data import SeriesFrame, sliding_windows, split_60_20_20, zscore_apply, zscore_fit
from loadcast.errors import ShapeError
from loadcast.msp import (
    GroupedLogits,
    MspConfig,
    MspModel,
    decode_states,
    msp_forward,
    msp_loss,
    param_checksum,
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
    out = msp_forward(model, rng.normal(size=(8, 2)))
    assert out.logits.shape == (3, 5)
    assert [g.shape[-1] for g in out.groups()] == [2, 3]


def test_forward_deterministic():
    model = tiny_model()
    x = np.random.default_rng(1).normal(size=(8, 2))
    np.testing.assert_array_equal(msp_forward(model, x).logits, msp_forward(model, x).logits)


def test_forward_shape_mismatch():
    model = tiny_model()
    with pytest.raises(ShapeError):
        msp_forward(model, np.zeros((7, 2)))


def test_zeroed_fusion_forces_constant_logits():
    model = tiny_model()
    model.fusion.weights[:] = 0.0
    model.fusion.bias[:] = np.arange(5, dtype=np.float64)
    rng = np.random.default_rng(2)
    for _ in range(3):
        out = msp_forward(model, rng.normal(size=(8, 2)))
        assert (out.logits == np.arange(5)).all()


def test_decode_one_hot_and_ties():
    grouped = GroupedLogits(np.array([[0.0, 9.0, 1.0, 1.0, 0.0]]), [2, 3])
    decoded = decode_states(grouped)
    np.testing.assert_array_equal(decoded, [[1, 0]])  # tie in group 2 -> class 0


def test_decode_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 5))
    grouped = GroupedLogits(z, [2, 3])
    transformed = GroupedLogits(3.0 * z + 1.5, [2, 3])
    np.testing.assert_array_equal(decode_states(grouped), decode_states(transformed))


def test_loss_saturates_at_confident_correct_logits():
    z = np.zeros((2, 5))
    targets = np.array([[1, 2], [0, 0]])
    for tau in range(2):
        z[tau, targets[tau, 0]] = 20.0
        z[tau, 2 + targets[tau, 1]] = 20.0
    loss, _ = msp_loss(GroupedLogits(z, [2, 3]), targets)
    assert loss < 1e-6


def test_loss_uniform_logits_is_log_n():
    for n in (2, 3, 5):
        z = np.zeros((4, 2 * n))
        targets = np.zeros((4, 2), dtype=int)
        loss, _ = msp_loss(GroupedLogits(z, [n, n]), targets)
        assert loss == pytest.approx(np.log(n), abs=1e-12)


def test_loss_hand_case():
    z = np.array([[np.log(2.0), 0.0]])
    loss, _ = msp_loss(GroupedLogits(z, [2]), np.array([[0]]))
    assert loss == pytest.approx(-np.log(2.0 / 3.0), abs=1e-12)


def test_loss_finite_for_large_logit_gap():
    loss, _ = msp_loss(GroupedLogits(np.array([[800.0, 0.0]]), [2]), np.array([[1]]))
    assert np.isfinite(loss) and loss == pytest.approx(800.0)


def test_loss_out_of_range_target_names_position():
    z = np.zeros((2, 5))
    bad = np.array([[0, 0], [0, 3]])
    with pytest.raises(ShapeError, match="step 1, variable 1"):
        msp_loss(GroupedLogits(z, [2, 3]), bad)


def test_per_group_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    model = tiny_model()
    out = msp_forward(model, rng.normal(size=(8, 2)))
    for group in out.groups():
        probs = nn.softmax_rows(group)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_full_model_gradient_matches_finite_differences():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 2))
    targets = np.array([[0, 1], [1, 2], [0, 0]])

    z, cache = model.forward_batch(x[None], want_cache=True)
    loss, dz = msp_loss(GroupedLogits(z[0], model.config.class_counts), targets)
    grads = model.backward_batch(cache, dz[None])
    report = nn.grad_check(
        lambda: msp_loss(msp_forward(model, x), targets)[0],
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
    from loadcast.msp import _batch_loss_grad
    from loadcast.train import stack_inputs, stack_states

    z = model.forward_batch(stack_inputs(val_w))
    loss, _ = _batch_loss_grad(z, stack_states(val_w), model.config.class_counts)
    assert loss == pytest.approx(history.best_val_loss, rel=1e-12)


def test_checkpoint_round_trip(tmp_path):
    from loadcast.msp import load_msp, save_msp

    model = tiny_model(seed=9)
    path = tmp_path / "msp.json"
    save_msp(model, path)
    back = load_msp(path)
    assert param_checksum(back) == param_checksum(model)
    x = np.random.default_rng(6).normal(size=(8, 2))
    np.testing.assert_array_equal(msp_forward(back, x).logits, msp_forward(model, x).logits)
