"""Forecaster tests: forward contracts, plain training recovery on a
well-specified task, gradient integrity, and the plug-in property."""

import numpy as np
import pytest

from loadcast import nn
from loadcast.data import SeriesFrame, sliding_windows
from loadcast.errors import ConfigError, ShapeError
from loadcast.forecaster import (
    FORECASTER_KINDS,
    ForecasterConfig,
    LinearForecaster,
    MlpForecaster,
    load_forecaster,
    make_forecaster,
    predict_samples,
    save_forecaster,
    train_plain,
    train_with_guidance,
)
from loadcast.guidance import GuidanceConfig, train_guided
from loadcast.msp import MspConfig, MspModel
from loadcast.pipeline import split_with_states, windows_for
from tests.batches import as_series, gradients, windows_at
from tests.test_msp import STARTS, wave_splits


def test_linear_zero_weights_zero_forecast():
    model = LinearForecaster(ForecasterConfig("linear", 6, 2, 3))
    model.weights[:] = 0.0
    model.bias[:] = 0.0
    out = model.forward_batch(*as_series(np.random.default_rng(0).normal(size=(1, 6, 3))))[0]
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


def test_linear_window_mean_weights():
    model = LinearForecaster(ForecasterConfig("linear", 4, 1, 2))
    model.weights[:] = 1.0 / 4.0
    model.bias[:] = 0.0
    x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    out = model.forward_batch(x, [0])[0]
    np.testing.assert_allclose(out, [[2.5, 25.0]])


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_forecast_shape_contract(kind):
    config = ForecasterConfig(kind, 5, 3, 2, hidden=8)
    model = make_forecaster(config)
    out = model.forward_batch(*as_series(np.random.default_rng(1).normal(size=(1, 5, 2))))[0]
    assert out.shape == (3, 2)


def test_forecast_shape_mismatch():
    for kind in FORECASTER_KINDS:
        model = make_forecaster(ForecasterConfig(kind, 5, 3, 2, hidden=8))
        with pytest.raises(ShapeError, match=r"window start 0 outside \[0, -1\] for 4 rows"):
            model.forward_batch(*as_series(np.zeros((1, 4, 2))))
        with pytest.raises(ShapeError, match=r"series shape \(5, 3\) does not match \(rows, 2\)"):
            model.forward_batch(*as_series(np.zeros((1, 5, 3))))


@pytest.mark.parametrize("case", list(STARTS))
@pytest.mark.parametrize("kind", FORECASTER_KINDS)
def test_series_form_equals_sliced_windows_bit_for_bit(kind, case):
    """Windows gathered from a split's rows give the bits of the same
    windows sliced out one by one and laid end to end."""
    model = make_forecaster(ForecasterConfig(kind, 20, 3, 3, hidden=8, seed=2))
    series = np.random.default_rng(1).normal(size=(80, 3))
    starts = STARTS[case]
    sliced = as_series(windows_at(series, starts, 20))
    y = model.forward_batch(series, starts)
    assert y.shape == (len(starts), 3, 3)
    assert y.tobytes() == model.forward_batch(*sliced).tobytes()
    y_cached, _ = model.forward_batch(series, starts, want_cache=True)
    assert y_cached.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", FORECASTER_KINDS)
def test_series_form_rejects_a_bad_start(kind):
    model = make_forecaster(ForecasterConfig(kind, 20, 3, 3, hidden=8))
    series = np.zeros((80, 3))
    with pytest.raises(ShapeError, match=r"window start 61 outside \[0, 60\]"):
        model.forward_batch(series, [0, 61])
    with pytest.raises(ShapeError, match=r"window start -1 outside"):
        model.forward_batch(series, [-1])
    with pytest.raises(ShapeError, match="integer"):
        model.forward_batch(series, [1.0])
    with pytest.raises(ShapeError, match="no windows"):
        model.forward_batch(series, np.array([], dtype=np.int64))


@pytest.mark.parametrize("kind", FORECASTER_KINDS)
def test_forecaster_passes_over_a_split_check_its_lookback(kind, monkeypatch):
    """A split of lookback 12 has valid starts for a lookback-8 model too,
    so every pass checks the split's windows before its first step."""
    from loadcast import train

    def never(*args, **kwargs):
        raise AssertionError("training started before the splits were checked")

    monkeypatch.setattr(train, "train_loop", never)
    train_w, val_w, _ = wave_splits(lookback=12)
    model = make_forecaster(ForecasterConfig(kind, 8, 4, 1, hidden=4))
    message = r"input shape \(\d+, 12, 1\) does not match \(batch, 8, 1\)"
    with pytest.raises(ShapeError, match=message):
        predict_samples(model, val_w)
    with pytest.raises(ShapeError, match=message):
        train_plain(model, train_w, val_w, max_epochs=1)
    right_w, _, _ = wave_splits(lookback=8)
    with pytest.raises(ShapeError, match=message):
        train_plain(model, right_w, val_w, max_epochs=1)  # the validation split too


def sine_frame(l=480):
    """Noiseless periodic series: a per-variable linear map of the
    window predicts it exactly (copy from one period back)."""
    t = np.arange(l)
    values = np.column_stack(
        [np.sin(2 * np.pi * t / 12), np.cos(2 * np.pi * t / 12) + 0.5]
    )
    return SeriesFrame(3600 * t, values, ["a", "b"])


def sine_splits(l=480, lookback=12, horizon=3):
    return windows_for(sine_frame(l), None, lookback, [horizon])[1][horizon]


def test_train_plain_recovers_noiseless_linear_task():
    train_w, val_w, test_w = sine_splits()
    model = make_forecaster(ForecasterConfig("linear", 12, 3, 2, seed=3))
    train_plain(model, train_w, val_w, lr=0.01, batch_size=32, max_epochs=200, patience=20)
    yhat = predict_samples(model, test_w)
    y = np.stack([s.y for s in test_w])
    assert np.abs(yhat - y).mean() < 0.05


def test_train_plain_best_snapshot_contract():
    train_w, val_w, _ = sine_splits(l=200)
    model = make_forecaster(ForecasterConfig("linear", 12, 3, 2, seed=4))
    history = train_plain(model, train_w, val_w, lr=0.01, batch_size=32, max_epochs=20)
    assert history.best_val_loss == min(history.val_loss)
    yhat = predict_samples(model, val_w)
    y = np.stack([s.y for s in val_w])
    assert np.abs(yhat - y).mean() == pytest.approx(history.best_val_loss, rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_forecaster_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(5)
    config = ForecasterConfig(kind, 5, 2, 2, hidden=6, seed=5)
    model = make_forecaster(config)
    x = as_series(rng.normal(size=(3, 5, 2)))
    y = rng.normal(size=(3, 2, 2))

    def loss_fn():
        yhat = model.forward_batch(*x)
        return float(np.abs(yhat - y).mean())

    yhat, cache = model.forward_batch(*x, want_cache=True)
    err = yhat - y
    dy = np.sign(err) / err.size
    grads = gradients(model, cache, dy)
    report = nn.grad_check(loss_fn, model.params(), grads, names=model.param_names())
    assert report.max_rel_error < 1e-5


@pytest.mark.parametrize("kind", ["mlp"])  # the one forecaster built from nn.linear layers
def test_first_layer_skips_input_gradient_bit_identically(kind):
    """The first layer's input gradient has no consumer; skipping it leaves
    every parameter gradient bit for bit as before."""
    rng = np.random.default_rng(11)
    model = make_forecaster(ForecasterConfig(kind, 6, 3, 2, hidden=5, seed=3))
    yhat, cache = model.forward_batch(*as_series(rng.normal(size=(4, 6, 2))), want_cache=True)
    dy = rng.normal(size=yhat.shape)
    xf, pre, act = cache  # before backward_batch empties it
    grads = gradients(model, cache, dy)
    (dw2, db2), dact = nn.linear_backward(model.lin2, act, dy.reshape(4, -1))
    (dw1, db1), _ = nn.linear_backward(model.lin1, xf, nn.relu_backward(pre, dact))
    expected = [dw1, db1, dw2, db2]
    for g, e in zip(grads, expected, strict=True):
        np.testing.assert_array_equal(g, e)


def test_plug_in_property_same_shapes_and_forward():
    train_w, val_w, _ = wave_splits(l=200)
    fc_config = ForecasterConfig("linear", 8, 4, 1, seed=6)
    plain = make_forecaster(fc_config)
    guided = make_forecaster(fc_config)
    teacher = MspModel(
        MspConfig(
            lookback=8, horizon=4, n_variables=1, class_counts=[2],
            trunk_channels=4, ue_channels=3, seed=2,
        )
    )
    train_plain(plain, train_w, val_w, max_epochs=3)
    train_with_guidance(guided, teacher, train_w, val_w, max_epochs=3)
    assert [p.shape for p in plain.params()] == [p.shape for p in guided.params()]
    assert type(plain) is type(guided)


def test_alpha_zero_guidance_equals_plain_via_wrapper():
    train_w, val_w, _ = wave_splits(l=200)
    fc_config = ForecasterConfig("linear", 8, 4, 1, seed=9)
    teacher = MspModel(
        MspConfig(
            lookback=8, horizon=4, n_variables=1, class_counts=[2],
            trunk_channels=4, ue_channels=3, seed=3,
        )
    )
    plain = make_forecaster(fc_config)
    train_plain(plain, train_w, val_w, max_epochs=8)
    guided = make_forecaster(fc_config)
    train_with_guidance(
        guided, teacher, train_w, val_w, GuidanceConfig(alpha=0.0), max_epochs=8
    )
    for a, b in zip(plain.params(), guided.params()):
        np.testing.assert_array_equal(a, b)


def test_guidance_geometry_mismatch_rejected():
    teacher = MspModel(
        MspConfig(
            lookback=8, horizon=4, n_variables=2, class_counts=[2, 2],
            trunk_channels=4, ue_channels=3, seed=0,
        )
    )
    student = make_forecaster(ForecasterConfig("linear", 8, 6, 2, seed=0))
    windows = [object()]  # the check comes before any window is read
    with pytest.raises(ConfigError, match="geometry"):
        train_with_guidance(student, teacher, windows, windows)
    for weights in (None, np.ones((1, 6, 2))):
        with pytest.raises(ConfigError, match="geometry"):
            train_guided(
                student, teacher, windows, windows, GuidanceConfig(), precomputed_weights=weights
            )


def test_linear_least_squares_affine_equivariance():
    # closed-form per-variable LSQ fit commutes with per-variable affine
    # rescaling of the data (predictions map back within 1e-6)
    rng = np.random.default_rng(7)
    l, lookback, horizon = 300, 6, 2
    series = np.cumsum(rng.normal(size=(l, 2)), axis=0)
    scale = np.array([2.5, 0.4])
    shift = np.array([-1.0, 3.0])
    rescaled = series * scale + shift

    def lsq_predict(data):
        n = l - lookback - horizon + 1
        preds = np.empty((n, horizon, 2))
        for i in range(2):
            xcol = np.stack([data[k : k + lookback, i] for k in range(n)])
            design = np.column_stack([xcol, np.ones(n)])
            ycol = np.stack(
                [data[k + lookback : k + lookback + horizon, i] for k in range(n)]
            )
            coef, *_ = np.linalg.lstsq(design, ycol, rcond=None)
            preds[:, :, i] = design @ coef
        return preds

    direct = lsq_predict(series)
    via_rescale = (lsq_predict(rescaled) - shift) / scale
    np.testing.assert_allclose(via_rescale, direct, atol=1e-6)


def test_mae_training_affine_equivariance_directional():
    # MAE training has no closed form; check the rescale-then-invert route
    # lands close to direct training, relative to the target scale
    train_w, val_w, test_w = sine_splits(l=260)
    direct = make_forecaster(ForecasterConfig("linear", 12, 3, 2, seed=11))
    train_plain(direct, train_w, val_w, lr=0.01, batch_size=32, max_epochs=60)

    scale = np.array([3.0, 0.5])
    shift = np.array([1.0, -2.0])

    def rescale(part):
        return SeriesFrame(part.timestamps, part.values * scale + shift, part.variable_names)

    frames, labels, _ = split_with_states(sine_frame(l=260), None)
    rescaled_train, rescaled_val, rescaled_test = (
        sliding_windows(rescale(part), lab, 12, 3) for part, lab in zip(frames, labels)
    )
    rescaled_model = make_forecaster(ForecasterConfig("linear", 12, 3, 2, seed=11))
    train_plain(
        rescaled_model, rescaled_train, rescaled_val, lr=0.01, batch_size=32, max_epochs=60
    )
    direct_pred = predict_samples(direct, test_w)
    via = (predict_samples(rescaled_model, rescaled_test) - shift) / scale
    y = np.stack([s.y for s in test_w])
    assert np.abs(via - direct_pred).mean() < 0.25 * np.abs(y).mean() + 0.05


def test_forecaster_checkpoint_round_trip(tmp_path):
    for kind in ("linear", "mlp"):
        config = ForecasterConfig(kind, 5, 2, 2, hidden=6, seed=12)
        model = make_forecaster(config)
        path = tmp_path / f"{kind}.json"
        save_forecaster(model, path)
        back = load_forecaster(path)
        x = as_series(np.random.default_rng(8).normal(size=(1, 5, 2)))
        np.testing.assert_array_equal(back.forward_batch(*x), model.forward_batch(*x))
        assert isinstance(back, (LinearForecaster, MlpForecaster))
