"""Guidance tests: event weights, combined loss, frozen-teacher training,
and the exact alpha=0 reduction to plain training."""

import numpy as np
import pytest

from loadcast import nn
from loadcast.errors import ConfigError, ShapeError
from loadcast.forecaster import ForecasterConfig, make_forecaster
from loadcast.guidance import (
    GuidanceConfig,
    event_weights,
    guided_loss,
    teacher_weights,
    train_guided,
)
from loadcast.msp import MspConfig, MspModel
from tests.test_msp import wave_splits


def test_event_weights_uniform_logits():
    w = event_weights(np.zeros((3, 2, 5)), [2, 3])
    np.testing.assert_allclose(w[..., 0], 0.5)
    np.testing.assert_allclose(w[..., 1], 1.0 / 3.0)


def test_event_weights_confident_logits_near_one():
    w = event_weights(np.array([[[10.0, -10.0]]]), [2])
    assert abs(w[0, 0, 0] - 1.0) < 1e-8


def test_event_weights_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 3, 5))
    a = event_weights(z, [2, 3])
    shifted = z.copy()
    shifted[..., :2] += 7.0
    shifted[..., 2:] -= 3.0
    b = event_weights(shifted, [2, 3])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_event_weights_bounds():
    rng = np.random.default_rng(1)
    counts = [2, 3, 5]
    z = rng.normal(scale=5, size=(4, 5, sum(counts)))
    w = event_weights(z, counts)
    assert (w <= 1.0).all()
    for i, n in enumerate(counts):
        assert (w[..., i] >= 1.0 / n - 1e-12).all()


def test_guided_loss_alpha_zero_is_mae():
    rng = np.random.default_rng(2)
    yhat, y = rng.normal(size=(2, 4, 3))
    w = rng.uniform(0.2, 1.0, size=(4, 3))
    loss, _ = guided_loss(yhat, y, w, 0.0)
    assert loss == np.abs(yhat - y).mean()


def test_guided_loss_unit_weights_doubles_mae():
    rng = np.random.default_rng(3)
    yhat, y = rng.normal(size=(2, 4, 3))
    loss, _ = guided_loss(yhat, y, np.ones((4, 3)), 1.0)
    assert loss == pytest.approx(2.0 * np.abs(yhat - y).mean(), rel=1e-12)


def test_guided_loss_hand_case():
    yhat = np.array([[1.0, 3.0]])
    y = np.array([[0.0, 0.0]])
    w = np.array([[0.5, 1.0]])
    loss, _ = guided_loss(yhat, y, w, 1.0)
    assert loss == pytest.approx(3.75, abs=1e-12)


def test_guided_loss_zero_at_exact_fit():
    y = np.random.default_rng(4).normal(size=(3, 2))
    for alpha in (0.0, 0.5, 3.0):
        loss, grad = guided_loss(y, y, np.full((3, 2), 0.7), alpha)
        assert loss == 0.0
        assert not grad.any()


def test_guided_loss_monotone_in_alpha():
    rng = np.random.default_rng(5)
    yhat, y = rng.normal(size=(2, 4, 3))
    w = rng.uniform(0.2, 1.0, size=(4, 3))
    losses = [guided_loss(yhat, y, w, alpha)[0] for alpha in (0.0, 0.5, 1.0, 2.0)]
    assert losses == sorted(losses)


def test_guided_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    yhat = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 3))
    w = rng.uniform(0.2, 1.0, size=(4, 3))
    _, grad = guided_loss(yhat, y, w, 0.8)
    report = nn.grad_check(
        lambda: guided_loss(yhat, y, w, 0.8)[0], [yhat], [grad]
    )
    assert report.max_rel_error < 1e-5


def test_guided_loss_without_weights_is_mae_with_its_gradient():
    rng = np.random.default_rng(7)
    yhat, y = rng.normal(size=(2, 3, 4, 2))
    loss, grad = guided_loss(yhat, y, None, 1.5)
    assert loss == np.abs(yhat - y).mean()
    report = nn.grad_check(lambda: guided_loss(yhat, y, None, 1.5)[0], [yhat], [grad])
    assert report.max_rel_error < 1e-5


def test_guided_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        guided_loss(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3)), 1.0)


def test_guidance_config_validation():
    for alpha in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            GuidanceConfig(alpha=alpha)
        with pytest.raises(ConfigError):
            guided_loss(np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), alpha)


def trained_teacher(train_w, val_w):
    config = MspConfig(
        lookback=8,
        horizon=4,
        n_variables=1,
        class_counts=[2],
        trunk_channels=4,
        ue_channels=3,
        kernel_width=3,
        seed=1,
    )
    model = MspModel(config)
    from loadcast.msp import train_msp

    train_msp(model, train_w, val_w, lr=0.01, batch_size=32, max_epochs=30)
    return model


def test_alpha_zero_training_is_bit_identical_to_plain():
    train_w, val_w, _ = wave_splits(l=200)
    teacher = trained_teacher(train_w, val_w)
    fc_config = ForecasterConfig("linear", 8, 4, 1, seed=7)

    plain = make_forecaster(fc_config)
    train_guided(plain, None, train_w, val_w, GuidanceConfig(alpha=0.0), max_epochs=12)

    guided = make_forecaster(fc_config)
    train_guided(guided, teacher, train_w, val_w, GuidanceConfig(alpha=0.0), max_epochs=12)

    for a, b in zip(plain.params(), guided.params()):
        np.testing.assert_array_equal(a, b)


def test_teacher_parameters_frozen_during_guided_training():
    train_w, val_w, _ = wave_splits(l=200)
    teacher = trained_teacher(train_w, val_w)
    before = [p.tobytes() for p in teacher.params()]
    student = make_forecaster(ForecasterConfig("linear", 8, 4, 1, seed=8))
    train_guided(student, teacher, train_w, val_w, GuidanceConfig(alpha=1.0), max_epochs=10)
    assert [p.tobytes() for p in teacher.params()] == before


def test_teacher_weights_rejects_unknown_mode():
    # batch_size is keyword-only, so a positional third argument cannot pass as one
    train_w, _, _ = wave_splits(l=200)
    teacher = MspModel(MspConfig(lookback=8, horizon=4, n_variables=1, class_counts=[2]))
    with pytest.raises(TypeError):
        teacher_weights(teacher, train_w, "prob")


def test_teacher_weights_shape_and_bounds():
    train_w, val_w, _ = wave_splits(l=200)
    teacher = trained_teacher(train_w, val_w)
    w = teacher_weights(teacher, train_w)
    assert w.shape == (len(train_w), 4, 1)
    assert (w > 0).all() and (w <= 1.0).all()


def test_precomputed_weights_of_the_wrong_shape_fail_before_any_step(monkeypatch):
    from loadcast import train

    def never(*args, **kwargs):
        raise AssertionError("training started before the weights were checked")

    monkeypatch.setattr(train, "train_loop", never)
    train_w, val_w, _ = wave_splits(l=200)
    teacher = MspModel(MspConfig(lookback=8, horizon=4, n_variables=1, class_counts=[2]))
    student = make_forecaster(ForecasterConfig("linear", 8, 4, 1))
    n = len(train_w)
    message = rf"precomputed weights shape \({n}, 3, 1\) does not match targets \({n}, 4, 1\)"
    with pytest.raises(ShapeError, match=message):
        train_guided(student, teacher, train_w, val_w, GuidanceConfig(),
                     precomputed_weights=np.ones((n, 3, 1)))


@pytest.mark.parametrize("precomputed", [False, True])
def test_the_teacher_runs_one_pass_over_the_train_split_or_none(monkeypatch, precomputed):
    """Without precomputed weights the frozen teacher runs once over the
    train split, ceil(n / batch_size) batches without a cache, and never
    again per epoch; with them it does not run at all."""
    train_w, val_w, _ = wave_splits(l=200)
    teacher = MspModel(MspConfig(lookback=8, horizon=4, n_variables=1, class_counts=[2]))
    weights = teacher_weights(teacher, train_w) if precomputed else None
    calls = []
    forward_batch = teacher.forward_batch

    def counted(series, starts, want_cache=False):
        calls.append((series is train_w.series, len(starts), want_cache))
        return forward_batch(series, starts, want_cache=want_cache)

    monkeypatch.setattr(teacher, "forward_batch", counted)
    student = make_forecaster(ForecasterConfig("linear", 8, 4, 1))
    batch_size = 16
    history = train_guided(student, teacher, train_w, val_w, GuidanceConfig(),
                           precomputed_weights=weights, batch_size=batch_size, max_epochs=3)
    assert history.stopped_epoch == 3
    n = len(train_w)
    assert n % batch_size  # ceil(n / batch_size) batches, the last one short
    batches = [min(batch_size, n - start) for start in range(0, n, batch_size)]
    assert calls == ([] if precomputed else [(True, b, False) for b in batches])
