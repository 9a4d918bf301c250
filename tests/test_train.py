"""The shared training loop: which parameters it leaves behind, and
which settings the four trainers above it pass down."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from loadcast import forecaster, guidance, msp, train
from loadcast.errors import ConfigError, NumericError
from loadcast.forecaster import ForecasterConfig, make_forecaster
from loadcast.guidance import GuidanceConfig
from loadcast.msp import MspConfig, MspModel
from loadcast.train import forward_batches, train_loop
from tests.test_forecaster import sine_splits


class OneBlock:
    """A model with one parameter block; every batch's gradient is -1, so
    each Adam step raises every entry by about lr."""

    def __init__(self):
        self.w = np.zeros(3)

    def params(self):
        return [self.w]

    def param_names(self):
        return ["w"]


def fit(model, val_losses, **kwargs):
    """Train on 4 samples in batches of 2, scoring epoch e with
    val_losses[e - 1]; returns (history, parameters after each epoch)."""
    after_epoch = []
    losses = iter(val_losses)

    def val_fn():
        after_epoch.append(model.w.copy())
        return next(losses)

    history = train_loop(
        model, 4, lambda idx: (0.0, [-np.ones(3)]), val_fn, lr=0.1, batch_size=2,
        patience=len(val_losses), max_epochs=len(val_losses), **kwargs,
    )
    return history, after_epoch


@pytest.mark.parametrize(
    "val_losses, best",
    [([3.0, 1.0, 2.0, 4.0], 2), ([3.0, 2.0, 1.0, 4.0, 5.0], 3), ([1.0, 2.0], 1),
     ([5.0, 4.0, 3.0], 3), ([np.nan, 2.0, np.nan], 2)],
)
def test_train_loop_restores_the_best_epochs_parameters(val_losses, best):
    model = OneBlock()
    history, after_epoch = fit(model, val_losses)
    assert history.best_epoch == best
    assert history.stopped_epoch == len(val_losses)
    np.testing.assert_array_equal(model.w, after_epoch[best - 1])
    assert not np.array_equal(model.w, after_epoch[-1]) or best == len(val_losses)


def test_never_finite_validation_loss_raises_numeric_error():
    model = OneBlock()
    with pytest.raises(NumericError, match="never finite in 3 epoch"):
        fit(model, [np.nan, np.nan, np.nan])
    with pytest.raises(NumericError, match="never finite"):
        fit(OneBlock(), [np.inf])


@pytest.mark.parametrize("lr", [-0.1, 0.0, np.nan, np.inf])
def test_train_loop_rejects_a_step_size_that_is_not_finite_and_positive(lr):
    """-0.1 used to climb the loss, 0 to train nothing, nan and inf to end
    in a NumericError about the gradient."""
    model = OneBlock()
    with pytest.raises(ConfigError, match=f"lr must be finite and > 0, got {lr}"):
        train_loop(model, 4, lambda idx: (0.0, [-np.ones(3)]), lambda: 1.0, lr=lr)
    np.testing.assert_array_equal(model.w, 0.0)


class RowSums:
    """forward_batch returns each window's sum and records the series and
    starts it saw."""

    config = SimpleNamespace(lookback=3, n_variables=2)

    def __init__(self):
        self.batches = []

    def forward_batch(self, series, starts):
        self.batches.append((series, starts))
        return np.array([series[k : k + 3].sum() for k in starts])


class Split:
    """The fields of a WindowSet that forward_batches reads: n windows of
    3 rows and 2 variables, window k starting at row k of series."""

    def __init__(self, n):
        self.series = np.arange((n + 2) * 2, dtype=np.float64).reshape(n + 2, 2)
        self.x = np.zeros((n, 3, 2))

    def __len__(self):
        return len(self.x)


@pytest.mark.parametrize("n, batch_size", [(10, 4), (8, 4), (3, 5), (1, 1), (0, 3)])
def test_forward_batches_covers_every_row_once_in_order(n, batch_size):
    windows = Split(n)
    model = RowSums()
    out = list(forward_batches(model, windows, batch_size))
    assert [k for rows, _ in out for k in range(n)[rows]] == list(range(n))
    tail = [n % batch_size] if n % batch_size else []
    assert [len(range(n)[rows]) for rows, _ in out] == [batch_size] * (n // batch_size) + tail
    for (rows, y), (series, starts) in zip(out, model.batches, strict=True):
        assert series is windows.series  # the split's rows themselves, not a copy
        np.testing.assert_array_equal(starts, range(n)[rows])
        expected = [windows.series[k : k + 3].sum() for k in range(n)[rows]]
        np.testing.assert_array_equal(y, expected)


SETTINGS = {"lr": 0.02, "batch_size": 7, "patience": 3, "max_epochs": 5}
DEFAULTS = {"lr": train.DEFAULT_LR, "batch_size": train.DEFAULT_BATCH,
            "patience": train.DEFAULT_PATIENCE, "max_epochs": train.DEFAULT_MAX_EPOCHS}


@pytest.fixture(scope="module")
def trainer_args():
    """Each trainer and the positional arguments of one call to it."""
    train_w, val_w, _ = sine_splits(l=60, lookback=4, horizon=2)
    teacher = MspModel(MspConfig(4, 2, 2, [2, 2]))
    student = make_forecaster(ForecasterConfig("linear", 4, 2, 2))
    return {
        "train_msp": (msp.train_msp, (teacher, train_w, val_w)),
        "train_guided": (guidance.train_guided,
                         (student, teacher, train_w, val_w, GuidanceConfig())),
        "train_plain": (forecaster.train_plain, (student, train_w, val_w)),
        "train_with_guidance": (forecaster.train_with_guidance,
                                (student, teacher, train_w, val_w, GuidanceConfig())),
    }


@pytest.mark.parametrize(
    "trainer", ["train_msp", "train_guided", "train_plain", "train_with_guidance"]
)
def test_trainers_pass_every_setting_to_train_loop(trainer_args, monkeypatch, trainer):
    """train_loop gets the settings a trainer was given, and its own
    defaults for those it was not; a misspelled setting and a positional
    lr are errors, not a silently ignored or misplaced value."""
    received = []

    def record(*args, **kwargs):
        bound = inspect.signature(train_loop).bind(*args, **kwargs)
        bound.apply_defaults()
        received.append({name: bound.arguments[name] for name in SETTINGS})
        return train.TrainHistory()

    monkeypatch.setattr(msp, "train_loop", record)
    monkeypatch.setattr(guidance, "train_loop", record)
    fn, args = trainer_args[trainer]
    assert all(SETTINGS[name] != DEFAULTS[name] for name in SETTINGS)
    fn(*args, **SETTINGS)
    fn(*args)
    assert received == [SETTINGS, DEFAULTS]
    with pytest.raises(TypeError, match="max_epoch"):
        fn(*args, max_epoch=3)
    with pytest.raises(TypeError):
        fn(*args, 0.01)
    assert len(received) == 2
