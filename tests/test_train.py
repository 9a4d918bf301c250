"""The shared training loop: which parameters it leaves behind, and
which settings the four trainers above it pass down."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from loadcast import forecaster, guidance, msp, nn, train
from loadcast.errors import ConfigError, NumericError, ShapeError
from loadcast.forecaster import ForecasterConfig, make_forecaster
from loadcast.guidance import GuidanceConfig
from loadcast.msp import MspConfig, MspModel
from loadcast.train import forward_batches, train_loop
from tests.batches import gradients
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


def minus_one(idx, update):
    """A batch of OneBlock's: its gradient is -1."""
    update(0, -np.ones(3))
    return 0.0


def fit(model, val_losses, **kwargs):
    """Train on 4 samples in batches of 2, scoring epoch e with
    val_losses[e - 1]; returns (history, parameters after each epoch)."""
    after_epoch = []
    losses = iter(val_losses)

    def val_fn():
        after_epoch.append(model.w.copy())
        return next(losses)

    history = train_loop(
        model, 4, minus_one, val_fn, lr=0.1, batch_size=2,
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
        train_loop(model, 4, minus_one, lambda: 1.0, lr=lr)
    np.testing.assert_array_equal(model.w, 0.0)


class TwoBlocks(OneBlock):
    def __init__(self):
        self.w, self.v = np.zeros(3), np.zeros(2)

    def params(self):
        return [self.w, self.v]

    def param_names(self):
        return ["w", "v"]


def test_train_loop_rejects_a_block_handed_over_twice_or_not_at_all():
    def twice(idx, update):
        minus_one(idx, update)
        return minus_one(idx, update)

    with pytest.raises(ShapeError, match="gradient of w handed over twice in one batch"):
        train_loop(OneBlock(), 4, twice, lambda: 1.0)
    with pytest.raises(ShapeError, match="batch handed over no gradient of v$"):
        train_loop(TwoBlocks(), 4, minus_one, lambda: 1.0)


def test_a_non_finite_gradient_stops_its_block_after_earlier_blocks_moved():
    model = TwoBlocks()

    def batch_fn(idx, update):
        minus_one(idx, update)
        update(1, np.array([1.0, np.nan]))
        return 0.0

    with pytest.raises(NumericError, match="non-finite gradient in v"):
        train_loop(model, 4, batch_fn, lambda: 1.0, lr=0.1)
    np.testing.assert_allclose(model.w, 0.1)  # handed over first, so it moved
    np.testing.assert_array_equal(model.v, 0.0)


MODELS = {
    "msp": lambda: MspModel(MspConfig(6, 2, 2, [2, 3], trunk_channels=4, ue_channels=3, seed=1)),
    "mlp": lambda: make_forecaster(ForecasterConfig("mlp", 6, 2, 2, hidden=5, seed=1)),
    "linear": lambda: make_forecaster(ForecasterConfig("linear", 6, 2, 2, seed=1)),
}


@pytest.mark.parametrize("kind", list(MODELS))
def test_per_block_updates_equal_one_update_over_all_blocks(kind, monkeypatch):
    """train_loop steps each block when the backward pass hands it over.
    Replaying its batches with every gradient collected first and then
    one nn.adam_step per block gives the same parameters and Adam
    moments, bit for bit: no backward pass reads a parameter after it
    has handed over that parameter's gradient."""
    train_w, _, _ = sine_splits(l=120, lookback=6, horizon=2)
    series, n = train_w.series, len(train_w)
    rng = np.random.default_rng(3)
    if kind == "msp":
        states = np.stack([rng.integers(0, k, size=(n, 2)) for k in (2, 3)], axis=-1)

        def loss(out, idx):
            return msp.msp_loss(out, states[idx], [2, 3])
    else:
        y, weights = train_w.y, rng.uniform(0.2, 1.0, size=train_w.y.shape)

        def loss(out, idx):
            return guidance.guided_loss(out, y[idx], weights[idx], 1.5)

    model, ref = MODELS[kind](), MODELS[kind]()
    batches, adam = [], {}
    adam_step = nn.adam_step

    def recording_adam_step(state, param, grad, name):
        adam[name] = state
        adam_step(state, param, grad, name)

    def batch_fn(idx, update):
        batches.append(idx)
        out, cache = model.forward_batch(series, idx, want_cache=True)
        value, d = loss(out, idx)
        model.backward_batch(cache, d, update)
        return value

    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    # every epoch's validation loss is lower, so the last parameters stay
    train_loop(model, n, batch_fn, lambda: -len(batches), lr=0.01, batch_size=16,
               patience=3, max_epochs=3)
    monkeypatch.undo()
    assert len(batches) == 3 * -(-n // 16)
    names = ref.param_names()
    ref_adam = [nn.init_adam(p, lr=0.01) for p in ref.params()]
    for idx in batches:
        out, cache = ref.forward_batch(series, idx, want_cache=True)
        grads = gradients(ref, cache, loss(out, idx)[1])
        for state, p, g, name in zip(ref_adam, ref.params(), grads, names):
            nn.adam_step(state, p, g, name)
    for name, p, q, state in zip(names, model.params(), ref.params(), ref_adam, strict=True):
        assert p.tobytes() == q.tobytes(), name
        assert adam[name].t == state.t, name
        assert adam[name].m.tobytes() == state.m.tobytes(), name
        assert adam[name].v.tobytes() == state.v.tobytes(), name


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
        self.lookback = 3
        self.n = n

    def __len__(self):
        return self.n


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

    monkeypatch.setattr(train, "train_loop", record)
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
