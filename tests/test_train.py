"""The shared training loop: which parameters it leaves behind."""

import numpy as np
import pytest

from loadcast.errors import NumericError
from loadcast.train import train_loop


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
