"""Helpers for the one batch form every model takes:
forward_batch(series, starts), window b being series[starts[b] : starts[b] + L],
and for reading the gradients that backward_batch hands over."""

import numpy as np


def as_series(x):
    """A stacked (B, L, D) batch as (series, starts): its windows laid end
    to end, window b starting at row b * L."""
    b, lookback, d = x.shape
    return x.reshape(b * lookback, d), np.arange(b) * lookback


def windows_at(series, starts, lookback):
    """The stacked (B, L, D) windows that start at the given rows."""
    return np.stack([series[s : s + lookback] for s in starts])


def gradients(model, cache, d):
    """Every gradient model.backward_batch(cache, d, update) hands over,
    copied (a block may sit in a buffer reused for the next one), in
    params() order; each block must come exactly once."""
    grads = [None] * len(model.params())

    def keep(i, grad):
        assert grads[i] is None, f"block {i} handed over twice"
        grads[i] = grad.copy()

    model.backward_batch(cache, d, keep)
    missing = [name for name, g in zip(model.param_names(), grads) if g is None]
    assert not missing, f"no gradient handed over for {missing}"
    return grads
