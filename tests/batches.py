"""Helpers for the one batch form every model takes:
forward_batch(series, starts), window b being series[starts[b] : starts[b] + L]."""

import numpy as np


def as_series(x):
    """A stacked (B, L, D) batch as (series, starts): its windows laid end
    to end, window b starting at row b * L."""
    b, lookback, d = x.shape
    return x.reshape(b * lookback, d), np.arange(b) * lookback


def windows_at(series, starts, lookback):
    """The stacked (B, L, D) windows that start at the given rows."""
    return np.stack([series[s : s + lookback] for s in starts])
