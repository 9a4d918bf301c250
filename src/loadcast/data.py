"""CSV tables (read_table and write_table: every CSV loadcast reads or
writes), load-series ingestion, resampling, splitting, normalization, windowing.

A load series is a table keyed by ``timestamp`` (integer epoch seconds)
with float values. Rows with any empty cell are rejected outright; silent
imputation would corrupt downstream state labeling.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ShapeError, reading


@dataclass
class SeriesFrame:
    """A timestamped multivariate load series.

    timestamps: strictly increasing epoch seconds, shape (l,).
    values: float64 matrix, shape (l, D).
    variable_names: D column names.
    """

    timestamps: np.ndarray
    values: np.ndarray
    variable_names: list[str]

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"values must be 2-D, got shape {self.values.shape}")
        if len(self.timestamps) != self.values.shape[0]:
            raise ShapeError(
                f"{len(self.timestamps)} timestamps but {self.values.shape[0]} value rows"
            )
        if self.values.shape[1] != len(self.variable_names):
            raise ShapeError(
                f"{len(self.variable_names)} names but {self.values.shape[1]} value columns"
            )
        # compared, not subtracted: a difference of two int64 timestamps can wrap
        if not (self.timestamps[1:] > self.timestamps[:-1]).all():
            raise DataError("timestamps must be strictly increasing")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]


@dataclass
class NormStats:
    """Per-variable mean and std fitted on the training split.

    Stds below 1e-8 are stored clamped to 1e-8 so constant variables
    normalize to zero instead of dividing by zero.
    """

    mean: np.ndarray
    std: np.ndarray

    EPS = 1e-8


@dataclass
class WindowSample:
    """One training instance cut from a frame.

    x: lookback values, (L, D). y: target values, (H, D).
    s: target state labels, (H, D) ints. origin: the index t such that
    x covers rows [t-L, t) and y covers [t, t+H).
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    origin: int


class WindowSet(Sequence[WindowSample]):
    """Every (lookback, horizon) window of one split, one step apart.

    series (n + L - 1, D) holds the split's rows that the lookbacks cover,
    and window k's lookback is series[k : k + L], so a batch's window
    indices are also its starts: every model takes a batch as
    forward_batch(series, starts) (see window_batch). x (n, L, D),
    y (n, H, D) and s (n, H, D) are read-only views of the split's values
    and labels, one sliding_window_view per field, so no window is copied
    and a stray write raises; lookback is what check_split compares
    with a model's. Window k is x[k], y[k], s[k] with origin
    first_origin + k. A WindowSample is made only on item access, which
    Sequence's iteration goes through. A pass over the split hands the
    model series and slices y and s (train.forward_batches), not the set.
    """

    __slots__ = ("series", "lookback", "x", "y", "s", "first_origin")

    def __init__(
        self, series: np.ndarray, lookback: int, y: np.ndarray, s: np.ndarray, first_origin: int
    ):
        if series.shape[0] < lookback:
            raise ShapeError(
                f"a series of {series.shape[0]} rows holds no window of lookback {lookback}"
            )
        self.series = series
        self.lookback = lookback
        self.x = _runs(series, lookback)
        self.y = y
        self.s = s
        self.first_origin = first_origin

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, key):
        k = operator.index(key)
        n = len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"window index {key} out of range for {n} windows")
        return WindowSample(self.x[k], self.y[k], self.s[k], self.first_origin + k)


def check_split(windows: WindowSet, lookback: int, n_variables: int) -> None:
    """A model of this lookback must take the split's windows: a batch of
    series rows and window starts cannot show their length. The variable
    count is checked on every batch (check_window_starts)."""
    if windows.lookback != lookback:
        shape = (len(windows), windows.lookback, windows.series.shape[1])
        raise ShapeError(f"input shape {shape} does not match (batch, {lookback}, {n_variables})")


def check_window_starts(
    series: np.ndarray, starts: np.ndarray, lookback: int, n_variables: int
) -> None:
    """A model's series input must be an (n, n_variables) array, and starts
    a nonempty 1-D integer array of rows at which lookback rows begin."""
    if series.ndim != 2 or series.shape[1] != n_variables:
        raise ShapeError(f"series shape {series.shape} does not match (rows, {n_variables})")
    if starts.ndim != 1 or not np.issubdtype(starts.dtype, np.integer):
        raise ShapeError(
            f"window starts must be a 1-D integer array, got {starts.dtype} {starts.shape}"
        )
    if starts.size == 0:
        raise ShapeError("the batch holds no windows")
    last = series.shape[0] - lookback
    if starts.min() < 0 or starts.max() > last:
        bad = starts[(starts < 0) | (starts > last)][0]
        raise ShapeError(
            f"window start {bad} outside [0, {last}] "
            f"for {series.shape[0]} rows and lookback {lookback}"
        )


def window_batch(series: np.ndarray, starts, lookback: int, n_variables: int) -> np.ndarray:
    """The (B, L, D) windows series[starts[b] : starts[b] + L] of a batch,
    gathered into one array after check_window_starts."""
    starts = np.asarray(starts)
    check_window_starts(series, starts, lookback, n_variables)
    return _runs(series, lookback)[starts]


def load_csv(path: str | Path) -> SeriesFrame:
    """Read a load-series table (see read_table) into a SeriesFrame, sorting
    rows by timestamp; a timestamp may appear only once."""
    timestamps, values, names = read_table(path, "timestamp", float)
    order = np.argsort(timestamps, kind="stable")
    timestamps, values = timestamps[order], values[order]
    dupes = np.flatnonzero(timestamps[1:] == timestamps[:-1])
    if dupes.size:
        raise DataError(f"{path}: duplicate timestamp {timestamps[dupes[0]]}")
    return SeriesFrame(timestamps, values, names)


def read_table(path: str | Path, key: str, parse: Callable) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The key column, body and column names of a `key,<names>` CSV table:
    a header that starts with key and names a column or more, then a row or
    more of one cell per header cell, the key an int64 and each other cell
    nonempty and read by parse (int or float) into an int64 or a finite
    float. The first fault in file order raises DataError naming its line
    and column (and, as every failure, the file). A first pass parses each
    row whole and checks all values at once; only a table that fails it is
    read again, cell by cell (_check_row), to name its first fault."""
    with reading(path), Path(path).open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError("empty file")
        if header[:1] != [key]:
            raise DataError(f"header must start with {key!r}, got {header[:1]}")
        if len(header) == 1:
            raise DataError("no variable columns in header")
        keys, values = [], []
        try:
            for row in reader:
                if len(row) != len(header):
                    raise ValueError
                keys.append(int(row[0]))
                values += map(parse, row[1:])
            if not keys:
                raise DataError("no data rows")
            dtype = np.float64 if parse is float else np.int64  # an int64 array raises OverflowError past it
            keys, body = np.asarray(keys, np.int64), np.asarray(values, dtype).reshape(len(keys), -1)
            if not np.isfinite(body).all():
                raise ValueError
        except (ValueError, OverflowError, csv.Error):
            f.seek(0)
            next(reader)
            for lineno, row in enumerate(reader, start=2):
                _check_row(lineno, row, header, parse)
            raise  # the rescan found no fault: report this failure as it is
    return keys, body, header[1:]


def _check_row(lineno: int, row: list[str], header: list[str], parse: Callable) -> None:
    """Raise DataError naming the first faulty cell of a table row, if any."""
    if len(row) != len(header):
        raise DataError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
    for i, (column, cell) in enumerate(zip(header, row)):
        kind = parse if i else int
        where = f"line {lineno}: column {column!r}"
        if i and cell == "":
            raise DataError(f"{where}: empty cell")
        try:
            value = kind(cell)
        except ValueError:
            raise DataError(f"{where}: not {'a number' if kind is float else 'an integer'}: {cell!r}") from None
        if kind is int and not -(2**63) <= value < 2**63:
            raise DataError(f"{where}: out of range: {cell!r}")
        if kind is float and not math.isfinite(value):
            raise DataError(f"{where}: non-finite value {cell!r}")


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a CSV table: the header, then each row of already formatted cells."""
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def save_csv(frame: SeriesFrame, path: str | Path) -> None:
    """Write a frame as a load-series table; float cells use shortest round-trip repr."""
    rows = zip(frame.timestamps.tolist(), frame.values.tolist())
    write_table(path, ["timestamp", *frame.variable_names], ([str(t), *map(repr, r)] for t, r in rows))


def align_and_downsample(frame: SeriesFrame, period_seconds: int = 3600) -> SeriesFrame:
    """Average values into fixed-period buckets anchored at the first timestamp.

    A trailing bucket that the observed range does not fully cover is
    dropped. The native sampling interval is taken as the smallest
    timestamp difference.
    """
    if frame.length == 0:
        raise DataError("cannot downsample an empty frame")
    t0 = int(frame.timestamps[0])
    span = int(frame.timestamps[-1]) - t0
    if span >= 2**63:  # timestamps - t0 would wrap int64
        raise DataError(f"timestamps span {span}s, more than the {2**63 - 1}s an int64 holds")
    if frame.length == 1:
        native = period_seconds
    else:
        native = int(np.diff(frame.timestamps).min())
    if period_seconds < native:
        raise DataError(
            f"period {period_seconds}s is finer than the native interval {native}s"
        )
    span_end = int(frame.timestamps[-1]) + native
    n_buckets = (span_end - t0) // period_seconds
    if n_buckets == 0:
        raise DataError(
            f"series spans {span_end - t0}s, shorter than one {period_seconds}s bucket"
        )
    bucket = (frame.timestamps - t0) // period_seconds
    keep = bucket < n_buckets
    idx = bucket[keep]
    # the sorted bucket ids start at 0: the first id that a step of more than
    # 1 skips is the first empty bucket, found before n_buckets counts exist
    gaps = np.flatnonzero(np.diff(idx, append=n_buckets) > 1)
    if gaps.size:
        empty = int(idx[gaps[0]]) + 1
        raise DataError(f"bucket {empty} (starting {t0 + empty * period_seconds}) has no readings")
    counts = np.bincount(idx, minlength=n_buckets)
    sums = np.zeros((n_buckets, frame.n_variables))
    np.add.at(sums, idx, frame.values[keep])
    means = sums / counts[:, None]
    new_ts = t0 + period_seconds * np.arange(n_buckets, dtype=np.int64)
    return SeriesFrame(new_ts, means, list(frame.variable_names))


def split_60_20_20(frame: SeriesFrame) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Chronological 60/20/20 split at floor(0.6*l) and floor(0.8*l)."""
    l = frame.length
    if l < 5:
        raise DataError(f"need at least 5 rows to split, got {l}")
    i1 = (6 * l) // 10
    i2 = (8 * l) // 10
    parts = []
    for a, b in ((0, i1), (i1, i2), (i2, l)):
        parts.append(SeriesFrame(frame.timestamps[a:b], frame.values[a:b], list(frame.variable_names)))
    return parts[0], parts[1], parts[2]


def zscore_fit(train: SeriesFrame) -> NormStats:
    """Per-variable mean/std from the training split only."""
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    return NormStats(mean, np.maximum(std, NormStats.EPS))


def _check_stats(frame: SeriesFrame, stats: NormStats) -> None:
    if stats.mean.shape != (frame.n_variables,):
        raise ShapeError(
            f"stats cover {stats.mean.shape[0]} variables but frame has {frame.n_variables}"
        )


def zscore_apply(frame: SeriesFrame, stats: NormStats) -> SeriesFrame:
    _check_stats(frame, stats)
    return SeriesFrame(
        frame.timestamps, (frame.values - stats.mean) / stats.std, list(frame.variable_names)
    )


def zscore_invert(frame: SeriesFrame, stats: NormStats) -> SeriesFrame:
    _check_stats(frame, stats)
    return SeriesFrame(
        frame.timestamps, frame.values * stats.std + stats.mean, list(frame.variable_names)
    )


def _runs(a: np.ndarray, width: int) -> np.ndarray:
    """Read-only (l - width + 1, width, D) view of every width-row run of a (l, D)."""
    return sliding_window_view(a, width, axis=0).transpose(0, 2, 1)


def sliding_windows(frame: SeriesFrame, labels: np.ndarray, lookback: int, horizon: int) -> WindowSet:
    """Cut every (lookback, horizon) sample from the frame, one step apart.

    labels is the (l, D) int matrix of state labels aligned with the
    frame; yields exactly l - lookback - horizon + 1 samples, as views
    of the frame's values and the labels (see WindowSet).
    """
    l = frame.length
    if lookback < 1 or horizon < 1:
        raise ShapeError(f"lookback and horizon must be >= 1, got L={lookback}, H={horizon}")
    if labels.shape != frame.values.shape:
        raise ShapeError(
            f"state labels shape {labels.shape} does not match values {frame.values.shape}"
        )
    if l < lookback + horizon:
        raise DataError(
            f"series length {l} is below the minimum L+H = {lookback + horizon}"
        )
    series = frame.values[: l - horizon]
    series.flags.writeable = False
    return WindowSet(
        series,
        lookback,
        _runs(frame.values[lookback:], horizon),
        _runs(labels[lookback:], horizon),
        first_origin=lookback,
    )
