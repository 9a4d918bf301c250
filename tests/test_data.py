"""Ingestion, resampling, splitting, normalization, windowing tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import data
from loadcast.errors import DataError, ShapeError
from loadcast.forecaster import ForecasterConfig, make_forecaster
from loadcast.guidance import GuidanceConfig, train_guided
from loadcast.train import stack_inputs, stack_states, stack_targets


def write_csv(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def minute_frame(values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    ts = 60 * np.arange(len(values))
    names = [f"v{i}" for i in range(values.shape[1])]
    return data.SeriesFrame(ts, values, names)


def test_load_csv_well_formed(tmp_path):
    path = write_csv(tmp_path, "timestamp,a,b\n0,1.0,2.0\n60,3.5,4.5\n120,5.0,6.0\n")
    frame = data.load_csv(path)
    assert frame.length == 3 and frame.n_variables == 2
    assert frame.variable_names == ["a", "b"]
    np.testing.assert_array_equal(frame.values[1], [3.5, 4.5])


def test_load_csv_empty_body(tmp_path):
    path = write_csv(tmp_path, "timestamp,a\n")
    with pytest.raises(DataError, match="no data rows"):
        data.load_csv(path)


def test_load_csv_sorts_rows(tmp_path):
    sorted_frame = data.load_csv(write_csv(tmp_path, "timestamp,a\n0,1.0\n60,2.0\n120,3.0\n"))
    shuffled = data.load_csv(
        write_csv(tmp_path, "timestamp,a\n120,3.0\n0,1.0\n60,2.0\n", name="shuffled.csv")
    )
    np.testing.assert_array_equal(sorted_frame.timestamps, shuffled.timestamps)
    np.testing.assert_array_equal(sorted_frame.values, shuffled.values)


def test_load_csv_reports_bad_cell_position(tmp_path):
    path = write_csv(tmp_path, "timestamp,a,b\n0,1.0,2.0\n60,oops,4.0\n")
    with pytest.raises(DataError, match=r"line 3: column 'a'"):
        data.load_csv(path)


def test_load_csv_rejects_duplicate_timestamp(tmp_path):
    path = write_csv(tmp_path, "timestamp,a\n0,1.0\n0,2.0\n")
    with pytest.raises(DataError, match="duplicate timestamp 0"):
        data.load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_load_csv_rejects_non_finite_cell(tmp_path, cell):
    path = write_csv(tmp_path, f"timestamp,a,b\n0,1.0,2.0\n60,3.0,{cell}\n")
    with pytest.raises(DataError, match=f"line 3: column 'b': non-finite value '{cell}'"):
        data.load_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [("60,3.0,nan\n120,oops,1.0\n", "line 3: column 'b': non-finite value 'nan'"),
     ("60,1e999,1.0\n120,1.0\n", "line 3: column 'a': non-finite value '1e999'"),
     ("9223372036854775808,1.0,1.0\n120,1.0,inf\n", "line 3: column 'timestamp': out of range: '9223372036854775808'"),
     ("60,1.0,1.0\n120,1.0,1.0,1.0\n180,nan,1.0\n", "line 4: expected 3 cells, got 4"),
     ("60,1e308,1e308\n120,,1.0\n", "line 4: column 'a': empty cell")],
)
def test_load_csv_reports_the_first_fault_in_file_order(tmp_path, body, message):
    """Values are checked for all rows at once, after parsing; a fault found
    then is still reported after any earlier one."""
    path = write_csv(tmp_path, "timestamp,a,b\n0,1.0,2.0\n" + body)
    with pytest.raises(DataError) as err:
        data.load_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_csv_rejects_empty_cell(tmp_path):
    path = write_csv(tmp_path, "timestamp,a,b\n0,1.0,\n")
    with pytest.raises(DataError, match="empty cell"):
        data.load_csv(path)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    frame = minute_frame(rng.normal(size=(7, 3)))
    path = tmp_path / "rt.csv"
    data.save_csv(frame, path)
    back = data.load_csv(path)
    np.testing.assert_array_equal(back.values, frame.values)
    np.testing.assert_array_equal(back.timestamps, frame.timestamps)


def test_save_csv_writes_the_exact_text(tmp_path):
    """Float cells are the shortest repr that reads back to the same bits."""
    values = np.array([[0.1, -0.0], [1e-300, 2.5]])
    frame = data.SeriesFrame(np.array([1672531200, 1672534800]), values, ["a", "b"])
    path = tmp_path / "f.csv"
    data.save_csv(frame, path)
    assert path.read_bytes() == b"timestamp,a,b\n1672531200,0.1,-0.0\n1672534800,1e-300,2.5\n"


def test_downsample_constant_hour():
    frame = minute_frame(np.ones(60))
    out = data.align_and_downsample(frame, 3600)
    assert out.length == 1
    np.testing.assert_array_equal(out.values, [[1.0]])


def test_downsample_mean_of_ramp():
    frame = minute_frame(np.arange(60.0))
    out = data.align_and_downsample(frame, 3600)
    np.testing.assert_allclose(out.values, [[29.5]])


def test_downsample_drops_partial_trailing_bucket():
    frame = minute_frame(np.arange(61.0))
    out = data.align_and_downsample(frame, 3600)
    assert out.length == 1
    np.testing.assert_allclose(out.values, [[29.5]])


def test_downsample_is_mean_preserving_per_bucket():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(240, 2))
    frame = minute_frame(values)
    out = data.align_and_downsample(frame, 3600)
    assert out.length == 4
    for b in range(4):
        np.testing.assert_allclose(
            out.values[b], values[60 * b : 60 * (b + 1)].mean(axis=0), atol=1e-12
        )


def test_downsample_rejects_finer_period():
    frame = minute_frame(np.ones(10))
    with pytest.raises(DataError, match="finer than the native interval"):
        data.align_and_downsample(frame, 30)


def test_downsample_rejects_empty_frame():
    frame = data.SeriesFrame(np.array([], dtype=np.int64), np.zeros((0, 1)), ["x"])
    with pytest.raises(DataError, match="empty"):
        data.align_and_downsample(frame, 3600)


WRAPPING = [-9 * 10**18, -9 * 10**18 + 3600, 9 * 10**18]  # the last step wraps int64


def test_frame_accepts_increasing_timestamps_whose_steps_wrap_int64():
    frame = data.SeriesFrame(np.array(WRAPPING, dtype=np.int64), np.ones((3, 1)), ["x"])
    assert frame.length == 3
    with pytest.raises(DataError, match="strictly increasing"):
        data.SeriesFrame(np.array(WRAPPING[::-1], dtype=np.int64), np.ones((3, 1)), ["x"])


@pytest.mark.parametrize(
    "timestamps, period",
    [(WRAPPING, 3600), ([-(2**63), 0], 2**62), ([-(2**63), 2**63 - 1], 2**63 - 1)],
)
def test_downsample_rejects_a_span_that_wraps_int64(timestamps, period):
    ts = np.array(timestamps, dtype=np.int64)
    frame = data.SeriesFrame(ts, np.ones((ts.size, 1)), ["x"])
    span = timestamps[-1] - timestamps[0]
    with pytest.raises(DataError, match=f"timestamps span {span}s, more than the {2**63 - 1}s"):
        data.align_and_downsample(frame, period)


def test_downsample_takes_the_longest_span_int64_holds():
    ts = np.array([-(2**63), -1], dtype=np.int64)  # a span of 2**63 - 1 s
    out = data.align_and_downsample(data.SeriesFrame(ts, [[1.0], [2.0]], ["x"]), 2**63 - 1)
    np.testing.assert_array_equal(out.timestamps, ts)
    np.testing.assert_array_equal(out.values, [[1.0], [2.0]])


@pytest.mark.parametrize(
    "minutes, first_empty",
    [
        ([0, 1, 120, 121, 180], 1),  # between readings
        ([0, 1, 60, 61, 62, 200], 2),  # before the dropped partial bucket only
        ([0, 60, 150_000_000_000_000_000], 2),  # counting every bucket needs 17.8 PiB
        ([0, 30, 59, 150_000_000_000_000_000], 1),  # that gap, its last bucket dropped
    ],
)
def test_downsample_names_the_first_empty_bucket(minutes, first_empty):
    ts = 60 * np.asarray(minutes, dtype=np.int64)
    frame = data.SeriesFrame(ts, np.ones((ts.size, 1)), ["x"])
    message = f"bucket {first_empty} \\(starting {3600 * first_empty}\\) has no readings"
    with pytest.raises(DataError, match=message):
        data.align_and_downsample(frame, 3600)


def test_split_floor_arithmetic():
    train, val, test = data.split_60_20_20(minute_frame(np.arange(10.0)))
    assert (train.length, val.length, test.length) == (6, 2, 2)
    train, val, test = data.split_60_20_20(minute_frame(np.arange(5.0)))
    assert (train.length, val.length, test.length) == (3, 1, 1)


def test_split_is_a_partition():
    frame = minute_frame(np.arange(13.0))
    train, val, test = data.split_60_20_20(frame)
    glued = np.concatenate([train.values, val.values, test.values])
    np.testing.assert_array_equal(glued, frame.values)
    assert train.timestamps.max() < val.timestamps.min() < test.timestamps.min()


def test_split_too_short():
    with pytest.raises(DataError, match="at least 5"):
        data.split_60_20_20(minute_frame(np.arange(4.0)))


def test_zscore_constant_variable_maps_to_zero():
    frame = minute_frame(np.full(6, 3.25))
    stats = data.zscore_fit(frame)
    out = data.zscore_apply(frame, stats)
    np.testing.assert_array_equal(out.values, np.zeros((6, 1)))


def test_zscore_hand_case():
    frame = minute_frame(np.array([0.0, 2.0]))
    stats = data.zscore_fit(frame)
    assert stats.mean[0] == 1.0 and stats.std[0] == 1.0
    out = data.zscore_apply(frame, stats)
    np.testing.assert_array_equal(out.values[:, 0], [-1.0, 1.0])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_zscore_round_trip(seed):
    rng = np.random.default_rng(seed)
    frame = minute_frame(rng.normal(scale=rng.uniform(0.1, 50), size=(20, 3)))
    stats = data.zscore_fit(frame)
    back = data.zscore_invert(data.zscore_apply(frame, stats), stats)
    np.testing.assert_allclose(back.values, frame.values, atol=1e-9)


def test_zscore_dimension_mismatch():
    stats = data.zscore_fit(minute_frame(np.ones((6, 1))))
    with pytest.raises(ShapeError):
        data.zscore_apply(minute_frame(np.ones((6, 2))), stats)


def zero_labels(frame):
    return np.zeros_like(frame.values, dtype=np.int64)


def test_sliding_windows_count_and_content():
    frame = minute_frame(np.arange(5.0))
    samples = data.sliding_windows(frame, zero_labels(frame), 2, 1)
    assert len(samples) == 3
    np.testing.assert_array_equal(samples[0].x[:, 0], [0.0, 1.0])
    np.testing.assert_array_equal(samples[0].y[:, 0], [2.0])
    assert samples[0].origin == 2


def test_sliding_windows_boundary_single_sample():
    frame = minute_frame(np.arange(6.0))
    samples = data.sliding_windows(frame, zero_labels(frame), 4, 2)
    assert len(samples) == 1


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_sliding_windows_count_formula(lookback, horizon, extra):
    l = lookback + horizon + extra
    frame = minute_frame(np.arange(float(l)))
    samples = data.sliding_windows(frame, zero_labels(frame), lookback, horizon)
    assert len(samples) == l - lookback - horizon + 1


def test_sliding_windows_too_short_names_minimum():
    frame = minute_frame(np.arange(4.0))
    with pytest.raises(DataError, match="L\\+H = 5"):
        data.sliding_windows(frame, zero_labels(frame), 3, 2)


def test_a_window_set_shorter_than_its_lookback_names_rows_and_lookback():
    series = np.zeros((7, 2))
    with pytest.raises(ShapeError, match="a series of 7 rows holds no window of lookback 8"):
        data.WindowSet(series, 8, np.zeros((0, 3, 2)), np.zeros((0, 3, 2), int), 0)
    one = data.WindowSet(series, 7, np.zeros((1, 3, 2)), np.zeros((1, 3, 2), int), 0)
    assert len(one) == 1  # a series of exactly lookback rows holds one window


def per_window_slices(values, labels, lookback, horizon):
    """The windows as separate slices, (x, y, s, origin) each: the reference."""
    out = []
    for k in range(len(values) - lookback - horizon + 1):
        t = k + lookback
        out.append((values[k:t], values[t : t + horizon], labels[t : t + horizon], t))
    return out


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for sample, (x, y, s, origin) in zip(got, want):
        assert sample.x.tobytes() == x.tobytes() and sample.x.shape == x.shape
        assert sample.y.tobytes() == y.tobytes() and sample.y.shape == y.shape
        assert sample.s.tobytes() == s.tobytes() and sample.s.dtype == s.dtype
        assert sample.origin == origin


def assert_same_batch(windows, want):
    for stack, field in ((stack_inputs, 0), (stack_targets, 1), (stack_states, 2)):
        expected = np.stack([w[field] for w in want])
        got = stack(windows)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.fixture
def window_case():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(70, 3))
    labels = rng.integers(0, 5, size=(70, 3))
    windows = data.sliding_windows(minute_frame(values), labels, 9, 4)
    return windows, per_window_slices(values, labels, 9, 4)


def test_window_items_equal_per_window_slices(window_case):
    windows, want = window_case
    n = len(want)
    assert_same_windows(list(windows), want)
    for k in (0, 1, n - 1, -1, -n, 17):
        assert_same_windows([windows[k]], [want[k]])
        assert_same_windows([windows[np.int64(k)]], [want[k]])
    for k in (n, n + 3, -n - 1):
        with pytest.raises(IndexError):
            windows[k]
    with pytest.raises(TypeError):  # a split's arrays are sliced, not the WindowSet
        windows[3:9]


def test_window_batches_equal_per_window_slices(window_case):
    windows, want = window_case
    # the lookback rows, each window's lookback starting one row after the last
    assert windows.series.shape == (len(want) + 8, 3)
    for k, (x, *_rest) in enumerate(want):
        assert windows.series[k : k + 9].tobytes() == x.tobytes()
    rng = np.random.default_rng(0)
    for stack, field in ((stack_inputs, 0), (stack_targets, 1), (stack_states, 2)):
        full = stack(windows)
        for idx in (rng.permutation(len(want))[:16], np.array([0, len(want) - 1, 0])):
            expected = np.stack([want[i][field] for i in idx])
            batch = full[idx]
            assert batch.flags.c_contiguous and batch.tobytes() == expected.tobytes()
    assert_same_batch(windows, want)


def test_windows_are_read_only(window_case):
    windows, _ = window_case
    first = windows[0]
    views = [stack(windows) for stack in (stack_inputs, stack_targets, stack_states)]
    views += [first.x, first.y, first.s, windows.series]
    for view in views:
        with pytest.raises(ValueError, match="read-only"):
            view[...] = 0


def test_windows_for_cuts_every_horizon_of_the_z_scored_splits():
    """windows_for is split 60/20/20, z-score with the train split's
    statistics, and sliding_windows per split and horizon, bit for bit;
    its windows know their lookback."""
    from loadcast.labeling import StateProfile
    from loadcast.pipeline import windows_for

    rng = np.random.default_rng(4)
    frame = minute_frame(rng.normal(loc=3.0, scale=2.0, size=(90, 2)))
    labels = rng.integers(0, 3, size=(90, 2))
    stats, windows = windows_for(frame, StateProfile(labels, [3, 3]), 7, [2, 5])
    parts = data.split_60_20_20(frame)
    want_stats = data.zscore_fit(parts[0])
    assert stats.mean.tobytes() == want_stats.mean.tobytes()
    assert stats.std.tobytes() == want_stats.std.tobytes()
    bounds = np.cumsum([0] + [part.length for part in parts])
    assert sorted(windows) == [2, 5]
    for horizon, splits in windows.items():
        for part, lo, hi, got in zip(parts, bounds[:-1], bounds[1:], splits, strict=True):
            want = data.sliding_windows(
                data.zscore_apply(part, want_stats), labels[lo:hi], 7, horizon
            )
            assert got.lookback == 7 and got.first_origin == want.first_origin
            for a, b in ((got.series, want.series), (got.y, want.y), (got.s, want.s)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
    _, unlabeled = windows_for(frame, None, 7, [2])
    assert all((split.s == 0).all() for split in unlabeled[2])


def test_windows_for_names_the_stage_then_the_source():
    from loadcast.pipeline import windows_for

    frame = minute_frame(np.arange(30.0))
    with pytest.raises(DataError, match=r"^\[stage windows H=4\] data\.csv: series length 6 is below"):
        windows_for(frame, None, 3, [1, 4], source="data.csv")
    with pytest.raises(DataError, match=r"^\[stage windows H=4\] series length 6 is below"):
        windows_for(frame, None, 3, [1, 4])
    with pytest.raises(DataError, match=r"^\[stage split\] x\.csv: need at least 5 rows"):
        windows_for(minute_frame(np.arange(4.0)), None, 1, [1], source="x.csv")


def test_train_guided_does_not_copy_the_windows():
    lookback, n_variables, n_train = 256, 8, 1300
    stacked = n_train * lookback * n_variables * 8
    assert stacked >= 20e6
    rng = np.random.default_rng(0)

    def windows(n):
        shape = (n + lookback + 1, n_variables)
        frame = minute_frame(rng.normal(size=shape))
        return data.sliding_windows(frame, np.zeros(shape, dtype=np.int64), lookback, 2)

    train, val = windows(n_train), windows(40)
    model = make_forecaster(ForecasterConfig("linear", lookback, 2, n_variables))
    tracemalloc.start()
    try:
        train_guided(model, None, train, val, GuidanceConfig(alpha=0.0), max_epochs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacked / 2, f"peak {peak / 1e6:.1f} MB, stacked inputs {stacked / 1e6:.1f} MB"
