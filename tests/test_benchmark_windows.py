"""The benchmark cuts its windows through its own copy of the data path
(perfbench/workloads.py::_windows). It must give what
pipeline.prepare_windows gives, bit for bit: a drift between the two
would have the benchmark time and check a data path that loadcast no
longer runs. The benchmark's files are loaded read-only."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from loadcast import pipeline
from loadcast.data import split_60_20_20

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
LOOKBACK, HORIZON = 24, 6


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its frozen dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def test_benchmark_windows_equal_prepare_windows_bit_for_bit(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    workloads._write_household(tmp_path, 3, 400, total=False)
    data, states = tmp_path / "data.csv", tmp_path / "truth.csv"
    train_labels, stats, windows = workloads._windows(data, states, LOOKBACK, HORIZON)

    config = pipeline.RunConfig(
        data_csv=str(data), states_csv=str(states), lookback=LOOKBACK, horizons=[HORIZON]
    )
    frame, profile, want_stats, want = pipeline.prepare_windows(config, [HORIZON])
    assert_same_bits(stats.mean, want_stats.mean, "stats mean")
    assert_same_bits(stats.std, want_stats.std, "stats std")
    assert len(windows) == len(want[HORIZON]) == 3
    for split, got, expected in zip(("train", "validation", "test"), windows, want[HORIZON]):
        assert len(got) > 0, split
        for field in ("series", "x", "y", "s"):
            assert_same_bits(getattr(got, field), getattr(expected, field), f"{split} {field}")
        assert (got.lookback, got.first_origin) == (expected.lookback, expected.first_origin), split
    n_train = split_60_20_20(frame)[0].length
    assert_same_bits(train_labels, profile.labels[:n_train], "train labels")
