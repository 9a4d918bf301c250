"""Metric exactness and improvement-summary tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import metrics
from loadcast.errors import DataError, ShapeError


def test_mae_zero_on_equal():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert metrics.mae(y, y) == 0.0


def test_mae_hand_case():
    yhat = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[0.0, 2.0], [3.0, 2.0]])
    assert metrics.mae(yhat, y) == 0.75


def test_mae_permutation_invariance():
    rng = np.random.default_rng(0)
    yhat = rng.normal(size=12)
    y = rng.normal(size=12)
    perm = rng.permutation(12)
    assert metrics.mae(yhat, y) == pytest.approx(metrics.mae(yhat[perm], y[perm]), abs=1e-15)


def test_mae_shape_mismatch():
    with pytest.raises(ShapeError):
        metrics.mae(np.ones((2, 2)), np.ones((2, 3)))


def test_mape_sym_zero_on_equal_nonzero():
    y = np.array([[1.0, -2.0]])
    assert metrics.mape_sym(y, y) == 0.0


def test_mape_sym_hand_cases():
    assert metrics.mape_sym(np.array([2.0]), np.array([0.0])) == 1.0
    assert metrics.mape_sym(np.array([1.0]), np.array([3.0])) == 0.5


def test_mape_sym_bounded_by_one():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        yhat = rng.normal(scale=10, size=shape)
        y = rng.normal(scale=10, size=shape)
        assert metrics.mape_sym(yhat, y) <= 1.0


def test_mape_sym_all_zero_denominator():
    with pytest.raises(DataError, match="undefined"):
        metrics.mape_sym(np.zeros(3), np.zeros(3))


def test_mape_sym_zero_cells_contribute_nothing():
    # one 0/0 cell alongside a real one: ratio over the real cell only
    yhat = np.array([0.0, 1.0])
    y = np.array([0.0, 3.0])
    assert metrics.mape_sym(yhat, y) == 0.5


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_mae_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=(3, 8))
    assert metrics.mae(a, c) <= metrics.mae(a, b) + metrics.mae(b, c) + 1e-12


def make_report(horizons, mae_vals, mape_vals):
    return metrics.EvalReport(list(horizons), list(mae_vals), list(mape_vals))


def test_percent_improvement_identical_reports():
    r = make_report([1, 6], [0.5, 0.6], [0.9, 1.0])
    imp = metrics.percent_improvement(r, r)
    assert imp.average["mae"] == 0.0 and imp.average["mape_sym"] == 0.0


def test_percent_improvement_tabled_value():
    baseline = make_report([1], [0.520], [1.074])
    treated = make_report([1], [0.352], [0.669])
    imp = metrics.percent_improvement(baseline, treated)
    assert imp.average["mae"] == pytest.approx(32.3, abs=0.05)


def test_percent_improvement_sign_convention():
    baseline = make_report([1], [0.5], [0.9])
    worse = make_report([1], [0.6], [1.0])
    imp = metrics.percent_improvement(baseline, worse)
    assert imp.average["mae"] < 0.0


def test_percent_improvement_zero_baseline():
    with pytest.raises(DataError, match="zero"):
        metrics.percent_improvement(make_report([1], [0.0], [0.5]), make_report([1], [0.1], [0.4]))


def test_percent_improvement_horizon_mismatch():
    with pytest.raises(ShapeError):
        metrics.percent_improvement(
            make_report([1], [0.5], [0.9]), make_report([2], [0.4], [0.8])
        )


def test_report_csv_round_trip(tmp_path):
    report = metrics.EvalReport([1, 6], [0.5, 0.6], [0.9, 1.0], [5.0, 6.0], [0.8, 0.9])
    path = tmp_path / "report.csv"
    metrics.save_report_csv(report, path)
    back = metrics.load_report_csv(path)
    assert back == report


@pytest.mark.parametrize(
    "report, text",
    [(metrics.EvalReport([1, 6], [0.5, 0.1 + 0.2], [0.9, 1e-300], [5.0, 6.0], [-0.0, 0.9]),
      "horizon,mae,mape_sym,mae_raw,mape_sym_raw\n"
      "1,0.5,0.9,5.0,-0.0\n6,0.30000000000000004,1e-300,6.0,0.9\n"),
     (metrics.EvalReport([24], [0.25], [2.5e-05]), "horizon,mae,mape_sym\n24,0.25,2.5e-05\n")],
)
def test_report_csv_writes_the_exact_text(tmp_path, report, text):
    path = tmp_path / "report.csv"
    metrics.save_report_csv(report, path)
    assert path.read_bytes() == text.encode("utf-8")
    assert metrics.load_report_csv(path) == report


@pytest.mark.parametrize(
    "text, message",
    [("horizon,mae,mape_sym\n1,0.5\n", "line 2: expected 3 cells, got 2"),
     ("horizon,mae,mape_sym\n1,0.5,0.9\n6,nan,0.9\n", "line 3: column 'mae': non-finite value 'nan'"),
     ("horizon,mae,mape_sym\n1.5,0.5,0.9\n", "line 2: column 'horizon': not an integer: '1.5'"),
     ("horizon,mae,mape\n1,0.5,0.9\n", "columns ['mae', 'mape'] are not one of"),
     ("horizon,mae,mape_sym,mae_raw\n1,0.5,0.9,5.0\n", "columns ['mae', 'mape_sym', 'mae_raw'] are"),
     ("horizon,mae,mape_sym\n", "no data rows")],
)
def test_malformed_report_csv_is_data_error_naming_it(tmp_path, text, message):
    path = tmp_path / "report.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        metrics.load_report_csv(path)
    assert str(err.value).startswith(f"{path}: {message}"), err.value


def test_comparison_csv_row_count(tmp_path):
    baseline = make_report([1, 6, 12], [0.5, 0.6, 0.7], [0.9, 1.0, 1.1])
    treated = make_report([1, 6, 12], [0.4, 0.55, 0.71], [0.8, 0.95, 1.12])
    imp = metrics.percent_improvement(baseline, treated)
    path = tmp_path / "cmp.csv"
    metrics.save_comparison_csv(baseline, treated, imp, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 + 1  # header + horizons + avg row
    assert lines[-1].startswith("avg,")


def test_comparison_csv_writes_the_exact_text(tmp_path):
    baseline = make_report([1, 6], [0.5, 0.25], [1.0, 0.1 + 0.2])
    treated = make_report([1, 6], [0.25, 0.25], [0.5, 0.3])
    path = tmp_path / "cmp.csv"
    metrics.save_comparison_csv(
        baseline, treated, metrics.percent_improvement(baseline, treated), path
    )
    assert path.read_bytes() == (
        b"horizon,baseline_mae,guided_mae,mae_improvement_pct,"
        b"baseline_mape_sym,guided_mape_sym,mape_sym_improvement_pct\n"
        b"1,0.5,0.25,50.0,1.0,0.5,50.0\n"
        b"6,0.25,0.25,0.0,0.30000000000000004,0.3,1.8503717077085938e-14\n"
        b"avg,0.375,0.25,25.0,0.65,0.4,25.00000000000001\n"
    )
