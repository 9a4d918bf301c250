"""Forecast evaluation: MAE, symmetric MAPE, and improvement summaries.

Both metrics are computed on z-score normalized data in the standard
pipeline; raw-scale values can be carried alongside for user datasets.
The symmetric MAPE is a single global ratio sum|err| / sum(|yhat|+|y|),
bounded in [0, 1] by the triangle inequality. A report CSV is a table
keyed by horizon, read by data.read_table; reports and comparisons are
written by data.write_table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import read_table, write_table
from .errors import DataError, ShapeError


def checked_pair(yhat, y) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and targets as float64 arrays of one shape."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ShapeError(f"prediction shape {yhat.shape} does not match target {y.shape}")
    return yhat, y


def mae(yhat: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute error over all (step, variable) entries."""
    yhat, y = checked_pair(yhat, y)
    return float(np.abs(yhat - y).mean())


def mape_sym(yhat: np.ndarray, y: np.ndarray) -> float:
    """Symmetric MAPE: sum|err| / sum(|yhat| + |y|), in [0, 1].

    Entries where |yhat| + |y| = 0 contribute zero to both sums; if
    every entry is such, the ratio is undefined and raises.
    """
    yhat, y = checked_pair(yhat, y)
    denom = float((np.abs(yhat) + np.abs(y)).sum())
    if denom == 0.0:
        raise DataError("symmetric MAPE undefined: every |yhat| + |y| is zero")
    return float(np.abs(yhat - y).sum() / denom)


@dataclass
class EvalReport:
    """Per-horizon metrics for one model on one test split."""

    horizons: list[int]
    mae: list[float]
    mape_sym: list[float]
    mae_raw: list[float] = field(default_factory=list)
    mape_sym_raw: list[float] = field(default_factory=list)

    @property
    def avg_mae(self) -> float:
        return float(np.mean(self.mae))

    @property
    def avg_mape_sym(self) -> float:
        return float(np.mean(self.mape_sym))


@dataclass
class ImprovementReport:
    """Percent improvement of a treated report over a baseline."""

    horizons: list[int]
    per_horizon: dict[str, list[float]]
    average: dict[str, float]


def percent_improvement(baseline: EvalReport, treated: EvalReport) -> ImprovementReport:
    """100 * (baseline - treated) / baseline per metric and horizon,
    with per-metric averages over horizons. Positive means the treated
    model is better; any zero baseline value is an error."""
    if baseline.horizons != treated.horizons:
        raise ShapeError(
            f"horizon sets differ: {baseline.horizons} vs {treated.horizons}"
        )
    per_horizon: dict[str, list[float]] = {}
    average: dict[str, float] = {}
    for name in ("mae", "mape_sym"):
        base = np.asarray(getattr(baseline, name), dtype=np.float64)
        treat = np.asarray(getattr(treated, name), dtype=np.float64)
        if (base == 0.0).any():
            raise DataError(f"baseline {name} contains a zero; improvement undefined")
        imp = 100.0 * (base - treat) / base
        per_horizon[name] = [float(v) for v in imp]
        average[name] = float(imp.mean())
    return ImprovementReport(list(baseline.horizons), per_horizon, average)


# the columns after horizon of the two tables save_report_csv writes: without and with raw scale
REPORT_COLUMNS = (["mae", "mape_sym"], ["mae", "mape_sym", "mae_raw", "mape_sym_raw"])


def save_report_csv(report: EvalReport, path: str | Path) -> None:
    """A report table: one row per horizon; raw-scale columns included when present."""
    columns = REPORT_COLUMNS[bool(report.mae_raw)]
    rows = zip(report.horizons, *(getattr(report, name) for name in columns))
    write_table(path, ["horizon", *columns], ([str(h), *map(repr, values)] for h, *values in rows))


def load_report_csv(path: str | Path) -> EvalReport:
    """Read a report table whose columns are one of REPORT_COLUMNS."""
    horizons, body, columns = read_table(path, "horizon", float)
    if columns not in REPORT_COLUMNS:
        raise DataError(f"{path}: columns {columns} are not one of {list(REPORT_COLUMNS)}")
    return EvalReport(horizons.tolist(), *body.T.tolist())


def save_comparison_csv(
    baseline: EvalReport, treated: EvalReport, improvement: ImprovementReport, path: str | Path
) -> None:
    """Side-by-side table with per-horizon improvements and an avg row."""
    per, avg = improvement.per_horizon, improvement.average
    rows = [
        [h, baseline.mae[i], treated.mae[i], per["mae"][i],
         baseline.mape_sym[i], treated.mape_sym[i], per["mape_sym"][i]]
        for i, h in enumerate(improvement.horizons)
    ]
    rows.append(["avg", baseline.avg_mae, treated.avg_mae, avg["mae"],
                 baseline.avg_mape_sym, treated.avg_mape_sym, avg["mape_sym"]])
    header = ["horizon", "baseline_mae", "guided_mae", "mae_improvement_pct",
              "baseline_mape_sym", "guided_mape_sym", "mape_sym_improvement_pct"]
    write_table(path, header, ([str(label), *map(repr, values)] for label, *values in rows))
