"""End-to-end orchestration: label states, train the teacher, train
plain and guided forecasters per horizon, evaluate, and report.

Stage order follows the two-stage procedure: the state predictor is
trained first on cluster-derived labels, then frozen while it reweights
the forecaster's training loss. Splits are chronological 60/20/20,
inputs are z-scored with train statistics, and metrics are reported on
the z-scored scale (raw-scale columns are carried alongside).

train_teacher and train_forecaster are the two stages at one horizon;
run_pipeline and the train-msp / train commands all train through them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import forecaster as fc
from . import guidance, metrics, msp
from .data import (
    NormStats,
    SeriesFrame,
    WindowSet,
    align_and_downsample,
    load_csv,
    sliding_windows,
    split_60_20_20,
    zscore_apply,
    zscore_fit,
)
from .errors import ConfigError, DataError, LoadcastError
from .labeling import StateProfile, load_states_csv
from .train import TrainHistory, stack_targets

DEFAULT_HORIZONS = [1, 6, 12, 24, 36, 48, 60, 72, 168, 336]


@dataclass
class RunConfig:
    """Run-wide knobs; defaults follow the standard protocol
    (lookback 336, horizon sweep 1..336, Adam lr 0.001, batch 128,
    patience 10, 60/20/20 chronological split, z-scored metrics)."""

    data_csv: str = "data.csv"
    states_csv: str = "states.csv"
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"
    lookback: int = 336
    horizons: list[int] = field(default_factory=lambda: list(DEFAULT_HORIZONS))
    lr: float = 0.001
    batch: int = 128
    patience: int = 10
    max_epochs: int = 100
    alpha: float = 1.0
    w: int = 24
    min_s: int = 2
    max_s: int = 5
    seed: int = 0
    period_seconds: int = 3600
    forecaster_kind: str = "linear"
    hidden: int = 256
    per_variable: bool = True
    trunk_channels: int = 32
    ue_channels: int = 16
    kernel_width: int = 3

    def __post_init__(self) -> None:
        sizes = ("batch", "max_epochs", "patience", "hidden", "trunk_channels", "ue_channels",
                 "kernel_width", "w", "period_seconds")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        guidance.check_alpha(self.alpha)
        if self.forecaster_kind not in fc.FORECASTER_KINDS:
            raise ConfigError(
                f"forecaster_kind must be one of {fc.FORECASTER_KINDS}, "
                f"got {self.forecaster_kind!r}"
            )
        if self.min_s < msp.MIN_CLASSES:
            raise ConfigError(f"min_s must be >= {msp.MIN_CLASSES}, got {self.min_s}")
        if not self.min_s <= self.max_s <= msp.MAX_CLASSES:
            raise ConfigError(
                f"max_s must lie in [min_s={self.min_s}, {msp.MAX_CLASSES}], got {self.max_s}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.horizons:
            raise ConfigError("horizons must name at least one horizon")
        if any(h < 1 for h in self.horizons):
            raise ConfigError(f"horizons must be positive, got {self.horizons}")
        if list(self.horizons) != sorted(self.horizons):
            raise ConfigError(f"horizons must be ascending, got {self.horizons}")
        if self.lookback < self.kernel_width:
            raise ConfigError(
                f"lookback {self.lookback} is below the kernel width {self.kernel_width}"
            )


@contextmanager
def prefix_errors(prefix: str, errors: type[LoadcastError] = LoadcastError):
    """Re-raise a failure of the given types with prefix put before its message."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{prefix}{exc}") from exc


def _stage(name: str):
    """Re-raise stage failures with a stage-tagged message."""
    return prefix_errors(f"[stage {name}] ")


def load_aligned(config: RunConfig) -> tuple[SeriesFrame, StateProfile]:
    """Load the data CSV, downsample it, and load matching state labels."""
    with _stage("load-data"):
        frame = load_csv(config.data_csv)
        frame = align_and_downsample(frame, config.period_seconds)
    with _stage("load-states"):
        profile, ts, names = load_states_csv(config.states_csv)
        if names != frame.variable_names:
            raise DataError(
                f"state columns {names} do not match data columns {frame.variable_names}"
            )
        if profile.labels.shape[0] != frame.length or not (ts == frame.timestamps).all():
            raise DataError(
                "state timestamps do not align with the downsampled data; "
                "re-run labeling on this data file"
            )
    return frame, profile


def split_with_states(
    frame: SeriesFrame, profile: StateProfile
) -> tuple[list[SeriesFrame], list[np.ndarray], NormStats]:
    """60/20/20 split of values and labels; values z-scored with train stats."""
    train, val, test = split_60_20_20(frame)
    i1, i2 = train.length, train.length + val.length
    stats = zscore_fit(train)
    frames = [zscore_apply(part, stats) for part in (train, val, test)]
    labels = [profile.labels[:i1], profile.labels[i1:i2], profile.labels[i2:]]
    return frames, labels, stats


def prepare_windows(
    config: RunConfig, horizons: list[int]
) -> tuple[SeriesFrame, StateProfile, NormStats, dict[int, tuple[WindowSet, WindowSet, WindowSet]]]:
    """The one data-prep path: load and align the inputs, split them
    60/20/20, z-score with train statistics, and cut the train,
    validation and test windows of every horizon up front. Windows are
    views of the splits (see WindowSet), so that copies nothing, and a
    horizon too long for the series fails before any training."""
    frame, profile = load_aligned(config)
    frames, labels, stats = split_with_states(frame, profile)
    windows = {}
    for horizon in horizons:
        with _stage(f"windows H={horizon}"):
            windows[horizon] = tuple(
                sliding_windows(f, lab, config.lookback, horizon) for f, lab in zip(frames, labels)
            )
    return frame, profile, stats, windows


def _fit_args(config: RunConfig) -> dict:
    """The optimiser and early-stopping settings every trainer takes."""
    return {"lr": config.lr, "batch_size": config.batch, "patience": config.patience,
            "max_epochs": config.max_epochs}


def train_teacher(
    config: RunConfig, horizon: int, counts: Sequence[int], train_w: WindowSet, val_w: WindowSet
) -> tuple[msp.MspModel, TrainHistory]:
    """Stage 1 at one horizon: a state predictor over len(counts)
    variables (counts[i] states for variable i), trained on the
    windows' state labels."""
    teacher = msp.MspModel(
        msp.MspConfig(
            lookback=config.lookback,
            horizon=horizon,
            n_variables=len(counts),
            class_counts=counts,
            trunk_channels=config.trunk_channels,
            ue_channels=config.ue_channels,
            kernel_width=config.kernel_width,
            seed=config.seed,
        )
    )
    return teacher, msp.train_msp(teacher, train_w, val_w, **_fit_args(config))


def train_forecaster(
    config: RunConfig,
    horizon: int,
    n_variables: int,
    train_w: WindowSet,
    val_w: WindowSet,
    teacher: msp.MspModel | None = None,
) -> tuple[object, TrainHistory]:
    """Stage 2 at one horizon: a forecaster trained under plain MAE, or
    guided by the frozen teacher when one is given."""
    model = fc.make_forecaster(
        fc.ForecasterConfig(
            kind=config.forecaster_kind,
            lookback=config.lookback,
            horizon=horizon,
            n_variables=n_variables,
            hidden=config.hidden,
            per_variable=config.per_variable,
            seed=config.seed,
        )
    )
    fit = _fit_args(config)
    if teacher is None:
        return model, fc.train_plain(model, train_w, val_w, **fit)
    guide = guidance.GuidanceConfig(alpha=config.alpha)
    return model, fc.train_with_guidance(model, teacher, train_w, val_w, guide, **fit)


def evaluate_forecaster(
    model, samples: WindowSet, stats: NormStats
) -> tuple[float, float, float, float]:
    """(mae, mape_sym, mae_raw, mape_sym_raw) over a split's windows."""
    if not samples:
        raise DataError("no evaluation samples")
    yhat = fc.predict_samples(model, samples)
    y = stack_targets(samples)
    z_mae = metrics.mae(yhat, y)
    z_mape = metrics.mape_sym(yhat, y)
    yhat_raw = yhat * stats.std + stats.mean
    y_raw = y * stats.std + stats.mean
    return z_mae, z_mape, metrics.mae(yhat_raw, y_raw), metrics.mape_sym(yhat_raw, y_raw)


@dataclass
class PipelineResult:
    plain: metrics.EvalReport
    guided: metrics.EvalReport
    improvement: metrics.ImprovementReport
    paths: dict[str, str]


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Full two-stage run for every horizon; writes reports and
    checkpoints, returns the loaded results."""
    frame, profile, stats, windows = prepare_windows(config, config.horizons)
    d = frame.n_variables
    ckpt_dir = Path(config.checkpoint_dir)
    report_dir = Path(config.report_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)

    reports = {name: metrics.EvalReport([], [], [], [], []) for name in ("plain", "guided")}
    for horizon in config.horizons:
        train_w, val_w, test_w = windows[horizon]
        with _stage(f"train-msp H={horizon}"):
            teacher, _ = train_teacher(config, horizon, profile.counts, train_w, val_w)
            msp.save_msp(teacher, ckpt_dir / f"msp_h{horizon}.json")
        for name, guide in (("plain", None), ("guided", teacher)):
            with _stage(f"train-{name} H={horizon}"):
                model, _ = train_forecaster(config, horizon, d, train_w, val_w, guide)
                fc.save_forecaster(model, ckpt_dir / f"{name}_h{horizon}.json")
            with _stage(f"evaluate H={horizon}"):
                row = (horizon, *evaluate_forecaster(model, test_w, stats))
            for column, value in zip(fields(metrics.EvalReport), row):
                getattr(reports[name], column.name).append(value)

    with _stage("report"):
        plain_report, guided_report = reports["plain"], reports["guided"]
        improvement = metrics.percent_improvement(plain_report, guided_report)
        names = ("plain", "guided", "comparison")
        paths = {name: str(report_dir / f"{name}.csv") for name in names}
        metrics.save_report_csv(plain_report, paths["plain"])
        metrics.save_report_csv(guided_report, paths["guided"])
        metrics.save_comparison_csv(plain_report, guided_report, improvement, paths["comparison"])
    return PipelineResult(plain_report, guided_report, improvement, paths)
