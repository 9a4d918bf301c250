"""End-to-end orchestration: label states, train the teacher, train
plain and guided forecasters per horizon, evaluate, and report.

Stage order follows the two-stage procedure: the state predictor is
trained first on cluster-derived labels, then frozen while it reweights
the forecaster's training loss. Splits are chronological 60/20/20,
inputs are z-scored with train statistics, and metrics are reported on
the z-scored scale (raw-scale columns are carried alongside).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

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
from .train import stack_targets

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
    weight_mode: str = "prob"
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
                 "kernel_width")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.weight_mode not in guidance.WEIGHT_MODES:
            raise ConfigError(
                f"weight_mode must be one of {guidance.WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        if self.forecaster_kind not in fc.FORECASTER_KINDS:
            raise ConfigError(
                f"forecaster_kind must be one of {fc.FORECASTER_KINDS}, "
                f"got {self.forecaster_kind!r}"
            )
        if any(h < 1 for h in self.horizons):
            raise ConfigError(f"horizons must be positive, got {self.horizons}")
        if list(self.horizons) != sorted(self.horizons):
            raise ConfigError(f"horizons must be ascending, got {self.horizons}")
        if self.lookback < self.kernel_width:
            raise ConfigError(
                f"lookback {self.lookback} is below the kernel width {self.kernel_width}"
            )


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with a stage-tagged message."""
    try:
        yield
    except LoadcastError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


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
            train, val, test = (
                sliding_windows(f, lab, config.lookback, horizon) for f, lab in zip(frames, labels)
            )
        windows[horizon] = (train, val, test)
    return frame, profile, stats, windows


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
    counts = [int(n) for n in profile.counts]
    ckpt_dir = Path(config.checkpoint_dir)
    report_dir = Path(config.report_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)

    plain_report = metrics.EvalReport([], [], [], [], [])
    guided_report = metrics.EvalReport([], [], [], [], [])
    for horizon in config.horizons:
        train_w, val_w, test_w = windows[horizon]

        with _stage(f"train-msp H={horizon}"):
            msp_config = msp.MspConfig(
                lookback=config.lookback,
                horizon=horizon,
                n_variables=d,
                class_counts=counts,
                trunk_channels=config.trunk_channels,
                ue_channels=config.ue_channels,
                kernel_width=config.kernel_width,
                seed=config.seed,
            )
            teacher = msp.MspModel(msp_config)
            msp.train_msp(
                teacher,
                train_w,
                val_w,
                lr=config.lr,
                batch_size=config.batch,
                patience=config.patience,
                max_epochs=config.max_epochs,
            )
            msp.save_msp(teacher, ckpt_dir / f"msp_h{horizon}.json")

        fc_config = fc.ForecasterConfig(
            kind=config.forecaster_kind,
            lookback=config.lookback,
            horizon=horizon,
            n_variables=d,
            hidden=config.hidden,
            per_variable=config.per_variable,
            seed=config.seed,
        )
        with _stage(f"train-plain H={horizon}"):
            plain_model = fc.make_forecaster(fc_config)
            fc.train_plain(
                plain_model,
                train_w,
                val_w,
                lr=config.lr,
                batch_size=config.batch,
                patience=config.patience,
                max_epochs=config.max_epochs,
            )
            fc.save_forecaster(plain_model, ckpt_dir / f"plain_h{horizon}.json")
        with _stage(f"train-guided H={horizon}"):
            guided_model = fc.make_forecaster(fc_config)
            fc.train_with_guidance(
                guided_model,
                teacher,
                train_w,
                val_w,
                guidance.GuidanceConfig(alpha=config.alpha, mode=config.weight_mode),
                lr=config.lr,
                batch_size=config.batch,
                patience=config.patience,
                max_epochs=config.max_epochs,
            )
            fc.save_forecaster(guided_model, ckpt_dir / f"guided_h{horizon}.json")

        with _stage(f"evaluate H={horizon}"):
            for model, report in ((plain_model, plain_report), (guided_model, guided_report)):
                m, mp, mr, mpr = evaluate_forecaster(model, test_w, stats)
                report.horizons.append(horizon)
                report.mae.append(m)
                report.mape_sym.append(mp)
                report.mae_raw.append(mr)
                report.mape_sym_raw.append(mpr)

    with _stage("report"):
        improvement = metrics.percent_improvement(plain_report, guided_report)
        paths = {
            "plain": str(report_dir / "plain.csv"),
            "guided": str(report_dir / "guided.csv"),
            "comparison": str(report_dir / "comparison.csv"),
        }
        metrics.save_report_csv(plain_report, paths["plain"])
        metrics.save_report_csv(guided_report, paths["guided"])
        metrics.save_comparison_csv(plain_report, guided_report, improvement, paths["comparison"])
    return PipelineResult(plain_report, guided_report, improvement, paths)
