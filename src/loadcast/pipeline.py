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

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

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
from .errors import ConfigError, DataError, prefix_errors
from .labeling import DEFAULT_WINDOW, MAX_STATES, MIN_STATES, StateProfile, load_states_csv
from .train import (
    DEFAULT_BATCH,
    DEFAULT_LR,
    DEFAULT_MAX_EPOCHS,
    DEFAULT_PATIENCE,
    TrainHistory,
    check_lr,
    stack_targets,
)

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
    lr: float = DEFAULT_LR
    batch: int = DEFAULT_BATCH
    patience: int = DEFAULT_PATIENCE
    max_epochs: int = DEFAULT_MAX_EPOCHS
    alpha: float = guidance.GuidanceConfig.alpha
    w: int = DEFAULT_WINDOW
    min_s: int = MIN_STATES
    max_s: int = MAX_STATES
    seed: int = 0
    period_seconds: int = 3600
    forecaster_kind: str = "linear"
    hidden: int = fc.ForecasterConfig.hidden
    trunk_channels: int = msp.MspConfig.trunk_channels
    ue_channels: int = msp.MspConfig.ue_channels
    kernel_width: int = msp.MspConfig.kernel_width

    def __post_init__(self) -> None:
        sizes = ("lookback", "batch", "max_epochs", "patience", "hidden", "trunk_channels",
                 "ue_channels", "kernel_width", "w", "period_seconds")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_lr(self.lr)
        guidance.check_alpha(self.alpha)
        if self.forecaster_kind not in fc.FORECASTER_KINDS:
            raise ConfigError(
                f"forecaster_kind must be one of {fc.FORECASTER_KINDS}, "
                f"got {self.forecaster_kind!r}"
            )
        if self.min_s < MIN_STATES:
            raise ConfigError(f"min_s must be >= {MIN_STATES}, got {self.min_s}")
        if not self.min_s <= self.max_s <= MAX_STATES:
            raise ConfigError(
                f"max_s must lie in [min_s={self.min_s}, {MAX_STATES}], got {self.max_s}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.horizons:
            raise ConfigError("horizons must name at least one horizon")
        if any(h < 1 for h in self.horizons):
            raise ConfigError(f"horizons must be positive, got {self.horizons}")
        if any(a >= b for a, b in zip(self.horizons, self.horizons[1:])):
            raise ConfigError(f"horizons must be strictly ascending, got {self.horizons}")


def _stage(name: str):
    """Re-raise stage failures with a stage-tagged message."""
    return prefix_errors(f"[stage {name}] ")


def load_data(config: RunConfig) -> SeriesFrame:
    """Load the data CSV and downsample it to the configured period."""
    with _stage("load-data"):
        frame = load_csv(config.data_csv)
        with prefix_errors(f"{config.data_csv}: "):
            return align_and_downsample(frame, config.period_seconds)


def load_aligned(config: RunConfig) -> tuple[SeriesFrame, StateProfile]:
    """Load the data CSV, downsample it, and load matching state labels."""
    frame = load_data(config)
    with _stage("load-states"):
        profile, ts, names = load_states_csv(config.states_csv)
        with prefix_errors(f"{config.states_csv}: "):
            if names != frame.variable_names:
                raise DataError(
                    f"state columns {names} do not match {config.data_csv}'s columns "
                    f"{frame.variable_names}"
                )
            if profile.labels.shape[0] != frame.length or not (ts == frame.timestamps).all():
                raise DataError(
                    f"state timestamps do not align with the downsampled {config.data_csv}; "
                    "re-run labeling on this data file"
                )
    return frame, profile


def split_with_states(
    frame: SeriesFrame, profile: StateProfile | None
) -> tuple[list[SeriesFrame], list[np.ndarray], NormStats]:
    """60/20/20 split of values and labels; values z-scored with train stats.
    Without a profile every label is 0."""
    train, val, test = split_60_20_20(frame)
    i1, i2 = train.length, train.length + val.length
    stats = zscore_fit(train)
    frames = [zscore_apply(part, stats) for part in (train, val, test)]
    zeros = np.broadcast_to(np.int64(0), frame.values.shape)
    all_labels = zeros if profile is None else profile.labels
    labels = [all_labels[:i1], all_labels[i1:i2], all_labels[i2:]]
    return frames, labels, stats


def windows_for(
    frame: SeriesFrame, profile: StateProfile | None, lookback: int, horizons: Sequence[int],
    source: str = "",
) -> tuple[NormStats, dict[int, tuple[WindowSet, WindowSet, WindowSet]]]:
    """The in-memory data stage: split_with_states, then every horizon's
    train, validation and test windows, cut up front as views of the
    splits (see WindowSet), so a horizon too long for the series fails
    before any training. A failure names its stage, then source (the
    file the frame came from) when one is given."""
    named = f"{source}: " if source else ""
    with _stage("split"), prefix_errors(named):
        frames, labels, stats = split_with_states(frame, profile)
    windows = {}
    for horizon in horizons:
        with _stage(f"windows H={horizon}"), prefix_errors(named):
            windows[horizon] = tuple(
                sliding_windows(f, lab, lookback, horizon) for f, lab in zip(frames, labels)
            )
    return stats, windows


def prepare_windows(
    config: RunConfig, horizons: list[int], read_states: bool = True
) -> tuple[
    SeriesFrame, StateProfile | None, NormStats, dict[int, tuple[WindowSet, WindowSet, WindowSet]]
]:
    """The file stage, then windows_for: load and align the inputs, and
    cut every horizon's windows of them.

    Only the teacher reads state labels: with read_states False the
    state CSV is not opened, the profile is None and every label is 0.
    """
    frame, profile = load_aligned(config) if read_states else (load_data(config), None)
    stats, windows = windows_for(frame, profile, config.lookback, horizons, config.data_csv)
    return frame, profile, stats, windows


def _fit_args(config: RunConfig) -> dict:
    """The optimiser and early-stopping settings every trainer takes."""
    return {"lr": config.lr, "batch_size": config.batch, "patience": config.patience,
            "max_epochs": config.max_epochs}


def teacher_config(config: RunConfig, horizon: int, counts: Sequence[int]) -> msp.MspConfig:
    """The state predictor's settings at one horizon, over len(counts)
    variables (counts[i] states for variable i)."""
    return msp.MspConfig(
        lookback=config.lookback,
        horizon=horizon,
        n_variables=len(counts),
        class_counts=counts,
        trunk_channels=config.trunk_channels,
        ue_channels=config.ue_channels,
        kernel_width=config.kernel_width,
        seed=config.seed,
    )


def _build(kind: str, make: Callable, config):
    """make(config); a model too large to allocate (numpy raises ValueError
    for an array past its size limit) is a ConfigError naming its kind."""
    try:
        return make(config)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"the {kind} these settings ask for does not fit in memory: {exc}") from None


def train_teacher(
    config: RunConfig, horizon: int, counts: Sequence[int], train_w: WindowSet, val_w: WindowSet
) -> tuple[msp.MspModel, TrainHistory]:
    """Stage 1 at one horizon: a state predictor (see teacher_config),
    trained on the windows' state labels."""
    teacher = _build("msp teacher", msp.MspModel, teacher_config(config, horizon, counts))
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
    model = _build(
        f"{config.forecaster_kind} forecaster",
        fc.make_forecaster,
        fc.ForecasterConfig(
            kind=config.forecaster_kind,
            lookback=config.lookback,
            horizon=horizon,
            n_variables=n_variables,
            hidden=config.hidden,
            seed=config.seed,
        ),
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
    for horizon in config.horizons:  # a bad teacher setting fails before any directory is made
        with _stage(f"train-msp H={horizon}"):
            teacher_config(config, horizon, profile.counts)
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
