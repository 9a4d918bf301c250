"""Residential load forecasting toolkit.

Pipeline: cluster appliance operational states from raw load series,
train a multivariate state predictor on those labels, then reuse its
class probabilities as loss weights when training a baseline
forecaster, sharpening multi-horizon load forecasts around electricity
usage events.
"""

from .data import (
    NormStats,
    SeriesFrame,
    WindowSample,
    WindowSet,
    align_and_downsample,
    load_csv,
    save_csv,
    sliding_windows,
    split_60_20_20,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from .errors import ConfigError, DataError, LoadcastError, NumericError, ShapeError
from .forecaster import (
    ForecasterConfig,
    load_forecaster,
    make_forecaster,
    save_forecaster,
    train_plain,
    train_with_guidance,
)
from .guidance import GuidanceConfig, event_weights, guided_loss, train_guided
from .labeling import (
    StateProfile,
    embed_windows,
    identify_states,
    kmeans,
    load_states_csv,
    save_states_csv,
    silhouette,
)
from .metrics import EvalReport, mae, mape_sym, percent_improvement
from .msp import MspConfig, MspModel, decode_states, msp_loss, train_msp
from .pipeline import RunConfig, run_pipeline
from .synth import ApplianceSpec, SynthConfig, Trigger, generate

__version__ = "0.1.0"
