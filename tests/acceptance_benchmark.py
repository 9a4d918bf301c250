"""Shared harness for the directional-improvement benchmark.

Event-structured synthetic household (8 appliances + total, triggers,
sigma 0.15, 1% spikes), lookback 96, horizons 6 and 24. One frozen
teacher per horizon; five paired forecaster seeds trained plain vs
guided. Returns per-horizon (plain, guided) test MAE pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loadcast import forecaster as fc
from loadcast import guidance, labeling, msp, synth
from loadcast.data import sliding_windows
from loadcast.metrics import mae
from loadcast.pipeline import split_with_states
from loadcast.train import stack_targets

LOOKBACK = 96
HORIZONS = (6, 24)
N_SEEDS = 5
ALPHA = 2.0
LABEL_WINDOW = 4
TEACHER_MAX_EPOCHS = 15
FORECASTER_MAX_EPOCHS = 40


@dataclass
class HorizonResult:
    horizon: int
    plain_mae: list[float]
    guided_mae: list[float]

    @property
    def improvements_pct(self) -> list[float]:
        return [
            100.0 * (p - g) / p for p, g in zip(self.plain_mae, self.guided_mae)
        ]

    @property
    def wins(self) -> int:
        return sum(1 for p, g in zip(self.plain_mae, self.guided_mae) if g < p)

    @property
    def mean_improvement_pct(self) -> float:
        return float(np.mean(self.improvements_pct))


def run_benchmark(length: int = 20000, seeds: range = range(N_SEEDS)) -> list[HorizonResult]:
    config = synth.benchmark_household(seed=0, length=length)
    frame, _ = synth.generate(config)
    profile = labeling.identify_states(frame, w=LABEL_WINDOW, seed=0)
    frames, labels, _ = split_with_states(frame, profile)
    results = []
    for horizon in HORIZONS:
        train_w, val_w, test_w = (
            sliding_windows(part, lab, LOOKBACK, horizon) for part, lab in zip(frames, labels)
        )
        teacher = msp.MspModel(
            msp.MspConfig(
                lookback=LOOKBACK,
                horizon=horizon,
                n_variables=frame.n_variables,
                class_counts=[int(n) for n in profile.counts],
                seed=0,
            )
        )
        msp.train_msp(teacher, train_w, val_w, max_epochs=TEACHER_MAX_EPOCHS)
        weights = guidance.teacher_weights(teacher, train_w)
        y_test = stack_targets(test_w)
        result = HorizonResult(horizon, [], [])
        for seed in seeds:
            fc_config = fc.ForecasterConfig(
                "linear", LOOKBACK, horizon, frame.n_variables, seed=seed
            )
            plain = fc.make_forecaster(fc_config)
            fc.train_plain(plain, train_w, val_w, max_epochs=FORECASTER_MAX_EPOCHS)
            result.plain_mae.append(mae(fc.predict_samples(plain, test_w), y_test))

            guided = fc.make_forecaster(fc_config)
            guidance.train_guided(
                guided,
                teacher,
                train_w,
                val_w,
                guidance.GuidanceConfig(alpha=ALPHA),
                max_epochs=FORECASTER_MAX_EPOCHS,
                precomputed_weights=weights,
            )
            result.guided_mae.append(mae(fc.predict_samples(guided, test_w), y_test))
        results.append(result)
    return results
