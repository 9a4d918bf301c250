"""The benchmark's workloads: how each one makes its inputs and what one
timed run does.

Every workload trains a fixed work budget (patience equals max_epochs),
so a change in float summation order cannot move early stopping and
pass for a change in speed. Inputs come only from the workload seed; the
program's own seed stays 0. A run drives loadcast through its public
entry points (``cli.main`` and module functions), then reloads every
checkpoint it wrote and re-evaluates it, which is both the output check
and, for ``lookback-336``, the checkpoint read cost the workload exists
to measure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from loadcast import cli, guidance, labeling, metrics, msp, pipeline, synth
from loadcast import data as data_mod
from loadcast import forecaster as fc


@dataclass(frozen=True)
class Workload:
    """A workload; why each one exists is stated in BENCHMARK.json."""

    name: str
    setup: Callable[[Path, int], dict]
    run: Callable[[Path, Path], dict]
    # model class name -> epochs every train_loop call on it must run
    epochs: dict[str, int]


# -- household: the paper's protocol, made small ------------------------

HH_LENGTH = 1200
HH_LOOKBACK = 96
HH_HORIZON = 24
HH_EPOCHS = 2
HH_LABEL_WINDOW = 4

# -- seeds-mlp: multi-seed plain-vs-guided MLP comparison ---------------

SM_LENGTH = 2000
SM_LOOKBACK = 96
SM_HORIZON = 24
SM_TEACHER_EPOCHS = 1
SM_TEACHER_CHANNELS = ("--trunk-channels", 16, "--ue-channels", 8)  # keeps set-up short
SM_SEEDS = 2
SM_EPOCHS = 10
SM_HIDDEN = 256
SM_ALPHA = 2.0  # the acceptance benchmark's guidance strength

# -- lookback-336: the default protocol lookback ------------------------

LB_LENGTH = 1800  # validation and test splits must each hold L+H steps
LB_LOOKBACK = 336
LB_HORIZON = 24
LB_EPOCHS = 1
# trunk and extractor channels (default 32 and 16): halves the
# checkpoint and quarters the extractor convs
LB_CHANNELS = ("--trunk-channels", 16, "--ue-channels", 8)


def _cli(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"loadcast {argv[0]} exited with code {code}")


def _write_household(inputs: Path, seed: int, length: int, total: bool) -> dict:
    """Synthetic household CSV (plus truth labels when there is no
    total column, whose states the generator does not know)."""
    config = synth.benchmark_household(seed=seed, length=length)
    config.include_household_total = total
    start = time.perf_counter()
    frame, truth = synth.generate(config)
    generate_s = time.perf_counter() - start
    data_mod.save_csv(frame, inputs / "data.csv")
    if not total:
        labeling.save_states_csv(truth, frame, inputs / "truth.csv")
    (inputs / "truth_counts.json").write_text(json.dumps([int(n) for n in truth.counts]) + "\n")
    return {"synth.generate_s": generate_s}


def _windows(data_csv: Path, states_csv: Path, lookback: int, horizon: int):
    config = pipeline.RunConfig(
        data_csv=str(data_csv), states_csv=str(states_csv), lookback=lookback, horizons=[horizon]
    )
    frame, profile = pipeline.load_aligned(config)
    frames, labels, stats = pipeline.split_with_states(frame, profile)
    windows = [data_mod.sliding_windows(f, lab, lookback, horizon) for f, lab in zip(frames, labels)]
    return labels[0], stats, windows


def _majority_accuracy(train_labels: np.ndarray, samples) -> float:
    """Accuracy of predicting each variable's most frequent training state."""
    majority = np.asarray([np.bincount(col).argmax() for col in train_labels.T])
    targets = np.stack([s.s for s in samples])
    return float((targets == majority).mean())


def _bits(row) -> list[str]:
    return [float(v).hex() for v in row]


def _report_row(path: Path, horizon: int) -> tuple[float, float, float, float]:
    report = metrics.load_report_csv(path)
    i = report.horizons.index(horizon)
    return report.mae[i], report.mape_sym[i], report.mae_raw[i], report.mape_sym_raw[i]


def _reevaluate(ckpt: Path, report: Path, horizon: int, test_w, stats, checks: dict) -> float:
    """Reload a forecaster checkpoint, score it again and require its
    report row bit for bit; returns the z-scored test MAE."""
    got = pipeline.evaluate_forecaster(fc.load_forecaster(ckpt), test_w, stats)
    checks[f"{ckpt.name} reproduces {report.name}"] = _bits(got) == _bits(_report_row(report, horizon))
    return got[0]


def _quality(plain: list[float], guided: list[float], teacher, train_labels, val_w, checks: dict) -> dict:
    """Test MAEs averaged over seeds, and the teacher's validation state
    accuracy beside that of always predicting the majority state."""
    return {
        "quality": {
            "plain_mae": float(np.mean(plain)),
            "guided_mae": float(np.mean(guided)),
            "teacher_acc": msp.state_accuracy(teacher, val_w),
            "majority_acc": _majority_accuracy(train_labels, val_w),
        },
        "checks": checks,
    }


def _verify_pipeline(data_csv: Path, states_csv: Path, out: Path, lookback: int, horizon: int) -> dict:
    """Reload every checkpoint a ``pipeline`` run wrote and re-evaluate it."""
    train_labels, stats, (_, val_w, test_w) = _windows(data_csv, states_csv, lookback, horizon)
    checks: dict[str, bool] = {}
    teacher = msp.load_msp(out / "ckpt" / f"msp_h{horizon}.json")
    maes = {}
    for kind in ("plain", "guided"):
        maes[kind] = _reevaluate(
            out / "ckpt" / f"{kind}_h{horizon}.json",
            out / "reports" / f"{kind}.csv",
            horizon,
            test_w,
            stats,
            checks,
        )
    return _quality([maes["plain"]], [maes["guided"]], teacher, train_labels, val_w, checks)


def _pipeline_argv(data_csv, states_csv, out: Path, lookback: int, horizon: int, epochs: int):
    return (
        "pipeline",
        "--data", data_csv,
        "--states", states_csv,
        "--lookback", lookback,
        "--horizons", horizon,
        "--max-epochs", epochs,
        "--patience", epochs,
        "--forecaster-kind", "linear",
        "--seed", 0,
        "--checkpoint-dir", out / "ckpt",
        "--report-dir", out / "reports",
    )


# -- household -----------------------------------------------------------


def setup_household(inputs: Path, seed: int) -> dict:
    return _write_household(inputs, seed, HH_LENGTH, total=True)


def run_household(inputs: Path, out: Path) -> dict:
    data_csv, states_csv = inputs / "data.csv", out / "states.csv"
    _cli("label", "--data", data_csv, "--out", states_csv, "--w", HH_LABEL_WINDOW, "--seed", 0)
    _cli(*_pipeline_argv(data_csv, states_csv, out, HH_LOOKBACK, HH_HORIZON, HH_EPOCHS))
    return _verify_pipeline(data_csv, states_csv, out, HH_LOOKBACK, HH_HORIZON)


# -- seeds-mlp -----------------------------------------------------------


def setup_seeds_mlp(inputs: Path, seed: int) -> dict:
    phases = _write_household(inputs, seed, SM_LENGTH, total=False)
    start = time.perf_counter()
    _cli(
        "train-msp",
        "--data", inputs / "data.csv",
        "--states", inputs / "truth.csv",
        "--lookback", SM_LOOKBACK,
        "--horizon", SM_HORIZON,
        "--max-epochs", SM_TEACHER_EPOCHS,
        "--patience", SM_TEACHER_EPOCHS,
        *SM_TEACHER_CHANNELS,
        "--seed", 0,
        "--out", inputs / "msp.json",
    )
    phases["teacher_s"] = time.perf_counter() - start
    return phases


def run_seeds_mlp(inputs: Path, out: Path) -> dict:
    (out / "ckpt").mkdir(parents=True)
    (out / "reports").mkdir(parents=True)
    teacher = msp.load_msp(inputs / "msp.json")
    train_labels, stats, (train_w, val_w, test_w) = _windows(
        inputs / "data.csv", inputs / "truth.csv", SM_LOOKBACK, SM_HORIZON
    )
    weights = guidance.teacher_weights(teacher, train_w)
    n_variables = teacher.config.n_variables
    budget = {"max_epochs": SM_EPOCHS, "patience": SM_EPOCHS}
    written = []
    for seed in range(SM_SEEDS):
        config = fc.ForecasterConfig(
            "mlp", SM_LOOKBACK, SM_HORIZON, n_variables, hidden=SM_HIDDEN, seed=seed
        )
        plain = fc.make_forecaster(config)
        fc.train_plain(plain, train_w, val_w, **budget)
        guided = fc.make_forecaster(config)
        guidance.train_guided(
            guided,
            teacher,
            train_w,
            val_w,
            guidance.GuidanceConfig(alpha=SM_ALPHA),
            precomputed_weights=weights,
            **budget,
        )
        for kind, model in (("plain", plain), ("guided", guided)):
            ckpt = out / "ckpt" / f"{kind}_seed{seed}.json"
            report = out / "reports" / f"{kind}_seed{seed}.csv"
            fc.save_forecaster(model, ckpt)
            row = pipeline.evaluate_forecaster(model, test_w, stats)
            metrics.save_report_csv(metrics.EvalReport([SM_HORIZON], *([v] for v in row)), report)
            written.append((kind, ckpt, report))
    checks: dict[str, bool] = {}
    maes: dict[str, list[float]] = {"plain": [], "guided": []}
    for kind, ckpt, report in written:
        maes[kind].append(_reevaluate(ckpt, report, SM_HORIZON, test_w, stats, checks))
    return _quality(maes["plain"], maes["guided"], teacher, train_labels, val_w, checks)


# -- lookback-336 ----------------------------------------------------------


def setup_lookback_336(inputs: Path, seed: int) -> dict:
    return _write_household(inputs, seed, LB_LENGTH, total=False)


def run_lookback_336(inputs: Path, out: Path) -> dict:
    data_csv, states_csv = inputs / "data.csv", inputs / "truth.csv"
    _cli(*_pipeline_argv(data_csv, states_csv, out, LB_LOOKBACK, LB_HORIZON, LB_EPOCHS), *LB_CHANNELS)
    return _verify_pipeline(data_csv, states_csv, out, LB_LOOKBACK, LB_HORIZON)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "household",
            setup_household,
            run_household,
            {"MspModel": HH_EPOCHS, "LinearForecaster": HH_EPOCHS},
        ),
        Workload(
            "seeds-mlp",
            setup_seeds_mlp,
            run_seeds_mlp,
            {"MlpForecaster": SM_EPOCHS},
        ),
        Workload(
            "lookback-336",
            setup_lookback_336,
            run_lookback_336,
            {"MspModel": LB_EPOCHS, "LinearForecaster": LB_EPOCHS},
        ),
    )
}
