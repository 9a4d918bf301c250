"""Acceptance criteria. Each test enforces one criterion at its stated
tolerance and prints a PASS line on success."""

import json
import math
import time
from itertools import permutations

import numpy as np
import pytest

from loadcast import cli, guidance, labeling, metrics, nn, synth
from loadcast import forecaster as fc
from loadcast import msp as msp_mod
from loadcast.data import SeriesFrame
from loadcast.pipeline import DEFAULT_HORIZONS, RunConfig, windows_for
from loadcast.train import DEFAULT_BATCH, DEFAULT_LR, DEFAULT_PATIENCE

from tests.acceptance_benchmark import ALPHA, HORIZONS, run_benchmark
from tests.batches import as_series, gradients
from tests.test_labeling import brute_silhouette


def report(criterion: int, description: str) -> None:
    print(f"[acceptance] criterion {criterion} ({description}): PASS")


# -- 1. gradient integrity ---------------------------------------------------


def test_criterion_1_gradient_integrity():
    start = time.time()
    for seed in range(5):
        rng = np.random.default_rng(seed)

        lin = nn.init_linear(rng, 5, 4)
        x = rng.normal(size=(3, 5))
        up = rng.normal(size=(3, 4))
        (dw, db), dx = nn.linear_backward(lin, x, up)
        rep = nn.grad_check(
            lambda: float((nn.linear_forward(lin, x) * up).sum()),
            [lin.weights, lin.bias, x],
            [dw, db, dx],
        )
        assert rep.max_rel_error < 1e-5

        conv = nn.init_conv1d(rng, 2, 3, 3)
        xc = rng.normal(size=(1, 2, 8))
        upc = rng.normal(size=(1, 3, 8))
        (dwc, dbc), dxc = nn.conv1d_backward(conv, xc, upc)
        rep = nn.grad_check(
            lambda: float((nn.conv1d_forward(conv, xc) * upc).sum()),
            [conv.weights, conv.bias, xc],
            [dwc, dbc, dxc],
        )
        assert rep.max_rel_error < 1e-5

        logits = rng.normal(size=(6, 1, 4))
        targets = rng.integers(0, 4, size=(6, 1, 1))
        _, dlogits = msp_mod.msp_loss(logits, targets, [4])
        rep = nn.grad_check(
            lambda: msp_mod.msp_loss(logits, targets, [4])[0],
            [logits],
            [dlogits],
        )
        assert rep.max_rel_error < 1e-5

        model = msp_mod.MspModel(
            msp_mod.MspConfig(
                lookback=8,
                horizon=3,
                n_variables=2,
                class_counts=[2, 3],
                trunk_channels=4,
                ue_channels=3,
                seed=seed,
            )
        )
        counts = model.config.class_counts
        xm = as_series(rng.normal(size=(2, 8, 2)))
        sm = np.stack(
            [rng.integers(0, 2, size=(2, 3)), rng.integers(0, 3, size=(2, 3))], axis=-1
        )
        z, cache = model.forward_batch(*xm, want_cache=True)
        _, dz = msp_mod.msp_loss(z, sm, counts)
        grads = gradients(model, cache, dz)
        rep = nn.grad_check(
            lambda: msp_mod.msp_loss(model.forward_batch(*xm), sm, counts)[0],
            model.params(),
            grads,
            names=model.param_names(),
        )
        assert rep.max_rel_error < 1e-4

        yhat = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        w = rng.uniform(0.2, 1.0, size=(4, 3))
        for wy in (w, None):
            _, dy = guidance.guided_loss(yhat, y, wy, 1.3)
            rep = nn.grad_check(
                lambda: guidance.guided_loss(yhat, y, wy, 1.3)[0], [yhat], [dy]
            )
            assert rep.max_rel_error < 1e-4

    assert time.time() - start < 60
    report(1, "gradient integrity, 5 seeds")


# -- 2. silhouette oracle ----------------------------------------------------


def test_criterion_2_silhouette_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        rows = rng.normal(scale=rng.uniform(0.5, 20.0), size=(n, dim))
        assignments = rng.integers(0, k, size=n)
        if len(np.unique(assignments)) < 2:
            assignments[: n // 2] = 0
            assignments[n // 2 :] = 1
        ours = labeling.silhouette(rows, assignments)
        ref = brute_silhouette(rows.tolist(), assignments.tolist())
        assert abs(ours - ref) < 1e-12
    assert time.time() - start < 60
    report(2, "silhouette equals brute-force oracle on 100 instances")


# -- 3. state recovery -------------------------------------------------------


def planted_blocks(levels, dwell, reps, sigma, seed):
    rng = np.random.default_rng(seed)
    blocks, states = [], []
    for _ in range(reps):
        for s, level in enumerate(levels):
            blocks.append(np.full(dwell, level))
            states.append(np.full(dwell, s, dtype=np.int64))
    series = np.concatenate(blocks) + rng.normal(0, sigma, dwell * len(levels) * reps)
    return series, np.concatenate(states)


def best_alignment(pred, true, k):
    return max(
        float((np.asarray(perm)[pred] == true).mean()) for perm in permutations(range(k))
    )


def test_criterion_3_state_recovery():
    start = time.time()
    cases = [
        ([0.0, 8.0], 150, 7),
        ([0.0, 5.0, 10.0], 150, 5),
        ([0.0, 2.0, 4.0, 6.0, 8.0], 150, 3),
    ]
    for levels, dwell, reps in cases:
        gap = float(min(np.diff(sorted(levels))))
        for seed in range(5):
            series, states = planted_blocks(levels, dwell, reps, 0.1 * gap, seed)
            frame = SeriesFrame(
                3600 * np.arange(len(series)), series[:, None], ["x"]
            )
            profile = labeling.identify_states(frame, w=4, seed=seed)
            assert int(profile.counts[0]) == len(levels)
            agreement = best_alignment(profile.labels[:, 0], states, len(levels))
            assert agreement >= 0.95
    assert time.time() - start < 300
    report(3, "planted 2/3/5-state recovery, 5 seeds each")


# -- 4. state predictor learnability -----------------------------------------


def deterministic_wave_splits(l=400, lookback=12, horizon=6):
    t = np.arange(l)
    series = np.where((t // 6) % 2 == 0, 0.0, 5.0)
    frame = SeriesFrame(3600 * t, series[:, None], ["x"])
    profile = labeling.StateProfile((series > 2.5).astype(np.int64)[:, None], [2])
    return windows_for(frame, profile, lookback, [horizon])[1][horizon]


def test_criterion_4_msp_learnability():
    start = time.time()
    train_w, val_w, _ = deterministic_wave_splits()
    model = msp_mod.MspModel(
        msp_mod.MspConfig(
            lookback=12,
            horizon=6,
            n_variables=1,
            class_counts=[2],
            trunk_channels=8,
            ue_channels=4,
            seed=0,
        )
    )
    msp_mod.train_msp(model, train_w, val_w, lr=0.01, batch_size=32, max_epochs=100)
    accuracy = msp_mod.state_accuracy(model, val_w)
    assert accuracy >= 0.99

    # stochastic synthetic household: trained predictor must beat the
    # per-variable majority-class baseline
    config = synth.default_household(seed=4, length=3000)
    frame, _ = synth.generate(config)
    profile = labeling.identify_states(frame, w=4, seed=4)
    train_w2, val_w2, _ = windows_for(frame, profile, 24, [6])[1][6]
    model2 = msp_mod.MspModel(
        msp_mod.MspConfig(
            lookback=24,
            horizon=6,
            n_variables=frame.n_variables,
            class_counts=[int(n) for n in profile.counts],
            trunk_channels=16,
            ue_channels=8,
            seed=4,
        )
    )
    msp_mod.train_msp(model2, train_w2, val_w2, lr=0.003, max_epochs=50)
    accuracy2 = msp_mod.state_accuracy(model2, val_w2)

    val_targets = np.stack([s.s for s in val_w2])
    train_targets = np.stack([s.s for s in train_w2])
    majority = 0.0
    for i in range(frame.n_variables):
        mode = np.bincount(train_targets[:, :, i].ravel()).argmax()
        majority += float((val_targets[:, :, i] == mode).mean())
    majority /= frame.n_variables
    assert accuracy2 > majority

    assert time.time() - start < 600
    report(4, f"predictor learnability ({accuracy:.3f} deterministic, "
              f"{accuracy2:.3f} vs majority {majority:.3f})")


# -- 5. reduction law ---------------------------------------------------------


def small_pipeline_inputs(tmp_path, seed=5):
    data = tmp_path / "data.csv"
    states = tmp_path / "states.csv"
    assert cli.main(
        ["synth", "--out", str(data), "--states-out", str(tmp_path / "t.csv"),
         "--length", "420", "--seed", str(seed)]
    ) == 0
    assert cli.main(
        ["label", "--data", str(data), "--out", str(states), "--w", "4",
         "--seed", str(seed)]
    ) == 0
    return data, states


def test_criterion_5_reduction_law(tmp_path):
    from tests.test_msp import wave_splits

    # bit-identical parameters under alpha=0
    train_w, val_w, _ = wave_splits(l=220)
    teacher = msp_mod.MspModel(
        msp_mod.MspConfig(
            lookback=8, horizon=4, n_variables=1, class_counts=[2],
            trunk_channels=4, ue_channels=3, seed=1,
        )
    )
    msp_mod.train_msp(teacher, train_w, val_w, lr=0.01, batch_size=32, max_epochs=15)
    fc_config = fc.ForecasterConfig("linear", 8, 4, 1, seed=3)
    plain = fc.make_forecaster(fc_config)
    fc.train_plain(plain, train_w, val_w, max_epochs=10)
    guided = fc.make_forecaster(fc_config)
    fc.train_with_guidance(
        guided, teacher, train_w, val_w, guidance.GuidanceConfig(alpha=0.0), max_epochs=10
    )
    for a, b in zip(plain.params(), guided.params()):
        np.testing.assert_array_equal(a, b)

    # pipeline comparison report shows 0% improvement at alpha=0
    data, states = small_pipeline_inputs(tmp_path)
    report_dir = tmp_path / "reports"
    assert cli.main(
        ["pipeline", "--data", str(data), "--states", str(states),
         "--report-dir", str(report_dir), "--checkpoint-dir", str(tmp_path / "ck"),
         "--lookback", "16", "--horizons", "2,4", "--max-epochs", "5",
         "--alpha", "0.0", "--seed", "5"]
    ) == 0
    avg_row = (report_dir / "comparison.csv").read_text().strip().splitlines()[-1].split(",")
    assert float(avg_row[3]) == 0.0 and float(avg_row[6]) == 0.0
    report(5, "alpha=0 reproduces plain training bit-identically")


# -- 6. directional guided-training benefit ----------------------------------


@pytest.mark.slow
def test_criterion_6_directional_benefit():
    start = time.time()
    results = run_benchmark()
    lines = []
    for r in results:
        lines.append(
            f"H={r.horizon}: wins {r.wins}/5, mean improvement {r.mean_improvement_pct:+.3f}%"
        )
        assert r.wins >= 4, f"H={r.horizon}: guided beat plain in only {r.wins}/5 seeds"
        assert r.mean_improvement_pct > 0.0
    # regression bound pinned from the first full run (mean +1.43% across
    # horizons; see decisions ledger): do not regress below a third of it
    overall = float(np.mean([r.mean_improvement_pct for r in results]))
    assert overall > 0.3
    assert time.time() - start < 1800
    report(6, f"event-guided training benefit (alpha={ALPHA}; " + "; ".join(lines) + ")")


# -- 7. metric exactness -------------------------------------------------------


def test_criterion_7_metric_exactness():
    assert metrics.mae(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 2.0], [3.0, 2.0]])) == 0.75
    assert abs(metrics.mape_sym(np.array([2.0]), np.array([0.0])) - 1.0) < 1e-12
    assert abs(metrics.mape_sym(np.array([1.0]), np.array([3.0])) - 0.5) < 1e-12
    baseline = metrics.EvalReport([1], [0.520], [1.074])
    treated = metrics.EvalReport([1], [0.352], [0.669])
    imp = metrics.percent_improvement(baseline, treated)
    assert abs(imp.average["mae"] - 100.0 * (0.520 - 0.352) / 0.520) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(1000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        yhat = rng.normal(scale=5.0, size=shape)
        y = rng.normal(scale=5.0, size=shape)
        assert metrics.mape_sym(yhat, y) <= 1.0
    report(7, "metric exactness and symmetric-MAPE bound")


# -- 8. protocol fidelity -------------------------------------------------------


def test_criterion_8_protocol_fidelity(capsys):
    config = RunConfig()
    assert config.lookback == 336
    assert config.horizons == [1, 6, 12, 24, 36, 48, 60, 72, 168, 336] == DEFAULT_HORIZONS
    assert config.lr == 0.001 == DEFAULT_LR
    assert config.batch == 128 == DEFAULT_BATCH
    assert config.patience == 10 == DEFAULT_PATIENCE
    assert (config.min_s, config.max_s) == (2, 5)
    assert config.period_seconds == 3600

    # the CLI echoes the same defaults
    assert cli.main(["config"]) == 0
    echoed = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert echoed["lookback"] == "336"
    assert echoed["horizons"] == "1,6,12,24,36,48,60,72,168,336"
    assert echoed["lr"] == "0.001"
    assert echoed["batch"] == "128"
    assert echoed["patience"] == "10"

    # metrics are computed on z-scored data: evaluating a zero forecaster on
    # z-scored windows must reproduce the z-space MAE exactly
    from loadcast.pipeline import evaluate_forecaster

    rng = np.random.default_rng(8)
    frame = SeriesFrame(
        3600 * np.arange(60), rng.normal(loc=50.0, scale=9.0, size=(60, 2)), ["a", "b"]
    )
    stats, windows = windows_for(frame, None, 4, [2])
    test_w = windows[2][2]
    zero_model = fc.make_forecaster(fc.ForecasterConfig("linear", 4, 2, 2, seed=0))
    zero_model.weights[:] = 0.0
    zero_model.bias[:] = 0.0
    z_mae, _, raw_mae, _ = evaluate_forecaster(zero_model, test_w, stats)
    y_z = np.stack([s.y for s in test_w])
    assert z_mae == metrics.mae(np.zeros_like(y_z), y_z)
    assert raw_mae == metrics.mae(
        np.broadcast_to(stats.mean, y_z.shape), y_z * stats.std + stats.mean
    )
    report(8, "protocol defaults match the documented values")


# -- 9. determinism -------------------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path):
    data, states = small_pipeline_inputs(tmp_path, seed=9)
    args = lambda rep: [
        "pipeline", "--data", str(data), "--states", str(states),
        "--report-dir", str(rep), "--checkpoint-dir", str(rep / "ck"),
        "--lookback", "16", "--horizons", "2,4", "--max-epochs", "5",
        "--seed", "9",
    ]
    rep1, rep2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(args(rep1)) == 0
    assert cli.main(args(rep2)) == 0
    for name in ("plain.csv", "guided.csv", "comparison.csv"):
        assert (rep1 / name).read_bytes() == (rep2 / name).read_bytes()
    for ck in sorted((rep1 / "ck").iterdir()):
        assert ck.read_bytes() == (rep2 / "ck" / ck.name).read_bytes()
    report(9, "byte-identical pipeline reruns")
