"""CLI tests: command contracts, exit codes, determinism, and the
pipeline reduction at alpha=0."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import loadcast
from loadcast import cli, metrics
from loadcast.labeling import load_states_csv
from loadcast.pipeline import RunConfig


def run(args):
    return cli.main([str(a) for a in args])


def synth_args(tmp_path, length=400, seed=3, extra=()):
    return [
        "synth",
        "--out", tmp_path / "data.csv",
        "--states-out", tmp_path / "truth.csv",
        "--length", length,
        "--seed", seed,
        *extra,
    ]


def test_synth_creates_csvs_with_row_counts(tmp_path):
    assert run(synth_args(tmp_path)) == 0
    data_lines = (tmp_path / "data.csv").read_text().strip().splitlines()
    truth_lines = (tmp_path / "truth.csv").read_text().strip().splitlines()
    assert len(data_lines) == 401 and len(truth_lines) == 401
    assert (tmp_path / "truth.csv.meta.json").exists()


def test_synth_rerun_is_byte_identical(tmp_path):
    run(synth_args(tmp_path))
    first = (tmp_path / "data.csv").read_bytes()
    first_truth = (tmp_path / "truth.csv").read_bytes()
    run(synth_args(tmp_path))
    assert (tmp_path / "data.csv").read_bytes() == first
    assert (tmp_path / "truth.csv").read_bytes() == first_truth


def test_synth_trigger_cycle_names_cycle(tmp_path, capsys):
    spec = {
        "appliances": [
            {
                "name": "a",
                "state_levels": [0.0, 1.0],
                "dwell_means": [10, 5],
                "trigger": {"source": "b", "source_state": 1, "lag": 1, "probability": 0.5},
            },
            {
                "name": "b",
                "state_levels": [0.0, 1.0],
                "dwell_means": [10, 5],
                "trigger": {"source": "a", "source_state": 1, "lag": 1, "probability": 0.5},
            },
        ]
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = run(synth_args(tmp_path, extra=["--appliances", path]))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cycle" in err and "a" in err and "b" in err


def test_synth_negative_seed_exits_2(tmp_path, capsys):
    assert run(synth_args(tmp_path, seed=-2)) == cli.EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--states-out"])
def test_synth_missing_out_directory_writes_nothing(tmp_path, monkeypatch, capsys, flag):
    from loadcast import synth

    def never(*args, **kwargs):
        raise AssertionError("the series was generated before its outputs were checked")

    monkeypatch.setattr(synth, "generate", never)
    args = synth_args(tmp_path)
    out = tmp_path / "nodir" / "file.csv"
    args[args.index(flag) + 1] = out
    assert run(args) == cli.EXIT_CONFIG
    assert f"cannot write {out}: no directory {out.parent}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_weight_mode_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["config", "--weight-mode", "prob"])
    assert exc.value.code == 2


def test_flat_linear_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["config", "--flat-linear"])
    assert exc.value.code == 2


def test_unparsable_horizons_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["config", "--horizons", "1,x"])
    assert exc.value.code == 2
    assert "--horizons: not comma-separated integers: '1,x'" in capsys.readouterr().err


def planted_csv(tmp_path):
    """Three-level appliance column so labeling has a known answer."""
    rng = np.random.default_rng(0)
    blocks = []
    for _ in range(3):
        for level in (0.0, 5.0, 10.0):
            blocks.append(np.full(150, level))
    series = np.concatenate(blocks) + rng.normal(0, 0.5, 1350)
    path = tmp_path / "planted.csv"
    lines = ["timestamp,app"]
    for t, v in enumerate(series):
        lines.append(f"{3600 * t},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_label_reports_planted_state_count(tmp_path):
    data = planted_csv(tmp_path)
    out = tmp_path / "states.csv"
    assert run(["label", "--data", data, "--out", out, "--w", 4, "--seed", 1]) == 0
    meta = json.loads((tmp_path / "states.csv.meta.json").read_text())
    assert meta == [{"name": "app", "states": 3}]


def test_label_window_exceeding_length_fails(tmp_path, capsys):
    data = planted_csv(tmp_path)
    code = run(["label", "--data", data, "--out", tmp_path / "s.csv", "--w", 5000])
    assert code == cli.EXIT_CONFIG
    assert "exceeds series length" in capsys.readouterr().err


def test_label_rerun_identical(tmp_path):
    data = planted_csv(tmp_path)
    out = tmp_path / "states.csv"
    run(["label", "--data", data, "--out", out, "--w", 4, "--seed", 1])
    first = out.read_bytes()
    run(["label", "--data", data, "--out", out, "--w", 4, "--seed", 1])
    assert out.read_bytes() == first


def two_column_csv(tmp_path, sparse):
    """A planted column beside one with few distinct width-4 windows."""
    rng = np.random.default_rng(1)
    planted = np.repeat([0.0, 5.0, 10.0, 0.0, 5.0, 10.0], 20) + rng.normal(0, 0.3, 120)
    path = tmp_path / "few.csv"
    lines = ["timestamp,app,sparse"]
    for t, v in enumerate(planted):
        lines.append(f"{3600 * t},{float(v)!r},{sparse(t)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_label_constant_column_is_data_error_naming_file_and_variable(tmp_path, capsys):
    data = two_column_csv(tmp_path, lambda t: 0.0)  # one distinct window
    code = run(["label", "--data", data, "--out", tmp_path / "s.csv", "--w", 4])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(data) in err and "'sparse'" in err and "1 distinct" in err
    assert not (tmp_path / "s.csv").exists()


def test_label_column_with_two_distinct_windows_gets_two_states(tmp_path):
    # only the first cell is non-zero: two distinct windows, so k stops at 2
    data = two_column_csv(tmp_path, lambda t: 2.5 if t == 0 else 0.0)
    out = tmp_path / "s.csv"
    assert run(["label", "--data", data, "--out", out, "--w", 4]) == 0
    profile, _, names = load_states_csv(out)
    assert names == ["app", "sparse"] and profile.counts[1] == 2
    assert profile.labels[0, 1] == 1 and (profile.labels[1:, 1] == 0).all()


def test_missing_data_file_is_data_error(tmp_path, capsys):
    code = run(["label", "--data", tmp_path / "nope.csv", "--out", tmp_path / "s.csv"])
    assert code == cli.EXIT_DATA


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """synth + label shared by the pipeline tests."""
    tmp_path = tmp_path_factory.mktemp("cli_run")
    run(synth_args(tmp_path, length=420, seed=5))
    run(
        [
            "label",
            "--data", tmp_path / "data.csv",
            "--out", tmp_path / "states.csv",
            "--w", 4,
            "--seed", 5,
        ]
    )
    return tmp_path


def pipeline_args(tmp_path, report_dir, alpha, seed=5):
    return [
        "pipeline",
        "--data", tmp_path / "data.csv",
        "--states", tmp_path / "states.csv",
        "--report-dir", report_dir,
        "--checkpoint-dir", report_dir / "ckpt",
        "--lookback", 16,
        "--horizons", "2,4",
        "--max-epochs", 6,
        "--alpha", alpha,
        "--seed", seed,
    ]


def test_pipeline_alpha_zero_shows_zero_improvement(small_run):
    report_dir = small_run / "rep_alpha0"
    assert run(pipeline_args(small_run, report_dir, alpha=0.0)) == 0
    comparison = (report_dir / "comparison.csv").read_text().strip().splitlines()
    avg = comparison[-1].split(",")
    assert float(avg[3]) == 0.0 and float(avg[6]) == 0.0


def test_pipeline_report_row_count_matches_horizons(small_run):
    report = metrics.load_report_csv(small_run / "rep_alpha0" / "plain.csv")
    assert report.horizons == [2, 4]


def test_pipeline_rerun_byte_identical(small_run):
    rep1 = small_run / "rep_det1"
    rep2 = small_run / "rep_det2"
    assert run(pipeline_args(small_run, rep1, alpha=1.0)) == 0
    assert run(pipeline_args(small_run, rep2, alpha=1.0)) == 0
    for name in ("plain.csv", "guided.csv", "comparison.csv"):
        assert (rep1 / name).read_bytes() == (rep2 / name).read_bytes()


def test_train_eval_compare_round_trip(small_run):
    ckpt = small_run / "msp.json"
    assert (
        run(
            [
                "train-msp",
                "--data", small_run / "data.csv",
                "--states", small_run / "states.csv",
                "--lookback", 16,
                "--horizon", 3,
                "--max-epochs", 4,
                "--seed", 5,
                "--out", ckpt,
            ]
        )
        == 0
    )
    plain_ckpt = small_run / "plain.json"
    guided_ckpt = small_run / "guided.json"
    common = [
        "--data", small_run / "data.csv",
        "--states", small_run / "states.csv",
        "--lookback", 16,
        "--max-epochs", 4,
        "--seed", 5,
    ]
    assert run(["train", *common, "--horizon", 3, "--out", plain_ckpt]) == 0
    assert run(["train", *common, "--horizon", 3, "--msp", ckpt, "--out", guided_ckpt]) == 0
    plain_rep = small_run / "plain_rep.csv"
    guided_rep = small_run / "guided_rep.csv"
    assert run(["eval", *common, "--model", plain_ckpt, "--out", plain_rep]) == 0
    assert run(["eval", *common, "--model", guided_ckpt, "--out", guided_rep]) == 0
    cmp_path = small_run / "cmp.csv"
    assert (
        run(["compare", "--baseline", plain_rep, "--treated", guided_rep, "--out", cmp_path]) == 0
    )
    assert cmp_path.read_text().startswith("horizon,")


def test_stage_commands_write_the_pipeline_outputs(small_run):
    """train-msp, train, train --msp and eval run the pipeline's stages:
    the same flags give the same checkpoints and report row."""
    out = small_run / "stages"
    common = [
        "--data", small_run / "data.csv",
        "--states", small_run / "states.csv",
        "--lookback", 16,
        "--max-epochs", 4,
        "--seed", 5,
    ]
    ckpt = out / "ckpt"
    assert run(["pipeline", *common, "--horizons", 3, "--report-dir", out,
                "--checkpoint-dir", ckpt]) == 0
    stage = [*common, "--horizon", 3]
    assert run(["train-msp", *stage, "--out", out / "msp.json"]) == 0
    assert run(["train", *stage, "--out", out / "plain.json"]) == 0
    assert run(["train", *stage, "--msp", out / "msp.json", "--out", out / "guided.json"]) == 0
    for name in ("msp", "plain", "guided"):
        assert (out / f"{name}.json").read_bytes() == (ckpt / f"{name}_h3.json").read_bytes()
    assert run(["eval", *common, "--model", out / "guided.json", "--out", out / "eval.csv"]) == 0
    lines = (out / "eval.csv").read_text().splitlines()
    assert len(lines) == 2 and lines == (out / "guided.csv").read_text().splitlines()


def test_train_and_eval_never_open_the_state_csv(small_run):
    """Only the teacher reads state labels: train, train --msp and eval
    exit 0 when --states names a missing file, and write the same bytes
    as with the labels."""
    out = small_run / "no_states"
    out.mkdir()
    common = ["--data", small_run / "data.csv", "--lookback", 16, "--max-epochs", 4, "--seed", 5]
    train = [*common, "--horizon", 3]
    labels = ["--states", small_run / "states.csv"]
    assert run(["train-msp", *train, *labels, "--out", out / "msp.json"]) == 0
    for name, states in (("labels", labels), ("missing", ["--states", out / "missing.csv"])):
        guide = ["--msp", out / "msp.json"]
        assert run(["train", *train, *states, "--out", out / f"plain_{name}.json"]) == 0
        assert run(["train", *train, *states, *guide, "--out", out / f"guided_{name}.json"]) == 0
        model = ["--model", out / f"guided_{name}.json"]
        assert run(["eval", *common, *states, *model, "--out", out / f"eval_{name}.csv"]) == 0
    for file in ("plain_{}.json", "guided_{}.json", "eval_{}.csv"):
        assert (out / file.format("labels")).read_bytes() == (out / file.format("missing")).read_bytes()


@pytest.fixture(scope="module")
def h2_forecaster(small_run):
    """A plain forecaster checkpoint at lookback 16, horizon 2."""
    path = small_run / "h2.json"
    args = ["--data", small_run / "data.csv", "--lookback", 16, "--max-epochs", 1, "--seed", 5]
    assert run(["train", *args, "--horizon", 2, "--out", path]) == 0
    return path


def test_flags_are_not_matched_by_prefix(small_run, h2_forecaster, capsys):
    """eval has no --horizon; it used to be read as --horizons and ignored."""
    report = small_run / "prefix.csv"
    args = ["--data", small_run / "data.csv", "--model", h2_forecaster, "--out", report]
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--horizon", 3, *args])
    assert exc.value.code == 2
    assert "unrecognized arguments: --horizon 3" in capsys.readouterr().err
    assert not report.exists()
    with pytest.raises(SystemExit) as exc:
        run(["config", "--look", 16])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["--hel"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lookback", 12], "--lookback 12 does not match {} (lookback 16)"),
        (["--horizons", 3], "--horizons 3 does not match {} (horizon 2)"),
        (["--horizons", "2,4"], "--horizons 2,4 does not match {} (horizon 2)"),
    ],
)
def test_eval_rejects_flags_that_disagree_with_the_checkpoint(
    small_run, h2_forecaster, tmp_path, capsys, flags, message
):
    report = tmp_path / "report.csv"
    args = ["eval", "--data", small_run / "data.csv", "--model", h2_forecaster, "--out", report]
    assert run([*args, *flags]) == cli.EXIT_CONFIG
    assert message.format(h2_forecaster) in capsys.readouterr().err
    assert not report.exists()
    assert run([*args, "--lookback", 16, "--horizons", 2]) == 0  # agreeing flags are fine
    assert report.exists()


@pytest.mark.parametrize("command", ["label", "train-msp", "train", "eval"])
def test_missing_out_directory_fails_before_any_work(
    small_run, h2_forecaster, monkeypatch, capsys, command
):
    from loadcast import labeling, train

    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for module, name in ((train, "train_loop"), (labeling, "identify_states"),
                         (cli, "evaluate_forecaster")):
        monkeypatch.setattr(module, name, never)
    out = small_run / "nodir" / "x" / "out.file"
    args = ["--data", small_run / "data.csv", "--states", small_run / "states.csv",
            "--lookback", 16, "--max-epochs", 1, "--out", out]
    extra = {"train-msp": ["--horizon", 2], "train": ["--horizon", 2],
             "eval": ["--model", h2_forecaster]}
    assert run([command, *args, *extra.get(command, [])]) == cli.EXIT_CONFIG
    assert f"cannot write {out}: no directory {out.parent}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lookback=48\nalpha=0.25\n# comment\nbatch=64\n", encoding="utf-8")
    assert run(["config", "--config", config, "--alpha", 0.5]) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert lines["lookback"] == "48"  # from file
    assert lines["alpha"] == "0.5"  # flag wins
    assert lines["batch"] == "64"
    assert lines["lr"] == "0.001"  # default


# a valid value, other than the default, of every RunConfig field
NON_DEFAULT = {
    "data_csv": "d.csv", "states_csv": "s.csv", "checkpoint_dir": "ck", "report_dir": "rep",
    "lookback": "48", "horizons": "2,4", "lr": "0.01", "batch": "64", "patience": "3",
    "max_epochs": "7", "alpha": "0.5", "w": "8", "min_s": "3", "max_s": "4", "seed": "9",
    "period_seconds": "1800", "forecaster_kind": "mlp", "hidden": "32", "trunk_channels": "8",
    "ue_channels": "4", "kernel_width": "5",
}


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_every_setting_has_a_flag_and_a_config_key(tmp_path, capsys, key):
    """Each RunConfig field is set by --<field with - for _> (--data and
    --states for the two CSVs) and by its config key, alike."""
    value = NON_DEFAULT[key]
    flag = {"data_csv": "--data", "states_csv": "--states"}.get(key, "--" + key.replace("_", "-"))
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n", encoding="utf-8")
    printed = []
    for args in ([], [flag, value], ["--config", config]):
        assert run(["config", *args]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        printed.append(dict(line.split("=", 1) for line in out)[key])
    default, by_flag, by_file = printed
    assert default != value and by_flag == value and by_file == value


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("nonsense=1\n", encoding="utf-8")
    assert run(["config", "--config", config]) == cli.EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_commands_do_not_mutate_inputs(small_run):
    data_before = (small_run / "data.csv").read_bytes()
    states_before = (small_run / "states.csv").read_bytes()
    run(pipeline_args(small_run, small_run / "rep_mut", alpha=1.0))
    assert (small_run / "data.csv").read_bytes() == data_before
    assert (small_run / "states.csv").read_bytes() == states_before


def test_pipeline_stage_tagged_diagnostics(small_run, tmp_path, capsys):
    # states that do not align with the data file fail in the load stage
    other = tmp_path / "other.csv"
    run(synth_args(tmp_path, length=100, seed=8))
    run(
        [
            "label",
            "--data", tmp_path / "data.csv",
            "--out", other,
            "--w", 4,
            "--seed", 8,
        ]
    )
    code = run(
        [
            "pipeline",
            "--data", small_run / "data.csv",
            "--states", other,
            "--report-dir", tmp_path / "rep",
            "--checkpoint-dir", tmp_path / "ck",
            "--lookback", 16,
            "--horizons", "2",
            "--max-epochs", 2,
        ]
    )
    assert code == cli.EXIT_DATA
    assert "[stage load-states]" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_ends_in_exit_0_with_nothing_on_stderr(unbuffered):
    """The command's work is done when its report cannot be printed; with
    buffered stdout the write fails at the flush, unbuffered at the print."""
    src = str(Path(loadcast.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "loadcast.cli", "config"], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


def test_config_defaults_follow_protocol(capsys):
    assert run(["config"]) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert lines["lookback"] == "336"
    assert lines["horizons"] == "1,6,12,24,36,48,60,72,168,336"
    assert lines["lr"] == "0.001"
    assert lines["batch"] == "128"
    assert lines["patience"] == "10"
    assert lines["min_s"] == "2"
    assert lines["max_s"] == "5"
    assert lines["alpha"] == "1.0"
    assert lines["w"] == "24"
