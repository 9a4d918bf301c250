"""Malformed inputs (data CSV, state CSV and sidecar, config file,
checkpoint, report CSV, appliance JSON) and unwritable outputs: each
ends in exit 2 or 3 with a message naming the file, never in a traceback."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import cli, labeling
from loadcast.errors import DataError

CONFIG = "lookback=48\nalpha=0.25\nbatch=64\nseed=7\nmax_epochs=3\n"


def run(args):
    """Exit code and stderr of one CLI invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small two-variable hourly CSV, its state labels and a config file."""
    tmp = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    levels = np.where((np.arange(48) // 6) % 2 == 0, 0.0, 5.0)[:, None]
    values = levels + rng.normal(0, 0.3, (48, 2))
    lines = ["timestamp,fridge,oven"]
    lines += [f"{3600 * t},{a!r},{b!r}" for t, (a, b) in enumerate(values.tolist())]
    (tmp / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp / "run.cfg").write_text(CONFIG, encoding="utf-8")
    labelled = run(["label", "--data", tmp / "data.csv", "--out", tmp / "states.csv", "--w", 4])
    assert labelled == (0, "")
    return tmp


@pytest.fixture(scope="module")
def artifacts(inputs):
    """The inputs plus what a pipeline run writes from them (two-horizon
    report CSVs and forecaster checkpoints) and an appliance JSON."""
    args = ["--data", inputs / "data.csv", "--states", inputs / "states.csv", "--lookback", 8]
    args += ["--horizons", "1,2", "--max-epochs", 1]
    args += ["--checkpoint-dir", inputs / "ck", "--report-dir", inputs / "rep"]
    assert run(["pipeline", *args]) == (0, "")
    spec = {
        "appliances": [
            {"name": "fridge", "state_levels": [0.1, 0.7], "dwell_means": [5.0, 3.0]},
            {"name": "washer", "state_levels": [0.0, 2.0], "dwell_means": [12.0, 4.0]},
            {"name": "dryer", "state_levels": [0.0, 2.5], "dwell_means": [20.0, 5.0],
             "trigger": {"source": "washer", "source_state": 1, "lag": 2, "probability": 0.9}},
        ],
        "length": 48, "noise_sigma": 0.05, "spike_rate": 0.01,
        "include_household_total": True, "seed": 3,
    }
    (inputs / "home.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return inputs


# each input the CLI reads, and the artifact a test starts it from
READERS = {
    "data CSV": "data.csv", "state CSV": "states.csv", "sidecar": "states.csv.meta.json",
    "config": "run.cfg", "checkpoint": "ck/plain_h2.json", "report CSV": "rep/guided.csv",
    "appliance JSON": "home.json",
}


def reading_command(artifacts, where, reader):
    """(path, args, exit code): the command that reads `path` as the given
    input, and the exit code it ends in when that file is broken. Each
    path starts as a clean copy of the artifact, in `where`."""
    for name in {READERS[reader], "states.csv", "states.csv.meta.json"}:
        (where / Path(name).name).write_bytes((artifacts / name).read_bytes())
    path = where / Path(READERS[reader]).name
    data = ["--data", artifacts / "data.csv"]
    out = ["--out", where / "out.csv"]
    args = {
        "data CSV": ["label", "--data", path, "--w", 4, *out],
        "state CSV": ["train-msp", *data, "--states", where / "states.csv", "--lookback", 8,
                      "--horizon", 2, "--max-epochs", 1, "--out", where / "m.json"],
        "config": ["config", "--config", path],
        "checkpoint": ["eval", *data, "--states", artifacts / "states.csv", "--model", path, *out],
        "report CSV": ["compare", "--baseline", artifacts / "rep/plain.csv", "--treated", path,
                       *out],
        "appliance JSON": ["synth", "--appliances", path, *out, "--states-out", where / "t.csv"],
    }
    args["sidecar"] = args["state CSV"]
    code = cli.EXIT_CONFIG if reader in ("config", "appliance JSON") else cli.EXIT_DATA
    return path, args[reader], code


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_missing_or_directory_input_exits_naming_it(artifacts, tmp_path, reader, kind):
    path, args, expected = reading_command(artifacts, tmp_path, reader)
    path.unlink()
    if kind == "directory":
        path.mkdir()
    code, err = run(args)
    assert code == expected and str(path) in err, err


def shifted(rows):
    return [rows[0]] + [f"{int(t) + 3600},{rest}" for t, rest in (r.split(",", 1) for r in rows[1:])]


# (command and flags, the data CSV's rows -> a data CSV that fails after it is read)
PIPELINE = ["pipeline", "--states", "{inputs}/states.csv", "--lookback", 8, "--horizons", 1,
            "--max-epochs", 1, "--checkpoint-dir", "{tmp}/ck", "--report-dir", "{tmp}/rep"]
AFTER_READ = {
    "label, empty bucket": (["label", "--w", 4, "--out", "{tmp}/s.csv"],
                            lambda rows: rows[:11] + rows[12:]),
    "pipeline, empty bucket": (PIPELINE, lambda rows: rows[:11] + rows[12:]),
    "pipeline, states of other columns": (PIPELINE,
                                          lambda rows: [rows[0].replace("oven", "hob"), *rows[1:]]),
    "pipeline, misaligned states": (PIPELINE, shifted),
    "train, 3 rows": (["train", "--horizon", 1, "--out", "{tmp}/f.json"], lambda rows: rows[:4]),
    "train, lookback 3 on 6 rows": (["train", "--horizon", 1, "--lookback", 3,
                                     "--out", "{tmp}/f.json"], lambda rows: rows[:7]),
}


@pytest.mark.parametrize("case", AFTER_READ)
def test_error_found_after_reading_names_the_file_once(inputs, tmp_path, case):
    command, rewrite = AFTER_READ[case]
    data = tmp_path / "data.csv"
    rows = (inputs / "data.csv").read_text(encoding="utf-8").splitlines()
    data.write_text("\n".join(rewrite(rows)) + "\n", encoding="utf-8")
    args = [str(a).format(tmp=tmp_path, inputs=inputs) for a in command] + ["--data", data]
    code, err = run(args)
    assert code == cli.EXIT_DATA, err
    named = [data, inputs / "states.csv"] if "states" in case else [data]
    for path in named:
        assert err.count(str(path)) == 1 and f"{path}: {path}" not in err, err


def test_reports_of_other_horizons_exit_2_naming_both(artifacts, tmp_path):
    baseline, treated = artifacts / "rep/plain.csv", tmp_path / "one.csv"
    header, first_row = (artifacts / "rep/guided.csv").read_text("utf-8").splitlines()[:2]
    treated.write_text(f"{header}\n{first_row}\n", "utf-8")
    code, err = run(["compare", "--baseline", baseline, "--treated", treated,
                     "--out", tmp_path / "c.csv"])
    assert code == cli.EXIT_CONFIG and f"{baseline} vs {treated}: horizon sets differ" in err


@pytest.mark.parametrize(
    "command",
    [["synth", "--states-out", "{tmp}/t.csv", "--length", 48],
     ["label", "--data", "{inputs}/data.csv", "--w", 4],
     ["pipeline", "--data", "{inputs}/data.csv", "--states", "{inputs}/states.csv",
      "--lookback", 8, "--horizons", 2, "--max-epochs", 1, "--report-dir", "{tmp}/rep"]],
    ids=["synth", "label", "pipeline"],
)
def test_unwritable_output_exits_2_naming_it(inputs, tmp_path, command):
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "out"  # under a regular file: no directory can hold it
    flag = "--checkpoint-dir" if command[0] == "pipeline" else "--out"
    args = [str(a).format(tmp=tmp_path, inputs=inputs) for a in command] + [flag, out]
    code, err = run(args)
    assert code == cli.EXIT_CONFIG and err.startswith(f"configuration error: cannot write {out}: ")


def label(inputs, data):
    return run(["label", "--data", data, "--out", inputs / "out.csv", "--w", 4])


def show_config(path):
    return run(["config", "--config", path])


def train_msp(inputs, states):
    data = inputs / "data.csv"
    args = ["--lookback", 8, "--horizon", 2, "--max-epochs", 1, "--out", inputs / "m.json"]
    return run(["train-msp", "--data", data, "--states", states, *args])


def test_clean_inputs_pass(inputs):
    assert label(inputs, inputs / "data.csv") == (0, "")
    assert show_config(inputs / "run.cfg")[0] == 0


@pytest.mark.parametrize(
    "content",
    [
        b"timestamp,a\n0,1.0\n3600,\xff2.0\n",
        b"\xfftimestamp,a\n0,1.0\n",
        b"timestamp,a\n99999999999999999999999,1.0\n",
        None,  # a directory
    ],
)
def test_malformed_data_csv_exits_3_naming_file(inputs, tmp_path, content):
    bad = tmp_path / "bad.csv"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    code, err = label(inputs, bad)
    assert code == cli.EXIT_DATA and str(bad) in err


@pytest.mark.parametrize("content", [b"lookback=48\nalpha=\xff\n", None])  # None: a directory
def test_unreadable_config_exits_2_naming_file(tmp_path, content):
    bad = tmp_path / "bad.cfg"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    code, err = show_config(bad)
    assert code == cli.EXIT_CONFIG and str(bad) in err


def test_malformed_state_csv_exits_3_naming_file(inputs, tmp_path):
    good = (inputs / "states.csv").read_bytes()
    bad = tmp_path / "states.csv"
    bad.write_bytes(good[: good.rindex(b",") + 1] + b"x\n")
    (tmp_path / "states.csv.meta.json").write_bytes((inputs / "states.csv.meta.json").read_bytes())
    code, err = train_msp(inputs, bad)
    assert code == cli.EXIT_DATA and str(bad) in err


def test_header_only_state_csv_exits_3_without_a_warning(inputs, tmp_path):
    bad = tmp_path / "states.csv"
    header = (inputs / "states.csv").read_text(encoding="utf-8").splitlines()[0]
    bad.write_text(header + "\n", encoding="utf-8")
    (tmp_path / "states.csv.meta.json").write_bytes((inputs / "states.csv.meta.json").read_bytes())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = train_msp(inputs, bad)
    assert code == cli.EXIT_DATA and f"{bad}: no data rows" in err, err
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("states", [7, 1, "2", 2.5, True])
def test_sidecar_state_count_outside_the_integers_2_to_5_exits_3_naming_it(
    inputs, tmp_path, states
):
    """Each is rejected while the sidecar is read. Before that check, 7
    failed as a configuration error naming no file, "2" and 2.5 were read
    as 2 states, and 1 and true were blamed on the state CSV."""
    (tmp_path / "states.csv").write_bytes((inputs / "states.csv").read_bytes())
    meta = json.loads((inputs / "states.csv.meta.json").read_text(encoding="utf-8"))
    meta[1]["states"] = states
    sidecar = tmp_path / "states.csv.meta.json"
    sidecar.write_text(json.dumps(meta), encoding="utf-8")
    message = (f"{sidecar}: variable 'oven': states must be an integer in [2, 5], "
               f"got {json.dumps(states)}")
    with pytest.raises(DataError) as caught:
        labeling.load_states_csv(tmp_path / "states.csv")
    assert str(caught.value) == message
    args = ["--lookback", 8, "--horizon", 2, "--max-epochs", 1, "--out", tmp_path / "m.json"]
    code, err = run(["train-msp", "--data", inputs / "data.csv", "--states",
                     tmp_path / "states.csv", *args])
    assert code == cli.EXIT_DATA and message in err, err
    assert not (tmp_path / "m.json").exists()


@st.composite
def corrupted_lines(draw, text, flips, cut_span):
    """The text with one corruption that no reading accepts.

    flips lists (byte, lowest offset) pairs: one byte of the file at or
    past that offset becomes that byte. A cut on a line boundary, or
    inside a value, leaves a valid shorter file, so a cut keeps
    line[:j] for j in cut_span(line_no, line): up to a data row's last
    comma, or up to a config line's '='.
    """
    lines = text.rstrip("\n").split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    sep = "=" if "=" in lines[i] else ","
    cells = lines[i].split(sep)
    how = draw(st.sampled_from(["flip", "truncate", "drop cell", "add cell"]))
    if how == "flip":
        raw = text.encode("utf-8")
        byte, lowest = draw(st.sampled_from(flips))
        at = draw(st.integers(lowest, len(raw) - 1).filter(lambda a: raw[a : a + 1] != byte))
        return raw[:at] + byte + raw[at + 1 :]
    if how == "truncate":
        lo, hi = cut_span(i, lines[i])
        lines = lines[:i] + [lines[i][: draw(st.integers(lo, hi))]]
        return "\n".join(lines).encode("utf-8")
    if how == "drop cell":
        del cells[draw(st.integers(0, len(cells) - 1))]
    else:
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(["1.0", "extra", ""])))
    lines[i] = sep.join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


def csv_cut_span(i, line):
    # the header may be cut to nothing (an empty file); a data row keeps >= 1 byte
    return (0 if i == 0 else 1), line.rindex(",")


def config_cut_span(i, line):
    return 1, line.index("=") + 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_data_csv_never_escapes_as_traceback(inputs, data):
    text = (inputs / "data.csv").read_text(encoding="utf-8")
    body = text.index("\n") + 1  # a printable flip inside the header just renames a column
    flips = [(b"\xff", 0), (b"x", body), (b";", body)]
    bad = inputs / "corrupt.csv"
    bad.write_bytes(data.draw(corrupted_lines(text, flips, csv_cut_span)))
    code, err = label(inputs, bad)
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA)
    assert str(bad) in err and f"{bad}: {bad}" not in err


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_config_never_escapes_as_traceback(inputs, data):
    bad = inputs / "corrupt.cfg"
    bad.write_bytes(data.draw(corrupted_lines(CONFIG, [(b"\xff", 0), (b"x", 0)], config_cut_span)))
    code, err = show_config(bad)
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA)
    assert str(bad) in err and f"{bad}: {bad}" not in err


@st.composite
def corrupted_json(draw, raw, flips):
    """raw, a JSON document, with one byte changed to one of flips, or cut
    before its last non-blank byte (no cut of an object or list parses)."""
    if draw(st.booleans()):
        byte = draw(st.sampled_from(flips))
        at = draw(st.integers(0, len(raw) - 1).filter(lambda a: raw[a : a + 1] != byte))
        return raw[:at] + byte + raw[at + 1 :]
    return raw[: draw(st.integers(0, len(raw.rstrip()) - 1))]


CSV_FLIPS = [(b"\xff", 0), (b"x", 0), (b";", 0)]
CORRUPTIONS = {
    "state CSV": lambda raw: corrupted_lines(raw.decode("utf-8"), CSV_FLIPS, csv_cut_span),
    "report CSV": lambda raw: corrupted_lines(raw.decode("utf-8"), CSV_FLIPS, csv_cut_span),
    "sidecar": lambda raw: corrupted_json(raw, [b"\xff", b"x", b"{"]),
    # x or a digit in the header could be valid JSON; any byte in the blocks is a valid, different parameter
    "checkpoint": lambda raw: corrupted_json(raw, [b"\xff", b"{", b","]),
    "appliance JSON": lambda raw: corrupted_json(raw, [b"\xff", b"x", b"9", b"-"]),
}


@pytest.mark.parametrize("reader", CORRUPTIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_input_never_escapes_as_traceback(artifacts, reader, data):
    where = artifacts / "corrupt"
    where.mkdir(exist_ok=True)
    path, args, _ = reading_command(artifacts, where, reader)
    path.write_bytes(data.draw(CORRUPTIONS[reader](path.read_bytes())))
    code, err = run(args)
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_DATA), err
    assert code == 0 or str(path) in err, err
    assert f"{path}: {path}" not in err, err


@pytest.mark.parametrize(
    "line",
    ["batch=0", "batch=-3", "max_epochs=0", "patience=0", "lr=0", "lr=-0.1", "lr=nan", "lr=inf",
     "horizons=0", "horizons=", "alpha=-1", "alpha=nan", "alpha=inf", "weight_mode=foo",
     "weight_mode=prob", "forecaster_kind=foo", "hidden=0", "trunk_channels=0", "ue_channels=-2",
     "kernel_width=0", "seed=-1", "w=0", "min_s=1", "max_s=1", "max_s=6", "period_seconds=0",
     "period_seconds=-5", "per_variable=true", "horizons=6,6"],
)
def test_invalid_config_value_exits_2_naming_file(tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + line + "\n", encoding="utf-8")
    code, err = show_config(bad)
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"configuration error: {bad}: "), err
    assert line.partition("=")[0] in err


@pytest.mark.parametrize(
    "flag",
    [["--batch", 0], ["--max-epochs", 0], ["--lr", "nan"], ["--horizons", 0], ["--alpha", -1],
     ["--alpha", "nan"], ["--hidden", 0], ["--trunk-channels", 0], ["--ue-channels", -2],
     ["--kernel-width", 0], ["--horizons", ""], ["--seed", -1], ["--w", 0], ["--min-s", 1],
     ["--max-s", 6], ["--min-s", 4, "--max-s", 3], ["--period-seconds", -5],
     ["--forecaster-kind", "foo"], ["--horizons", "6,6"]],
)
def test_invalid_flag_value_exits_2_without_naming_file(inputs, flag):
    code, err = run(["config", "--config", inputs / "run.cfg", *flag])
    assert code == cli.EXIT_CONFIG and err.startswith("configuration error: ")
    assert str(inputs / "run.cfg") not in err


@pytest.mark.parametrize(
    "bad",
    [["--trunk-channels", 0], ["--kernel-width", 0], ["--ue-channels", -2], ["--alpha", -1],
     ["--alpha", "nan"], ["--hidden", 0, "--forecaster-kind", "mlp"], "weight_mode=foo"],
)
def test_invalid_model_value_exits_2_before_any_checkpoint(inputs, tmp_path, bad):
    args = ["pipeline", "--data", inputs / "data.csv", "--states", inputs / "states.csv"]
    args += ["--lookback", 8, "--horizons", 2, "--max-epochs", 1]
    args += ["--checkpoint-dir", tmp_path / "ck", "--report-dir", tmp_path / "rep"]
    if isinstance(bad, str):  # a config file line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(bad + "\n", encoding="utf-8")
        args += ["--config", cfg]
    else:
        args += bad
    code, err = run(args)
    assert code == cli.EXIT_CONFIG and err.startswith("configuration error: "), err
    if isinstance(bad, str):
        assert str(cfg) in err
    assert not (tmp_path / "ck").exists()


def test_lookback_below_the_kernel_width_exits_2_only_where_a_teacher_is_built(inputs, tmp_path):
    args = ["--data", inputs / "data.csv", "--states", inputs / "states.csv", "--max-epochs", 1]
    forecaster = tmp_path / "f.json"
    assert run(["train", *args, "--lookback", 1, "--horizon", 1, "--out", forecaster]) == (0, "")
    teacher = tmp_path / "m.json"
    code, err = run(["train-msp", *args, "--lookback", 2, "--horizon", 1, "--out", teacher])
    assert code == cli.EXIT_CONFIG and "lookback 2 is below the kernel width 3" in err, err
    assert not teacher.exists()
    args += ["--lookback", 2, "--horizons", 1]
    args += ["--checkpoint-dir", tmp_path / "ck", "--report-dir", tmp_path / "rep"]
    code, err = run(["pipeline", *args])
    assert code == cli.EXIT_CONFIG and "lookback 2 is below the kernel width 3" in err, err
    assert [f.name for f in tmp_path.rglob("*") if f.is_file()] == ["f.json"]
    assert not (tmp_path / "ck").exists() and not (tmp_path / "rep").exists()


def test_flag_overriding_a_bad_file_value_is_accepted(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + "patience=0\n", encoding="utf-8")
    assert run(["config", "--config", cfg, "--patience", 3]) == (0, "")


def test_batch_zero_ends_in_exit_2_not_a_traceback(inputs, tmp_path):
    code, err = train_msp(inputs, inputs / "states.csv")
    assert code == 0, err
    args = ["train-msp", "--data", inputs / "data.csv", "--states", inputs / "states.csv"]
    args += ["--lookback", 8, "--horizon", 2, "--out", tmp_path / "m.json"]
    code, err = run([*args, "--batch", 0])
    assert code == cli.EXIT_CONFIG and "batch must be >= 1" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch=0\n", encoding="utf-8")
    code, err = run([*args, "--config", cfg])
    assert code == cli.EXIT_CONFIG and str(cfg) in err


def test_train_loop_rejects_empty_batches():
    from loadcast.errors import ConfigError
    from loadcast.forecaster import ForecasterConfig, make_forecaster
    from loadcast.train import train_loop

    model = make_forecaster(ForecasterConfig("linear", 4, 2, 1))
    for bad in ({"batch_size": 0}, {"max_epochs": 0}, {"patience": 0}):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be >= 1"):
            train_loop(model, 8, lambda idx, update: 0.0, lambda: 0.0, **bad)


def test_teacher_of_another_horizon_exits_2_naming_checkpoint_and_data(inputs, tmp_path):
    teacher = tmp_path / "m.json"
    args = ["--data", inputs / "data.csv", "--states", inputs / "states.csv", "--lookback", 8]
    args += ["--max-epochs", 1]
    assert run(["train-msp", *args, "--horizon", 2, "--out", teacher]) == (0, "")
    forecaster = tmp_path / "f.json"
    code, err = run(["train", *args, "--horizon", 1, "--msp", teacher, "--out", forecaster])
    assert code == cli.EXIT_CONFIG and "geometry" in err, err
    assert str(teacher) in err and str(inputs / "data.csv") in err
    assert not forecaster.exists()


def test_eval_on_data_with_other_columns_exits_2_naming_checkpoint_and_data(inputs, tmp_path):
    model = tmp_path / "f.json"
    args = ["--data", inputs / "data.csv", "--states", inputs / "states.csv", "--lookback", 8]
    code, err = run(["train", *args, "--horizon", 2, "--max-epochs", 1, "--out", model])
    assert code == 0, err
    one_column = tmp_path / "one.csv"
    lines = (inputs / "data.csv").read_text(encoding="utf-8").splitlines()
    one_column.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", "utf-8")
    states = tmp_path / "one_states.csv"
    assert run(["label", "--data", one_column, "--out", states, "--w", 4]) == (0, "")
    args = ["--data", one_column, "--states", states, "--model", model, "--out", tmp_path / "r.csv"]
    code, err = run(["eval", *args])
    assert code == cli.EXIT_CONFIG and "does not match" in err, err
    assert str(model) in err and str(one_column) in err
    assert not (tmp_path / "r.csv").exists()
