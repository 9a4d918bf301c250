"""Malformed data CSVs, state CSVs and config files: each ends in exit 2
or 3 with a message naming the file, never in a traceback."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import cli

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
    assert str(bad) in err


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_config_never_escapes_as_traceback(inputs, data):
    bad = inputs / "corrupt.cfg"
    bad.write_bytes(data.draw(corrupted_lines(CONFIG, [(b"\xff", 0), (b"x", 0)], config_cut_span)))
    code, err = show_config(bad)
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA)
    assert str(bad) in err
