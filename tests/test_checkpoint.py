"""Checkpoint container tests: bit-exact v2 blocks, byte-stable saves,
the v1 reader, and malformed files ending in a data error that names
the file."""

import base64
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import checkpoint, cli
from loadcast.errors import ConfigError
from loadcast.forecaster import ForecasterConfig, load_forecaster, make_forecaster, save_forecaster
from loadcast.msp import MspConfig, MspModel, load_msp, save_msp
from tests.batches import as_series


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def test_v2_round_trip_is_bit_exact(tmp_path):
    nan_payload = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
    special = [-0.0, 0.0, 5e-324, 2.2e-310, 1e308, -1e308, np.inf, -np.inf, nan_payload]
    rng = np.random.default_rng(3)
    arrays = [
        np.concatenate([special, rng.normal(size=31)]).reshape(5, 8),
        np.asarray(rng.normal(size=(2, 3, 4)), order="F"),
        np.array(-0.0),
        np.zeros((0, 3)),
    ]
    names = ["special", "fortran", "scalar", "empty"]
    path = tmp_path / "c.json"
    checkpoint.save_container(path, "test", {"a": 1}, names, arrays)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["version"] == 2
    assert [b["dtype"] for b in doc["params"]] == ["<f8"] * 4
    assert base64.b64decode(doc["params"][0]["data"]) == np.asarray(arrays[0], "<f8").tobytes()
    kind, config, back = checkpoint.load_container(path)
    assert (kind, config) == ("test", {"a": 1})
    for name, arr in zip(names, arrays):
        assert back[name].shape == arr.shape
        np.testing.assert_array_equal(bits(back[name]), bits(arr))


def test_two_saves_of_one_model_are_byte_identical(tmp_path):
    model = MspModel(MspConfig(8, 3, 2, [2, 3], trunk_channels=4, ue_channels=3, seed=4))
    save_msp(model, tmp_path / "a.json")
    save_msp(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    back = load_msp(tmp_path / "a.json")
    for p, q in zip(back.params(), model.params()):
        np.testing.assert_array_equal(bits(p), bits(q))


def test_writer_emits_what_json_dump_would(tmp_path):
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(3, 4)), np.zeros(0), np.array(2.5)]
    names = ["w", "empty", "caf\u00e9 \"q\""]
    config = {"counts": [2, 3], "name": "\u00fc\n", "nested": {"x": None, "y": 1.5}}
    path = tmp_path / "c.json"
    checkpoint.save_container(path, "test", config, names, arrays)
    doc = {
        "format": checkpoint.FORMAT,
        "version": checkpoint.VERSION,
        "kind": "test",
        "config": config,
        "params": [
            {"name": n, "shape": list(a.shape), "dtype": "<f8",
             "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}
            for n, a in zip(names, arrays)
        ],
    }
    assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode("ascii")
    with pytest.raises(ConfigError, match="contain"):
        checkpoint.save_container(tmp_path / "d.json", "test", {"k": "\x00"}, ["w"], arrays[:1])


def test_v1_document_still_loads_bit_identically(tmp_path):
    model = make_forecaster(ForecasterConfig("mlp", 5, 2, 2, hidden=6, seed=12))
    doc = {
        "format": "loadcast-checkpoint",
        "version": 1,
        "kind": "forecaster",
        "config": {
            "kind": "mlp",
            "lookback": 5,
            "horizon": 2,
            "n_variables": 2,
            "hidden": 6,
            "per_variable": True,
            "seed": 12,
        },
        "params": [
            {"name": name, "shape": list(p.shape), "data": [float(v) for v in p.ravel()]}
            for name, p in zip(model.param_names(), model.params())
        ],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    back = load_forecaster(path)
    for p, q in zip(back.params(), model.params()):
        np.testing.assert_array_equal(bits(p), bits(q))


def with_per_variable(text, value):
    """A forecaster checkpoint as written when its config still held per_variable."""
    return text.replace('  "seed"', f'  "per_variable": {json.dumps(value)},\n  "seed"', 1)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_checkpoint_with_per_variable_true_predicts_bit_identically(tmp_path, kind):
    model = make_forecaster(ForecasterConfig(kind, 5, 2, 2, hidden=6, seed=12))
    path = tmp_path / "old.json"
    save_forecaster(model, path)
    path.write_text(with_per_variable(path.read_text(encoding="utf-8"), True), encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["config"]["per_variable"] is True
    back = load_forecaster(path)
    x = as_series(np.random.default_rng(8).normal(size=(3, 5, 2)))
    np.testing.assert_array_equal(bits(back.forward_batch(*x)), bits(model.forward_batch(*x)))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A labelled synthetic household and a one-epoch linear forecaster."""
    tmp = tmp_path_factory.mktemp("ckpt")
    run = lambda args: cli.main([str(a) for a in args])  # noqa: E731
    synth = ["synth", "--out", tmp / "data.csv", "--states-out", tmp / "truth.csv"]
    assert run([*synth, "--length", 420, "--seed", 5]) == 0
    assert run(["label", "--data", tmp / "data.csv", "--out", tmp / "states.csv", "--w", 4]) == 0
    common = ["--data", tmp / "data.csv", "--states", tmp / "states.csv", "--lookback", 16]
    assert run(["train", *common, "--horizon", 3, "--max-epochs", 1, "--out", tmp / "model.json"]) == 0
    return tmp, [str(a) for a in common]


def run_eval(workspace, model_path):
    """Exit code and stderr of `loadcast eval` on one checkpoint."""
    tmp, common = workspace
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["eval", *common, "--model", str(model_path), "--out", str(tmp / "r.csv")])
    return code, err.getvalue()


def as_v1(doc):
    doc["version"] = 1
    for block in doc["params"]:
        block["data"] = np.frombuffer(base64.b64decode(block["data"]), "<f8").tolist()
        del block["dtype"]


def drop_last_value_v1(doc):
    as_v1(doc)
    doc["params"][0]["data"].pop()


def non_numeric_v1(doc):
    as_v1(doc)
    doc["params"][0]["data"][0] = "x"


def short_block(doc):
    raw = base64.b64decode(doc["params"][0]["data"])
    doc["params"][0]["data"] = base64.b64encode(raw[:-8]).decode("ascii")


MALFORMED = {
    "missing params": lambda doc: doc.pop("params"),
    "missing kind": lambda doc: doc.pop("kind"),
    "missing config": lambda doc: doc.pop("config"),
    "missing shape": lambda doc: doc["params"][0].pop("shape"),
    "unknown config key": lambda doc: doc["config"].update(bogus=1),
    "truncated v1 data": drop_last_value_v1,
    "non-numeric v1 value": non_numeric_v1,
    "invalid base64": lambda doc: doc["params"][1].update(data="!!not base64!!"),
    "byte count mismatch": short_block,
    "big-endian dtype": lambda doc: doc["params"][0].update(dtype=">f8"),
}


def test_clean_checkpoint_evaluates(workspace):
    assert run_eval(workspace, workspace[0] / "model.json") == (0, "")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_exits_3_naming_file(workspace, tmp_path, case):
    doc = json.loads((workspace[0] / "model.json").read_text(encoding="utf-8"))
    MALFORMED[case](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert str(bad) in err


def test_flattened_linear_checkpoint_exits_3_naming_file(workspace, tmp_path):
    text = (workspace[0] / "model.json").read_text(encoding="utf-8")
    bad = tmp_path / "flat.json"
    bad.write_text(with_per_variable(text, False), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert str(bad) in err and "per_variable" in err


NOT_BASE64 = "!*-_.~ é"


@st.composite
def corrupted(draw, text):
    """A checkpoint text with one corruption applied."""
    doc = json.loads(text)
    block = draw(st.sampled_from(doc["params"]))
    how = draw(st.sampled_from(["drop key", "truncate", "flip", "reshape", "config key", "cut file"]))
    if how == "drop key":
        target = draw(st.sampled_from([doc, block]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif how == "truncate":
        block["data"] = block["data"][: draw(st.integers(0, len(block["data"]) - 1))]
    elif how == "flip":
        i = draw(st.integers(0, len(block["data"]) - 1))
        block["data"] = block["data"][:i] + draw(st.sampled_from(NOT_BASE64)) + block["data"][i + 1 :]
    elif how == "reshape":
        block["shape"] = draw(
            st.lists(st.integers(0, 64), max_size=3).filter(lambda s: s != block["shape"])
        )
    elif how == "config key":
        doc["config"][draw(st.text(min_size=1).filter(lambda k: k not in doc["config"]))] = 1
    else:
        return text[: draw(st.integers(0, len(text.rstrip()) - 1))]
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_never_escapes_as_traceback(workspace, data):
    text = (workspace[0] / "model.json").read_text(encoding="utf-8")
    bad = workspace[0] / "corrupt.json"
    bad.write_text(data.draw(corrupted(text)), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA)
    assert str(bad) in err

