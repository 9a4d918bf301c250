"""Checkpoint container tests: bit-exact v3 blocks after a one-line
header, byte-stable saves, the v1 and v2 readers, and malformed files
ending in a data error that names the file."""

import base64
import contextlib
import io
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import checkpoint, cli
from loadcast.forecaster import ForecasterConfig, load_forecaster, make_forecaster
from loadcast.msp import MspConfig, MspModel, load_msp, save_msp
from tests.batches import as_series


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def v2_document(kind, config, names, arrays):
    """A version-2 container document: each block's little-endian float64
    bytes as a base64 "data" string."""
    return {
        "format": checkpoint.FORMAT,
        "version": 2,
        "kind": kind,
        "config": config,
        "params": [
            {"name": name, "shape": list(arr.shape), "dtype": "<f8",
             "data": base64.b64encode(np.asarray(arr, "<f8").tobytes()).decode("ascii")}
            for name, arr in zip(names, arrays)
        ],
    }


def model_v2(model, **config):
    """The version-2 document of a forecaster, its config updated by config."""
    config = {**asdict(model.config), **config}
    return v2_document("forecaster", config, model.param_names(), model.params())


def special_arrays():
    """Blocks of every layout, with -0.0, subnormals, ±inf and a NaN payload."""
    nan_payload = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
    special = [-0.0, 0.0, 5e-324, 2.2e-310, 1e308, -1e308, np.inf, -np.inf, nan_payload]
    rng = np.random.default_rng(3)
    arrays = [
        np.concatenate([special, rng.normal(size=31)]).reshape(5, 8),
        np.asarray(rng.normal(size=(2, 3, 4)), order="F"),
        np.array(-0.0),
        np.zeros((0, 3)),
        np.array([nan_payload, -0.0, 5e-324, -np.inf], dtype=">f8"),  # as a big-endian host holds it
    ]
    return ["special", "fortran", "scalar", "empty", "big-endian"], arrays


def test_v3_round_trip_is_bit_exact(tmp_path):
    names, arrays = special_arrays()
    path = tmp_path / "c.json"
    checkpoint.save_container(path, "test", {"a": 1}, names, arrays)
    header, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(header)["version"] == 3
    assert body == b"".join(np.asarray(arr, "<f8").tobytes() for arr in arrays)
    kind, config, back = checkpoint.load_container(path)
    assert (kind, config) == ("test", {"a": 1})
    for name, arr in zip(names, arrays):
        assert back[name].shape == arr.shape
        np.testing.assert_array_equal(bits(back[name]), bits(arr))


def test_v2_round_trip_is_bit_exact(tmp_path):
    names, arrays = special_arrays()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(v2_document("test", {"a": 1}, names, arrays), indent=1) + "\n")
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


def test_writer_emits_one_header_line_then_8_bytes_per_parameter(tmp_path):
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(3, 4)), np.zeros(0), np.array(2.5)]
    names = ["w", "empty", "café \"q\"\n"]
    config = {"counts": [2, 3], "name": "ü\n", "nested": {"x": None, "y": 1.5}}
    path = tmp_path / "c.json"
    checkpoint.save_container(path, "test", config, names, arrays)
    header, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(header) == {
        "format": checkpoint.FORMAT,
        "version": checkpoint.VERSION,
        "kind": "test",
        "config": config,
        "params": [{"name": n, "shape": list(a.shape), "dtype": "<f8"} for n, a in zip(names, arrays)],
    }
    assert header.isascii()
    assert len(body) == 8 * sum(a.size for a in arrays)
    assert body == b"".join(a.astype("<f8").tobytes() for a in arrays)


def test_config_and_names_with_nul_round_trip(tmp_path):
    config = {"k": "\x00", "nested": ["\x00\n", {"\x00": 1}]}
    path = tmp_path / "c.json"
    checkpoint.save_container(path, "test", config, ["w\x00"], [np.arange(3.0)])
    kind, back_config, back = checkpoint.load_container(path)
    assert (kind, back_config) == ("test", config)
    assert list(back) == ["w\x00"]
    np.testing.assert_array_equal(bits(back["w\x00"]), bits(np.arange(3.0)))


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


def with_per_variable(model, value):
    """A forecaster checkpoint as written when its config still held per_variable."""
    return json.dumps(model_v2(model, per_variable=value), indent=1) + "\n"


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_checkpoint_with_per_variable_true_predicts_bit_identically(tmp_path, kind):
    model = make_forecaster(ForecasterConfig(kind, 5, 2, 2, hidden=6, seed=12))
    path = tmp_path / "old.json"
    path.write_text(with_per_variable(model, True), encoding="utf-8")
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


def test_config_no_address_space_can_build_exits_3_naming_file(workspace, tmp_path):
    # lin1 alone needs 10 * 10**17 float64s, 8e18 bytes: the build's
    # allocation fails at once, before any page is touched
    doc = model_v2(make_forecaster(ForecasterConfig("mlp", 5, 2, 2, hidden=6)), hidden=10**17)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert f"{bad}: invalid forecaster config: " in err and "Traceback" not in err, err


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
    "undeclared block": lambda doc: doc["params"].append({**doc["params"][0], "name": "bogus"}),
    "duplicated block": lambda doc: doc["params"].append(dict(doc["params"][0])),
}


def test_clean_checkpoint_evaluates(workspace):
    assert run_eval(workspace, workspace[0] / "model.json") == (0, "")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_exits_3_naming_file(workspace, tmp_path, case):
    doc = model_v2(load_forecaster(workspace[0] / "model.json"))
    MALFORMED[case](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert str(bad) in err


def v3_parts(path):
    """A version-3 file's header, as a document, and the bytes after it."""
    header, body = path.read_bytes().split(b"\n", 1)
    return json.loads(header), body


def v3_bytes(header, body):
    return json.dumps(header).encode("ascii") + b"\n" + body


def extra_block(name):
    """Append a copy of the last block, named name, to a version-3 file."""

    def edit(header, body):
        last = header["params"][-1]
        header["params"].append({**last, "name": name})
        return header, body + body[len(body) - 8 * int(np.prod(last["shape"])) :]

    return edit


def big_shape(header, body):
    header["params"][0]["shape"] = [10**12]
    return header, body


V3_MALFORMED = {
    "infinite weight": lambda header, body: (header, np.float64(np.inf).tobytes() + body[8:]),
    "shape beyond the file": big_shape,
    "short file": lambda header, body: (header, body[:-8]),
    "bytes after the last block": lambda header, body: (header, body + bytes(8)),
    "undeclared block": extra_block("bogus"),
    "duplicated block": extra_block("bias"),
}


@pytest.mark.parametrize("case", sorted(V3_MALFORMED))
def test_malformed_v3_checkpoint_exits_3_naming_file(workspace, tmp_path, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(v3_bytes(*V3_MALFORMED[case](*v3_parts(workspace[0] / "model.json"))))
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert str(bad) in err
    assert "Traceback" not in err and "MemoryError" not in err


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("name", ["bogus", "weights"])
def test_undeclared_or_duplicated_block_names_file_and_block(workspace, tmp_path, version, name):
    bad = tmp_path / "bad.json"
    if version == 3:
        bad.write_bytes(v3_bytes(*extra_block(name)(*v3_parts(workspace[0] / "model.json"))))
    else:
        doc = model_v2(load_forecaster(workspace[0] / "model.json"))
        doc["params"].append({**doc["params"][0], "name": name})
        if version == 1:
            as_v1(doc)
        bad.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert str(bad) in err and repr(name) in err


def test_flattened_linear_checkpoint_exits_3_naming_file(workspace, tmp_path):
    model = load_forecaster(workspace[0] / "model.json")
    bad = tmp_path / "flat.json"
    bad.write_text(with_per_variable(model, False), encoding="utf-8")
    code, err = run_eval(workspace, bad)
    assert code == cli.EXIT_DATA
    assert str(bad) in err and "per_variable" in err


NOT_BASE64 = "!*-_.~ é"
# None of these bytes leaves a version-3 header valid JSON with the same meaning.
NOT_JSON = [b"\xff", b'"', b"{", b","]
V2_CORRUPTIONS = ["drop key", "truncate", "flip", "reshape", "config key", "cut file"]
V3_CORRUPTIONS = ["cut anywhere", "flip a header byte", "reshape a block", "append bytes"]


def other_shape(draw, block):
    return draw(st.lists(st.integers(0, 64), max_size=3).filter(lambda s: s != block["shape"]))


@st.composite
def corrupted(draw, path):
    """The version-3 checkpoint at path, or the version-2 document of the
    model it holds, with one corruption applied."""
    raw = path.read_bytes()
    header, body = v3_parts(path)
    how = draw(st.sampled_from(V2_CORRUPTIONS + V3_CORRUPTIONS))
    if how == "cut anywhere":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "flip a header byte":
        i = draw(st.integers(0, raw.index(b"\n")))
        byte = draw(st.sampled_from([b for b in NOT_JSON if b != raw[i : i + 1]]))
        return raw[:i] + byte + raw[i + 1 :]
    if how == "reshape a block":
        block = draw(st.sampled_from(header["params"]))
        block["shape"] = other_shape(draw, block)
        return v3_bytes(header, body)
    if how == "append bytes":
        return raw + draw(st.binary(min_size=1, max_size=64))
    doc = model_v2(load_forecaster(path))
    block = draw(st.sampled_from(doc["params"]))
    if how == "drop key":
        target = draw(st.sampled_from([doc, block]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif how == "truncate":
        block["data"] = block["data"][: draw(st.integers(0, len(block["data"]) - 1))]
    elif how == "flip":
        i = draw(st.integers(0, len(block["data"]) - 1))
        block["data"] = block["data"][:i] + draw(st.sampled_from(NOT_BASE64)) + block["data"][i + 1 :]
    elif how == "reshape":
        block["shape"] = other_shape(draw, block)
    elif how == "config key":
        doc["config"][draw(st.text(min_size=1).filter(lambda k: k not in doc["config"]))] = 1
    else:
        text = json.dumps(doc, indent=1)
        return text[: draw(st.integers(0, len(text.rstrip()) - 1))].encode("ascii")
    return json.dumps(doc).encode("ascii")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_never_escapes_as_traceback(workspace, data):
    bad = workspace[0] / "corrupt.json"
    bad.write_bytes(data.draw(corrupted(workspace[0] / "model.json")))
    code, err = run_eval(workspace, bad)
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA)
    assert str(bad) in err
