"""Versioned JSON checkpoint container shared by all models.

Layout, version 2 (stable across runs):

    {
      "format": "loadcast-checkpoint",
      "version": 2,
      "kind": "<model kind>",
      "config": { ... model configuration ... },
      "params": [
        {"name": "<block name>", "shape": [..], "dtype": "<f8",
         "data": "<base64 of the row-major little-endian float64 bytes>"},
        ...
      ]
    }

A block's data is its values as little-endian IEEE-754 float64 in
row-major order, base64-encoded: about 10.7 bytes per parameter, and
bit-exact by construction (-0.0, subnormals and NaN payloads included).
Version 1 files, whose "data" is a list of floats, are still read.

Parameter blocks appear in the model's declared order, so a container
round-trips to a bit-identical model. A malformed container raises
DataError naming the file.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, reading

FORMAT = "loadcast-checkpoint"
VERSION = 2
DTYPE = "<f8"


# Stands for one block's data while the header is rendered; JSON writes it as "\u0000".
_SLOT = "\x00"


def save_container(
    path: str | Path, kind: str, config: dict, names: list[str], arrays: list[np.ndarray]
) -> None:
    """Write a version-2 container: the bytes json.dump(doc, f, indent=1)
    writes for the layout above, then a newline.

    The header is rendered with a placeholder for each block's data, and
    each block's base64 text is written straight into its place, so the
    long data strings are neither held all at once nor re-escaped by json.
    """
    params = [
        {"name": name, "shape": list(arr.shape), "dtype": DTYPE, "data": _SLOT}
        for name, arr in zip(names, arrays)
    ]
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "config": config,
        "params": params,
    }
    pieces = json.dumps(doc, indent=1).split(json.dumps(_SLOT))
    if len(pieces) != len(arrays) + 1:
        raise ConfigError(f"{path}: checkpoint config or block names contain {_SLOT!r}")
    with Path(path).open("wb") as f:
        f.write(pieces[0].encode("ascii"))
        for arr, piece in zip(arrays, pieces[1:]):
            f.write(b'"')
            f.write(base64.b64encode(np.ascontiguousarray(arr, dtype=DTYPE)))
            f.write(b'"')
            f.write(piece.encode("ascii"))
        f.write(b"\n")


def _read_block(path: Path, version: int, index: int, block) -> tuple[str, np.ndarray]:
    if not isinstance(block, dict) or not {"name", "shape", "data"} <= block.keys():
        raise DataError(f"{path}: parameter block {index} needs name, shape and data")
    name, shape, data = block["name"], block["shape"], block["data"]
    if not isinstance(name, str):
        raise DataError(f"{path}: parameter block {index} has a non-string name {name!r}")
    if not isinstance(shape, list) or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise DataError(f"{path}: block {name!r} has invalid shape {shape!r}")
    if version > 1 and block.get("dtype") != DTYPE:
        raise DataError(f"{path}: block {name!r} has dtype {block.get('dtype')!r}, not {DTYPE!r}")
    try:
        if version == 1:
            raw = np.asarray(data, dtype=DTYPE).tobytes()
        else:
            raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError, OverflowError) as exc:  # binascii.Error is a ValueError
        raise DataError(f"{path}: block {name!r} has unreadable data: {exc}") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise DataError(f"{path}: block {name!r} holds {len(raw)} bytes, shape {shape} needs {expected}")
    return name, np.frombuffer(raw, dtype=DTYPE).reshape(shape)


def load_container(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a container; returns (kind, config, read-only arrays by block name)."""
    path = Path(path)
    with reading(path):
        doc = json.loads(path.read_bytes())
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise DataError(f"{path}: not a {FORMAT} container")
    version = doc.get("version")
    if version not in (1, VERSION):
        raise DataError(f"{path}: unsupported container version {version!r}")
    missing = [key for key in ("kind", "config", "params") if key not in doc]
    if missing:
        raise DataError(f"{path}: container lacks {', '.join(missing)}")
    if not isinstance(doc["config"], dict) or not isinstance(doc["params"], list):
        raise DataError(f"{path}: config must be an object and params a list")
    arrays = dict(_read_block(path, version, i, block) for i, block in enumerate(doc["params"]))
    return doc["kind"], doc["config"], arrays


def load_model(path: str | Path, kind: str, build: Callable[[dict], object]):
    """Read a container of the given kind, build its model with
    build(config) and copy every parameter block into the model."""
    found, config, arrays = load_container(path)
    if found != kind:
        raise ConfigError(f"{path}: checkpoint kind {found!r} is not {kind!r}")
    try:
        model = build(config)
    except (ConfigError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid {kind} config: {exc}") from None
    for name, param in zip(model.param_names(), model.params()):
        stored = arrays.get(name)
        if stored is None or stored.shape != param.shape:
            raise DataError(f"{path}: checkpoint block {name!r} missing or mis-shaped")
        param[...] = stored
    return model
