"""Versioned checkpoint container shared by all models.

Layout, version 3 (stable across runs): one line of JSON, a newline,
then the raw bytes of every parameter block and nothing else.

    {"format": "loadcast-checkpoint", "version": 3, "kind": "<model kind>",
     "config": { ... model configuration ... },
     "params": [{"name": "<block name>", "shape": [..], "dtype": "<f8"}, ...]}
    <block 0 bytes><block 1 bytes>...

The header line is written without line breaks (JSON escapes any inside
a string). A block's bytes are its values as little-endian IEEE-754
float64 in row-major order: 8 bytes per parameter, bit-exact by
construction (-0.0, subnormals and NaN payloads included). A reader
checks that the bytes after the header are exactly the 8·Σ∏shape its
blocks need before it allocates anything, then reads them in one read
and hands out each block as a read-only view of them, so no text copy
of the weights ever exists and a load holds one copy of them.

Files keep their .json names (msp.json, plain_h2.json, ...): the CLI
defaults, the pipeline's checkpoint names and the benchmark's
workloads use them, and the header that starts every file is JSON.

Versions 1 and 2 are still read. They are one indented JSON document
(so their first line is "{"), in which every block carries a "data"
field: a list of floats in version 1, the base64 of the block's bytes
in version 2.

Parameter blocks appear in the model's declared order, so a container
round-trips to a bit-identical model. A malformed container, or one
whose blocks the model does not declare, raises DataError naming the
file.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import ConfigError, DataError, prefix_errors, reading

FORMAT = "loadcast-checkpoint"
VERSION = 3
DTYPE = "<f8"

# The keys of a parameter block, per container version.
_BLOCK_KEYS = {
    1: ("name", "shape", "data"),
    2: ("name", "shape", "dtype", "data"),
    3: ("name", "shape", "dtype"),
}


def save_container(
    path: str | Path, kind: str, config: dict, names: list[str], arrays: list[np.ndarray]
) -> None:
    """Write a version-3 container: the header line, then each block's
    little-endian float64 bytes written straight from its array."""
    header = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "config": config,
        "params": [
            {"name": name, "shape": list(arr.shape), "dtype": DTYPE} for name, arr in zip(names, arrays)
        ],
    }
    with Path(path).open("wb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n")
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype=DTYPE).reshape(-1).view(np.uint8))


def _block_header(version: int, index: int, block) -> tuple[str, list[int]]:
    """The name and shape of a parameter block, checked."""
    keys = _BLOCK_KEYS[version]
    if not isinstance(block, dict) or not set(keys) <= block.keys():
        raise DataError(f"parameter block {index} needs {', '.join(keys)}")
    name, shape = block["name"], block["shape"]
    if not isinstance(name, str):
        raise DataError(f"parameter block {index} has a non-string name {name!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"block {name!r} has invalid shape {shape!r}")
    if version > 1 and block["dtype"] != DTYPE:
        raise DataError(f"block {name!r} has dtype {block['dtype']!r}, not {DTYPE!r}")
    return name, shape


def _decode_block(version: int, name: str, shape: list[int], data) -> np.ndarray:
    """A version-1 or version-2 block's "data" as a read-only array."""
    try:
        if version == 1:
            raw = np.asarray(data, dtype=DTYPE).tobytes()
        else:
            raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError, OverflowError) as exc:  # binascii.Error is a ValueError
        raise DataError(f"block {name!r} has unreadable data: {exc}") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise DataError(f"block {name!r} holds {len(raw)} bytes, shape {shape} needs {expected}")
    return np.frombuffer(raw, dtype=DTYPE).reshape(shape)


def _read_blocks(f: BinaryIO, shapes: list[list[int]]) -> list[np.ndarray]:
    """The version-3 blocks that follow the header in f, once the rest
    of the file is known to hold exactly their bytes: views of one
    buffer. (Freed whole, that buffer also raises glibc malloc's dynamic
    mmap threshold to its size, so the temporaries of training that
    follows a load come from the heap, not from fresh mmaps that fault
    in every page again; a buffer per block left forecaster training
    after a teacher load with 23x the page faults.)"""
    remaining = os.fstat(f.fileno()).st_size - f.tell()
    sizes = [math.prod(shape) for shape in shapes]
    if remaining != 8 * sum(sizes):
        raise DataError(f"{remaining} bytes follow the header, its blocks need {8 * sum(sizes)}")
    body = f.read(remaining)
    if len(body) != remaining:
        raise DataError("file ended inside a parameter block")
    offsets = np.cumsum([0, *sizes]) * 8
    return [
        np.frombuffer(body, DTYPE, size, int(offset)).reshape(shape)
        for shape, size, offset in zip(shapes, sizes, offsets)
    ]


def load_container(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a container; returns (kind, config, read-only arrays by block name)."""
    path = Path(path)
    with reading(path), path.open("rb") as f:
        head = f.readline()
        if head.strip() == b"{":  # versions 1 and 2: one indented JSON document
            head += f.read()
        doc = json.loads(head)
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise DataError(f"not a {FORMAT} container")
        version = doc.get("version")
        if version not in _BLOCK_KEYS:
            raise DataError(f"unsupported container version {version!r}")
        missing = [key for key in ("kind", "config", "params") if key not in doc]
        if missing:
            raise DataError(f"container lacks {', '.join(missing)}")
        if not isinstance(doc["config"], dict) or not isinstance(doc["params"], list):
            raise DataError("config must be an object and params a list")
        names, shapes = [], []
        for i, block in enumerate(doc["params"]):
            name, shape = _block_header(version, i, block)
            if name in names:
                raise DataError(f"block {name!r} appears twice")
            names.append(name)
            shapes.append(shape)
        if version == VERSION:
            arrays = _read_blocks(f, shapes)
        else:
            if f.read().strip():
                raise DataError("bytes follow the JSON document")
            arrays = [
                _decode_block(version, name, shape, block["data"])
                for name, shape, block in zip(names, shapes, doc["params"])
            ]
    return doc["kind"], doc["config"], dict(zip(names, arrays))


def save_model(path: str | Path, kind: str, model) -> None:
    """Write a model's dataclass config and declared parameter blocks."""
    save_container(path, kind, asdict(model.config), model.param_names(), model.params())


def load_model(path: str | Path, kind: str, build: Callable[[dict], object]):
    """Read a container of the given kind, build its model with
    build(config) and copy every parameter block into the model."""
    found, config, arrays = load_container(path)
    with prefix_errors(f"{path}: "):
        if found != kind:
            raise ConfigError(f"checkpoint kind {found!r} is not {kind!r}")
        try:
            model = build(config)
        except (ConfigError, TypeError, ValueError, MemoryError) as exc:
            raise DataError(f"invalid {kind} config: {exc}") from None
        declared = model.param_names()
        undeclared = [name for name in arrays if name not in declared]
        if undeclared:
            raise DataError(f"checkpoint block {undeclared[0]!r} is not a {kind} parameter")
        for name, param in zip(declared, model.params()):
            stored = arrays.get(name)
            if stored is None or stored.shape != param.shape:
                raise DataError(f"checkpoint block {name!r} missing or mis-shaped")
            param[...] = stored
    return model
