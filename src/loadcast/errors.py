"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes, so everything user-facing
raises one of them rather than a bare ValueError. `reading` is the one
place where a missing, unreadable or unparsable input file becomes such
an error naming the file.
"""

import csv
from contextlib import contextmanager
from pathlib import Path


class LoadcastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(LoadcastError):
    """Invalid configuration: bad hyperparameters, shapes, trigger cycles."""


class DataError(LoadcastError):
    """Malformed or insufficient input data (CSV parse failures, empty frames)."""


class NumericError(LoadcastError):
    """Non-finite values where finiteness is required (NaN/Inf in inputs or gradients)."""


class ShapeError(ConfigError):
    """Dimension mismatch between arrays; message names both shapes."""


@contextmanager
def reading(path: str | Path, error: type[LoadcastError] = DataError):
    """Read and parse `path` inside the block: a missing file, any other
    OSError and a parse failure (a ValueError covers bad UTF-8, JSON and
    base64) become `error` with a message naming the path. A
    LoadcastError raised inside passes through unchanged."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"{path}: no such file") from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, IndexError, OverflowError, csv.Error) as exc:
        raise error(f"{path}: cannot parse: {type(exc).__name__}: {exc}") from None
