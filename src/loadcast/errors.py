"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes, so everything user-facing
raises one of them rather than a bare ValueError. `prefix_errors` is the
one place where a message gains a file path or stage tag, and `reading`
the one place where a missing, unreadable or unparsable input file
becomes such an error naming the file.
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
def prefix_errors(prefix: str, errors: type[LoadcastError] = LoadcastError):
    """Re-raise a failure of the given types with prefix put before its message."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{prefix}{exc}") from exc


@contextmanager
def reading(path: str | Path, error: type[LoadcastError] = DataError):
    """Read, parse and check `path` inside the block. Every loadcast error
    raised in it gains the prefix "<path>: " and keeps its class, so the
    block's own checks raise without the path. A missing file, any other
    OSError and a parse failure (a ValueError covers bad UTF-8, JSON and
    base64) become `error`. Checks on what was read, made after the
    block, name the file with prefix_errors instead, so that a bug there
    is not reported as a parse failure."""
    with prefix_errors(f"{path}: "):
        try:
            yield
        except FileNotFoundError:
            raise error("no such file") from None
        except OSError as exc:
            raise error(f"cannot read: {exc.strerror or exc}") from None
        except (ValueError, KeyError, TypeError, IndexError, OverflowError, csv.Error) as exc:
            raise error(f"cannot parse: {type(exc).__name__}: {exc}") from None
