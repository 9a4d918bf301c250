"""The benchmark's tracer looks loadcast's functions up by name, with no
default, and its namers and hooks read some of their arguments by name.
A deleted or renamed traced name or argument must fail this suite, not
a benchmark run: a renamed want_cache, say, would file every training
forward pass under evaluation, and the training forward time would read 0."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Per traced name, the arguments that its namer or hook in the tracer reads.
READ_ARGUMENTS = {
    "msp.MspModel.forward_batch": ["want_cache"],
    "forecaster.LinearForecaster.forward_batch": ["want_cache"],
    "forecaster.MlpForecaster.forward_batch": ["want_cache"],
    "nn.conv1d_forward": ["params", "x"],
    "nn.conv1d_backward": ["params", "x"],
    "nn.linear_forward": ["params", "x"],
    "nn.linear_backward": ["params", "x"],
    "labeling.silhouette": ["assignments"],
    "checkpoint.save_container": ["path", "arrays"],
    "train.train_loop": ["model", "n_train", "batch_size", "max_epochs"],
}


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def resolve(module_name, attr):
    owner = importlib.import_module(f"loadcast.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = set(tracing.TARGETS) | set(tracing.CHECK_TARGETS)
    assert targets
    missing = []
    for module_name, attr in sorted(targets):
        if not callable(resolve(module_name, attr)):
            missing.append(f"loadcast.{module_name}.{attr}")
    assert not missing, f"traced names missing from loadcast: {missing}"


def test_every_argument_the_tracer_reads_is_a_parameter(monkeypatch):
    tracing = load_tracing(monkeypatch)
    readers = set(tracing._NAMERS) | set(tracing.HOOKS)
    assert set(READ_ARGUMENTS) <= readers, set(READ_ARGUMENTS) - readers
    traced = {f"{m}.{a}" for m, a in tracing.TARGETS}
    missing = []
    for name, arguments in READ_ARGUMENTS.items():
        assert name in traced, name
        module_name, attr = name.split(".", 1)
        parameters = inspect.signature(resolve(module_name, attr)).parameters
        missing += [f"{name}({a})" for a in arguments if a not in parameters]
    assert not missing, f"arguments the tracer reads are gone: {missing}"
