"""The benchmark's tracer looks loadcast's functions up by name, with no
default. A deleted or renamed traced name must fail this suite, not a
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = set(tracing.TARGETS) | set(tracing.CHECK_TARGETS)
    assert targets
    missing = []
    for module_name, attr in sorted(targets):
        owner = importlib.import_module(f"loadcast.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"loadcast.{module_name}.{attr}")
    assert not missing, f"traced names missing from loadcast: {missing}"

