"""In-memory span tracing around loadcast's public functions.

The benchmark never edits the program: it replaces each traced function
with a wrapper at every place the function is looked up. That matters
because loadcast binds some functions by name in several modules
(``msp`` and ``guidance`` import ``train_loop`` and ``stack_*`` directly,
``identify_states`` calls the module-global ``kmeans``/``silhouette``),
so patching only the defining module would miss those calls.

A span is (name, start, end, parent index). Spans of one iteration share
the tracer's run id and are written out once, when the iteration ends.
Hooks read call arguments and results to count work (FLOPs from shapes,
k-means iterations, checkpoint bytes, trained epochs) at the same
boundaries where time is measured.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

# (module, attribute) of every traced function. The span is named
# "<module>.<attribute>" unless a name function below refines it.
TARGETS = [
    ("cli", "main"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "evaluate_forecaster"),
    ("labeling", "identify_states"),
    ("labeling", "kmeans"),
    ("labeling", "silhouette"),
    ("msp", "train_msp"),
    ("msp", "state_accuracy"),
    ("msp", "save_msp"),
    ("msp", "load_msp"),
    ("msp", "MspModel.forward_batch"),
    ("msp", "MspModel.backward_batch"),
    ("nn", "conv1d_forward"),
    ("nn", "conv1d_backward"),
    ("nn", "linear_forward"),
    ("nn", "linear_backward"),
    ("nn", "adam_step"),
    ("nn", "softmax_rows"),
    ("train", "train_loop"),
    ("train", "stack_inputs"),
    ("train", "stack_targets"),
    ("train", "stack_states"),
    ("guidance", "teacher_weights"),
    ("guidance", "train_guided"),
    ("forecaster", "train_plain"),
    ("forecaster", "train_with_guidance"),
    ("forecaster", "predict_samples"),
    ("forecaster", "save_forecaster"),
    ("forecaster", "load_forecaster"),
    ("forecaster", "LinearForecaster.forward_batch"),
    ("forecaster", "LinearForecaster.backward_batch"),
    ("forecaster", "MlpForecaster.forward_batch"),
    ("forecaster", "MlpForecaster.backward_batch"),
    ("checkpoint", "save_container"),
    ("checkpoint", "load_container"),
    ("data", "load_csv"),
    ("data", "align_and_downsample"),
    ("data", "sliding_windows"),
    ("metrics", "mae"),
    ("metrics", "mape_sym"),
    ("metrics", "percent_improvement"),
    ("metrics", "save_report_csv"),
    ("metrics", "load_report_csv"),
    ("metrics", "save_comparison_csv"),
]

# Installed on untraced runs too: the fixed-work check needs every
# trained epoch count and the checkpoint check every written byte and
# parameter. Each is called a handful of times per run.
CHECK_TARGETS = [("train", "train_loop"), ("checkpoint", "save_container")]


def _wants_cache(bound: inspect.BoundArguments) -> bool:
    return bool(bound.arguments.get("want_cache", False))


# A forward pass with a cache is a training batch; without one it is
# evaluation (validation, teacher weights, accuracy, prediction).
_NAMERS: dict[str, Callable[[inspect.BoundArguments], str]] = {
    "msp.MspModel.forward_batch": lambda b: "msp.train_forward" if _wants_cache(b) else "msp.eval_forward",
    "msp.MspModel.backward_batch": lambda b: "msp.backward",
    "forecaster.LinearForecaster.forward_batch": lambda b: (
        "forecaster.train_forward" if _wants_cache(b) else "forecaster.eval_forward"
    ),
    "forecaster.LinearForecaster.backward_batch": lambda b: "forecaster.backward",
    "forecaster.MlpForecaster.forward_batch": lambda b: (
        "forecaster.train_forward" if _wants_cache(b) else "forecaster.eval_forward"
    ),
    "forecaster.MlpForecaster.backward_batch": lambda b: "forecaster.backward",
}


def _conv_macs(params, x) -> int:
    out_c, in_c, k = params.weights.shape
    batch = x.shape[0] if x.ndim == 3 else 1
    return batch * out_c * in_c * k * x.shape[-1]


def _linear_macs(params, x) -> int:
    n_in, n_out = params.weights.shape
    return x.shape[0] * n_in * n_out


def _hook_conv_forward(tr: "Tracer", b, result) -> None:
    tr.count["nn.conv1d_flop"] += 2 * _conv_macs(b.arguments["params"], b.arguments["x"])


def _hook_conv_backward(tr: "Tracer", b, result) -> None:
    # weight gradient and input gradient: two contractions of forward size
    tr.count["nn.conv1d_flop"] += 4 * _conv_macs(b.arguments["params"], b.arguments["x"])


def _hook_linear_forward(tr: "Tracer", b, result) -> None:
    tr.count["nn.linear_flop"] += 2 * _linear_macs(b.arguments["params"], b.arguments["x"])


def _hook_linear_backward(tr: "Tracer", b, result) -> None:
    tr.count["nn.linear_flop"] += 4 * _linear_macs(b.arguments["params"], b.arguments["x"])


def _hook_kmeans(tr: "Tracer", b, result) -> None:
    tr.count["labeling.kmeans_iters"] += result.n_iter


def _hook_silhouette(tr: "Tracer", b, result) -> None:
    tr.count["labeling.silhouette_rows"] += len(b.arguments["assignments"])


def _hook_identify_states(tr: "Tracer", b, result) -> None:
    tr.records["state_counts"].append([int(n) for n in result.counts])


def _hook_train_loop(tr: "Tracer", b, result) -> None:
    b.apply_defaults()
    a = b.arguments
    c = a["model"].config
    tr.records["train_loop"].append(
        {
            "model": type(a["model"]).__name__,
            "n_train": int(a["n_train"]),
            "batch_size": int(a["batch_size"]),
            "max_epochs": int(a["max_epochs"]),
            "epochs": int(result.stopped_epoch),
            "best_epoch": int(result.best_epoch),
            "lookback": int(c.lookback),
            "horizon": int(c.horizon),
            "n_variables": int(c.n_variables),
        }
    )


def _hook_sliding_windows(tr: "Tracer", b, result) -> None:
    tr.count["data.windows"] += len(result)


def _hook_save_container(tr: "Tracer", b, result) -> None:
    tr.count["checkpoint.bytes"] += os.path.getsize(b.arguments["path"])
    tr.count["checkpoint.params"] += sum(int(arr.size) for arr in b.arguments["arrays"])


def _hook_teacher_weights(tr: "Tracer", b, result) -> None:
    tr.records["teacher_weights"].append(result)


HOOKS: dict[str, Callable] = {
    "nn.conv1d_forward": _hook_conv_forward,
    "nn.conv1d_backward": _hook_conv_backward,
    "nn.linear_forward": _hook_linear_forward,
    "nn.linear_backward": _hook_linear_backward,
    "labeling.kmeans": _hook_kmeans,
    "labeling.silhouette": _hook_silhouette,
    "labeling.identify_states": _hook_identify_states,
    "train.train_loop": _hook_train_loop,
    "data.sliding_windows": _hook_sliding_windows,
    "checkpoint.save_container": _hook_save_container,
    "guidance.teacher_weights": _hook_teacher_weights,
}


class Tracer:
    """Spans and counts of one benchmark iteration.

    With ``spans=False`` it installs only ``CHECK_TARGETS`` and records
    no spans, so untraced timings stay untraced.
    """

    def __init__(self, run_id: str, spans: bool):
        self.run_id = run_id
        self.spans_on = spans
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.count: dict[str, int] = defaultdict(int)
        self.records: dict[str, list] = defaultdict(list)
        self._originals: set[int] = set()

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span from the benchmark's own code."""
        if not self.spans_on:
            yield
            return
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every loadcast binding of it."""
        targets = TARGETS if self.spans_on else CHECK_TARGETS
        for module_name, attr in targets:
            module = importlib.import_module(f"loadcast.{module_name}")
            label = f"{module_name}.{attr}"
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, name)
            wrapper = self._wrap(label, original)
            self._originals.add(id(original))
            if owner is module:
                for mod in _loadcast_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            else:
                setattr(owner, name, wrapper)
        for mod in _loadcast_modules():
            for key, value in vars(mod).items():
                if id(value) in self._originals:
                    raise RuntimeError(f"untraced binding left: {mod.__name__}.{key}")

    def _wrap(self, label: str, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        hook = HOOKS.get(label)
        namer = _NAMERS.get(label)
        tracer = self
        spans_on = self.spans_on

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if (hook or namer) else None
            if not spans_on:
                result = fn(*args, **kwargs)
            else:
                name = namer(bound) if namer else label
                idx = tracer._open()
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, name, start)
            if hook:
                hook(tracer, bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------

    def closed_spans(self) -> list[tuple[str, float, float, int]]:
        if any(s is None for s in self.spans):
            raise RuntimeError("trace has an unclosed span")
        return self.spans  # type: ignore[return-value]

    def write(self, path: Path) -> None:
        spans = self.closed_spans()
        t0 = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(spans):
                rec = {
                    "run": self.run_id,
                    "id": i,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                }
                f.write(json.dumps(rec) + "\n")


def _loadcast_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "loadcast" or name.startswith("loadcast."))
    ]


def summarize(spans: list[tuple[str, float, float, int]]) -> dict[str, Any]:
    """Inclusive time, call count and durations per span name, plus
    self time per layer (the module part of the name).

    A span's self time is its duration minus its direct children's
    durations; the program is single-threaded, so children never
    overlap one another.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    under: dict[tuple[str, str], float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        total[name] += dur
        calls[name] += 1
        durations[name].append(dur)
        under[(name, spans[parent][0] if parent >= 0 else "")] += dur
        layer_self[name.split(".", 1)[0]] += dur - child_time[i]
    return {
        "total": dict(total),
        "calls": dict(calls),
        "durations": dict(durations),
        "under_parent": dict(under),
        "layer_self": dict(layer_self),
    }


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile of durations in seconds, in milliseconds."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3
