"""One benchmark step in a fresh process, so its peak RSS is its own.

    python3 perfbench/worker.py setup --workload NAME --seed N --dir INPUTS \
        --result FILE --src SRC
    python3 perfbench/worker.py run --workload NAME --inputs INPUTS --dir OUT \
        --trace 0|1 --run-id ID --result FILE --src SRC

``run.py`` starts this with the BLAS thread count fixed in the
environment and ``SRC``, the checkout's ``src``, on ``PYTHONPATH``. The
result file is JSON; a failure is a non-zero exit with a traceback on
stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

IMPORT_START = time.perf_counter()

import numpy as np  # noqa: E402

import loadcast  # noqa: E402
from tracing import Tracer, percentile_ms, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START

# Layers whose self time is reported as "<layer>.self_s". The metrics
# module's spans are leaves, so its self time is metrics.eval_s.
SELF_TIME_LAYERS = (
    "bench", "cli", "pipeline", "labeling", "msp", "nn", "train",
    "guidance", "forecaster", "checkpoint", "data",
)
NN_KERNELS = (
    "conv1d_forward", "conv1d_backward", "linear_forward",
    "linear_backward", "adam_step", "softmax_rows",
)


def digest(root: Path) -> str:
    """sha256 over every file below root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _k_match(tracer: Tracer, truth_counts: list[int]) -> float:
    """Share of appliances whose chosen state count equals the truth."""
    found = tracer.records["state_counts"]
    if not found:
        return 0.0
    counts = found[-1]
    return sum(int(a == b) for a, b in zip(counts, truth_counts)) / len(truth_counts)


def _weight_stats(tracer: Tracer) -> tuple[float, float, float]:
    """Mean weight, mean within-variable std, and std of per-variable means."""
    arrays = tracer.records["teacher_weights"]
    if not arrays:
        return 0.0, 0.0, 0.0
    per_var = [np.concatenate([w[..., i].ravel() for w in arrays]) for i in range(arrays[0].shape[-1])]
    means = np.asarray([v.mean() for v in per_var])
    within = float(np.mean([v.std() for v in per_var]))
    return float(np.concatenate(per_var).mean()), within, float(means.std())


def quality_metrics(q: dict) -> dict[str, float]:
    """End-to-end quality as ratios: their spread over workload seeds
    stays small, unlike that of the raw MAEs and accuracies, which
    depend on how hard each generated household is."""
    return {
        "guided_over_plain_mae": q["guided_mae"] / q["plain_mae"],
        "teacher_acc_over_majority": q["teacher_acc"] / q["majority_acc"],
    }


def layer_metrics(tracer: Tracer, truth_counts: list[int], q: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    Which end-to-end metric each layer should move, and on which workload:

    - labeling.*: run_s on household; teacher_acc_over_majority and
      guided_over_plain_mae through the labels it hands the teacher.
    - msp.*, nn.conv1d_*: run_s on household and lookback-336,
      setup_s on seeds-mlp, teacher_acc_over_majority.
    - nn.linear_*, nn.adam_step_s, nn.softmax_rows_s, train.*,
      forecaster.*, guidance.train_guided_s: run_s on seeds-mlp.
    - guidance.teacher_weights_s: run_s on seeds-mlp and lookback-336.
    - guidance.weight_*: guided_over_plain_mae (do the weights rank
      events within a variable, or whole variables?).
    - checkpoint.*: run_s and ckpt_bytes_per_param, most on lookback-336.
    - data.*: peak_rss_mb on lookback-336.
    - synth.generate_s (measured in set-up): setup_s.
    """
    s = summarize(tracer.closed_spans())
    total, calls, durations = s["total"], s["calls"], s["durations"]
    loops = tracer.records["train_loop"]
    msp_loops = [r for r in loops if r["model"] == "MspModel"]
    count = tracer.count
    m: dict[str, float] = {}

    m["labeling.identify_states_s"] = total.get("labeling.identify_states", 0.0)
    m["labeling.kmeans_s"] = total.get("labeling.kmeans", 0.0)
    m["labeling.kmeans_calls"] = calls.get("labeling.kmeans", 0)
    m["labeling.kmeans_iters"] = count["labeling.kmeans_iters"]
    m["labeling.silhouette_s"] = total.get("labeling.silhouette", 0.0)
    m["labeling.silhouette_rows"] = count["labeling.silhouette_rows"]
    m["labeling.k_match"] = _k_match(tracer, truth_counts)

    m["msp.train_s"] = total.get("msp.train_msp", 0.0)
    m["msp.epochs"] = sum(r["epochs"] for r in msp_loops)
    windows = sum(r["n_train"] * r["epochs"] for r in msp_loops)
    m["msp.windows_per_s"] = windows / m["msp.train_s"] if m["msp.train_s"] else 0.0
    for key, span in (("forward", "msp.train_forward"), ("backward", "msp.backward")):
        m[f"msp.{key}_ms.p50"] = percentile_ms(durations.get(span, []), 50)
        m[f"msp.{key}_ms.p90"] = percentile_ms(durations.get(span, []), 90)
    m["msp.eval_forward_s"] = total.get("msp.eval_forward", 0.0)
    m["msp.acc_gain_pt"] = 100.0 * (q["teacher_acc"] - q["majority_acc"])

    for kernel in NN_KERNELS:
        m[f"nn.{kernel}_s"] = total.get(f"nn.{kernel}", 0.0)
        m[f"nn.{kernel}.calls"] = calls.get(f"nn.{kernel}", 0)
    m["nn.conv1d_gflop"] = count["nn.conv1d_flop"] / 1e9
    m["nn.linear_gflop"] = count["nn.linear_flop"] / 1e9

    m["train.epochs"] = sum(r["epochs"] for r in loops)
    m["train.batches"] = sum(r["epochs"] * math.ceil(r["n_train"] / r["batch_size"]) for r in loops)
    m["train.best_epoch"] = sum(r["best_epoch"] for r in loops)

    m["guidance.teacher_weights_s"] = total.get("guidance.teacher_weights", 0.0)
    # forecaster.train_plain runs through guidance.train_guided without a teacher
    m["guidance.train_guided_s"] = total.get("guidance.train_guided", 0.0) - s["under_parent"].get(
        ("guidance.train_guided", "forecaster.train_plain"), 0.0
    )
    (m["guidance.weight_mean"], m["guidance.weight_within_var_std"],
     m["guidance.weight_between_var_std"]) = _weight_stats(tracer)

    m["forecaster.train_plain_s"] = total.get("forecaster.train_plain", 0.0)
    m["forecaster.forward_ms.p50"] = percentile_ms(durations.get("forecaster.train_forward", []), 50)
    m["forecaster.backward_ms.p50"] = percentile_ms(durations.get("forecaster.backward", []), 50)
    m["forecaster.predict_s"] = total.get("forecaster.predict_samples", 0.0)

    m["checkpoint.save_s"] = total.get("checkpoint.save_container", 0.0)
    m["checkpoint.load_s"] = total.get("checkpoint.load_container", 0.0)
    m["checkpoint.bytes"] = count["checkpoint.bytes"]
    m["checkpoint.params"] = count["checkpoint.params"]

    m["data.load_csv_s"] = total.get("data.load_csv", 0.0)
    m["data.windows_s"] = total.get("data.sliding_windows", 0.0)
    m["data.windows"] = count["data.windows"]
    # x, y and one (H, D) target block per window, float64, per trained model
    m["data.stacked_mb"] = sum(
        r["n_train"] * (r["lookback"] + 2 * r["horizon"]) * r["n_variables"] * 8 for r in loops
    ) / 1e6

    m["metrics.eval_s"] = sum(t for name, t in total.items() if name.startswith("metrics."))
    m["metrics.plain_mae"] = q["plain_mae"]
    m["metrics.guided_mae"] = q["guided_mae"]
    m["metrics.guided_gain_pct"] = 100.0 * (q["plain_mae"] - q["guided_mae"]) / q["plain_mae"]
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = s["layer_self"].get(layer, 0.0)
    return m


def check_epochs(tracer: Tracer, budget: dict[str, int]) -> dict[str, bool]:
    """Every trained model ran exactly its workload's epoch budget."""
    checks = {}
    for i, r in enumerate(tracer.records["train_loop"]):
        want = budget.get(r["model"])
        checks[f"train_loop {i} ({r['model']}) ran {want} epochs"] = r["epochs"] == want
    checks["some model was trained"] = bool(tracer.records["train_loop"])
    return checks


def cmd_setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = Path(args.dir)
    inputs.mkdir(parents=True)
    phases = workload.setup(inputs, args.seed)
    phases["import_s"] = IMPORT_S
    return {"phases": phases, "digest": digest(inputs), "env": environment()}


def cmd_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    inputs, out = Path(args.inputs), Path(args.dir)
    program_out = out / "out"
    program_out.mkdir(parents=True)
    tracer = Tracer(args.run_id, spans=bool(args.trace))
    tracer.install()
    start = time.perf_counter()
    with tracer.span("bench.run"):
        result = workload.run(inputs, program_out)
    run_s = time.perf_counter() - start
    rss = peak_rss_mb()

    result["checks"].update(check_epochs(tracer, workload.epochs))
    result["quality_ratios"] = quality_metrics(result["quality"])
    result["checks"]["every quality value is finite"] = all(
        math.isfinite(v) for v in [*result["quality"].values(), *result["quality_ratios"].values()]
    )
    result["checks"]["some checkpoint was written"] = tracer.count["checkpoint.params"] > 0
    result.update(
        run_s=run_s,
        peak_rss_mb=rss,
        ckpt_bytes_per_param=tracer.count["checkpoint.bytes"] / max(tracer.count["checkpoint.params"], 1),
        digest=digest(program_out),
        train_loops=tracer.records["train_loop"],
    )
    if args.trace:
        truth_counts = json.loads((inputs / "truth_counts.json").read_text())
        result["layers"] = layer_metrics(tracer, truth_counts, result["quality"])
        tracer.write(out / "spans.jsonl")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench worker")
    parser.add_argument("step", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--run-id", default="")
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True, help="the src directory loadcast must come from")
    args = parser.parse_args(argv)
    here = Path(loadcast.__file__).resolve()
    if Path(args.src).resolve() not in here.parents:
        raise SystemExit(f"loadcast imported from {here}, not from {args.src}")
    result = cmd_setup(args) if args.step == "setup" else cmd_run(args)
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
