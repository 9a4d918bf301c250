"""The loadcast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is that
checkout's ``src/loadcast``. Workloads, metric names, units and bounds
are listed in ``BENCHMARK.json``; ``workloads.py`` says what each
workload does.

One invocation:

1. sets the workload up ``SETUPS`` times, each in a fresh process
   (import, generate the inputs from ``--seed``, write them and, where
   the workload needs one, train its teacher), and checks that every
   set-up wrote the same bytes;
2. runs the workload in a fresh process per run, back to back, until
   ``--seconds`` have passed. With ``--trace 1`` runs alternate between
   untraced and traced, so the tracing overhead is measured in the
   same invocation;
3. checks every run: exit 0, outputs reproduced from reloaded
   checkpoints bit for bit, every quality value finite, every model
   trained exactly its epoch budget, and the digest of all outputs
   equal across the runs of this seed;
4. prints a few human-readable lines, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: medians of
   the end-to-end metrics with ``--trace 0``, of the per-layer metrics
   with ``--trace 1``.

A summary and the spans of the last traced run are left in
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
STATE = ROOT / ".perfbench"

SETUPS = 5
# One BLAS thread. On a 2-core Xeon, five runs of the household
# pipeline stage took 12.9-17.7 s with two OpenBLAS threads and
# 17.3-18.9 s with one: slower, but a third of the spread.
BLAS_THREADS = 1
# Stop starting runs once this much wall time has gone, whatever
# --seconds says, and kill any step still running at DEADLINE_S, so one
# invocation ends within its 180 s limit.
WALL_LIMIT_S = 150.0
DEADLINE_S = 175.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(step: str, argv: list[str], log: Path, timeout: float) -> tuple[float, dict | None, str]:
    """Run worker.py to completion; returns (wall seconds, result or None, error).

    A blocking wait times the process exactly; ``subprocess.run`` with a
    timeout polls, which rounds a 0.2 s set-up to 50 ms steps.
    """
    result_file = log.with_suffix(".json")
    cmd = [sys.executable, str(WORKER), step, *argv, "--result", str(result_file), "--src", str(SRC)]
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    if proc.returncode == -signal.SIGKILL:
        return wall, None, f"{step} killed after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        return wall, None, f"{step} exited with code {proc.returncode}: {' '.join(tail)}"
    return wall, json.loads(result_file.read_text(encoding="utf-8")), ""


def run_problems(result: dict, reference_digest: str | None) -> list[str]:
    problems = [f"check failed: {name}" for name, ok in result["checks"].items() if not ok]
    if reference_digest is not None and result["digest"] != reference_digest:
        problems.append("outputs differ from the first run of this seed")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    invocation_start = time.perf_counter()

    if not (SRC / "loadcast" / "__init__.py").is_file():
        print(f"error: no loadcast sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work = STATE / f"{tag}.{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, spec, work, tag, invocation_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec: dict, work: Path, tag: str, invocation_start: float) -> int:
    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - invocation_start)

    problems: list[str] = []

    # 1. set-up, several times
    setups = []
    for i in range(SETUPS):
        wall, result, error = worker(
            "setup",
            ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work / f"setup{i}")],
            work / f"setup{i}.log",
            remaining(),
        )
        if result is None:
            print(f"error: set-up failed: {error}", file=sys.stderr)
            return 1
        setups.append((wall, result))
    if len({r["digest"] for _, r in setups}) != 1:
        problems.append("set-ups of one seed wrote different inputs")
    inputs = work / "setup0"

    # 2. timed runs
    runs: list[dict] = []
    failures: list[str] = []
    reference_digest = None
    measure_start = time.perf_counter()
    i = 0
    while (
        i < 1 + args.trace
        or time.perf_counter() - measure_start < args.seconds
    ) and time.perf_counter() - invocation_start < WALL_LIMIT_S:
        traced = bool(args.trace and i % 2 == 1)
        wall, result, error = worker(
            "run",
            ["--workload", args.workload, "--inputs", str(inputs), "--dir", str(work / f"run{i}"),
             "--trace", str(int(traced)), "--run-id", f"{tag}-run{i}"],
            work / f"run{i}.log",
            remaining(),
        )
        i += 1
        if result is not None:
            reference_digest = reference_digest or result["digest"]
            bad = run_problems(result, reference_digest)
            error = "; ".join(bad)
        if error:
            failures.append(f"run {i - 1}: {error}")
            continue
        result["traced"] = traced
        result["index"] = i - 1
        runs.append(result)
        shutil.rmtree(work / f"run{i - 1}" / "out", ignore_errors=True)
    attempted = i

    untraced = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    if not untraced or (args.trace and not traced_runs):
        for line in failures:
            print(line, file=sys.stderr)
        print("error: no successful run to report", file=sys.stderr)
        return 1

    env = setups[0][1]["env"]
    setup_s = statistics.median([wall for wall, _ in setups])
    run_s = statistics.median([r["run_s"] for r in untraced])
    if args.trace:
        overhead = 100.0 * (statistics.median([r["run_s"] for r in traced_runs]) / run_s - 1.0)
        values = {
            name: statistics.median([r["layers"][name] for r in traced_runs]) for name in traced_runs[0]["layers"]
        }
        values["trace_overhead_pct"] = overhead
        values["synth.generate_s"] = statistics.median([r["phases"]["synth.generate_s"] for _, r in setups])
        declared = spec["per_layer"]
    else:
        values = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
            "ckpt_bytes_per_param": statistics.median([r["ckpt_bytes_per_param"] for r in untraced]),
            **untraced[0]["quality_ratios"],
        }
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"error: measured metrics {sorted(set(values) ^ names)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}

    # human-readable lines, then the result as the last line
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}")
    print(f"{tag}: setup_s median of {len(setups)}: {setup_s:.3f}; "
          f"run_s median of {len(untraced)} untraced runs: {run_s:.3f} "
          f"(min {min(r['run_s'] for r in untraced):.3f}, max {max(r['run_s'] for r in untraced):.3f})")
    q = untraced[0]["quality"]
    print(f"quality: test MAE plain {q['plain_mae']:.6f}, guided {q['guided_mae']:.6f}; "
          f"teacher state accuracy {q['teacher_acc']:.4f}, majority class {q['majority_acc']:.4f}")
    if args.trace:
        last = traced_runs[-1]
        print(f"traced runs: {len(traced_runs)}, overhead {values['trace_overhead_pct']:.2f}%; "
              f"self time of the last traced run (run_s {last['run_s']:.3f}):")
        for name, value in sorted(last["layers"].items(), key=lambda kv: -kv[1]):
            if name.endswith(".self_s") or name == "metrics.eval_s":
                print(f"  {name:28s} {value:8.3f} s  {100 * value / last['run_s']:5.1f}%")
    for line in failures + problems:
        print(f"FAILED {line}")

    failed = len(failures)
    STATE.mkdir(exist_ok=True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "setups": [{"wall_s": wall, **r} for wall, r in setups],
        "runs": [{k: v for k, v in r.items() if k != "checks"} for r in runs],
        "failures": failures + problems,
        "metrics": metrics,
    }
    (STATE / f"{tag}.trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if traced_runs:
        last_spans = work / f"run{traced_runs[-1]['index']}" / "spans.jsonl"
        shutil.copyfile(last_spans, STATE / f"{tag}.spans.jsonl")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
