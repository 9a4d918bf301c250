"""Same-session benchmark pairs: a parent revision against a change.

    python3 scripts/bench_pairs.py --parent REV --change REV --out BENCH_<n>.json \
        [--pairs 10] [--workloads household,seeds-mlp,lookback-336] \
        [--seconds 30] [--seed 1] [--workdir DIR]

Run it from the root of the repository. REV is anything ``git archive``
takes: a commit, or a tree such as ``git write-tree`` prints for the
staged changes. Each revision is exported into its own directory under
DIR (made and removed by the script when not given), so the repository
gains no worktree or ref. Each pair then runs ``perfbench/run.py
--trace 0`` of both exports once per workload, the parent first in even
pairs and the change first in odd ones, so both sides share the
machine's state. One invocation gives one sample of every end-to-end
metric in ``BENCHMARK.json`` (the median of its runs). Beside its
metrics, each invocation records the minor page faults of its child
processes (the change in ``getrusage(RUSAGE_CHILDREN).ru_minflt``: the
set-ups and the timed runs together), its number of timed runs, and
the output digests of its set-ups and timed runs, which perfbench
leaves in ``.perfbench/<workload>-seed<n>.trace0.json`` of the export.

The output holds, per workload and metric, each side's samples, median
and quartiles over the pairs in which both sides succeeded, the
change's wins over all pairs run (ties and pairs with a failed
invocation count for neither), whether a gain holds (wins in at least
9 of 10 pairs run, a median gap wider than the parent's interquartile
range, and no more failed invocations than the parent) and whether the
change stays within the metric's bound; per workload and side, the
minor faults and the timed runs per invocation (the faults include the
set-ups', so they compare sides only at like run counts); per workload,
each side's distinct set-up and run digests and whether every change
digest equals every parent digest, so unchanged outputs need no check
by hand; both revisions; and a session stamp: CPU, Python, numpy and
BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, where: Path) -> dict:
    """The files of rev under where; its object id and type."""
    sha = git("rev-parse", "--verify", f"{rev}^{{tree}}")
    kind = git("cat-file", "-t", git("rev-parse", rev))
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    where.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    return {"rev": rev, "object": git("rev-parse", rev), "type": kind, "tree": sha}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench invocation: its JSON line, or a failure record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    summary_file = tree / ".perfbench" / f"{workload}-seed{seed}.trace0.json"
    summary_file.unlink(missing_ok=True)  # so a failed invocation shows no earlier digests
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
              "minor_faults": resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults}
    env = [line for line in lines if line.startswith("env: ")]
    record["env"] = env[0][5:] if env else None
    result = [line for line in lines if line.startswith("{")]
    if proc.returncode != 0 or not result:
        record.update(correct=False, stderr=proc.stderr[-2000:])
        return record
    doc = json.loads(result[-1])
    record.update(correct=doc["correct"], attempted=doc["attempted"], failed=doc["failed"])
    record["metrics"] = {name: m["value"] for name, m in doc["metrics"].items()}
    summary_doc = json.loads(summary_file.read_text(encoding="utf-8"))
    for key, items in (("setup_digests", summary_doc["setups"]), ("run_digests", summary_doc["runs"])):
        record[key] = sorted({item["digest"] for item in items})
    return record


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def digests(done: dict[str, list[dict]], key: str) -> dict:
    """Each side's distinct digests under key, and whether both sides
    give one and the same."""
    sides = {s: sorted({d for r in rs for d in r[key]}) for s, rs in done.items()}
    union = {d for ds in sides.values() for d in ds}
    return {**sides, "equal": all(sides.values()) and len(union) == 1}


def compare(spec: dict, parent: list[float], change: list[float], pairs: int, failed: dict) -> dict:
    """Both sides of one metric over the pairs that gave both. The change's
    wins count over all pairs run, so a pair with a failed invocation is
    no win; and no gain holds while the change failed more invocations
    than the parent (failed maps each side to its failed invocations)."""
    lower = spec["better"] == "lower"
    better = [(c < p) if lower else (c > p) for p, c in zip(parent, change)]
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gap = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    worse_by = -gap / abs(p["median"]) if p["median"] else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "pairs": pairs,
        "compared_pairs": len(parent),
        "change_wins": sum(better),
        "ties": ties,
        "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "gain_holds": sum(better) >= 0.9 * pairs and gap > p["q3"] - p["q1"]
        and failed["change"] <= failed["parent"],
        "within_bound": worse_by <= spec["bound"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="household,seeds-mlp,lookback-336")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        sides = {name: export(rev, workdir / name) for name, rev in
                 (("parent", args.parent), ("change", args.change))}
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    record = bench(workdir / side, workload, args.seed, args.seconds)
                    record.update(pair=pair, side=side, first=side == order[0])
                    runs[workload].append(record)
                    status = "ok" if record["correct"] else "FAILED"
                    run_s = record.get("metrics", {}).get("run_s")
                    print(f"pair {pair} {workload} {side}: {status} run_s {run_s}", flush=True)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    out = {"parent": sides["parent"], "change": sides["change"], "workloads": {}}
    envs = {r["env"] for rs in runs.values() for r in rs if r.get("env")}
    out["session"] = {
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmark_env": sorted(envs),  # perfbench's own line, with its BLAS thread count
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
    }
    for workload, records in runs.items():
        by_pair = {}
        for r in records:
            if r["correct"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [sides_ for _, sides_ in sorted(by_pair.items()) if len(sides_) == 2]
        done = {s: [r for r in records if r["side"] == s and r["correct"]] for s in ("parent", "change")}
        failed = {s: sum(not r["correct"] for r in records if r["side"] == s) for s in done}
        out["workloads"][workload] = {
            "failed_invocations": failed,
            "minor_faults": {
                s: {"per_invocation": summary([r["minor_faults"] for r in rs]),
                    "timed_runs": summary([r["attempted"] for r in rs])}
                for s, rs in done.items() if rs
            },
            "setup_digests": digests(done, "setup_digests"),
            "run_digests": digests(done, "run_digests"),
            "metrics": {
                name: compare(m, [b["parent"][name] for b in both], [b["change"][name] for b in both],
                              args.pairs, failed)
                for name, m in metrics.items() if both
            },
            "runs": [{k: v for k, v in r.items() if k != "metrics"} for r in records],
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
