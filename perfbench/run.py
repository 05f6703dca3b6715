"""Benchmark of the pencilgraphs package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: desk-verify, component-4-1, aux-group, pencil-queries (see
perfbench/README.md).  Each repetition runs the workload in a fresh
interpreter (perfbench/worker.py), so every repetition starts cold, as every
CLI call does.  Repetitions run one after another (one client) for about S
seconds.  Every answer is checked; a wrong answer, a raised error or a
non-zero exit counts as a failed operation and makes the exit code 1.
Operation times are scaled to a reference speed of the host
(perfbench/hostspeed.py); set-up time is reported as measured.

With --trace 0 the end-to-end metrics are reported.  With --trace 1 untraced
and traced repetitions alternate: the traced ones give the per-layer metrics
(median over repetitions) and the tracing overhead is the difference of the
two median wall times.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
run's stamp (machine, versions, seed, commit) and the metrics in words.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("desk-verify", "component-4-1", "aux-group", "pencil-queries")
HARD_LIMIT_S = 170  # the whole run, set-up included, must end well within 180
SETUP_PROBES = 11  # extra cold starts per run that stop at the first timed call

sys.path.insert(0, HERE)
from spans import LAYER_METRICS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
              ("queries_per_s", "1/s")]
# reported with the per-layer metrics: the times as measured, and the host
HOST_METRICS = [("raw.wall_s", "s", "lower"), ("host.slice_us", "us", "lower")]


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree; do not report an enclosing repo
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: int,
          threads: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "threads": threads,
        "python": platform.python_version(), "numpy": numpy_version,
        "machine": platform.machine(), "commit": _git_commit(),
    }


def run_rep(workload: str, seed: int, rep: int, trace: int, workdir: str,
            timeout: float, setup_only: bool = False) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    repdir = os.path.join(workdir, f"{'probe' if setup_only else 'rep'}-{rep}")
    os.makedirs(repdir)
    result_path = os.path.join(repdir, "result.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--rep", str(rep),
           "--trace", str(trace), "--spawned", repr(spawned),
           "--workdir", repdir, "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition {rep} timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"repetition {rep} exited {proc.returncode}: "
                         + " | ".join(tail)}
    with open(result_path) as f:
        res = json.load(f)
    res["elapsed_s"] = time.monotonic() - spawned
    return res


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    vals = sorted(values)
    return vals[max(0, math.ceil(q * len(vals)) - 1)]


def end_to_end(workload: str, reps: list[dict],
               probes: list[dict]) -> dict[str, float]:
    walls = [sum(r["latencies_s"]) for r in reps]
    if workload == "pencil-queries":
        lat = [x for r in reps for x in r["latencies_s"]]  # one per query
    else:
        lat = walls  # a query is one cold run of the whole workload
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] for r in reps + probes),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p99_ms": 1000 * _quantile(lat, 0.99),
        "queries_per_s": len(lat) / sum(lat),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name, _, _ in LAYER_METRICS:
        vals = [r["layers"][name] for r in traced if name in r["layers"]]
        out[name] = statistics.median(vals) if vals else 0.0
    out["trace.overhead_s"] = (
        statistics.median(sum(r["latencies_s"]) for r in traced)
        - statistics.median(sum(r["latencies_s"]) for r in plain))
    out["raw.wall_s"] = statistics.median(sum(r["raw_latencies_s"])
                                          for r in plain)
    out["host.slice_us"] = 1e6 * statistics.median(r["slice_s"]
                                                   for r in plain + traced)
    return out


def write_trace(path: str, meta: dict, traced: list[dict]) -> None:
    with open(path, "w") as f:
        json.dump({"stamp": meta, "repetitions": [r["trace"] for r in traced]},
                  f)


def _terminate(signum, _frame):
    # unwinding lets subprocess.run kill and reap the running repetition
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "pencilgraphs",
                                       "__init__.py")):
        print("perfbench: no src/pencilgraphs next to perfbench/; run it from "
              "the root of a pencilgraphs checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import THREADS

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{a.workload}-seed{a.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    meta = stamp(a.workload, a.seed, a.seconds, a.trace, THREADS)
    reps: list[dict] = []
    errors: list[str] = []
    crashed = 0  # a repetition that died or timed out counts as one failed op
    probes: list[dict] = []
    n_probes = 0 if a.trace else SETUP_PROBES
    min_reps = 2 if a.trace else 1
    try:
        while True:
            elapsed = time.monotonic() - started
            probe = len(probes) < n_probes
            if not probe and len(reps) >= min_reps:
                typical = statistics.median(r["elapsed_s"] for r in reps)
                if elapsed + typical > a.seconds:
                    break
            traced = not probe and a.trace and len(reps) % 2 == 1
            res = run_rep(a.workload, a.seed, len(probes if probe else reps),
                          int(traced), workdir, HARD_LIMIT_S - elapsed,
                          setup_only=probe)
            if "error" in res:
                errors.append(res["error"])
                crashed = 1
                break
            if probe:
                probes.append(res)
                continue
            res["traced"] = traced
            reps.append(res)
            if res["failed_ops"]:
                errors += [f"{op} #{k}: {msg}" for k, op, msg in res["problems"]]
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["ops"] for r in reps) + crashed
    failed = sum(r["failed_ops"] for r in reps) + crashed
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    correct = not errors and failed == 0 and bool(plain) and (
        not a.trace or bool(traced_reps))

    meta["repetitions"] = len(reps)
    meta["operations"] = attempted
    if traced_reps:
        trace_path = os.path.join(OUT, f"trace-{a.workload}-seed{a.seed}.json")
        write_trace(trace_path, meta, traced_reps)
        meta["trace_file"] = os.path.relpath(trace_path, ROOT)
    print("stamp " + json.dumps(meta, sort_keys=True))
    for msg in errors:
        print(f"FAILED {msg}", file=sys.stderr)
    metrics: dict[str, dict] = {}
    if correct:
        if a.trace:
            units = {name: unit for name, unit, _ in LAYER_METRICS
                     + HOST_METRICS}
            values = per_layer(plain, traced_reps)
        else:
            units = dict(END_TO_END)
            values = end_to_end(a.workload, plain, probes)
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{a.workload} {name} = {value:.6g} {units[name]}")
    print(f"{a.workload} failed_frac = {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
