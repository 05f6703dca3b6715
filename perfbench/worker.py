"""One cold repetition of one workload, in the fresh interpreter it runs in.

Usage (started by run.py, one process per repetition):

    python3 perfbench/worker.py --workload NAME --seed N --rep K --trace 0|1
        --spawned T --workdir DIR --result FILE [--setup-only]

Set-up (interpreter start, package import, input generation) ends at the
first timed call; the worker asserts that the package's caches are still
empty there.  With --setup-only it stops at that point.  Each operation is
timed on its own and its answer is checked right after, outside the timed
interval.  Operation times are reported at the reference host speed
(hostspeed.py) and also as measured.  The result, with the spans of a traced
repetition, is written as JSON to --result when the repetition ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="CLOCK_MONOTONIC time at which the parent spawned us")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed call: a set-up probe")
    a = ap.parse_args()

    sys.path.insert(0, SRC)
    import pencilgraphs
    from pencilgraphs import (autnr, cli, config, decomp, graphbuild,  # noqa: F401
                              homog, hrho, hrho_heavy, parallel, report)

    if not os.path.abspath(pencilgraphs.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported pencilgraphs from {pencilgraphs.__file__}")
    import hostspeed
    import spans
    import workloads

    ops = workloads.plan(a.workload, a.seed, a.rep, a.workdir)
    tracer = None
    if a.trace:
        tracer = spans.Tracer()
        tracer.install()
    warm = {k: v for k, v in workloads.program_caches().items() if v}
    if warm:
        raise RuntimeError(f"program caches not empty before timing: {warm}")
    ready = time.monotonic()
    if a.setup_only:
        ops = []

    probe = hostspeed.Probe()
    probe.start()
    spans_of_ops, problems = [], []
    for k, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            answer = tracer.call(f"bench.{op.label}", op.run) if tracer \
                else op.run()
        except Exception as e:  # a raising call is a failed operation
            spans_of_ops.append((t0, time.perf_counter()))
            problems.append([k, op.label, f"raised {type(e).__name__}: {e}"])
            continue
        spans_of_ops.append((t0, time.perf_counter()))
        if tracer:
            tracer.enabled = False  # checks are not part of the trace
        try:
            problems += [[k, op.label, msg] for msg in op.check(answer)]
        except Exception as e:  # an unreadable answer is a wrong answer
            problems.append([k, op.label, f"check raised {type(e).__name__}: {e}"])
        if tracer:
            tracer.enabled = True

    if ops:  # an idle moment, so that the last operation has samples after it
        time.sleep(hostspeed.WINDOW_S)
    probe.stop()

    result = {
        "setup_s": ready - a.spawned,
        "latencies_s": [probe.scaled(t0, t1) for t0, t1 in spans_of_ops],
        "raw_latencies_s": [t1 - t0 for t0, t1 in spans_of_ops],
        "slice_s": probe.slice_s() if probe.samples else None,
        "ops": len(ops),
        "failed_ops": len({p[0] for p in problems}),
        "problems": problems[:20],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.enabled = False
        result["layers"] = spans.layer_metrics(tracer,
                                               workloads.cache_hit_ratios())
        result["trace"] = tracer.export()
    with open(a.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
