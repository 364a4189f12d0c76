"""One workload in one process: set up, run whole passes, then check.

Started by ``run.py`` with ``PYTHONHASHSEED`` fixed and ``src`` on the path;
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


RAISED = "raised"
MIN_COMPLETED = 100     # so that at least ten lie beyond the 90th percentile


def _completed(op, out) -> bool:
    return not (isinstance(out, tuple) and out[:1] == (RAISED,)) and op.done(out)


def _percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run whole passes for about this long")
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead")
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this "
                         "process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="record spans and write them here")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from workloads import WORKLOADS

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _run(wl, args, tracer)
        result["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


def _run(wl, args, tracer) -> dict:
    clock = time.perf_counter
    ops = wl.ops
    first = None
    family_time = {}
    failed_families = {}
    pass_times = []
    attempted = failed = 0
    mismatches = []
    while True:
        gc.collect()
        outputs, latencies = [], []
        start = clock()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(pass_times) * len(ops) + k
            t = clock()
            try:
                out = op.run()
            except Exception as e:   # counted as a failed operation
                out = (RAISED, type(e).__name__)
            latencies.append(clock() - t)
            outputs.append(out)
        pass_times.append(clock() - start)
        if tracer is not None:
            tracer.op = None
        for op, out, dt in zip(ops, outputs, latencies):
            attempted += 1
            if not _completed(op, out):
                failed += 1
                failed_families[op.family] = failed_families.get(op.family, 0) + 1
            else:
                family_time.setdefault(op.family, []).append(dt)
        if first is None:
            first = outputs
        else:
            mismatches += [k for k, (a, b) in enumerate(zip(first, outputs)) if a != b]
        if args.passes:
            if len(pass_times) >= args.passes:
                break
        elif (sum(map(len, family_time.values())) >= MIN_COMPLETED
              and sum(pass_times) + statistics.mean(pass_times) > args.seconds):
            break   # another whole pass would overrun the run length

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [dt for ts in family_time.values() for dt in ts]
    wall = sum(pass_times)
    problems = [f"pass output differs from the first pass at op {k}"
                for k in sorted(set(mismatches))]
    # Checks speak of the operations that completed; failed ones are None.
    problems += wl.check([out if _completed(op, out) else None
                          for op, out in zip(ops, first)])
    return {
        "workload": wl.name,
        "passes": len(pass_times),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failed_families": failed_families,
        "wall_s": wall,
        "pass_s": pass_times,
        "ops_per_s": len(done) / wall,
        "op_p50_ms": _percentile(done, 50) * 1000.0,
        "op_p90_ms": _percentile(done, 90) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "families": {
            name: {"ops": len(ts), "median_ms": statistics.median(ts) * 1000.0,
                   "share": sum(ts) / wall}
            for name, ts in sorted(family_time.items())},
        "correct": not problems,
        "problems": problems[:20],
    }


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
