"""Benchmark entry point.

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke             # every workload, one pass

Untraced, a run sets the workload up in separate processes a few times (for
the median ``setup_s``), then runs it in one more process for about
``--seconds`` of whole passes, and prints the end-to-end metrics.  Traced,
it runs one pass of every workload with spans and prints the per-layer
metrics, summed over the three passes.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("check", "cli", "suites")
SETUP_REPEATS = 3            # setups per run; setup_s is their median
RUN_BUDGET_S = 170.0         # every child of one run ends within this

END_TO_END = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}


def _child(deadline, workload, seed, *extra) -> dict:
    """Run worker.py in its own single-threaded process and return its
    result object.  The child is killed if it runs past ``deadline``
    (a ``time.monotonic`` reading)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--t0", repr(t0), *extra]
    # subprocess.run kills the child and waits for it when the time is up.
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=False)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _save(name, doc) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def run_untraced(deadline, workload, seed, seconds) -> dict:
    setups = [_child(deadline, workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = _child(deadline, workload, seed, "--seconds", str(seconds))
    setups.append(res["setup_s"])
    res["setups_s"] = setups
    res["setup_s"] = statistics.median(setups)
    _save(f"{workload}-seed{seed}.json", res)
    for name, info in res["families"].items():
        print(f"{workload} {name}: {info['ops']} ops, median "
              f"{info['median_ms']:.2f} ms, {100 * info['share']:.1f}% of pass time")
    for p in res["problems"]:
        print(f"{workload} PROBLEM: {p}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": res[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def run_traced(deadline, seed) -> dict:
    from tracing import METRICS
    os.makedirs(RESULTS, exist_ok=True)
    total = {name: 0 for name in METRICS}
    out = {"correct": True, "attempted": 0, "failed": 0}
    for workload in WORKLOADS:
        path = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json.gz")
        res = _child(deadline, workload, seed, "--passes", "1", "--trace-out", path)
        _save(f"traced-{workload}-seed{seed}.json", res)
        print(f"{workload} traced: {res['ops_per_s']:.3f} ops/s over one pass; "
              f"spans in {os.path.relpath(path, ROOT)}")
        for p in res["problems"]:
            print(f"{workload} PROBLEM: {p}")
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for name, value in res["per_layer"].items():
            total[name] += value
    out["metrics"] = {
        name: {"value": value,
               "unit": "s" if name.endswith("_s") else "count"}
        for name, value in total.items()}
    return out


def run_smoke(deadline, workloads, seed) -> bool:
    """One pass of each workload with every output check; true when all
    outputs are correct and only the known deep-nesting fault fails."""
    ok = True
    for workload in workloads:
        res = _child(deadline, workload, seed, "--passes", "1")
        good = res["correct"] and set(res["failed_families"]) <= {"deep"}
        ok = ok and good
        print(json.dumps({"workload": workload, "ok": good,
                          "attempted": res["attempted"], "failed": res["failed"],
                          "failed_families": res["failed_families"],
                          "wall_s": round(res["wall_s"], 3),
                          "problems": res["problems"]}))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of each workload (or of --workload) with all checks")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "plausikit", "__init__.py")):
        print("error: no plausikit sources under src/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.smoke:
            return 0 if run_smoke(deadline, [args.workload] if args.workload
                                  else WORKLOADS, args.seed) else 1
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            result = run_traced(deadline, args.seed)
        else:
            result = run_untraced(deadline, args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
