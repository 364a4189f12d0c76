"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke run takes about a minute and a half, the traced run about as long.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs      # noqa: E402
import reference   # noqa: E402
from tracing import METRICS   # noqa: E402


def _run(*args, cwd=None, timeout=600):
    return subprocess.run([sys.executable, os.path.join(cwd or HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


def test_smoke_run_checks_every_workload():
    proc = _run("--smoke", "--seed", "2")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in rows] == ["check", "cli", "suites"]
    for r in rows:
        assert r["ok"], r
        assert set(r["failed_families"]) <= {"deep"}
    assert proc.returncode == 0, proc.stderr


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "check", "--seed", "2", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(METRICS)
    for name in ("cli.main.calls", "semantics.truth_set.calls",
                 "suites.trials", "bisim.family_pairs", "rewrite.steps"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run("--workload", "check", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path / "perfbench"), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_parser_reads_what_inputs_print():
    import random
    rng = random.Random(5)
    for k in range(200):
        f = inputs.static(rng, k % 7)
        assert reference.parse(inputs.show(f)) == f
        g = inputs.dynamic(rng, 2, ("ann", "up")[k % 2])
        assert reference.parse(inputs.show(g)) == g


def test_reference_evaluator_on_a_hand_checked_model():
    # v is strictly more plausible than w for agent a; both are in one class.
    doc = {"states": ["v", "w"], "agents": ["a"],
           "epist": {"a": [["v", "v"], ["v", "w"], ["w", "v"], ["w", "w"]]},
           "plaus": {"a": {s: [["v", "v"], ["v", "w"], ["w", "w"]]
                           for s in ("v", "w")}},
           "valuation": {"p": ["w"]}}
    ev = reference.Evaluator(reference.RefModel(doc))
    t = ev.truth
    assert t(reference.parse("K[a] p")) == frozenset()
    assert t(reference.parse("Khat[a] p")) == {"v", "w"}
    assert t(reference.parse("B[a | true] ~p")) == {"v", "w"}
    assert t(reference.parse("Bplus[a] p")) == frozenset()
    assert t(reference.parse("Gt[a] false")) == {"v"}
    assert t(reference.parse("[up p] B[a | true] p")) == {"v", "w"}
    assert t(reference.parse("[! p] K[a] p")) == {"v", "w"}
    assert t(reference.parse("[! false] false")) == {"v", "w"}
