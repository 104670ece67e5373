"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q

They run every workload's traced split twice, at the run length of
``BENCHMARK.json`` (30 s), and check the closure of its layers and that
the counts repeat exactly; then they check the generator and the oracle
wiring.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

COUNTS = [
    name
    for name, unit in run.metric_units("per_layer").items()
    if unit == "count" or name in ("engine.index_hit_ratio", "engine.new_per_derived")
]


def bench(workload: str, seed: int, trace: int, seconds: float = 20.0, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def report(workload: str, seed: int, trace: int):
    path = os.path.join(run.WORK, f"report-{workload}-{seed}-{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_twice(request):
    workload = request.param
    outs = []
    for _ in range(2):
        proc = bench(workload, 7, 1, seconds=30.0)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append((json.loads(proc.stdout.splitlines()[-1]), report(workload, 7, 1)))
    return workload, outs


def test_traced_run_reports_every_per_layer_metric(traced_twice):
    _, outs = traced_twice
    for result, _ in outs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.metric_units("per_layer"))


def test_layers_close_on_the_end_to_end_wall(traced_twice):
    # Both shares pair layers with the wall timed in the same round.
    _, outs = traced_twice
    for _, full in outs:
        metrics = {name: value for name, (value, _, _) in full["all"].items()}
        assert metrics["layers.max_share"] <= 1.0
        assert abs(metrics["layers.unattributed_share"]) <= 0.10


def test_counts_repeat_exactly(traced_twice):
    _, outs = traced_twice
    first, second = (result["metrics"] for result, _ in outs)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_road_generator_never_repeats_an_arc():
    for seed in range(300):
        arcs = gen.road_grid(40, random.Random(seed))
        assert len({(u, v) for u, v, _ in arcs}) == len(arcs), seed


def test_an_answer_that_differs_from_the_oracle_fails_the_run():
    os.makedirs(run.WORK, exist_ok=True)
    spec = run.batch_inputs("road_paths", 3)
    spec.update(mode="e2e", seconds=0.0)
    spec["expected"][0][-1] += 1.0
    _, _, out = run.run_worker(spec, "oracle-mismatch")
    assert out["attempted"] == out["failed"] == 1


def test_without_the_engine_sources_the_command_fails_without_a_result():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("road_paths", 1, 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
