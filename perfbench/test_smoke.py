"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.load_program() is None

import cases  # noqa: E402
from repro.runtime.factory import StreamRuntime  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "stream-churn": dict(horizon=12, task_rate=0.5, initial_workers=40, join_rate=2.0, task_slots=12),
    "plain-batch": dict(tasks=3, slots=20, workers=60),
    "stream-sharded-process": dict(horizon=12, task_rate=0.5, initial_workers=40, join_rate=2.0, task_slots=12),
}


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(cases.SUB_INPUTS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    measured = run.measure(workload, 7, 0.0, shape=TINY[workload])
    assert measured["failed"] == 0, measured["problems"]
    assert {n: m["unit"] for n, m in measured["metrics"].items()} == _units("end_to_end")
    for metric in measured["metrics"].values():
        assert metric["value"] > 0
    traced = run.trace(workload, 7, shape=TINY[workload])
    assert traced["failed"] == 0, traced["problems"]
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == _units("per_layer")


def test_tree_index_is_bypassed_by_plain_batch():
    metrics = run.trace("plain-batch", 7, shape=TINY["plain-batch"])["metrics"]
    for name in ("tree_index.builds", "tree_index.find_best_calls", "range_tree.add_calls"):
        assert metrics[name]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_change_regenerates_inputs(workload):
    shape = TINY[workload]

    def drain(seed):
        handle, setup_s = cases.setup(workload, seed, shape)
        scenario = handle[1]
        if workload == "plain-batch":
            inputs = [(task.loc.x, task.loc.y) for task in scenario.tasks]
        else:
            inputs = scenario.signature()
        return inputs, cases.run(workload, handle, seed, setup_s).plan_hash

    first, again, other = drain(7), drain(7), drain(8)
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]


def test_benchmark_trace_matches_the_runtime_generator():
    shape = TINY["stream-churn"]
    ours = cases.build_stream_events(cases.stream_config(7, shape))
    theirs = StreamRuntime(cases.stream_spec(7, shape)).scenario()
    assert ours.signature() == theirs.signature()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pinned_default_seed_reproduces(workload):
    pinned = run.load_pins(workload)
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        assert len(pinned[str(seed)]["inputs"]) == cases.SUB_INPUTS[workload]
    handle, setup_s = cases.setup(workload, run.DEFAULT_SEED)
    drain = cases.run(workload, handle, run.DEFAULT_SEED, setup_s)
    assert drain.problems == []
    assert run.pin_problems(drain, 0, pinned[str(run.DEFAULT_SEED)]) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    command = [sys.executable, *BENCHMARK["command"][1:], "--workload", "stream-churn",
               "--seed", "7", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
