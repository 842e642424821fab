"""Wall-clock benchmark of the whole TCSC system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-churn --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes one untraced and one traced pass over the same
inputs and reports the per-layer table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` in this directory for the workloads
and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("stream-churn", "plain-batch", "stream-sharded-process")

#: Pinned seeds (``pins.json``); the held-out one is kept for later claims.
DEFAULT_SEED = 7
HELD_OUT_SEED = 101

#: A traced run covers only the first inputs: it drains each input
#: twice, and the sharded one twice more inline, which for every input
#: would not fit the run-time limit.
TRACE_INPUTS = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "tasks_per_s": "tasks/s",
    "epoch_p50_ms": "ms",
    "epoch_p90_ms": "ms",
    "quality_sum": "bits",
    "tasks_completed": "count",
    "peak_rss_mb": "MB",
}


def load_program():
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Fails (returns an error message) when the checkout holds no program
    source, so the benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program source at {src}"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def host_record(workload: str) -> dict:
    import numpy

    from cases import process_workers

    cpus = len(os.sched_getaffinity(0))
    record = {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "max_workers": process_workers() if workload == "stream-sharded-process" else 1,
    }
    if workload == "stream-sharded-process" and cpus < 2:
        record["unresolved"] = "one CPU: process-parallel metrics do not measure parallelism"
    return record


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_pins(workload: str) -> dict:
    pins = json.loads((HERE / "pins.json").read_text())
    return pins.get(workload, {})


def pin_problems(drain, index: int, pinned: dict | None) -> list[str]:
    """Mismatches of one drain against the pinned reference, if any."""
    if pinned is None:
        return []
    expected = pinned["inputs"][index]
    got = {
        "plan_hash": drain.plan_hash,
        "quality_sum": drain.quality_sum,
        "tasks_completed": drain.tasks_completed,
    }
    return [
        f"{key} {got[key]!r} != pinned {expected[key]!r}"
        for key in got if got[key] != expected[key]
    ]


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, shape: dict | None = None) -> dict:
    """Drain the run's inputs round-robin until ``seconds`` is used up.

    Every drain sets its input up afresh.  Each input is drained at
    least once; after that, a drain starts only if it is expected
    (from that input's last drain) to end within ``seconds``.
    """
    import cases

    seeds = cases.sub_seeds(workload, seed)
    pinned = None if shape is not None else load_pins(workload).get(str(seed))
    drains: list[list] = [[] for _ in seeds]
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    for turn in itertools.count():
        index = turn % len(seeds)
        if turn >= len(seeds):
            elapsed = time.perf_counter() - start
            if elapsed + drains[index][-1].wall_s > seconds:
                break
        sub_seed = seeds[index]
        gc.collect()
        handle, setup_s = cases.setup(workload, sub_seed, shape)
        drain = cases.run(workload, handle, sub_seed, setup_s)
        del handle
        bad = list(drain.problems) + pin_problems(drain, index, pinned)
        if drains[index] and _identity(drain) != _identity(drains[index][0]):
            bad.append("plan differs from this run's first drain of the same input")
        attempted += 1
        if bad:
            failed += 1
            problems.extend(f"seed {sub_seed}: {text}" for text in bad)
        drains[index].append(drain)
    return summarize(workload, seed, drains, attempted, failed, problems)


def _identity(drain) -> tuple:
    return drain.plan_hash, drain.quality_sum, drain.tasks_completed


def summarize(workload, seed, drains, attempted, failed, problems) -> dict:
    everything = [drain for per_input in drains for drain in per_input]
    run_s = sum(statistics.median(d.run_s for d in per_input) for per_input in drains)
    first_pass = [per_input[0] for per_input in drains]
    latencies = [ms for drain in everything for ms in drain.latencies_ms]
    values = {
        "setup_s": statistics.median(d.setup_s for d in everything),
        "wall_s": statistics.fmean(
            statistics.median(d.wall_s for d in per_input) for per_input in drains
        ),
        "events_per_s": sum(d.events for d in first_pass) / run_s,
        "tasks_per_s": sum(d.tasks_completed for d in first_pass) / run_s,
        "epoch_p50_ms": _percentile(latencies, 50),
        "epoch_p90_ms": _percentile(latencies, 90),
        "quality_sum": sum(d.quality_sum for d in first_pass),
        "tasks_completed": sum(d.tasks_completed for d in first_pass),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "workload": workload,
        "seed": seed,
        "drains": attempted,
        "latency_samples": len(latencies),
        "inputs": [
            {
                "seed": d.seed, "plan_hash": d.plan_hash,
                "quality_sum": d.quality_sum, "tasks_completed": d.tasks_completed,
            }
            for d in first_pass
        ],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def trace(workload: str, seed: int, shape: dict | None = None) -> dict:
    """One untraced and one traced drain of each of the first inputs."""
    import cases
    from layers import layer_metrics
    from spans import Tracer

    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    replay = Tracer(run_id + "-shard-replay")
    seeds = cases.sub_seeds(workload, seed)[:TRACE_INPUTS]
    pinned = None if shape is not None else load_pins(workload).get(str(seed))
    untraced_wall = traced_wall = 0.0
    traced_drains = []
    shard_solves = []
    attempted = failed = 0
    problems: list[str] = []
    for index, sub_seed in enumerate(seeds):
        gc.collect()
        handle, setup_s = cases.setup(workload, sub_seed, shape)
        untraced = cases.run(workload, handle, sub_seed, setup_s)
        del handle
        gc.collect()
        mark = len(tracer.unit_payloads)
        with tracer.installed():
            handle, setup_s = cases.setup(workload, sub_seed, shape, tracer=tracer)
            traced = cases.run(workload, handle, sub_seed, setup_s, tracer=tracer)
        del handle
        untraced_wall += untraced.wall_s
        traced_wall += traced.wall_s
        traced_drains.append(traced)
        bad = list(untraced.problems) + list(traced.problems)
        bad += pin_problems(untraced, index, pinned)
        if traced.plan_hash != untraced.plan_hash:
            bad.append("traced plan hash differs from the untraced one")
        if traced.counters != untraced.counters:
            bad.append("traced OpCounters differ from the untraced ones")
        if len(tracer.unit_payloads) > mark:
            solves, mismatch = replay_shards(
                tracer.unit_payloads[mark:], tracer.unit_results[mark:], replay
            )
            shard_solves.append(solves)
            if mismatch:
                bad.append("inline shard replay differs from the worker result")
        attempted += 1
        if bad:
            failed += 1
            problems.extend(f"seed {sub_seed}: {text}" for text in bad)
    out_dir = HERE / "results"
    tracer.dump(out_dir / f"trace-{run_id}.json")
    if replay.spans:
        replay.dump(out_dir / f"trace-{run_id}-shard-replay.json")
    values = layer_metrics(
        tracer, replay, traced_drains, shard_solves, untraced_wall, traced_wall
    )
    return {
        "workload": workload,
        "seed": seed,
        "run_id": run_id,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }


def replay_shards(payloads, results, replay) -> tuple[list[float], bool]:
    """Drain the captured shard payloads inline, single-threaded.

    Timed untraced first (the serial baseline for the same job), then
    once more under ``replay`` for the in-shard layer breakdown.
    Returns the per-shard solve times and whether any inline result
    differs from what the worker returned.
    """
    from repro.par.work import run_stream_unit

    solves = []
    mismatch = False
    for payload, result in zip(payloads, results):
        gc.collect()
        start = time.perf_counter()
        inline = run_stream_unit(payload)
        solves.append(time.perf_counter() - start)
        mismatch |= inline != result
    with replay.installed():
        for payload in payloads:
            run_stream_unit(payload)
    return solves, mismatch


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _print_result(result: dict, host: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}")
    print("host " + json.dumps(host, sort_keys=True))
    for key in ("drains", "latency_samples", "run_id"):
        if key in result:
            print(f"{key} {result[key]}")
    for entry in result.get("inputs", []):
        print("input " + json.dumps(entry, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"failed/attempted {result['failed']}/{result['attempted']}")
    for text in result["problems"]:
        print(f"problem: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = load_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload: peak memory and warm caches stay
        # each workload's own.
        status = 0
        for workload in WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            status |= subprocess.run(command, check=False).returncode
        return status
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    _print_result(result, host_record(args.workload))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
