"""Parallel-executor suite: measured wall clock next to the modeled makespan.

``python -m repro bench par`` runs the same seed-pinned scenarios
under every :data:`~repro.par.executor.EXECUTOR_KINDS` at shard counts
{1, 2, 4, 8} and persists them as
``benchmarks/results/par_suite.json``;
the driver merges every ``par*.json`` series into
``benchmarks/BENCH_par.json``.

Two scenario arms:

* **scale32** (plain) — the shard suite's largest batch, solved
  through :class:`~repro.shard.server.ShardedTCSCServer` with its
  phase-1 per-shard solves dispatched by the executor;
* **hotspot_drift** (stream) — skewed arrivals drained through
  :class:`~repro.shard.streaming.ShardedStreamingServer`, per-shard
  cores built inside the workers from exact JSON snapshots.

**What is gated vs what is reported** (the repo's determinism policy,
DESIGN §7/§14): the suite hard-gates *only* byte-identity — plan
signature, stream metrics, and OpCounters must match across every
executor at every shard count, and the plan must not depend on the
shard count at all.  Measured wall clock and the measured-vs-modeled
speedup table are **reported, never gated**: wall clock depends on the
host (this container may have a single core; the modeled
:class:`~repro.parallel.simcluster.SimCluster` makespan is the
machine-independent claim, and the measured column is its validation
on hosts that do have the cores).  ``host.cpu_count`` is recorded so a
reader can interpret the wall-clock column.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.par.executor import EXECUTOR_KINDS, Executor
from repro.runtime import RunSpec, WorkloadSpec, build_serving_solver
from repro.runtime.factory import StreamRuntime
from repro.workloads.scenario import ScenarioConfig, build_scenario

__all__ = [
    "EXECUTORS",
    "SHARD_COUNTS",
    "SMOKE_SHARD_COUNTS",
    "TARGET_SPEEDUP",
    "run_suite",
    "summary",
    "write_report_block",
    "check_payload",
]


#: Every executor kind, serial first (the identity reference).
EXECUTORS = EXECUTOR_KINDS

#: Shard counts swept in full mode (the acceptance grid) / smoke mode.
SHARD_COUNTS = (1, 2, 4, 8)
SMOKE_SHARD_COUNTS = (1, 2)

#: The measured wall-clock speedup the process executor aims for at
#: 4+ shards on a host with the cores to show it.  Reported, never
#: gated: a single-core runner cannot exhibit it and must still pass.
TARGET_SPEEDUP = 1.5

#: The plain arm: the shard suite's scale32 batch (full) / a small
#: batch (smoke).  Same shapes and seeds, so the numbers line up with
#: ``BENCH_shard.json``.
_PLAIN_FULL = {"name": "scale32", "tasks": 32, "m": 24, "workers": 600, "seed": 5}
_PLAIN_SMOKE = {"name": "scale8", "tasks": 8, "m": 16, "workers": 200, "seed": 13}

#: The stream arm: hotspot-drift arrivals (the elastic suite's skew
#: shape) — late arrivals pile onto one region, the worst case for a
#: static partition and therefore the most honest wall-clock test.
_STREAM_FULL = RunSpec(
    mode="stream",
    workload=WorkloadSpec(
        horizon=36, task_rate=1.2, task_slots=12, initial_workers=40,
        join_rate=1.5, mean_lifetime=24.0, hotspot_drift=1.0, seed=7,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=6, max_queue_depth=16,
)
_STREAM_SMOKE = _STREAM_FULL.replace(
    workload=WorkloadSpec(
        horizon=12, task_rate=0.6, task_slots=8, initial_workers=16,
        join_rate=1.0, mean_lifetime=12.0, hotspot_drift=1.0, seed=7,
    ),
    max_active_tasks=4, max_queue_depth=8,
)


def _plain_identity(report) -> dict:
    """The byte-identity evidence of one plain serving round."""
    return {
        "plan": _signature_hash(report.plan_signature()),
        "counters": _signature_hash(report.counters.to_dict()),
        "metrics": _signature_hash({
            "per_task_cost": sorted(report.per_task_cost.items()),
            "qualities": sorted(report.qualities.items()),
            "total_cost": report.total_cost,
            "conflicts": report.conflicts,
            "reconciled": list(report.reconciled_task_ids),
            "revalidated": list(report.revalidated_task_ids),
            "messages": report.messages,
            "makespan": report.makespan,
        }),
    }


def _stream_identity(outcome) -> dict:
    """The byte-identity evidence of one sharded streaming run."""
    counters = outcome.counters
    if not isinstance(counters, tuple):
        counters = (counters,)
    metrics = outcome.metrics
    evidence = {
        "per_shard": [asdict(m) for m in metrics.per_shard],
        "tasks_routed": list(metrics.tasks_routed),
        "dropped_events": metrics.dropped_events,
        "worker_routes": sorted(
            (wid, list(shards)) for wid, shards in metrics.worker_routes.items()
        ),
        "makespan": metrics.makespan,
        "serial_cost": metrics.serial_cost,
    }
    return {
        "plan": _signature_hash(outcome.plan_signature),
        "counters": _signature_hash([c.to_dict() for c in counters]),
        # Hashed in canonical JSON, not by repr: a worker's metrics come
        # back through the sorted-key snapshot codec, so their dicts are
        # equal to the serial arm's but in a different insertion order.
        "metrics": _signature_hash(json.dumps(evidence, sort_keys=True).encode()),
    }


def _executor_for(kind: str, pools: dict) -> Executor | None:
    """The injected executor for one arm: one persistent process pool
    shared across the whole sweep (pay the fork cost once), ``None``
    for serial (it resolves to the legacy path)."""
    if kind != "process":
        return None
    if "process" not in pools:
        pool = Executor("process", persistent=True)
        # Warm the pool outside any timed region: the first submission
        # forks the workers, and that cost belongs to pool creation,
        # not to the first cell's wall-clock figure.
        pool.map_units(len, ["warmup"])
        pools["process"] = pool
    return pools["process"]


def _run_plain_scenario(params: dict, shard_counts, pools: dict) -> dict:
    built = build_scenario(
        ScenarioConfig(
            num_tasks=params["tasks"],
            num_slots=params["m"],
            num_workers=params["workers"],
            seed=params["seed"],
        )
    )
    shard_rows: dict[str, dict] = {}
    for num_shards in shard_counts:
        executors: dict[str, dict] = {}
        modeled = None
        for kind in EXECUTORS:
            spec = RunSpec(
                mode="plain", shards=num_shards, executor=kind
            ).validate()
            server = build_serving_solver(
                spec, built.pool, built.bbox,
                force_sharded=True, executor=_executor_for(kind, pools),
            )
            start = time.perf_counter()
            report = server.assign(built.tasks)
            wall = time.perf_counter() - start
            executors[kind] = {"wall_s": wall, **_plain_identity(report)}
            if modeled is None:
                modeled = {
                    "makespan": report.makespan,
                    "serial_cost": report.serial_cost,
                    "speedup": report.speedup,
                }
        shard_rows[str(num_shards)] = _finish_row(executors, modeled)
    return {"kind": "plain", **params, "shards": shard_rows}


def _run_stream_scenario(base: RunSpec, shard_counts, pools: dict) -> dict:
    shard_rows: dict[str, dict] = {}
    for num_shards in shard_counts:
        executors: dict[str, dict] = {}
        modeled = None
        for kind in EXECUTORS:
            spec = base.replace(shards=num_shards, executor=kind).validate()
            # force_sharded keeps the serial reference on the same
            # coordinator/router composition (ShardedStreamMetrics)
            # the executor arms produce, even at one shard.
            runtime = StreamRuntime(
                spec, force_sharded=True, executor=_executor_for(kind, pools)
            )
            runtime.scenario()  # build the trace outside the timed region
            start = time.perf_counter()
            outcome = runtime.run()
            wall = time.perf_counter() - start
            executors[kind] = {"wall_s": wall, **_stream_identity(outcome)}
            if modeled is None:
                metrics = outcome.metrics
                modeled = {
                    "makespan": metrics.makespan,
                    "serial_cost": metrics.serial_cost,
                    "speedup": metrics.speedup,
                }
        shard_rows[str(num_shards)] = _finish_row(executors, modeled)
    workload = base.workload
    return {
        "kind": "stream",
        "name": "hotspot_drift",
        "horizon": workload.horizon,
        "task_rate": workload.task_rate,
        "hotspot_drift": workload.hotspot_drift,
        "seed": workload.seed,
        "shards": shard_rows,
    }


def _finish_row(executors: dict, modeled: dict) -> dict:
    """Stamp per-executor measured speedups and the identity verdict."""
    serial_wall = executors["serial"]["wall_s"]
    for row in executors.values():
        row["speedup_vs_serial"] = (
            serial_wall / row["wall_s"] if row["wall_s"] > 0 else 1.0
        )
    reference = {
        key: executors["serial"][key] for key in ("plan", "counters", "metrics")
    }
    identical = all(
        all(row[key] == reference[key] for key in reference)
        for row in executors.values()
    )
    return {"executors": executors, "modeled": modeled, "identical": identical}


def run_suite(*, smoke: bool = False) -> dict:
    """Run the suite and return the machine-readable payload."""
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    plain = _PLAIN_SMOKE if smoke else _PLAIN_FULL
    stream = _STREAM_SMOKE if smoke else _STREAM_FULL
    pools: dict[str, Executor] = {}
    try:
        scenarios = [
            _run_plain_scenario(plain, shard_counts, pools),
            _run_stream_scenario(stream, shard_counts, pools),
        ]
    finally:
        for pool in pools.values():
            pool.close()
    return {
        "suite": "parsuite",
        "mode": "smoke" if smoke else "full",
        "executors": list(EXECUTORS),
        "shard_counts": list(shard_counts),
        "wall_clock_gated": False,
        "target_speedup": TARGET_SPEEDUP,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": sys.platform,
        },
        "scenarios": scenarios,
    }


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    * **Cross-executor identity** — at every shard count, every
      executor must reproduce the serial arm's plan signature, metrics,
      and OpCounters digests exactly.
    * **Shard-count plan invariance (plain arm only)** — the plain
      plan digest must also be one value across the whole shard sweep
      (the shard suite's invariant, re-checked here because the
      executor arms bypass the in-process phase-1 loop).  Sharded
      *streaming* plans legitimately vary with the shard count
      (admission control and budget pools are per shard), so the
      stream arm is gated per shard count only.

    Wall clock and measured speedup are deliberately unchecked: they
    describe the host, not the algorithm (DESIGN §14).
    """
    failures: list[str] = []
    for scenario in payload["scenarios"]:
        name = scenario["name"]
        plan_digests = set()
        for count, row in scenario["shards"].items():
            reference = row["executors"]["serial"]
            if scenario["kind"] == "plain":
                plan_digests.add(reference["plan"])
            for kind, arm in row["executors"].items():
                for key in ("plan", "counters", "metrics"):
                    if arm[key] != reference[key]:
                        failures.append(
                            f"{name}: shards={count} executor={kind} "
                            f"{key} diverged from the serial arm "
                            f"({arm[key]} != {reference[key]})"
                        )
        if len(plan_digests) > 1:
            failures.append(
                f"{name}: plan depends on the shard count "
                f"({sorted(plan_digests)})"
            )
    return failures


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable executor block for REPORT.md."""
    from repro.bench import Reporter

    host = payload["host"]
    reporter = Reporter(
        "par1",
        f"Parallel-executor suite: {'/'.join(payload['executors'])} at shard counts "
        f"{'/'.join(str(c) for c in payload['shard_counts'])}",
        results_dir=results_dir,
    )
    reporter.note(
        "plans/metrics/OpCounters byte-identical across executors at every "
        "shard count (the gate); wall-clock columns are NON-GATING host "
        f"measurements (cpu_count={host['cpu_count']}) — the modeled "
        "speedup is the machine-independent SimCluster makespan claim"
    )
    reporter.header(
        "scenario", "shards", "executor", "wall_s",
        "measured_x", "modeled_x", "identical",
    )
    for scenario in payload["scenarios"]:
        for count, row in scenario["shards"].items():
            for kind in payload["executors"]:
                arm = row["executors"][kind]
                reporter.row(
                    scenario["name"], count, kind,
                    round(arm["wall_s"], 4),
                    round(arm["speedup_vs_serial"], 2),
                    round(row["modeled"]["speedup"], 2),
                    "yes" if row["identical"] else "NO",
                )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """Measured vs modeled speedup at the top shard count, per scenario."""
    cpu_count = payload["host"]["cpu_count"]
    top = str(payload["shard_counts"][-1])
    lines = []
    for scenario in payload["scenarios"]:
        row = scenario["shards"][top]
        process = row["executors"]["process"]
        lines.append(
            f"{scenario['name']}: shards={top} process executor "
            f"{process['speedup_vs_serial']:.2f}x measured / "
            f"{row['modeled']['speedup']:.2f}x modeled "
            f"(wall {process['wall_s']:.3f}s vs serial "
            f"{row['executors']['serial']['wall_s']:.3f}s), "
            f"identical={row['identical']}"
        )
    if cpu_count < 2:
        lines.append(
            f"note: host has {cpu_count} CPU — measured speedup cannot "
            f"reach the {TARGET_SPEEDUP}x target here; the wall-clock "
            "columns are reported, never gated"
        )
    return lines
