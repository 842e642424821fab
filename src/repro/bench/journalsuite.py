"""Deterministic durability suite: crash-consistent replay, measured.

``python -m repro bench journal`` drives the :mod:`repro.journal`
subsystem through seed-pinned streaming scenarios and persists
``benchmarks/BENCH_journal.json``.

Three measurements per scenario:

* **Exactness** (the acceptance invariant): an uninterrupted journaled
  run must equal the plain run, and a crash injected at *every* event
  boundary — for the plain streaming server and the sharded one at
  shard counts 1/2/4 — must recover to byte-identical
  ``plan_signature()``, ``StreamMetrics``, and ``OpCounters``.
* **Journal write overhead**: records and bytes appended per event —
  deterministic quantities (canonical JSON framing), plus the zero
  op-count overhead claim (journaling never touches the solver
  counters, enforced by the metrics-equality gate).
* **Recovery cost**: input events re-consumed per recovery
  (snapshot + log-suffix replay), reported as mean/max over the
  boundary sweep; snapshots must make the mean strictly cheaper than
  full-trace replay.

Per the determinism policy, every gate is op-count/equality based.
The payload carries no wall clock: perfbench measures the system's time
from outside.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.journal.layer import InjectedCrash, journal_layer
from repro.runtime import (
    RunSpec,
    StreamRuntime,
    WorkloadSpec,
    build_runtime,
    recover_runtime,
)

__all__ = [
    "JournalScenario",
    "SHARD_COUNTS",
    "SCENARIOS",
    "SMOKE_SCENARIOS",
    "run_suite",
    "summary",
    "write_report_block",
    "check_payload",
]


#: Sharded deployments swept at every event boundary (the acceptance
#: grid; 1 doubles as the degenerate-sharding cross-check).
SHARD_COUNTS = (1, 2, 4)


@dataclass(frozen=True, slots=True)
class JournalScenario:
    """One seed-pinned streaming trace plus its server shape."""

    name: str
    horizon: int
    task_rate: float
    task_slots: int
    initial_workers: int
    join_rate: float
    mean_lifetime: float
    seed: int
    epoch_length: float
    budget_fraction: float
    snapshot_every: int


SCENARIOS = (
    JournalScenario(
        "durability_small",
        horizon=16, task_rate=0.3, task_slots=8, initial_workers=14,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
        epoch_length=3.0, budget_fraction=0.6, snapshot_every=2,
    ),
    JournalScenario(
        "durability_medium",
        horizon=26, task_rate=0.25, task_slots=10, initial_workers=16,
        join_rate=0.7, mean_lifetime=14.0, seed=17,
        epoch_length=4.0, budget_fraction=0.5, snapshot_every=3,
    ),
)

#: CI smoke mode: the smallest scenario only.
SMOKE_SCENARIOS = (SCENARIOS[0],)


def _base_spec(scenario: JournalScenario) -> RunSpec:
    """The scenario's streaming spec — every server in the sweep is a
    ``spec.replace(...)`` of this one, built by the runtime factory."""
    return RunSpec(
        mode="stream",
        workload=WorkloadSpec(
            horizon=scenario.horizon,
            task_rate=scenario.task_rate,
            task_slots=scenario.task_slots,
            initial_workers=scenario.initial_workers,
            join_rate=scenario.join_rate,
            mean_lifetime=scenario.mean_lifetime,
            seed=scenario.seed,
        ),
        k=2,
        epoch_length=scenario.epoch_length,
        budget_fraction=scenario.budget_fraction,
        max_active_tasks=4,
        max_queue_depth=8,
        snapshot_every=scenario.snapshot_every,
    )


def _sweep_plain(base: RunSpec, scenario, *, workdir: Path) -> dict:
    """Crash at every event boundary of the plain streaming runtime.

    ``scenario`` is the pre-built trace every runtime in the sweep
    reuses (the boundary loop would otherwise regenerate it per run).
    """
    events = list(scenario.events)
    total = len(events)
    ref = StreamRuntime(base, scenario=scenario).run()
    ref_metrics = ref.metrics
    ref_sig = ref.plan_signature

    journaled = StreamRuntime(
        base.replace(journal=str(workdir / "uninterrupted")),
        scenario=scenario,
    ).run()
    journal = journal_layer(journaled.server).journal

    replayed: list[int] = []
    snapshot_recoveries = 0
    identical = 0
    for boundary in range(total):
        jdir = workdir / f"crash-{boundary}"
        crashed = StreamRuntime(
            base.replace(journal=str(jdir), crash_after_events=boundary),
            scenario=scenario,
        )
        try:
            crashed.run()
            raise AssertionError(f"crash at boundary {boundary} never fired")
        except InjectedCrash:
            pass
        recovered = recover_runtime(jdir)
        metrics = recovered.resume(list(events))
        if (
            metrics == ref_metrics
            and recovered.assignment().plan_signature() == ref_sig
        ):
            identical += 1
        replayed.append(recovered.recovery.events_replayed)
        snapshot_recoveries += recovered.recovery.snapshot_loaded

    return {
        "total_events": total,
        "plan_length": len(ref_sig),
        "signature": _signature_hash(ref_sig),
        "journaled_matches_clean": journaled.metrics == ref_metrics
        and journaled.plan_signature == ref_sig,
        "overhead": {
            "records": journal.wal.records_appended,
            "bytes": journal.wal.bytes_written,
            "records_per_event": round(
                journal.wal.records_appended / max(total, 1), 3
            ),
            "snapshots": journal.snapshots_written,
            "snapshot_bytes": journal.snapshot_bytes,
        },
        "recovery": {
            "boundaries": total,
            "identical": identical,
            "snapshot_recoveries": snapshot_recoveries,
            "mean_events_replayed": round(sum(replayed) / max(total, 1), 3),
            "max_events_replayed": max(replayed, default=0),
        },
    }


def _sweep_sharded(
    base: RunSpec, scenario, *, num_shards: int, workdir: Path
) -> dict:
    """Crash at every event boundary of the sharded deployment.

    Boundaries count journaled event consumptions across the shard
    servers in serial run order (halo fan-out duplicates worker
    events, so there are more boundaries than trace events); the sweep
    stops at the first budget the run survives.
    """
    events = list(scenario.events)
    sharded = base.replace(shards=num_shards)
    # force_sharded: the one-shard row measures the degenerate sharded
    # deployment (coordinator + per-shard journal), not the plain core.
    ref = StreamRuntime(sharded, force_sharded=True, scenario=scenario).run()
    ref_metrics = ref.metrics
    ref_sig = ref.plan_signature
    ref_counters = list(ref.counters)

    identical = 0
    replayed: list[int] = []
    boundary = 0
    while True:
        jdir = workdir / f"shard{num_shards}-crash-{boundary}"
        crashed = StreamRuntime(
            sharded.replace(journal=str(jdir), crash_after_events=boundary),
            force_sharded=True,
            scenario=scenario,
        )
        try:
            crashed.run()
            break  # the run outlived the budget: sweep complete
        except InjectedCrash:
            pass
        recovered = recover_runtime(jdir)
        metrics = recovered.resume(list(events))
        if (
            metrics.per_shard == ref_metrics.per_shard
            and metrics.makespan == ref_metrics.makespan
            and metrics.serial_cost == ref_metrics.serial_cost
            and recovered.assignment().plan_signature() == ref_sig
            and [s.counters for s in recovered.server.servers] == ref_counters
        ):
            identical += 1
        replayed.append(
            sum(info.events_replayed for info in recovered.recovery)
        )
        boundary += 1

    return {
        "boundaries": boundary,
        "identical": identical,
        "plan_length": len(ref_sig),
        "signature": _signature_hash(ref_sig),
        "mean_events_replayed": round(sum(replayed) / max(boundary, 1), 3),
        "makespan": ref_metrics.makespan,
        "speedup": ref_metrics.speedup,
    }


def _run_scenario(scenario: JournalScenario) -> dict:
    base = _base_spec(scenario)
    trace = build_runtime(base).scenario()
    with tempfile.TemporaryDirectory(prefix="journalsuite-") as tmp:
        workdir = Path(tmp)
        plain = _sweep_plain(base, trace, workdir=workdir)
        shards = {
            str(count): _sweep_sharded(
                base, trace, num_shards=count, workdir=workdir
            )
            for count in SHARD_COUNTS
        }
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "task_slots": scenario.task_slots,
        "snapshot_every": scenario.snapshot_every,
        "plain": plain,
        "shards": shards,
    }


def run_suite(*, smoke: bool = False) -> dict:
    """Run the suite and return the machine-readable payload."""
    scenarios = SMOKE_SCENARIOS if smoke else SCENARIOS
    return {
        "suite": "journalsuite",
        "mode": "smoke" if smoke else "full",
        "backend": "python",
        "shard_counts": list(SHARD_COUNTS),
        "scenarios": [_run_scenario(s) for s in scenarios],
    }


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    * **Exact replay** — every crash boundary (plain and sharded) must
      recover byte-identically; the uninterrupted journaled run must
      match the plain run (which also proves zero op-count journaling
      overhead, since ``OpCounters`` ride inside the metrics).
    * **Degenerate sharding** — the one-shard sweep must reproduce the
      plain server's plan.
    * **Snapshots pay off** — with snapshots on disk, mean recovery
      replay must be strictly cheaper than consuming the whole trace.

    Wall-clock is deliberately unchecked (determinism policy).
    """
    failures = []
    for scenario in payload["scenarios"]:
        name = scenario["name"]
        plain = scenario["plain"]
        if not plain["journaled_matches_clean"]:
            failures.append(f"{name}: journaled run diverged from the plain run")
        recovery = plain["recovery"]
        if recovery["identical"] != recovery["boundaries"]:
            failures.append(
                f"{name}: {recovery['boundaries'] - recovery['identical']} of "
                f"{recovery['boundaries']} plain crash boundaries recovered "
                "non-identically"
            )
        if plain["overhead"]["snapshots"] > 0 and not (
            recovery["mean_events_replayed"] < plain["total_events"]
        ):
            failures.append(
                f"{name}: snapshots written but mean replay "
                f"({recovery['mean_events_replayed']}) is not cheaper than "
                f"the full trace ({plain['total_events']})"
            )
        for count, row in scenario["shards"].items():
            if row["identical"] != row["boundaries"]:
                failures.append(
                    f"{name}: shards={count}: "
                    f"{row['boundaries'] - row['identical']} of "
                    f"{row['boundaries']} boundaries recovered non-identically"
                )
        single = scenario["shards"].get("1")
        if single and single["signature"] != plain["signature"]:
            failures.append(
                f"{name}: one-shard sharded plan diverged from the plain plan"
            )
    return failures


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable durability block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "journal1",
        "Journal suite: crash/recovery exactness and durability overhead",
        results_dir=results_dir,
    )
    reporter.note(
        "crash injected at every event boundary; recovered runs byte-identical "
        "(plan, metrics, op counters); replay cost in events, never wall-clock"
    )
    reporter.header(
        "scenario", "mode", "boundaries", "identical",
        "rec/event", "mean_replay", "snapshots",
    )
    for scenario in payload["scenarios"]:
        plain = scenario["plain"]
        reporter.row(
            scenario["name"], "plain",
            plain["recovery"]["boundaries"], plain["recovery"]["identical"],
            plain["overhead"]["records_per_event"],
            plain["recovery"]["mean_events_replayed"],
            plain["overhead"]["snapshots"],
        )
        for count, row in scenario["shards"].items():
            reporter.row(
                scenario["name"], f"shards={count}",
                row["boundaries"], row["identical"],
                "-", row["mean_events_replayed"], "-",
            )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """One line per scenario: recovery identity and journal overhead."""
    lines = []
    for scenario in payload["scenarios"]:
        plain = scenario["plain"]
        shard_ident = " ".join(
            f"s{count}={row['identical']}/{row['boundaries']}"
            for count, row in scenario["shards"].items()
        )
        lines.append(
            f"{scenario['name']}: events={plain['total_events']} "
            f"plain={plain['recovery']['identical']}/"
            f"{plain['recovery']['boundaries']} identical, {shard_ident}; "
            f"{plain['overhead']['records_per_event']} records/event, "
            f"mean replay {plain['recovery']['mean_events_replayed']} events"
        )
    return lines
