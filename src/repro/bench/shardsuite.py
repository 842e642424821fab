"""Deterministic shard-scaling suite: the horizontal-scaling trajectory.

``python -m repro bench shard`` runs seed-pinned serving rounds through
:class:`~repro.shard.server.ShardedTCSCServer` at shard counts
{1, 2, 4, 8} and persists them as ``benchmarks/BENCH_shard.json``.

Two scenario families:

* the **perfsuite scenarios** (single-task, the paper's task shapes) —
  these carry the subsystem's hardest invariant: for every scenario
  and every shard count the sharded plan must be byte-identical to
  the unsharded solve;
* **scaleN scenarios** (multi-task batches) — these carry the scaling
  story: shard-count speedup reported as deterministic op-count
  makespan reduction through
  :meth:`~repro.parallel.simcluster.SimCluster.run_partitions`, with
  cross-shard conflicts, offer revalidations, and serial re-solves
  broken out.

Per the repo's determinism policy, CI gates on plan identity and
op-count invariants only.  The payload carries no wall clock: perfbench
measures the system's time from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench.perfsuite import SCENARIOS as PERF_SCENARIOS
from repro.bench.report import signature_hash as _signature_hash
from repro.runtime import RunSpec, build_serving_solver
from repro.workloads.scenario import ScenarioConfig, build_scenario

__all__ = [
    "ShardScenario",
    "SHARD_COUNTS",
    "SCENARIOS",
    "SMOKE_SCENARIOS",
    "run_suite",
    "summary",
    "write_report_block",
    "check_payload",
]


#: Shard counts every scenario is swept over (the acceptance grid).
SHARD_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True, slots=True)
class ShardScenario:
    """One seed-pinned serving-round instance."""

    name: str
    tasks: int
    m: int
    workers: int
    seed: int


#: The perfsuite scenarios, re-expressed as single-task serving rounds
#: (same names, shapes, and seeds — the plan-identity acceptance set),
#: plus multi-task batches for the scaling story.
SCENARIOS = tuple(
    ShardScenario(p.name, 1, p.m, p.workers, p.seed) for p in PERF_SCENARIOS
) + (
    ShardScenario("scale16", tasks=16, m=24, workers=300, seed=13),
    ShardScenario("scale32", tasks=32, m=24, workers=600, seed=5),
)

#: CI smoke mode: the smallest perfsuite scenario plus a small batch.
SMOKE_SCENARIOS = (
    SCENARIOS[0],
    ShardScenario("scale8", tasks=8, m=16, workers=200, seed=13),
)


def _run_scenario(scenario: ShardScenario) -> dict:
    built = build_scenario(
        ScenarioConfig(
            num_tasks=scenario.tasks,
            num_slots=scenario.m,
            num_workers=scenario.workers,
            seed=scenario.seed,
        )
    )
    # Both arms resolve through the runtime's shared spec -> solver
    # path: shards=1 is the sequential reference, shard rows force the
    # coordinator (the degenerate one-shard row measures exactly it).
    spec = RunSpec(mode="plain")
    reference = build_serving_solver(spec, built.pool, built.bbox).assign(
        built.tasks
    )
    reference_sig = reference.plan_signature()

    shard_rows: dict[str, dict] = {}
    for num_shards in SHARD_COUNTS:
        server = build_serving_solver(
            spec.replace(shards=num_shards), built.pool, built.bbox,
            force_sharded=True,
        )
        report = server.assign(built.tasks)
        stats = report.shard_map.stats()
        shard_rows[str(num_shards)] = {
            "plan_identical": report.plan_signature() == reference_sig,
            "plan_length": len(report.assignment),
            "conflicts": report.conflicts,
            "revalidated": len(report.revalidated_task_ids),
            "reconciled": len(report.reconciled_task_ids),
            "messages": report.messages,
            "makespan": report.makespan,
            "serial_cost": report.serial_cost,
            "speedup": report.speedup,
            "utilization": report.utilization,
            "tasks_per_shard": stats["tasks_per_shard"],
            "halo_workers_per_shard": stats["halo_workers_per_shard"],
            "replicated_workers": stats["replicated_workers"],
        }

    return {
        "name": scenario.name,
        "tasks": scenario.tasks,
        "m": scenario.m,
        "workers": scenario.workers,
        "seed": scenario.seed,
        "reference": {
            "plan_length": len(reference.assignment),
            "serial_cost": reference.serial_cost,
            "signature": _signature_hash(reference_sig),
        },
        "shards": shard_rows,
    }


def run_suite(*, smoke: bool = False) -> dict:
    """Run the suite and return the machine-readable payload."""
    scenarios = SMOKE_SCENARIOS if smoke else SCENARIOS
    return {
        "suite": "shardsuite",
        "mode": "smoke" if smoke else "full",
        "backend": "python",
        "shard_counts": list(SHARD_COUNTS),
        "scenarios": [_run_scenario(s) for s in scenarios],
    }


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    * **Plan identity** — every scenario, every shard count must
      reproduce the unsharded plan byte-for-byte.
    * **Serial-cost invariance** — the sum of per-task op costs is the
      sequential reference cost; it must not depend on the shard
      count (every accepted or re-solved task runs at its reference
      cost).
    * **Degenerate sharding** — one shard must mean zero conflicts and
      zero re-solves.

    Wall-clock is deliberately unchecked (determinism policy).
    """
    failures = []
    for scenario in payload["scenarios"]:
        name = scenario["name"]
        reference_cost = scenario["reference"]["serial_cost"]
        for count, row in scenario["shards"].items():
            if not row["plan_identical"]:
                failures.append(
                    f"{name}: shards={count} diverged from the unsharded plan"
                )
            if abs(row["serial_cost"] - reference_cost) > 1e-6:
                failures.append(
                    f"{name}: shards={count} serial cost {row['serial_cost']:.3f} "
                    f"!= reference {reference_cost:.3f}"
                )
        single = scenario["shards"].get("1")
        if single and (single["conflicts"] or single["reconciled"]):
            failures.append(
                f"{name}: shards=1 reported conflicts/re-solves "
                f"({single['conflicts']}/{single['reconciled']})"
            )
    return failures


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable shard-scaling block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "shard1",
        "Shard suite: halo-partitioned serving at shard counts 1/2/4/8",
        results_dir=results_dir,
    )
    reporter.note(
        "plan byte-identical to the unsharded solve at every shard count; "
        "makespan/speedup are deterministic op-count units (SimCluster)"
    )
    reporter.header(
        "scenario", "tasks", "shards", "makespan", "speedup",
        "conflicts", "revalidated", "reconciled",
    )
    for scenario in payload["scenarios"]:
        for count, row in scenario["shards"].items():
            reporter.row(
                scenario["name"], scenario["tasks"], count,
                round(row["makespan"], 1), round(row["speedup"], 3),
                row["conflicts"], row["revalidated"], row["reconciled"],
            )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """One line per scenario at the largest shard count."""
    lines = []
    for scenario in payload["scenarios"]:
        best = scenario["shards"][str(SHARD_COUNTS[-1])]
        lines.append(
            f"{scenario['name']}: tasks={scenario['tasks']} m={scenario['m']} "
            f"shards={SHARD_COUNTS[-1]} speedup {best['speedup']:.2f}x op-makespan "
            f"(conflicts={best['conflicts']} reconciled={best['reconciled']}), "
            f"plans identical={best['plan_identical']}"
        )
    return lines
