"""Streaming throughput benchmark: incremental vs rebuild-every-epoch.

Not a paper figure — the paper has no online mode.  This drives the
same churnful event trace through both index-maintenance policies of
:class:`~repro.stream.online_server.StreamingTCSCServer` and records
events/sec plus the index work counters in the ``stream1.txt`` block.
The block is report-only: the repo's one wall-clock instrument is
``perfbench/`` (its ``stream-churn`` workload).
"""

from __future__ import annotations

import time

from repro.bench import Reporter
from repro.runtime import RunSpec, WorkloadSpec, build_runtime


def test_stream1_incremental_vs_rebuild(run_once):
    reporter = Reporter(
        "stream1", "Streaming TCSC: incremental vs rebuild-every-epoch indexes"
    )
    reporter.header(
        "mode", "time_s", "events_per_sec", "index_full_builds", "tree_node_updates"
    )

    def work():
        base = RunSpec(
            mode="stream",
            workload=WorkloadSpec(
                horizon=90,
                task_rate=0.2,
                task_slots=24,
                initial_workers=35,
                join_rate=1.0,
                mean_lifetime=20.0,
                early_leave_prob=0.4,
                seed=11,
            ),
            epoch_length=4.0,
        )
        scenario = build_runtime(base).scenario()
        rows = []
        plans = []
        for mode in ("incremental", "rebuild"):
            runtime = build_runtime(base.replace(index_mode=mode))
            start = time.perf_counter()
            outcome = runtime.run()
            elapsed = time.perf_counter() - start
            metrics = outcome.metrics
            rows.append(
                (
                    mode,
                    elapsed,
                    metrics.total_events / elapsed,
                    metrics.counters.index_full_builds,
                    metrics.counters.tree_node_updates,
                )
            )
            plans.append(outcome.plan_signature)
        assert plans[0] == plans[1], "policies must produce identical plans"
        assert len(plans[0]) > 0
        return scenario, rows

    scenario, rows = run_once(work)
    for row in rows:
        reporter.row(*row)
    by_mode = {row[0]: row for row in rows}
    inc, reb = by_mode["incremental"], by_mode["rebuild"]
    # The structural win must hold regardless of timer noise.
    assert inc[3] < reb[3], "incremental must build fewer indexes"
    assert inc[4] < reb[4], "incremental must touch fewer tree nodes"
    speedup = reb[1] / inc[1] if inc[1] > 0 else float("inf")
    reporter.note(
        f"identical plans; wall-clock speedup {speedup:.2f}x, "
        f"index builds {inc[3]} vs {reb[3]}"
    )
    reporter.note(
        f"trace: {len(scenario.events)} events, {scenario.task_count} tasks, "
        f"{scenario.worker_count} workers, horizon {scenario.config.horizon}"
    )
    reporter.close()
