"""Tests for the task-level parallel framework and the master's tables."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.multi.msqm import SumQualityGreedy
from repro.multi.scheduler import TaskLevelParallelSolver
from repro.multi.tables import ConflictingTable, HeartbeatTable, LoggingTable
from repro.multi.task_state import TaskState
from repro.workloads.scenario import ScenarioConfig, build_scenario


def shared_budget(scenario):
    return scenario.budget * len(scenario.tasks)


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioConfig(num_tasks=6, num_slots=30, num_workers=150, seed=9))


@pytest.fixture(scope="module")
def serial_plan(scenario):
    return SumQualityGreedy(
        scenario.tasks, scenario.fresh_registry(), budget=shared_budget(scenario)
    ).solve()


class TestSerialEquivalentMode:
    @pytest.mark.parametrize("cores", [1, 3, 8])
    def test_plan_equals_serial(self, scenario, serial_plan, cores):
        result = TaskLevelParallelSolver(
            scenario.tasks,
            scenario.fresh_registry(),
            budget=shared_budget(scenario),
            cores=cores,
            grant_mode="serial-equivalent",
        ).solve()
        assert result.plan_signature() == serial_plan.plan_signature()
        assert result.sum_quality == pytest.approx(serial_plan.sum_quality)

    def test_priority_not_slower_than_default(self, scenario):
        budget = shared_budget(scenario)
        pri = TaskLevelParallelSolver(
            scenario.tasks, scenario.fresh_registry(), budget=budget,
            cores=2, grant_mode="serial-equivalent", priority=True,
        ).solve()
        fifo = TaskLevelParallelSolver(
            scenario.tasks, scenario.fresh_registry(), budget=budget,
            cores=2, grant_mode="serial-equivalent", priority=False,
        ).solve()
        assert pri.virtual_time <= fifo.virtual_time
        # Both modes still produce the serial plan.
        assert pri.plan_signature() == fifo.plan_signature()


class TestPipelinedMode:
    def test_deterministic(self, scenario):
        budget = shared_budget(scenario)
        a = TaskLevelParallelSolver(
            scenario.tasks, scenario.fresh_registry(), budget=budget, cores=4
        ).solve()
        b = TaskLevelParallelSolver(
            scenario.tasks, scenario.fresh_registry(), budget=budget, cores=4
        ).solve()
        assert a.plan_signature() == b.plan_signature()

    def test_quality_close_to_serial(self, scenario, serial_plan):
        result = TaskLevelParallelSolver(
            scenario.tasks,
            scenario.fresh_registry(),
            budget=shared_budget(scenario),
            cores=8,
        ).solve()
        assert result.sum_quality >= 0.9 * serial_plan.sum_quality

    def test_budget_respected(self, scenario):
        budget = shared_budget(scenario)
        result = TaskLevelParallelSolver(
            scenario.tasks, scenario.fresh_registry(), budget=budget, cores=4
        ).solve()
        assert result.spent <= budget + 1e-9

    def test_speedup_with_cores(self, scenario):
        budget = shared_budget(scenario)
        times = {}
        for cores in (1, 4, 12):
            times[cores] = TaskLevelParallelSolver(
                scenario.tasks, scenario.fresh_registry(), budget=budget, cores=cores
            ).solve().virtual_time
        assert times[4] < times[1]
        assert times[12] < times[4]
        # Not super-linear beyond the core count.
        assert times[1] / times[12] <= 14.0

    def test_rejects_bad_configuration(self, scenario):
        with pytest.raises(SchedulingError):
            TaskLevelParallelSolver(
                scenario.tasks, scenario.fresh_registry(), budget=1.0, cores=0
            )
        with pytest.raises(SchedulingError):
            TaskLevelParallelSolver(
                scenario.tasks, scenario.fresh_registry(), budget=1.0, grant_mode="warp"
            )

    def test_tables_populated(self, scenario):
        solver = TaskLevelParallelSolver(
            scenario.tasks,
            scenario.fresh_registry(),
            budget=shared_budget(scenario),
            cores=4,
        )
        solver.solve()
        assert len(solver.log) > 0
        # Heartbeats are removed as threads finish.
        assert len(solver.heartbeats) == 0


class TestTables:
    def test_heartbeat_table(self):
        table = HeartbeatTable()
        table.report(1, 5.0, 0.0)
        table.report(2, 9.0, 1.0)
        assert table.value(1) == 5.0
        assert table.value(3) is None
        assert table.descending() == [(2, 9.0), (1, 5.0)]
        table.remove(1)
        assert len(table) == 1

    def test_heartbeat_tie_breaks_by_task_id(self):
        table = HeartbeatTable()
        table.report(2, 5.0, 0.0)
        table.report(1, 5.0, 0.0)
        assert table.descending() == [(1, 5.0), (2, 5.0)]

    def test_logging_table(self):
        log = LoggingTable()
        log.log(0.0, 1, 5.0)
        log.log(1.0, 1, 4.0)
        log.log(0.5, 2, 3.0)
        assert log.for_task(1) == [(0.0, 5.0), (1.0, 4.0)]
        assert len(log) == 3

    def test_conflicting_table(self):
        table = ConflictingTable()
        table.record((1, 2), 7, 99, 1, 0.0)
        assert len(table) == 1
        assert table.bump_rank(7) == 2
        assert table.bump_rank(8) == 1
