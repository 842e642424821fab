"""Tests for the virtual-clock multi-core simulator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.parallel.simcluster import SimCluster, WorkItem


class TestMakespan:
    def test_empty(self):
        assert SimCluster.makespan([], 4) == 0.0

    def test_single_core_is_sum(self):
        assert SimCluster.makespan([3.0, 2.0, 5.0], 1) == pytest.approx(10.0)

    def test_bounds(self):
        costs = [5.0, 3.0, 3.0, 2.0, 1.0]
        for cores in (2, 3, 4):
            ms = SimCluster.makespan(costs, cores)
            assert ms >= sum(costs) / cores - 1e-9  # lower bound
            assert ms >= max(costs)                 # critical item
            assert ms <= sum(costs) + 1e-9          # never worse than serial

    def test_perfect_split(self):
        assert SimCluster.makespan([2.0, 2.0, 2.0, 2.0], 2) == pytest.approx(4.0)

    def test_more_cores_never_slower(self):
        costs = [7.0, 4.0, 4.0, 3.0, 2.0, 1.0]
        times = [SimCluster.makespan(costs, c) for c in (1, 2, 3, 6)]
        assert times == sorted(times, reverse=True)


class TestSimCluster:
    def test_rejects_bad_cores(self):
        with pytest.raises(ConfigurationError):
            SimCluster(0)

    def test_round_accounting(self):
        cluster = SimCluster(2, per_message_cost=1.0)
        duration = cluster.run_round(
            [WorkItem("a", 4.0), WorkItem("b", 4.0)], messages=3
        )
        assert duration == pytest.approx(4.0 + 3.0)
        assert cluster.clock == pytest.approx(duration)
        assert cluster.busy_time == pytest.approx(8.0 + 3.0)
        assert cluster.rounds == 1
        assert cluster.messages == 3

    def test_utilization(self):
        cluster = SimCluster(2)
        cluster.run_round([WorkItem("a", 4.0), WorkItem("b", 4.0)])
        assert cluster.utilization == pytest.approx(1.0)
        idle = SimCluster(2)
        idle.run_round([WorkItem("a", 4.0)])
        assert idle.utilization == pytest.approx(0.5)

    def test_partitions(self):
        cluster = SimCluster(2)
        cluster.run_partitions(
            [[WorkItem("g1", 3.0), WorkItem("g1", 3.0)], [WorkItem("g2", 4.0)]]
        )
        # Partition totals are 6 and 4; on two cores the makespan is 6.
        assert cluster.clock == pytest.approx(6.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkItem("a", -1.0)

    def test_empty_utilization(self):
        assert SimCluster(2).utilization == 0.0

