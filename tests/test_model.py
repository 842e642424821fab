"""Tests for the domain model: tasks, workers, assignments, budgets."""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import BudgetExhaustedError, ConfigurationError, WorkerUnavailableError
from repro.geo.point import Point
from repro.model.assignment import Assignment, AssignmentRecord, Budget
from repro.model.task import Task, TaskSet
from repro.model.worker import Worker, WorkerPool


class TestTask:
    def test_basic_properties(self):
        task = Task(1, Point(3, 4), 10)
        assert task.m == 10
        assert list(task.slots) == list(range(1, 11))
        assert task.global_slot(1) == 1
        assert task.temporal_distance(2, 4) == 2

    def test_start_slot_offsets_global(self):
        task = Task(1, Point(0, 0), 5, start_slot=10)
        assert task.global_slot(1) == 10
        assert task.global_slot(5) == 14

    def test_rejects_tiny_m(self):
        with pytest.raises(ConfigurationError):
            Task(1, Point(0, 0), 2)

    def test_rejects_bad_start(self):
        with pytest.raises(ConfigurationError):
            Task(1, Point(0, 0), 5, start_slot=0)

    def test_global_slot_bounds(self):
        task = Task(1, Point(0, 0), 5)
        with pytest.raises(ConfigurationError):
            task.global_slot(0)
        with pytest.raises(ConfigurationError):
            task.global_slot(6)

    def test_frozen(self):
        task = Task(1, Point(0, 0), 5)
        with pytest.raises(AttributeError):
            task.num_slots = 7


class TestTaskSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSet([Task(1, Point(0, 0), 5), Task(1, Point(1, 1), 5)])

    def test_add_and_lookup(self):
        tasks = TaskSet()
        tasks.add(Task(7, Point(0, 0), 5))
        assert tasks.by_id(7).task_id == 7
        with pytest.raises(KeyError):
            tasks.by_id(8)
        with pytest.raises(ConfigurationError):
            tasks.add(Task(7, Point(1, 1), 5))

    def test_totals(self):
        tasks = TaskSet([Task(1, Point(0, 0), 5), Task(2, Point(0, 0), 7, start_slot=3)])
        assert tasks.total_slots == 12
        assert tasks.max_global_slot == 9
        assert len(tasks) == 2
        assert tasks[0].task_id == 1

    def test_empty(self):
        assert TaskSet().max_global_slot == 0


class TestWorker:
    def test_availability(self):
        worker = Worker(1, {3: Point(0, 0), 5: Point(1, 1)})
        assert worker.is_available(3)
        assert not worker.is_available(4)
        assert worker.location_at(5) == Point(1, 1)
        assert worker.active_slots == [3, 5]

    def test_location_at_unavailable_raises(self):
        worker = Worker(1, {3: Point(0, 0)})
        with pytest.raises(WorkerUnavailableError):
            worker.location_at(9)

    def test_reliability_bounds(self):
        with pytest.raises(ConfigurationError):
            Worker(1, {}, reliability=1.2)
        with pytest.raises(ConfigurationError):
            Worker(1, {}, reliability=-0.1)

    def test_rejects_bad_slots(self):
        with pytest.raises(ConfigurationError):
            Worker(1, {0: Point(0, 0)})


class TestWorkerPool:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool([Worker(1, {}), Worker(1, {})])

    def test_available_at(self):
        pool = WorkerPool(
            [Worker(2, {1: Point(0, 0)}), Worker(1, {1: Point(1, 1)}), Worker(3, {2: Point(0, 0)})]
        )
        available = pool.available_at(1)
        assert [w.worker_id for w in available] == [1, 2]

    def test_max_slot(self):
        pool = WorkerPool([Worker(1, {4: Point(0, 0)}), Worker(2, {})])
        assert pool.max_slot == 4
        assert WorkerPool([]).max_slot == 0

    def test_by_id(self):
        pool = WorkerPool([Worker(5, {})])
        assert pool.by_id(5).worker_id == 5
        with pytest.raises(KeyError):
            pool.by_id(6)


class TestAssignment:
    def test_add_rejects_duplicate_slot(self):
        assignment = Assignment()
        assignment.add(AssignmentRecord(1, 2, 10, 1.0))
        with pytest.raises(ConfigurationError):
            assignment.add(AssignmentRecord(1, 2, 11, 2.0))

    def test_duplicate_check_is_per_task_slot_pair(self):
        plan = Assignment()
        plan.add(AssignmentRecord(1, 2, 10, 1.0))
        plan.add(AssignmentRecord(2, 2, 10, 1.0))  # same slot, other task
        plan.add(AssignmentRecord(1, 3, 10, 1.0))  # same task, other slot
        with pytest.raises(ConfigurationError, match=r"slot \(2, 2\) assigned twice"):
            plan.add(AssignmentRecord(2, 2, 99, 0.5))
        # A rejected add leaves the plan untouched.
        assert plan.plan_signature() == ((1, 2, 10), (2, 2, 10), (1, 3, 10))

    def test_add_keeps_insertion_order_over_many_records(self):
        rng = random.Random(11)
        pairs = [(t, s) for t in range(20) for s in range(1, 60)]
        rng.shuffle(pairs)
        plan = Assignment()
        for i, (t, s) in enumerate(pairs):
            plan.add(AssignmentRecord(t, s, i, 1.0))
        assert [(r.task_id, r.slot) for r in plan] == pairs
        for t, s in pairs[::97]:
            with pytest.raises(ConfigurationError):
                plan.add(AssignmentRecord(t, s, 0, 1.0))
        assert len(plan) == len(pairs)

    def test_from_dict_round_trip_keeps_duplicate_check(self):
        plan = Assignment()
        for slot in (5, 1, 3):
            plan.add(AssignmentRecord(4, slot, slot * 10, slot / 3))
        clone = Assignment.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()
        with pytest.raises(ConfigurationError):
            clone.add(AssignmentRecord(4, 3, 7, 1.0))
        clone.add(AssignmentRecord(4, 2, 7, 1.0))
        assert clone.plan_signature()[-1] == (4, 2, 7)

    def test_constructor_records_are_checked_too(self):
        records = [AssignmentRecord(1, 1, 1, 1.0), AssignmentRecord(1, 2, 1, 1.0)]
        plan = Assignment(records)
        assert plan.records == records
        with pytest.raises(ConfigurationError):
            plan.add(AssignmentRecord(1, 2, 3, 1.0))
        with pytest.raises(ConfigurationError):
            Assignment(records + [AssignmentRecord(1, 1, 5, 2.0)])

    def test_total_cost_and_queries(self):
        assignment = Assignment()
        assignment.add(AssignmentRecord(1, 2, 10, 1.0))
        assignment.add(AssignmentRecord(1, 5, 10, 2.0))
        assignment.add(AssignmentRecord(2, 2, 11, 3.0))
        assert assignment.total_cost == pytest.approx(6.0)
        assert assignment.executed_slots(1) == [2, 5]
        assert len(assignment.records_for(2)) == 1
        assert assignment.worker_load() == {10: 2, 11: 1}
        assert assignment.plan_signature() == ((1, 2, 10), (1, 5, 10), (2, 2, 11))

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            AssignmentRecord(1, 2, 3, -1.0)


class TestBudget:
    def test_charge_and_remaining(self):
        budget = Budget(10.0)
        budget.charge(4.0)
        assert budget.spent == pytest.approx(4.0)
        assert budget.remaining == pytest.approx(6.0)
        assert budget.can_afford(6.0)
        assert not budget.can_afford(6.1)

    def test_overcharge_raises(self):
        budget = Budget(1.0)
        with pytest.raises(BudgetExhaustedError):
            budget.charge(2.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(1.0).charge(-0.5)

    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            Budget(-1.0)

    def test_fork_is_independent(self):
        budget = Budget(10.0)
        budget.charge(3.0)
        clone = budget.fork()
        clone.charge(2.0)
        assert budget.spent == pytest.approx(3.0)
        assert clone.spent == pytest.approx(5.0)


class TestSerialization:
    """to_dict/from_dict round trips (the journal's model codec)."""

    def test_task_round_trip_exact(self):
        task = Task(3, Point(1.25, -0.75), 12, start_slot=5)
        clone = Task.from_dict(json.loads(json.dumps(task.to_dict())))
        assert clone == task

    def test_task_from_dict_revalidates(self):
        payload = Task(1, Point(0, 0), 5).to_dict()
        payload["num_slots"] = 2
        with pytest.raises(ConfigurationError):
            Task.from_dict(payload)

    def test_worker_round_trip_exact(self):
        worker = Worker(
            9, {2: Point(0.1, 0.2), 5: Point(3.33, 4.44)}, reliability=0.625
        )
        clone = Worker.from_dict(json.loads(json.dumps(worker.to_dict())))
        assert clone == worker
        assert clone.availability[5] == Point(3.33, 4.44)

    def test_worker_availability_canonicalized_ascending(self):
        worker = Worker(1, {7: Point(1, 1), 2: Point(0, 0)})
        payload = worker.to_dict()
        assert [entry[0] for entry in payload["availability"]] == [2, 7]

    def test_worker_from_dict_revalidates(self):
        payload = Worker(1, {1: Point(0, 0)}).to_dict()
        payload["reliability"] = 1.5
        with pytest.raises(ConfigurationError):
            Worker.from_dict(payload)

    def test_record_round_trip_exact(self):
        record = AssignmentRecord(4, 7, 11, 2.7182818284590455)
        clone = AssignmentRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record
        assert clone.cost == record.cost  # bit-exact, not approx

    def test_assignment_round_trip_preserves_order_and_duplicates_check(self):
        plan = Assignment()
        plan.add(AssignmentRecord(1, 5, 10, 2.0))
        plan.add(AssignmentRecord(1, 2, 10, 1.5))
        clone = Assignment.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.plan_signature() == plan.plan_signature()
        payload = plan.to_dict()
        payload["records"].append(payload["records"][0])
        with pytest.raises(ConfigurationError):
            Assignment.from_dict(payload)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_property_random_plans_signature_preserved(self, seed):
        """Property test: for randomized plans, workers, and tasks, a
        JSON round trip preserves ``plan_signature()`` byte-for-byte
        and every float bit-for-bit."""
        rng = random.Random(seed)
        tasks = [
            Task(
                tid,
                Point(rng.uniform(-50, 50), rng.uniform(-50, 50)),
                rng.randint(3, 40),
                start_slot=rng.randint(1, 20),
            )
            for tid in range(rng.randint(1, 6))
        ]
        workers = [
            Worker(
                wid,
                {
                    slot: Point(rng.uniform(0, 100), rng.uniform(0, 100))
                    for slot in rng.sample(range(1, 60), rng.randint(1, 10))
                },
                reliability=rng.uniform(0.0, 1.0),
            )
            for wid in range(rng.randint(1, 8))
        ]
        plan = Assignment()
        for task in tasks:
            for slot in rng.sample(list(task.slots), min(3, task.num_slots)):
                worker = rng.choice(workers)
                plan.add(
                    AssignmentRecord(
                        task.task_id, slot, worker.worker_id, rng.uniform(0, 9)
                    )
                )

        blob = json.dumps(
            {
                "tasks": [t.to_dict() for t in tasks],
                "workers": [w.to_dict() for w in workers],
                "plan": plan.to_dict(),
            },
            sort_keys=True,
        )
        decoded = json.loads(blob)
        assert [Task.from_dict(t) for t in decoded["tasks"]] == tasks
        assert [Worker.from_dict(w) for w in decoded["workers"]] == workers
        restored = Assignment.from_dict(decoded["plan"])
        assert restored.plan_signature() == plan.plan_signature()
        assert [r.cost for r in restored.records] == [r.cost for r in plan.records]
