"""Assignments and budgets.

An :class:`Assignment` is the output of every solver: an ordered list
of :class:`AssignmentRecord` entries, each binding one worker to one
(task, slot) pair at a cost.  The order is the greedy execution order,
which downstream consumers (the parallel schedulers, the benchmarks'
determinism checks) rely on.

:class:`Budget` tracks the remaining budget ``b`` and enforces the
knapsack constraint ``sum c(tau^(j)) <= b`` of Problems 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BudgetExhaustedError, ConfigurationError

__all__ = ["AssignmentRecord", "Assignment", "Budget"]


@dataclass(frozen=True, slots=True)
class AssignmentRecord:
    """One executed subtask: worker -> (task, local slot) at a cost."""

    task_id: int
    slot: int
    worker_id: int
    cost: float

    def __post_init__(self):
        if self.cost < 0:
            raise ConfigurationError(f"negative cost {self.cost}")

    def to_dict(self) -> dict:
        """JSON-ready representation (exact float round trip)."""
        return {
            "task_id": self.task_id,
            "slot": self.slot,
            "worker_id": self.worker_id,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AssignmentRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            task_id=payload["task_id"],
            slot=payload["slot"],
            worker_id=payload["worker_id"],
            cost=payload["cost"],
        )


@dataclass(slots=True)
class Assignment:
    """The full output plan of a solver, in greedy execution order."""

    records: list[AssignmentRecord] = field(default_factory=list)
    #: The slots of ``records`` per task id: duplicate checks in O(1).
    _slots: dict[int, set[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        records, self.records = self.records, []
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def add(self, record: AssignmentRecord) -> None:
        """Append a record, rejecting duplicate (task, slot) pairs."""
        slots = self._slots.get(record.task_id)
        if slots is None:
            slots = self._slots[record.task_id] = set()
        elif record.slot in slots:
            key = (record.task_id, record.slot)
            raise ConfigurationError(f"slot {key} assigned twice")
        slots.add(record.slot)
        self.records.append(record)

    @property
    def total_cost(self) -> float:
        """Sum of all record costs."""
        return sum(r.cost for r in self.records)

    def executed_slots(self, task_id: int) -> list[int]:
        """Sorted local slots executed for ``task_id``."""
        return sorted(self._slots.get(task_id, ()))

    def records_for(self, task_id: int) -> list[AssignmentRecord]:
        """Records of one task, in execution order."""
        return [r for r in self.records if r.task_id == task_id]

    def worker_load(self) -> dict[int, int]:
        """Number of subtasks served per worker id."""
        load: dict[int, int] = {}
        for record in self.records:
            load[record.worker_id] = load.get(record.worker_id, 0) + 1
        return load

    def plan_signature(self) -> tuple[tuple[int, int, int], ...]:
        """Hashable summary used by determinism tests: (task, slot, worker)."""
        return tuple((r.task_id, r.slot, r.worker_id) for r in self.records)

    def to_dict(self) -> dict:
        """JSON-ready representation preserving record order."""
        return {"records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Assignment":
        """Inverse of :meth:`to_dict`; ``plan_signature()`` survives
        the round trip byte-for-byte (order and ids are preserved)."""
        plan = cls()
        for record in payload["records"]:
            plan.add(AssignmentRecord.from_dict(record))
        return plan


class Budget:
    """Mutable budget tracker enforcing ``spent <= limit``."""

    __slots__ = ("limit", "_spent")

    def __init__(self, limit: float):
        if limit < 0:
            raise ConfigurationError(f"budget must be non-negative, got {limit}")
        self.limit = float(limit)
        self._spent = 0.0

    @property
    def spent(self) -> float:
        """Budget consumed so far."""
        return self._spent

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.limit - self._spent

    def can_afford(self, cost: float) -> bool:
        """True iff ``cost`` fits in the remaining budget."""
        return cost <= self.remaining + 1e-12

    def charge(self, cost: float) -> None:
        """Consume ``cost``; raise if it exceeds the remaining budget."""
        if cost < 0:
            raise ConfigurationError(f"negative charge {cost}")
        if not self.can_afford(cost):
            raise BudgetExhaustedError(
                f"charge {cost:.6g} exceeds remaining budget {self.remaining:.6g}"
            )
        self._spent += cost

    def fork(self) -> "Budget":
        """An independent copy with the same limit and spend."""
        clone = Budget(self.limit)
        clone._spent = self._spent
        return clone
