"""Deterministic fault injection for the streaming runtime.

Three injection kinds cover the overload and failure axes the
degradation ladder must answer (``simulate --inject FILE``):

* ``flash_crowd`` — an event burst: ``tasks`` extra task arrivals at
  one instant, locations drawn from the scenario's own distribution
  under a label-addressed RNG stream, so the burst is a deterministic
  function of ``(scenario seed, injection index)``.
* ``region_outage`` — correlated worker departure: every worker
  present at ``at`` whose trajectory touches the disk of ``radius``
  around ``(x, y)`` leaves at ``at`` (its scheduled departure event is
  *moved*, never duplicated).
* ``slowdown`` — a degraded machine: :class:`ChaosLayer` caps the
  op-count budget (``OpCounters.virtual_cost`` units) one core's epoch
  assignment rounds may spend.  Throttling is op-count based, never
  wall clock, so a throttled run is exactly reproducible.

The first two are pure trace transforms (:func:`apply_injections`
returns a new :class:`~repro.workloads.streaming.StreamScenario`);
the third rides the PR-5 layer seam.  Injection files are JSON:
``{"injections": [{"kind": "flash_crowd", "at": 6.0, "tasks": 8}]}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.runtime.layers import ServingLayer
from repro.stream.events import TaskArrival, WorkerJoin, WorkerLeave
from repro.util.jsonfields import check_json_fields
from repro.util.rng import derive_rng
from repro.workloads.streaming import StreamScenario

__all__ = [
    "INJECTION_KINDS",
    "InjectionSpec",
    "load_injections",
    "apply_injections",
    "ChaosLayer",
]

INJECTION_KINDS = ("flash_crowd", "region_outage", "slowdown")


@dataclass(frozen=True, slots=True)
class InjectionSpec:
    """One declarative fault (see the module docstring for kinds)."""

    kind: str
    at: float = 0.0
    tasks: int = 0          # flash_crowd: burst size
    x: float = 0.0          # region_outage: outage center
    y: float = 0.0
    radius: float = 0.0     # region_outage: outage radius
    op_budget: int = 0      # slowdown: per-epoch virtual-cost cap
    shard: int | None = None  # slowdown: target core (None = shard 0)

    def __post_init__(self):
        if self.kind not in INJECTION_KINDS:
            raise ConfigurationError(
                f"unknown injection kind {self.kind!r}; "
                f"choose one of {INJECTION_KINDS}"
            )
        if self.at < 0:
            raise ConfigurationError(f"injection at must be >= 0, got {self.at}")
        if self.kind == "flash_crowd" and self.tasks < 1:
            raise ConfigurationError(
                f"flash_crowd needs tasks >= 1, got {self.tasks}"
            )
        if self.kind == "region_outage" and self.radius <= 0:
            raise ConfigurationError(
                f"region_outage needs radius > 0, got {self.radius}"
            )
        if self.kind == "slowdown":
            if self.op_budget < 1:
                raise ConfigurationError(
                    f"slowdown needs op_budget >= 1, got {self.op_budget}"
                )
            if self.shard is not None and self.shard < 0:
                raise ConfigurationError(
                    f"slowdown shard must be >= 0, got {self.shard}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"an injection must be a JSON object, got {type(data).__name__}"
            )
        check_json_fields(cls, data, ConfigurationError, label="injection")
        if "kind" not in data:
            raise ConfigurationError("injection needs a 'kind' field")
        return cls(**data)


def load_injections(path: str | Path) -> tuple[InjectionSpec, ...]:
    """Parse one ``--inject`` JSON file into validated specs."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read injection file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("injections"), list):
        raise ConfigurationError(
            f"{path} must be a JSON object with an 'injections' array"
        )
    return tuple(InjectionSpec.from_dict(entry) for entry in data["injections"])


def apply_injections(
    scenario: StreamScenario, injections: tuple[InjectionSpec, ...]
) -> StreamScenario:
    """A new scenario with the trace-level injections applied.

    ``slowdown`` injections are runtime faults (:class:`ChaosLayer`)
    and leave the trace untouched.  The input scenario is never
    mutated.
    """
    from repro.model.task import Task
    from repro.workloads.spatial import generate_points

    events = list(scenario.events)
    config = scenario.config
    next_task_id = 1 + max(
        (e.task.task_id for e in events if isinstance(e, TaskArrival)),
        default=-1,
    )
    for index, spec in enumerate(injections):
        if spec.kind == "flash_crowd":
            locations = generate_points(
                spec.tasks,
                scenario.bbox,
                config.distribution,
                seed=derive_rng(config.seed, f"chaos-flash-{index}"),
            )
            start_slot = int(math.floor(spec.at)) + 1
            for loc in locations:
                task = Task(
                    task_id=next_task_id,
                    loc=loc,
                    num_slots=config.task_slots,
                    start_slot=start_slot,
                )
                events.append(TaskArrival(time=float(spec.at), task=task))
                next_task_id += 1
        elif spec.kind == "region_outage":
            joins: dict[int, WorkerJoin] = {}
            leave_at: dict[int, int] = {}
            for position, event in enumerate(events):
                if isinstance(event, WorkerJoin):
                    joins[event.worker.worker_id] = event
                elif isinstance(event, WorkerLeave):
                    leave_at[event.worker_id] = position
            for worker_id, join in joins.items():
                position = leave_at.get(worker_id)
                if position is None:
                    continue
                if not join.time <= spec.at < events[position].time:
                    continue  # not present when the region fails
                hit = any(
                    math.hypot(loc.x - spec.x, loc.y - spec.y) <= spec.radius
                    for loc in join.worker.availability.values()
                )
                if hit:
                    events[position] = WorkerLeave(
                        time=float(spec.at), worker_id=worker_id
                    )
    events.sort(key=lambda e: e.time)
    return StreamScenario(config=config, bbox=scenario.bbox, events=events)


class ChaosLayer(ServingLayer):
    """Apply one ``slowdown`` injection to a streaming core.

    At bind time it caps the core's per-epoch op budget
    (``server.op_epoch_budget``, in ``OpCounters.virtual_cost`` units);
    the server's step loop stops an epoch's assignment rounds once the
    cap is spent.  The layer itself performs no work per event and
    never reads wall clock.
    """

    def __init__(self, op_budget: int):
        self.op_budget = op_budget

    def bind(self, server) -> None:
        server.op_epoch_budget = self.op_budget
