"""Deterministic spatial partitioning with budget-radius halos.

The partitioner answers two questions for the sharded serving layer:

* **Which shard owns a task?**  The spatial domain is cut into cells
  (a uniform grid, or balanced kd median splits of the task
  locations); cells map to shards deterministically, and a task
  belongs to the shard owning the cell containing its location.
* **Which workers must a shard see?**  Every worker-slot pair
  ``(w, t)`` whose location lies within ``halo_radius(tau)`` of some
  owned task ``tau`` (with ``t`` inside ``tau``'s window) is
  replicated into the shard's *halo*.

The halo rule is what makes sharding *exact* rather than approximate.
With ``halo="auto"`` the radius of task ``tau`` is its budget
``b(tau)``: every committed assignment record costs at most the
task's remaining budget, and cost is the travel distance, so a worker
farther than ``b(tau)`` can never be executed for ``tau`` — and the
budgeted-greedy solvers filter such offers identically whether they
are "present but unaffordable" or absent (see DESIGN.md §6 for the
closure proof sketch).  A shard that holds every worker within
``b(tau)`` of each owned task therefore answers every *plan-relevant*
registry query exactly as the global registry would.

Everything is deterministic in the inputs: same tasks, pool, budgets,
and configuration produce the same :class:`ShardMap`, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.bbox import BoundingBox
from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.model.task import Task, TaskSet
from repro.model.worker import Worker, WorkerPool

__all__ = ["HALO_AUTO", "TaskFootprint", "ShardMap", "SpatialPartitioner"]

#: Sentinel: size each task's halo radius from its budget (exact mode).
HALO_AUTO = "auto"

#: Slack added to halo radii so the partitioner's closed ``<=`` test
#: dominates the solvers' affordability epsilon (``cost <= b + 1e-12``).
_RADIUS_EPSILON = 1e-9

_METHODS = ("grid", "kd")


@dataclass(frozen=True, slots=True)
class TaskFootprint:
    """The halo-visible universe of one task.

    ``pairs`` holds every ``(worker_id, global_slot)`` within
    ``radius`` of the task's location at that slot — the only
    worker-slot pairs whose availability state can influence the
    task's plan.  The reconciliation pass compares consumption
    *restricted to this set* to decide whether an optimistic per-shard
    plan is already exact.
    """

    task_id: int
    shard: int
    radius: float
    pairs: frozenset[tuple[int, int]]


@dataclass(slots=True)
class ShardMap:
    """The partitioner's output: task ownership, halos, shard pools."""

    num_shards: int
    method: str
    cells_per_side: int
    shard_of_task: dict[int, int]
    #: Ascending task ids per shard (the per-shard service order).
    shard_tasks: list[list[int]]
    footprints: dict[int, TaskFootprint]
    #: Halo-restricted worker pool per shard (availability filtered to
    #: the replicated slots; worker ids and reliabilities preserved).
    shard_pools: list[WorkerPool] = field(default_factory=list)
    #: worker_id -> sorted shard ids holding (part of) the worker.
    worker_shards: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def replicated_worker_ids(self) -> list[int]:
        """Workers present in two or more shard halos (sorted)."""
        return sorted(
            wid for wid, shards in self.worker_shards.items() if len(shards) > 1
        )

    def stats(self) -> dict:
        """Deterministic partition-shape summary (for reports)."""
        pair_total = sum(len(fp.pairs) for fp in self.footprints.values())
        halo_pairs = sum(
            sum(len(w.availability) for w in pool) for pool in self.shard_pools
        )
        halo_entries = sum(len(pool) for pool in self.shard_pools)
        distinct_workers = len(self.worker_shards)
        return {
            "num_shards": self.num_shards,
            "method": self.method,
            "cells_per_side": self.cells_per_side,
            "tasks_per_shard": [len(tasks) for tasks in self.shard_tasks],
            "halo_workers_per_shard": [len(pool) for pool in self.shard_pools],
            "replicated_workers": len(self.replicated_worker_ids),
            # Mean shard copies per worker: 1.0 = no replication at
            # all; the halo's memory overhead factor.
            "halo_replication_factor": (
                halo_entries / distinct_workers if distinct_workers else 0.0
            ),
            "footprint_pairs": pair_total,
            "halo_pairs": halo_pairs,
        }


class SpatialPartitioner:
    """Deterministic cells-to-shards partitioner with halo replication.

    Parameters:
        bbox: the spatial domain.
        num_shards: shard count (>= 1).
        method: ``"grid"`` (uniform cells in row-major contiguous
            blocks — supports routing arbitrary points, e.g. streaming
            arrivals) or ``"kd"`` (balanced median splits of the task
            locations — better load balance for skewed workloads).
        cells_per_side: grid resolution; defaults to
            ``max(4, ceil(sqrt(num_shards)))`` so every shard owns at
            least one cell.
        halo: :data:`HALO_AUTO` (radius = each task's budget; the
            exact, plan-preserving mode) or a fixed radius in domain
            units (approximate; property tests use it to probe closure
            violations).
    """

    def __init__(
        self,
        bbox: BoundingBox,
        *,
        num_shards: int,
        method: str = "grid",
        cells_per_side: int | None = None,
        halo: str | float = HALO_AUTO,
    ):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if method not in _METHODS:
            raise ConfigurationError(
                f"unknown partition method {method!r}; choose one of {_METHODS}"
            )
        if isinstance(halo, str):
            if halo != HALO_AUTO:
                raise ConfigurationError(
                    f"halo must be {HALO_AUTO!r} or a positive radius, got {halo!r}"
                )
        elif halo <= 0:
            raise ConfigurationError(f"halo radius must be positive, got {halo}")
        if cells_per_side is None:
            cells_per_side = max(4, int(math.ceil(math.sqrt(num_shards))))
        if cells_per_side < 1:
            raise ConfigurationError(
                f"cells_per_side must be >= 1, got {cells_per_side}"
            )
        self.bbox = bbox
        self.num_shards = num_shards
        self.method = method
        self.cells_per_side = cells_per_side
        self.halo = halo

    # ------------------------------------------------------------------
    # Cell geometry (grid method; also used by the streaming router)
    # ------------------------------------------------------------------
    def cell_of(self, p: Point) -> tuple[int, int]:
        """Grid cell ``(col, row)`` containing ``p`` (clamped)."""
        n = self.cells_per_side
        col = int((p.x - self.bbox.min_x) / max(self.bbox.width, 1e-12) * n)
        row = int((p.y - self.bbox.min_y) / max(self.bbox.height, 1e-12) * n)
        return (min(max(col, 0), n - 1), min(max(row, 0), n - 1))

    def shard_of_cell(self, col: int, row: int) -> int:
        """Row-major contiguous block assignment of cells to shards."""
        n = self.cells_per_side
        index = row * n + col
        return index * self.num_shards // (n * n)

    def shard_of_location(self, p: Point) -> int:
        """The shard owning an arbitrary location (grid method only)."""
        if self.method != "grid":
            raise ConfigurationError(
                "shard_of_location requires the grid method; kd splits are "
                "derived from a concrete task set"
            )
        return self.shard_of_cell(*self.cell_of(p))

    def shard_distances(self, p: Point) -> list[float]:
        """Distance from ``p`` to every shard's region, in one cell scan.

        Entry ``s`` is 0.0 when ``p`` lies inside shard ``s``'s region.
        Used by the streaming router to decide which shards a worker's
        trajectory is halo-relevant to — folding each cell's
        point-to-rectangle distance into its owning shard's minimum
        keeps routing at O(cells) per location rather than
        O(shards x cells).
        """
        n = self.cells_per_side
        cw = self.bbox.width / n
        ch = self.bbox.height / n
        num_shards = self.num_shards
        cells = n * n
        best = [math.inf] * num_shards
        dxs = []
        for col in range(n):
            min_x = self.bbox.min_x + col * cw
            dxs.append(max(min_x - p.x, 0.0, p.x - (min_x + cw)))
        for row in range(n):
            min_y = self.bbox.min_y + row * ch
            dy = max(min_y - p.y, 0.0, p.y - (min_y + ch))
            for col, dx in enumerate(dxs):
                # shard_of_cell(col, row), inlined: this is the router's
                # per-location hot loop.
                shard = (row * n + col) * num_shards // cells
                dist = math.hypot(dx, dy)
                if dist < best[shard]:
                    best[shard] = dist
        return best

    def shard_region_distance(self, shard: int, p: Point) -> float:
        """Distance from ``p`` to the nearest cell owned by ``shard``."""
        return self.shard_distances(p)[shard]

    # ------------------------------------------------------------------
    # Task assignment
    # ------------------------------------------------------------------
    def _assign_tasks(self, tasks: TaskSet) -> dict[int, int]:
        if self.method == "grid":
            return {
                task.task_id: self.shard_of_cell(*self.cell_of(task.loc))
                for task in tasks
            }
        return self._kd_assign(tasks)

    def _kd_assign(self, tasks: TaskSet) -> dict[int, int]:
        """Balanced kd splits: median cuts alternate x/y, shard counts
        divide proportionally, ties broken by task id."""
        out: dict[int, int] = {}

        def split(group: list[Task], shard_lo: int, shard_count: int, depth: int):
            if shard_count == 1 or not group:
                for task in group:
                    out[task.task_id] = shard_lo
                return
            left_shards = shard_count // 2
            if depth % 2 == 0:
                key = lambda t: (t.loc.x, t.loc.y, t.task_id)  # noqa: E731
            else:
                key = lambda t: (t.loc.y, t.loc.x, t.task_id)  # noqa: E731
            ordered = sorted(group, key=key)
            cut = round(len(ordered) * left_shards / shard_count)
            split(ordered[:cut], shard_lo, left_shards, depth + 1)
            split(ordered[cut:], shard_lo + left_shards, shard_count - left_shards, depth + 1)

        split(list(tasks), 0, self.num_shards, 0)
        return out

    # ------------------------------------------------------------------
    # Halo construction
    # ------------------------------------------------------------------
    def task_radius(self, task_id: int, budgets: dict[int, float]) -> float:
        """The halo radius of one task under the configured policy."""
        if self.halo == HALO_AUTO:
            try:
                budget = budgets[task_id]
            except KeyError:
                raise ConfigurationError(
                    f"halo='auto' needs a budget for task {task_id}"
                ) from None
            return float(budget) + _RADIUS_EPSILON
        return float(self.halo) + _RADIUS_EPSILON

    def partition(
        self,
        tasks: TaskSet,
        pool: WorkerPool,
        budgets: dict[int, float],
    ) -> ShardMap:
        """Build the full shard map for one serving round.

        ``budgets`` maps each task id to its per-task budget (the
        halo-auto radius source; ignored under a fixed-radius halo).
        """
        shard_of_task = self._assign_tasks(tasks)

        # Per-slot spatial indexes over the whole pool, built once for
        # exactly the global slots some task's window touches.
        slot_items: dict[int, list[tuple[int, Point]]] = {}
        needed: set[int] = set()
        for task in tasks:
            for local in task.slots:
                needed.add(task.global_slot(local))
        for worker in pool:
            for gslot, loc in worker.availability.items():
                if gslot in needed:
                    slot_items.setdefault(gslot, []).append((worker.worker_id, loc))
        slot_index: dict[int, GridIndex] = {}

        def index_for(gslot: int) -> GridIndex:
            index = slot_index.get(gslot)
            if index is None:
                index = GridIndex.from_items(self.bbox, slot_items.get(gslot, []))
                slot_index[gslot] = index
            return index

        footprints: dict[int, TaskFootprint] = {}
        # Per shard: worker_id -> {global_slot: location}.
        halo_slots: list[dict[int, dict[int, Point]]] = [
            {} for _ in range(self.num_shards)
        ]
        for task in tasks:
            shard = shard_of_task[task.task_id]
            radius = self.task_radius(task.task_id, budgets)
            pairs: set[tuple[int, int]] = set()
            halo = halo_slots[shard]
            for local in task.slots:
                gslot = task.global_slot(local)
                for wid, _ in index_for(gslot).within(task.loc, radius):
                    pairs.add((wid, gslot))
                    slots = halo.get(wid)
                    if slots is None:
                        slots = halo[wid] = {}
                    slots[gslot] = index_for(gslot).location_of(wid)
            footprints[task.task_id] = TaskFootprint(
                task.task_id, shard, radius, frozenset(pairs)
            )

        by_id = {w.worker_id: w for w in pool}
        shard_pools: list[WorkerPool] = []
        worker_shards: dict[int, list[int]] = {}
        for shard, halo in enumerate(halo_slots):
            workers = []
            for wid in sorted(halo):
                workers.append(
                    Worker(
                        worker_id=wid,
                        availability=dict(sorted(halo[wid].items())),
                        reliability=by_id[wid].reliability,
                    )
                )
                worker_shards.setdefault(wid, []).append(shard)
            shard_pools.append(WorkerPool(workers))

        shard_tasks: list[list[int]] = [[] for _ in range(self.num_shards)]
        for task_id in sorted(shard_of_task):
            shard_tasks[shard_of_task[task_id]].append(task_id)

        return ShardMap(
            num_shards=self.num_shards,
            method=self.method,
            cells_per_side=self.cells_per_side,
            shard_of_task=shard_of_task,
            shard_tasks=shard_tasks,
            footprints=footprints,
            shard_pools=shard_pools,
            worker_shards={
                wid: tuple(shards) for wid, shards in sorted(worker_shards.items())
            },
        )
