"""Per-task live assignment state for the streaming server.

A :class:`TaskSession` is the online analogue of one
:class:`~repro.core.greedy.IndexedSingleTaskGreedy` run, stretched over
the task's whole duration: the evaluator, the cost view, and the tree
index persist across epochs while workers churn underneath them.

Two index-maintenance policies are supported and must produce
*identical assignments* (the acceptance property of the subsystem):

* ``"incremental"`` — the tree index is built once and repaired with
  :meth:`~repro.core.tree_index.TreeIndex.refresh_slots` over exactly
  the slots dirtied by churn, consumption, or the advancing clock,
  falling back to a full rebuild when the dirty set exceeds
  :data:`REBUILD_THRESHOLD` of the slot line;
* ``"rebuild"`` — the index is reconstructed from scratch at every
  assignment round (the baseline the benchmarks compare against).

Both policies read the same evaluator and cost state, so the index
aggregates — and therefore every ``find_best`` answer — coincide; only
the operation counts differ.

The session additionally maintains the order-k Voronoi diagram of its
executed slots *incrementally* (one :meth:`insert_site` per
execution); the final cell count is the coverage-fragmentation metric
reported by :class:`~repro.stream.metrics.StreamMetrics`.
"""

from __future__ import annotations

import math

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.instrumentation import OpCounters
from repro.core.tree_index import TreeIndex
from repro.core.voronoi import OrderKVoronoi
from repro.engine.costs import DynamicCostProvider
from repro.errors import ConfigurationError
from repro.model.assignment import AssignmentRecord, Budget
from repro.model.task import Task
from repro.model.worker import Worker

__all__ = ["WindowedCosts", "TaskSession", "INDEX_MODES"]

INDEX_MODES = ("incremental", "rebuild")

#: Dirty-slot fraction of the slot line above which incremental mode
#: falls back to a full index rebuild.
REBUILD_THRESHOLD = 0.8


class WindowedCosts:
    """Sliding-window view over a cost provider.

    Subtasks whose global slot the virtual clock has passed can no
    longer be executed; this wrapper masks them (cost ``None``) so the
    solvers need no online-specific logic.  ``mask_hi`` is the highest
    masked local slot and only ever grows.
    """

    __slots__ = ("provider", "task", "mask_hi")

    def __init__(self, provider: DynamicCostProvider, task: Task):
        self.provider = provider
        self.task = task
        self.mask_hi = 0

    def advance(self, now: float) -> list[int]:
        """Mask slots whose global time is strictly before ``now``.

        Returns the newly masked local slots (they need an index
        refresh: their candidacy just ended).
        """
        task = self.task
        new_hi = min(
            task.num_slots,
            max(0, math.ceil(now - task.start_slot + 1) - 1),
        )
        fresh = list(range(self.mask_hi + 1, new_hi + 1))
        self.mask_hi = max(self.mask_hi, new_hi)
        return fresh

    def cost(self, slot: int) -> float | None:
        """Provider cost, or ``None`` once the slot's time has passed."""
        if slot <= self.mask_hi:
            return None
        return self.provider.cost(slot)

    def reliability(self, slot: int) -> float:
        """Provider reliability (1.0 for masked slots, never used)."""
        if slot <= self.mask_hi:
            return 1.0
        return self.provider.reliability(slot)

    def offer(self, slot: int):
        """Provider offer, or ``None`` once the slot's time has passed."""
        if slot <= self.mask_hi:
            return None
        return self.provider.offer(slot)


class TaskSession:
    """Live assignment state of one admitted task."""

    def __init__(
        self,
        task: Task,
        registry,
        *,
        k: int,
        ts: int,
        budget: float,
        arrival_time: float,
        index_mode: str = "incremental",
        backend: str = "python",
        counters: OpCounters | None = None,
        certify: bool = False,
    ):
        if index_mode not in INDEX_MODES:
            raise ConfigurationError(
                f"unknown index_mode {index_mode!r}; choose one of {INDEX_MODES}"
            )
        self.task = task
        self.k = k
        self.ts = ts
        self.index_mode = index_mode
        self.arrival_time = arrival_time
        self.counters = counters if counters is not None else OpCounters()
        # The evaluator (and, with backend="numpy", its shared per-
        # (m, k) kernel) persists for the session's whole lifetime:
        # epochs reuse it instead of rebuilding quality state.
        self.ev = TemporalQualityEvaluator(
            task.num_slots, k, counters=self.counters, backend=backend
        )
        self.provider = DynamicCostProvider(task, registry, counters=self.counters)
        self.costs = WindowedCosts(self.provider, task)
        self.budget = Budget(budget)
        self.voronoi = OrderKVoronoi(task.num_slots, k, [])
        self.records: list[AssignmentRecord] = []
        self.first_assign_time: float | None = None
        self._index: TreeIndex | None = None
        self._dirty: set[int] = set()
        self._dirty_limit = max(1, int(REBUILD_THRESHOLD * task.num_slots))
        # Certificate state (``repro.degrade``); ``certify`` is only
        # set when an approximate mode is configured, because tracking
        # probes offers and gains through the counted providers — with
        # ``approx="off"`` the session stays byte-identical to the
        # exact runtime, OpCounters included.
        self._min_cost_seen: dict[int, float] | None = {} if certify else None
        self._first_gain: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def end_slot(self) -> int:
        """Last global slot the task occupies."""
        return self.task.start_slot + self.task.num_slots - 1

    @property
    def expired(self) -> bool:
        """True once every slot's time has passed."""
        return self.costs.mask_hi >= self.task.num_slots

    @property
    def exhausted(self) -> bool:
        """True once the task budget is effectively spent."""
        return self.budget.remaining < 1e-9

    @property
    def quality(self) -> float:
        """Quality promised by the plan so far."""
        return self.ev.quality

    def estimate_full_cost(self) -> float:
        """Cost of executing every currently-assignable slot.

        The online analogue of the scenario builder's budget reference:
        per-task budgets are expressed as a fraction of this estimate
        at admission time.
        """
        total = 0.0
        for slot in self.task.slots:
            cost = self.costs.cost(slot)
            if cost is not None:
                total += cost
        return total

    # ------------------------------------------------------------------
    # Churn notifications
    # ------------------------------------------------------------------
    def _overlapping_local_slots(self, worker: Worker) -> list[int]:
        task = self.task
        slots = []
        for global_slot in worker.availability:
            if task.start_slot <= global_slot <= self.end_slot:
                local = global_slot - task.start_slot + 1
                if local > self.costs.mask_hi and not self.ev.is_executed(local):
                    slots.append(local)
        return slots

    def note_worker_join(self, worker: Worker) -> list[int]:
        """A worker joined: re-derive offers for the slots it overlaps."""
        slots = self._overlapping_local_slots(worker)
        if slots:
            self.provider.invalidate_slots(slots)
            self._dirty.update(slots)
        return slots

    def note_worker_leave(self, worker: Worker) -> list[int]:
        """A worker left: drop offers that referenced it."""
        lost: list[int] = []
        task = self.task
        for global_slot in worker.availability:
            if task.start_slot <= global_slot <= self.end_slot:
                lost.extend(self.provider.invalidate_worker(worker.worker_id, global_slot))
        if lost:
            self._dirty.update(lost)
        return lost

    def note_worker_consumed(self, worker_id: int, global_slot: int) -> list[int]:
        """A competitor consumed a worker: invalidate the lost offer."""
        lost = self.provider.invalidate_worker(worker_id, global_slot)
        if lost:
            self._dirty.update(lost)
        return lost

    def on_epoch(self, now: float) -> None:
        """Advance the sliding window to ``now``."""
        self._dirty.update(self.costs.advance(now))

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def _ensure_index(self) -> TreeIndex:
        if self.index_mode == "rebuild" or self._index is None:
            # Rebuild-every-round baseline (or very first build).
            self._index = TreeIndex(
                self.ev, self.costs, ts=self.ts, counters=self.counters
            )
            self._dirty.clear()
        elif self._dirty:
            if len(self._dirty) >= self._dirty_limit:
                # Rebuild-threshold fallback: churn touched so much of
                # the slot line that a fresh build is cheaper than many
                # range refreshes.
                self._index = TreeIndex(
                    self.ev, self.costs, ts=self.ts, counters=self.counters
                )
            else:
                self._index.refresh_slots(self._dirty)
            self._dirty.clear()
        return self._index

    def prepare_index(self) -> TreeIndex | None:
        """Repair (or rebuild) the session's tree index for this epoch.

        Split out of :meth:`step` so a profiling caller can attribute
        index-repair cost separately from the greedy solve; the result
        is passed back via ``step(..., index=...)``.  ``None`` when the
        session cannot run (exhausted/expired) — ``step`` then returns
        0 without touching the index, matching the unprofiled path.
        """
        if self.exhausted or self.expired:
            return None
        return self._ensure_index()

    def step(
        self,
        now: float,
        pool,
        on_consume,
        *,
        index: TreeIndex | None = None,
        directive=None,
    ) -> int:
        """Run greedy assignment for one epoch.

        ``pool`` bounds spending globally (``None`` = task budget
        only); ``on_consume(worker_id, global_slot, local_slot, cost)``
        commits a worker in the registry and notifies competing
        sessions (the journal layer also logs it).  ``index`` accepts a
        :meth:`prepare_index` result (the index is repaired here when
        not supplied).  ``directive`` (a
        :class:`~repro.degrade.policy.DegradeDirective`) selects a
        degraded search: ``top_c`` bypasses the tree index entirely and
        enumerates only the best-ranked candidate slots, ``floor``
        stops once marginal gain drops below the floor fraction of the
        session's first committed gain.  Returns the number of subtasks
        executed.
        """
        if self.exhausted or self.expired:
            return 0
        if self._min_cost_seen is not None:
            self._track_offer_costs()
        if directive is not None and directive.top_c is not None:
            return self._step_degraded(now, pool, on_consume, directive)
        if index is None:
            index = self._ensure_index()
        floor = None if directive is None else directive.floor
        executed = 0
        while True:
            remaining = self.budget.remaining
            if pool is not None:
                remaining = min(remaining, pool.remaining)
            if remaining < 1e-12:
                break
            best = index.find_best(remaining)
            if best is None:
                break
            if (
                floor is not None
                and self._first_gain is not None
                and best.gain < floor * self._first_gain
            ):
                break
            offer = self.costs.offer(best.slot)
            window = self.ev.affected_window(best.slot)
            self.ev.execute(best.slot, self.costs.reliability(best.slot))
            self.voronoi.insert_site(best.slot)
            self.budget.charge(best.cost)
            if pool is not None:
                pool.charge(best.cost)
            on_consume(
                offer.worker_id, self.task.global_slot(best.slot), best.slot, best.cost
            )
            self.records.append(
                AssignmentRecord(self.task.task_id, best.slot, offer.worker_id, best.cost)
            )
            if self.first_assign_time is None:
                self.first_assign_time = now
            if self._first_gain is None:
                self._first_gain = best.gain
            self.counters.iterations += 1
            index.refresh_range(*window)
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Degraded assignment and certificates (``repro.degrade``)
    # ------------------------------------------------------------------
    def _track_offer_costs(self) -> None:
        """Record the cheapest cost each slot was ever offered at.

        The certificate's competing plan may buy any slot at the best
        price *this session ever saw* — tracked at every step entry so
        masked (expired) slots keep their historical floor.
        """
        seen = self._min_cost_seen
        for slot in self.task.slots:
            if self.ev.is_executed(slot):
                continue
            cost = self.costs.cost(slot)
            if cost is None:
                continue
            prior = seen.get(slot)
            if prior is None or cost < prior:
                seen[slot] = cost

    def _step_degraded(self, now: float, pool, on_consume, directive) -> int:
        """Bounded-candidate assignment: no tree index, top-c only.

        Candidates are the ``top_c`` assignable slots ranked by the
        cached single-slot quality table (the same ranking line 3 of
        Algorithm 1 consults); gains are evaluated directly on the
        session evaluator.  The tree index is neither repaired nor
        consulted — every executed window lands in ``_dirty`` so a
        later exact epoch repairs it first.
        """
        from repro.core.greedy import single_slot_quality_table
        from repro.core.tree_index import COST_EPSILON

        executed = 0
        m = self.task.num_slots
        while True:
            remaining = self.budget.remaining
            if pool is not None:
                remaining = min(remaining, pool.remaining)
            if remaining < 1e-12:
                break
            tables: dict[float, list[float]] = {}
            ranked: list[tuple[float, int, float, float]] = []
            for slot in self.task.slots:
                if self.ev.is_executed(slot):
                    continue
                cost = self.costs.cost(slot)
                if cost is None:
                    continue
                lam = self.costs.reliability(slot)
                table = tables.get(lam)
                if table is None:
                    table = single_slot_quality_table(m, self.k, lam)
                    tables[lam] = table
                ranked.append((-table[slot], slot, cost, lam))
            ranked.sort(key=lambda item: (item[0], item[1]))
            best: tuple[int, float, float, float] | None = None
            for _, slot, cost, lam in ranked[: directive.top_c]:
                if cost > remaining + 1e-12:
                    continue
                gain = self.ev.gain_if_executed(slot, lam)
                if gain <= 0.0:
                    continue
                heuristic = gain / max(cost, COST_EPSILON)
                if best is None or heuristic > best[3] or (
                    heuristic == best[3] and slot < best[0]
                ):
                    best = (slot, gain, cost, heuristic)
            if best is None:
                break
            slot, gain, cost, _ = best
            if (
                directive.floor is not None
                and self._first_gain is not None
                and gain < directive.floor * self._first_gain
            ):
                break
            offer = self.costs.offer(slot)
            window = self.ev.affected_window(slot)
            self.ev.execute(slot, self.costs.reliability(slot))
            self.voronoi.insert_site(slot)
            self.budget.charge(cost)
            if pool is not None:
                pool.charge(cost)
            on_consume(offer.worker_id, self.task.global_slot(slot), slot, cost)
            self.records.append(
                AssignmentRecord(self.task.task_id, slot, offer.worker_id, cost)
            )
            if self.first_assign_time is None:
                self.first_assign_time = now
            if self._first_gain is None:
                self._first_gain = gain
            self.counters.iterations += 1
            self._dirty.update(range(window[0], window[1] + 1))
            executed += 1
        return executed

    def certificate(self) -> float:
        """Certified quality ratio against the session's offer stream.

        The gain-envelope bound of :mod:`repro.degrade.certify`
        evaluated at the session's final state: any competing plan over
        the offers this session observed — each unexecuted slot charged
        at the cheapest cost it was ever offered at, with the session's
        full budget to spend — cannot beat
        ``quality + gain_envelope_bound(...)``.  Returns 1.0 when
        certificate tracking was off.
        """
        if self._min_cost_seen is None:
            return 1.0
        from repro.degrade.certify import gain_envelope_bound

        gains_costs: list[tuple[float, float]] = []
        for slot, cost in self._min_cost_seen.items():
            if self.ev.is_executed(slot):
                continue
            gain = self.ev.gain_if_executed(slot, self.costs.reliability(slot))
            gains_costs.append((gain, cost))
        capacity = self.budget.spent + self.budget.remaining
        bound = self.ev.quality + gain_envelope_bound(gains_costs, capacity)
        if bound <= 0.0:
            return 1.0
        return min(1.0, self.ev.quality / bound)
