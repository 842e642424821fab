"""The event-driven streaming TCSC server.

Where :class:`~repro.engine.server.TCSCServer` solves one fully-known
instance and :class:`~repro.engine.batches.BatchTCSCServer` replays
pre-cut rounds, :class:`StreamingTCSCServer` runs an *online* loop over
a virtual clock: worker-join / worker-leave / task-arrival /
budget-refresh events drain from an :class:`~repro.stream.events.EventQueue`,
admitted tasks hold live :class:`~repro.stream.session.TaskSession`
state, and every epoch the server extends each session's assignment on
the sliding window of still-executable slots.

The loop per epoch:

1. drain events stamped before the epoch boundary (registry churn,
   admission control, budget top-ups);
2. advance the clock and every session's sliding window;
3. finalize sessions whose window closed or budget drained, freeing
   admission capacity;
4. admit pending tasks FIFO up to ``max_active_tasks``;
5. run one greedy assignment round per active session, oldest first —
   worker consumption is broadcast so competing sessions drop stale
   offers (the paper's worker conflicts, online).

Index maintenance is the subsystem's measured trade-off: with
``index_mode="incremental"`` each session repairs its tree index over
exactly the churn-dirtied slots; ``"rebuild"`` reconstructs it every
round.  Both must produce identical assignments on the same trace.
"""

from __future__ import annotations

import math

from repro.core.instrumentation import OpCounters
from repro.engine.realization import simulate_execution
from repro.engine.registry import WorkerRegistry
from repro.errors import ConfigurationError, SchedulingError
from repro.geo.bbox import BoundingBox
from repro.model.assignment import Assignment, Budget
from repro.model.task import TaskSet
from repro.model.worker import Worker, WorkerPool
from repro.stream.clock import VirtualClock
from repro.stream.events import (
    BudgetRefresh,
    Event,
    EventQueue,
    TaskArrival,
    WorkerJoin,
    WorkerLeave,
)
from repro.stream.metrics import StreamMetrics
from repro.stream.session import INDEX_MODES, TaskSession

__all__ = ["BudgetPool", "StreamingTCSCServer"]

_MAX_EPOCHS = 1_000_000


class BudgetPool:
    """Shared spending pool topped up by budget-refresh events."""

    __slots__ = ("_remaining", "refreshed")

    def __init__(self, initial: float):
        if initial < 0:
            raise ConfigurationError(f"pool must start >= 0, got {initial}")
        self._remaining = float(initial)
        self.refreshed = 0.0

    @property
    def remaining(self) -> float:
        """Budget currently available to all sessions."""
        return self._remaining

    def add(self, amount: float) -> None:
        """Top up the pool (a budget-refresh event)."""
        if amount < 0:
            raise ConfigurationError(f"refresh amount must be >= 0, got {amount}")
        self._remaining += amount
        self.refreshed += amount

    def charge(self, cost: float) -> None:
        """Draw from the pool."""
        if cost > self._remaining + 1e-9:
            raise SchedulingError(
                f"pool charge {cost:.6g} exceeds remaining {self._remaining:.6g}"
            )
        self._remaining = max(0.0, self._remaining - cost)


class StreamingTCSCServer:
    """Online TCSC assignment over an event stream.

    Parameters:
        bbox: spatial domain shared by tasks and workers.
        epoch_length: assignment-round period in virtual slots.
        index_mode: ``"incremental"`` (repair per-session tree indexes
            over churn-dirtied slots) or ``"rebuild"`` (reconstruct
            every round).
        budget_fraction: per-task budget as a fraction of the task's
            full execution cost at admission (used when the arrival
            event carries no explicit budget).
        pool_budget: initial shared pool; ``None`` disables pooling so
            only per-task budgets bind.  Budget-refresh events top up
            the pool when enabled.
        max_active_tasks: admission-window size.
        max_queue_depth: pending tasks beyond this are rejected.
        backend: quality-kernel implementation for every session's
            evaluator (``"python"`` scalar oracle or ``"numpy"``
            vectorized); identical assignments on either.
        layers: ordered :class:`~repro.runtime.layers.ServingLayer`
            capabilities dispatched at every hook point (the journal
            layer rides here); layers observe and persist but never
            perturb solver state, so a layered run is byte-identical
            to a bare one.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        *,
        k: int = 3,
        ts: int = 4,
        epoch_length: float = 5.0,
        index_mode: str = "incremental",
        budget_fraction: float = 0.25,
        pool_budget: float | None = None,
        max_active_tasks: int = 8,
        max_queue_depth: int = 16,
        realization_seed: int = 0,
        backend: str = "python",
        counters: OpCounters | None = None,
        layers=(),
        certify: bool = False,
    ):
        if index_mode not in INDEX_MODES:
            raise ConfigurationError(
                f"unknown index_mode {index_mode!r}; choose one of {INDEX_MODES}"
            )
        if epoch_length <= 0:
            raise ConfigurationError(f"epoch_length must be > 0, got {epoch_length}")
        if max_active_tasks < 1:
            raise ConfigurationError(
                f"max_active_tasks must be >= 1, got {max_active_tasks}"
            )
        if max_queue_depth < 0:
            raise ConfigurationError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if not 0.0 < budget_fraction <= 1.0:
            raise ConfigurationError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}"
            )
        self.bbox = bbox
        self.k = k
        self.ts = ts
        self.epoch_length = float(epoch_length)
        self.index_mode = index_mode
        self.budget_fraction = budget_fraction
        self.max_active_tasks = max_active_tasks
        self.max_queue_depth = max_queue_depth
        self.realization_seed = realization_seed
        self.backend = backend
        self.counters = counters if counters is not None else OpCounters()
        self.clock = VirtualClock()
        self.registry = WorkerRegistry(WorkerPool([]), bbox)
        self.pool = None if pool_budget is None else BudgetPool(pool_budget)
        self._workers_seen: dict[int, Worker] = {}
        self._pending: list[TaskArrival] = []
        self._active: list[TaskSession] = []
        self._finished: list[TaskSession] = []
        #: Metrics survive across :meth:`run` re-entry so a recovered
        #: server (``repro.journal``) resumes the interrupted record
        #: instead of starting a fresh one.
        self._metrics: StreamMetrics | None = None
        self._ran = False
        #: The live trace between :meth:`begin` and :meth:`finish`;
        #: drained epoch by epoch via :meth:`step_epoch`.
        self._queue: EventQueue | None = None
        self._epochs_stepped = 0
        #: A :class:`~repro.obs.profile.PhaseProfiler` attached by a
        #: telemetry layer at bind time; when set, the step loop
        #: attributes index repair and the greedy solve to phases.
        self.profiler = None
        #: Certificate tracking (``repro.degrade``): sessions probe and
        #: report certified quality ratios.  Only set when an
        #: approximate mode is configured — tracking perturbs
        #: OpCounters, which ``approx="off"`` identity forbids.
        self.certify = certify
        #: A :class:`~repro.degrade.policy.DegradationController`
        #: attached by a DegradationLayer at bind time (or directly);
        #: admission and the step loop read its directives.
        self.degradation = None
        #: Per-epoch op-count cap in ``OpCounters.virtual_cost`` units,
        #: set by an injected slowdown (``repro.degrade.chaos``);
        #: ``None`` = unthrottled.
        self.op_epoch_budget = None
        self.layers = tuple(layers)
        for layer in self.layers:
            layer.bind(self)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _handle(self, event: Event, metrics: StreamMetrics) -> None:
        metrics.count_event(event)
        if isinstance(event, WorkerJoin):
            worker = event.worker
            self.registry.add_worker(worker)
            self._workers_seen[worker.worker_id] = worker
            metrics.workers_joined += 1
            for session in self._active:
                session.note_worker_join(worker)
        elif isinstance(event, WorkerLeave):
            worker = self.registry.remove_worker(event.worker_id)
            metrics.workers_left += 1
            for session in self._active:
                session.note_worker_leave(worker)
        elif isinstance(event, TaskArrival):
            metrics.tasks_arrived += 1
            degradation = self.degradation
            if degradation is not None and degradation.shedding:
                # Shed level: the ladder's last resort still rejects
                # new arrivals; active sessions keep being served.
                metrics.tasks_rejected += 1
                metrics.tasks_shed += 1
            elif len(self._pending) >= self.max_queue_depth:
                metrics.tasks_rejected += 1
            else:
                self._pending.append(event)
        elif isinstance(event, BudgetRefresh):
            if self.pool is not None:
                self.pool.add(event.amount)
        else:
            raise ConfigurationError(f"unknown event type {type(event).__name__}")

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _admit(self, arrival: TaskArrival, metrics: StreamMetrics) -> TaskSession:
        session = TaskSession(
            arrival.task,
            self.registry,
            k=self.k,
            ts=self.ts,
            budget=0.0,
            arrival_time=arrival.time,
            index_mode=self.index_mode,
            backend=self.backend,
            counters=self.counters,
            certify=self.certify,
        )
        session.on_epoch(self.clock.now)
        amount = arrival.budget
        if amount is None:
            amount = self.budget_fraction * session.estimate_full_cost()
        session.budget = Budget(amount)
        metrics.tasks_admitted += 1
        self._active.append(session)
        return session

    def _finalize(self, session: TaskSession, metrics: StreamMetrics) -> None:
        for layer in self.layers:
            layer.before_finalize(session, metrics)
        task_id = session.task.task_id
        metrics.tasks_completed += 1
        metrics.promised_quality[task_id] = session.quality
        if self.certify:
            metrics.quality_certificates[task_id] = session.certificate()
        metrics.coverage_cells[task_id] = len(session.voronoi.cells)
        metrics.budget_spent += session.budget.spent
        if session.first_assign_time is None:
            metrics.tasks_starved += 1
        else:
            metrics.assignment_latencies.append(
                session.first_assign_time - session.arrival_time
            )
        self._finished.append(session)

    def _commit(
        self,
        consuming: TaskSession,
        worker_id: int,
        global_slot: int,
        local_slot: int,
        cost: float,
    ) -> None:
        """Consume a worker and broadcast the conflict to competitors.

        ``local_slot`` and ``cost`` identify the committed subtask; the
        base server only needs the worker/slot pair, but the journal
        layer logs the full typed commit record before it is applied.
        """
        for layer in self.layers:
            layer.before_commit(consuming, worker_id, global_slot, local_slot, cost)
        self.registry.consume(worker_id, global_slot)
        for other in self._active:
            if other is consuming:
                continue
            if other.note_worker_consumed(worker_id, global_slot):
                self.counters.conflicts_detected += 1

    # ------------------------------------------------------------------
    # The layer seam (repro.runtime.layers; the journal layer lives in
    # repro.journal.layer)
    # ------------------------------------------------------------------
    def _consume_event(self, event: Event, metrics: StreamMetrics) -> None:
        """Apply one drained event through the layer seam.

        ``before_event`` runs first (log-before-apply; fault injection
        may raise here, leaving the event unapplied), then the event is
        applied, then ``after_event`` observes the applied state.
        """
        for layer in self.layers:
            layer.before_event(event, metrics)
        self._handle(event, metrics)
        for layer in self.layers:
            layer.after_event(event, metrics)

    def _on_epoch_end(self, metrics: StreamMetrics, now: float) -> None:
        """Called after each epoch's assignment rounds (snapshot seam)."""
        for layer in self.layers:
            layer.on_epoch_end(metrics, now)

    def _on_run_complete(self, metrics: StreamMetrics) -> None:
        """Called once the trace is drained and realized (final
        snapshot seam)."""
        for layer in self.layers:
            layer.on_run_complete(metrics)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, events) -> StreamMetrics:
        """Drain an event trace to completion and return the metrics.

        One-shot: the server accumulates registry, clock, and session
        state; create a fresh server per trace.  Recomposed from the
        stepping API (:meth:`begin` / :meth:`pending_work` /
        :meth:`step_epoch` / :meth:`finish`) so external drivers — the
        elastic lockstep loop in :mod:`repro.elastic` — can interleave
        epochs across many cores without changing what any single core
        computes.
        """
        self.begin(events)
        while self.pending_work():
            self.step_epoch()
        return self.finish()

    def begin(self, events) -> StreamMetrics:
        """Arm the server with a trace; epochs then advance via
        :meth:`step_epoch`.

        One-shot like :meth:`run` (they share the ``_ran`` latch).
        Returns the live metrics object.
        """
        if self._ran:
            raise SchedulingError(
                "StreamingTCSCServer.run is one-shot; create a new server per trace"
            )
        self._ran = True
        self._queue = events if isinstance(events, EventQueue) else EventQueue(events)
        if self._metrics is None:
            self._metrics = StreamMetrics(counters=self.counters)
        self._epochs_stepped = 0
        return self._metrics

    def pending_work(self) -> bool:
        """True while the trace, admission queue, or active sessions
        still have work — the :meth:`run` loop condition."""
        return bool(self._queue or self._pending or self._active)

    def next_boundary(self) -> float:
        """The virtual time the next :meth:`step_epoch` will settle at.

        Side-effect free.  Replicates the idle fast-forward: with no
        active or pending sessions the next boundary jumps to the epoch
        containing the next queued event instead of spinning through
        empty rounds.  All boundaries lie on the ``epoch_length`` grid,
        which is what lets the elastic driver run many cores in
        lockstep on a shared grid.
        """
        next_epoch = self.clock.now + self.epoch_length
        if not self._active and not self._pending:
            upcoming = self._queue.peek_time() if self._queue is not None else None
            if upcoming is not None and upcoming >= next_epoch:
                skip = math.floor(upcoming / self.epoch_length) + 1
                next_epoch = skip * self.epoch_length
        return next_epoch

    def step_epoch(self) -> float:
        """Advance exactly one epoch: drain events due by the boundary,
        age sessions, admit, and run the assignment rounds.

        Returns the settled boundary time (``clock.now`` after the
        step).  Byte-for-byte the former :meth:`run` loop body.
        """
        metrics = self._metrics
        queue = self._queue
        self._epochs_stepped += 1
        if self._epochs_stepped > _MAX_EPOCHS:
            raise SchedulingError("streaming run exceeded the epoch safety cap")
        next_epoch = self.next_boundary()
        for event in queue.pop_until(next_epoch):
            self._consume_event(event, metrics)
        now = self.clock.advance_to(next_epoch)
        metrics.epochs += 1

        for session in self._active:
            session.on_epoch(now)
        still_active: list[TaskSession] = []
        for session in self._active:
            if session.expired or session.exhausted:
                self._finalize(session, metrics)
            else:
                still_active.append(session)
        self._active = still_active

        while self._pending and len(self._active) < self.max_active_tasks:
            self._admit(self._pending.pop(0), metrics)

        degradation = self.degradation
        directive = None if degradation is None else degradation.directive()
        if directive is not None and directive.level == 0:
            directive = None
        op_budget = self.op_epoch_budget
        op_start = (
            self.counters.virtual_cost() if op_budget is not None else 0.0
        )
        prof = self.profiler
        for session in list(self._active):
            if (
                op_budget is not None
                and self.counters.virtual_cost() - op_start > op_budget
            ):
                # Injected slowdown: this epoch's op budget is
                # spent; remaining sessions wait for the next
                # epoch.  Op counts, never wall clock, so the
                # throttled run stays deterministic.
                break
            callback = (
                lambda wid, gslot, slot, cost, s=session: self._commit(
                    s, wid, gslot, slot, cost
                )
            )
            if prof is None:
                session.step(now, self.pool, callback, directive=directive)
            else:
                # Same work, phase-attributed: index repair happens
                # in prepare_index (exactly where step would run
                # it), the greedy solve in step itself.  A top-c
                # directive bypasses the index entirely, so nothing
                # is repaired for it.
                skip_index = directive is not None and directive.top_c is not None
                with prof.phase(
                    "index-repair", emit=False,
                ):
                    index = None if skip_index else session.prepare_index()
                with prof.phase(
                    "solve", task_id=session.task.task_id, now=now
                ) as span:
                    span["executed"] = session.step(
                        now, self.pool, callback, index=index,
                        directive=directive,
                    )
        metrics.queue_depth_samples.append((now, len(self._pending)))
        self._on_epoch_end(metrics, now)
        return now

    def finish(self) -> StreamMetrics:
        """Realize the committed plan and fire the final layer seam.

        The tail of :meth:`run`, split out so external drivers call it
        once every core's :meth:`pending_work` is drained.
        """
        metrics = self._metrics
        self._realize(metrics)
        self._on_run_complete(metrics)
        return metrics

    # ------------------------------------------------------------------
    # Realization
    # ------------------------------------------------------------------
    def assignment(self) -> Assignment:
        """The combined plan of every finished session."""
        combined = Assignment()
        for session in self._finished:
            for record in session.records:
                combined.add(record)
        return combined

    def _realize(self, metrics: StreamMetrics) -> None:
        """Close the loop: sample execution of the committed plan."""
        if not self._finished:
            return
        tasks = TaskSet([session.task for session in self._finished])
        pool = WorkerPool(list(self._workers_seen.values()))
        outcome = simulate_execution(
            tasks,
            pool,
            self.assignment(),
            k=self.k,
            seed=self.realization_seed,
        )
        metrics.realized_quality.update(outcome.qualities)
