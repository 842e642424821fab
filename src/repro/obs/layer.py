"""The telemetry bundle and its serving-layer attachment.

:class:`Telemetry` owns one run's observability state — a
:class:`~repro.obs.trace.TraceRecorder`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and one
:class:`~repro.obs.profile.PhaseProfiler` per shard scope — and hands
the factory the pieces it composes:

* :meth:`Telemetry.layers` — the per-shard
  :class:`TelemetryLayer` tuple for a streaming core's ``layers=``;
* :meth:`Telemetry.journal_wrap` — a wrapper that dresses the shard's
  :class:`~repro.journal.layer.JournalLayer` in a
  :class:`~repro.obs.profile.ProfiledLayer` so durability cost lands
  in the ``journal`` phase;
* :meth:`Telemetry.profiler` — the profiler the plain serving round
  threads into ``assign(profiler=...)``.

Layer ordering matters: the journal layer comes first (log-before-
apply is its contract), telemetry second, so an injected crash in
``before_event`` leaves the trace without a dangling record for the
never-applied event.

All shards share one recorder; the sharded drain is serial, so the
record interleaving is deterministic and a single trace file tells the
whole deployment's story with per-record ``scope`` stamps.
"""

from __future__ import annotations

import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler, ProfiledLayer
from repro.obs.trace import TraceRecorder
from repro.runtime.layers import ServingLayer
from repro.stream.events import (
    BudgetRefresh,
    TaskArrival,
    WorkerJoin,
    WorkerLeave,
)

__all__ = ["Telemetry", "TelemetryLayer"]


def _event_summary(event) -> dict:
    """Compact, JSON-native identification of one input event."""
    if isinstance(event, TaskArrival):
        return {
            "event": "arrival",
            "time": event.time,
            "task_id": event.task.task_id,
            "slots": event.task.num_slots,
            "budget": event.budget,
        }
    if isinstance(event, WorkerJoin):
        return {
            "event": "join",
            "time": event.time,
            "worker_id": event.worker.worker_id,
        }
    if isinstance(event, WorkerLeave):
        return {"event": "leave", "time": event.time, "worker_id": event.worker_id}
    if isinstance(event, BudgetRefresh):
        return {"event": "refresh", "time": event.time, "amount": event.amount}
    return {"event": type(event).__name__}


class TelemetryLayer(ServingLayer):
    """Observe a streaming core at every seam hook.

    Emits typed trace records (event apply, commit, finalize, epoch,
    snapshot, run completion) and feeds the metrics registry; at bind
    time it also hands the core its phase profiler (the server's step
    loop opens ``index-repair``/``solve`` spans itself) and locates an
    attached journal layer so WAL append/snapshot counts surface as
    metrics.

    Observation only: the layer never touches solver state, sessions,
    or op counters — every ``bench matrix`` cell hard-asserts a
    telemetered run is byte-identical to a bare one.
    """

    def __init__(self, *, recorder=None, registry=None, profiler=None,
                 scope: str | None = None):
        self.recorder = recorder
        self.registry = registry
        self.profiler = profiler
        self.scope = scope
        self._server = None
        self._journal = None
        self._event_start = 0.0
        self._rejected_before = 0
        self._epoch_start = time.perf_counter()
        self._appends_seen = 0
        self._snapshots_seen = 0

    # -- plumbing ------------------------------------------------------
    def _name(self, name: str) -> str:
        return name if self.scope is None else f"{self.scope}/{name}"

    def _record(self, record_type: str, *, timing: dict | None = None,
                **payload) -> None:
        if self.recorder is None:
            return
        if self.scope is not None:
            payload["scope"] = self.scope
        if timing is not None:
            payload["timing"] = timing
        self.recorder.record(record_type, **payload)

    def bind(self, server) -> None:
        self._server = server
        self._epoch_start = time.perf_counter()
        if self.profiler is not None:
            self.profiler.bind_counters(server.counters)
            server.profiler = self.profiler
        from repro.journal.layer import JournalLayer

        for layer in server.layers:
            inner = getattr(layer, "inner", layer)
            if isinstance(inner, JournalLayer):
                self._journal = inner
                break

    # -- event seam ----------------------------------------------------
    def before_event(self, event, metrics) -> None:
        self._event_start = time.perf_counter()
        self._rejected_before = metrics.tasks_rejected

    def after_event(self, event, metrics) -> None:
        wall = time.perf_counter() - self._event_start
        summary = _event_summary(event)
        if isinstance(event, TaskArrival):
            admission = (
                "rejected"
                if metrics.tasks_rejected > self._rejected_before
                else "queued"
            )
            summary["admission"] = admission
        if self.registry is not None:
            self.registry.counter(
                self._name(f"events/{summary['event']}")
            ).inc()
            self.registry.histogram(
                self._name("event_apply_ms"), timing=True
            ).observe(wall * 1000.0)
            if isinstance(event, TaskArrival):
                self.registry.counter(
                    self._name(f"admission/{summary['admission']}")
                ).inc()
        causal = (
            f"task/{event.task.task_id}"
            if isinstance(event, TaskArrival)
            else "churn"
        )
        self._record("event", causal=causal, timing={"wall_s": wall}, **summary)

    # -- assignment seam -----------------------------------------------
    def before_commit(self, session, worker_id, gslot, slot, cost) -> None:
        if self.registry is not None:
            self.registry.counter(self._name("commits")).inc()
        self._record(
            "commit",
            causal=f"task/{session.task.task_id}",
            task_id=session.task.task_id,
            slot=slot,
            worker_id=worker_id,
            gslot=gslot,
            cost=cost,
        )

    def before_finalize(self, session, metrics) -> None:
        starved = session.first_assign_time is None
        latency = (
            None if starved
            else session.first_assign_time - session.arrival_time
        )
        if self.registry is not None:
            self.registry.counter(self._name("tasks/finalized")).inc()
            if starved:
                self.registry.counter(self._name("tasks/starved")).inc()
            else:
                # Virtual-time latency: deterministic, so this
                # histogram's percentiles are exact run properties.
                self.registry.histogram(
                    self._name("latency_slots")
                ).observe(latency)
        self._record(
            "finalize",
            causal=f"task/{session.task.task_id}",
            task_id=session.task.task_id,
            quality=session.quality,
            spent=session.budget.spent,
            executed=len(session.records),
            latency=latency,
        )

    # -- epoch / run seam ----------------------------------------------
    def _journal_accounting(self) -> None:
        journal_layer = self._journal
        if journal_layer is None:
            return
        journal = journal_layer.journal
        appends = journal.wal.records_appended
        if self.registry is not None and appends > self._appends_seen:
            # With sync=True every append fsyncs, so this doubles as
            # the fsync count.
            self.registry.counter(self._name("journal/appends")).inc(
                appends - self._appends_seen
            )
        self._appends_seen = appends
        snapshots = journal.snapshots_written
        if snapshots > self._snapshots_seen:
            if self.registry is not None:
                self.registry.counter(self._name("journal/snapshots")).inc(
                    snapshots - self._snapshots_seen
                )
            self._record(
                "snapshot",
                causal="journal",
                snapshots=snapshots,
                wal_records=appends,
                wal_bytes=journal.wal.bytes_written,
            )
            self._snapshots_seen = snapshots

    def on_epoch_end(self, metrics, now) -> None:
        wall = time.perf_counter() - self._epoch_start
        self._epoch_start = time.perf_counter()
        depth = len(self._server._pending)
        active = len(self._server._active)
        if self.registry is not None:
            self.registry.histogram(self._name("queue_depth")).observe(depth)
            self.registry.gauge(self._name("active_sessions")).set(active)
            self.registry.histogram(
                self._name("epoch_wall_ms"), timing=True
            ).observe(wall * 1000.0)
        self._record(
            "epoch",
            causal=f"epoch/{metrics.epochs}",
            epoch=metrics.epochs,
            now=now,
            queue_depth=depth,
            active=active,
            timing={"wall_s": wall},
        )
        self._journal_accounting()

    def on_run_complete(self, metrics) -> None:
        # The journal layer (ordered first) already wrote its final
        # snapshot; account for it before closing the scope out.
        self._journal_accounting()
        self._record(
            "run-complete",
            causal="run",
            events=metrics.total_events,
            epochs=metrics.epochs,
            tasks_completed=metrics.tasks_completed,
            tasks_starved=metrics.tasks_starved,
            budget_spent=metrics.budget_spent,
        )


class Telemetry:
    """One run's observability bundle (see the module docstring)."""

    def __init__(self, *, trace_path=None, shards: int = 1, spec: dict | None = None):
        self.recorder = TraceRecorder(trace_path)
        self.registry = MetricsRegistry()
        self.trace_path = trace_path
        scopes = [None] if shards <= 1 else [f"shard-{i}" for i in range(shards)]
        self._profilers = [
            PhaseProfiler(recorder=self.recorder, registry=self.registry,
                          scope=scope)
            for scope in scopes
        ]
        self._layers = [
            TelemetryLayer(recorder=self.recorder, registry=self.registry,
                           profiler=profiler, scope=profiler.scope)
            for profiler in self._profilers
        ]
        self._finished = False
        if spec is not None:
            # Filesystem paths are environment, not behaviour: two runs
            # of the same spec pointed at different journal/trace
            # directories must still produce identical masked traces,
            # so the open record keeps only path *presence*.
            spec = {
                key: ("<path>" if key in ("journal", "trace_out")
                      and value is not None else value)
                for key, value in spec.items()
            }
            self.recorder.record("open", causal="run", format=1, spec=spec)

    # -- composition seams ---------------------------------------------
    def profiler(self, shard: int = 0) -> PhaseProfiler:
        """The phase profiler of one shard scope (0 when unsharded)."""
        return self._profilers[shard]

    def layers(self, shard: int = 0) -> tuple:
        """The ``layers=`` tuple entry for one shard's core."""
        return (self._layers[shard],)

    def journal_wrap(self, shard: int = 0):
        """A wrapper attributing a journal layer's hooks to the
        ``journal`` phase of this shard's profiler."""
        profiler = self._profilers[shard]
        return lambda layer: ProfiledLayer(layer, profiler, phase="journal")

    def record_shard_stats(self, stats: dict) -> None:
        """Publish a partition-shape summary (the stable dict of
        :meth:`~repro.shard.streaming.ShardedStreamMetrics.shard_stats`
        or :meth:`~repro.shard.partitioner.ShardMap.stats`) as
        per-shard gauges plus one ``shard-stats`` trace record."""
        for shard, owned in enumerate(stats.get("tasks_per_shard", ())):
            self.registry.gauge(f"shard/{shard}/owned_tasks").set(owned)
        for shard, halo in enumerate(stats.get("halo_workers_per_shard", ())):
            self.registry.gauge(f"shard/{shard}/halo_workers").set(halo)
        if "halo_replication_factor" in stats:
            self.registry.gauge("shard/replication_factor").set(
                stats["halo_replication_factor"]
            )
        self.recorder.record("shard-stats", causal="run", **stats)

    # -- lifecycle ------------------------------------------------------
    def finish(self) -> None:
        """Emit the per-scope phase summaries and the record tally,
        then close the trace file (idempotent)."""
        if self._finished:
            return
        self._finished = True
        for profiler in self._profilers:
            if not profiler.stats:
                continue
            phases, timing = profiler.summary()
            payload = {"phases": phases}
            if profiler.scope is not None:
                payload["scope"] = profiler.scope
            self.recorder.record(
                "phases", causal="run", timing={"wall_s": timing}, **payload
            )
        self.recorder.record(
            "trace-summary", causal="run", records=self.recorder.counts()
        )
        self.recorder.close()

    def abort(self) -> None:
        """Close the trace file without the summary records (idempotent).

        The error-path counterpart of :meth:`finish`: a run that raises
        mid-stream must still leave a flushed, parseable trace prefix —
        every record already written is on disk (the recorder writes
        through), so all that remains is releasing the file handle.
        Summary records are deliberately withheld: a ``trace-summary``
        on a partial trace would claim a completeness the run never
        reached.
        """
        if self._finished:
            return
        self._finished = True
        self.recorder.close()

    def report(self) -> str:
        """The operator-facing telemetry summary the CLI appends."""
        lines = ["telemetry report", "----------------"]
        for profiler in self._profilers:
            if not profiler.stats:
                continue
            scope = "" if profiler.scope is None else f" [{profiler.scope}]"
            lines.append(f"phases{scope}:")
            lines.extend(f"  {row}" for row in profiler.report_lines())
        if len(self.registry):
            lines.append("metrics:")
            lines.extend(f"  {row}" for row in self.registry.render_lines())
        if self.trace_path is not None:
            lines.append(
                f"trace     {self.recorder.next_seq} records -> {self.trace_path}"
            )
        else:
            lines.append(
                f"trace     {self.recorder.next_seq} records (in memory; "
                "--trace-out PATH writes JSONL)"
            )
        return "\n".join(lines)
