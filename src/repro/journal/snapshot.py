"""Exact state codec for streaming servers.

A snapshot must let a recovered server *continue* producing the same
byte-identical ``plan_signature()``, ``StreamMetrics``, and
``OpCounters`` as the uninterrupted run.  That is a stronger contract
than "logically equal": future operation counts depend on microscopic
state — which offers sit in a session's cost cache, whether its tree
index exists, every accumulated float.  The codec therefore restores
each component by the cheapest *bit-exact* route:

* **Floats** ride through JSON untouched (Python emits the shortest
  round-tripping repr), so accumulated quantities (budgets, pool
  balances, metric sums) are stored directly.
* **Quality evaluators and Voronoi diagrams** are rebuilt by
  *re-executing the recorded (slot, reliability) history in order* —
  every float is the result of the same operation sequence, hence
  bit-identical — against a scratch counter so restoration is not
  accounted as solver work.
* **Tree indexes** are copied verbatim (:meth:`TreeIndex.to_state`):
  their flat paint sums carry round-off *history* that a rebuild
  cannot reproduce.
* **Cost caches** are copied entry-for-entry: a cache hit vs miss is
  an observable op-count difference.
* **Registries** are rebuilt from the worker roster in original
  insertion order; per-slot spatial indexes re-materialize lazily
  (their queries are insertion-order-independent), with consumed
  workers re-removed eagerly since lazy construction only filters
  departures.

The server-level entry points are :func:`server_state` /
:func:`restore_server_state`; configuration (constructor arguments) is
journaled separately, in the journal's ``open`` header
(:func:`repro.journal.layer.stream_server_config`).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from repro.core.instrumentation import OpCounters
from repro.core.tree_index import TreeIndex
from repro.engine.costs import SlotOffer
from repro.engine.registry import WorkerRegistry
from repro.journal.wal import decode_event, encode_event
from repro.model.assignment import AssignmentRecord
from repro.model.task import Task
from repro.model.worker import Worker, WorkerPool
from repro.stream.clock import VirtualClock
from repro.stream.metrics import StreamMetrics
from repro.stream.session import TaskSession

__all__ = ["server_state", "restore_server_state"]

_METRIC_SCALARS = (
    "epochs",
    "tasks_arrived",
    "tasks_admitted",
    "tasks_rejected",
    "tasks_completed",
    "tasks_starved",
    "workers_joined",
    "workers_left",
    "budget_spent",
)


# ----------------------------------------------------------------------
# Counters and metrics
# ----------------------------------------------------------------------
def _counters_state(counters: OpCounters) -> dict:
    return {f.name: getattr(counters, f.name) for f in dataclass_fields(OpCounters)}

def _restore_counters(counters: OpCounters, state: dict) -> None:
    """In place, preserving object identity (sessions and metrics share
    the server's counter record)."""
    for f in dataclass_fields(OpCounters):
        setattr(counters, f.name, state[f.name])


def _metrics_state(metrics: StreamMetrics) -> dict:
    state = {name: getattr(metrics, name) for name in _METRIC_SCALARS}
    state["events_processed"] = dict(metrics.events_processed)
    state["queue_depth_samples"] = [[t, d] for t, d in metrics.queue_depth_samples]
    state["assignment_latencies"] = list(metrics.assignment_latencies)
    for name in ("promised_quality", "realized_quality", "coverage_cells"):
        state[name] = [[k, v] for k, v in getattr(metrics, name).items()]
    return state

def _restore_metrics(counters: OpCounters, state: dict) -> StreamMetrics:
    metrics = StreamMetrics(counters=counters)
    for name in _METRIC_SCALARS:
        setattr(metrics, name, state[name])
    metrics.events_processed = dict(state["events_processed"])
    metrics.queue_depth_samples = [(t, d) for t, d in state["queue_depth_samples"]]
    metrics.assignment_latencies = list(state["assignment_latencies"])
    for name in ("promised_quality", "realized_quality", "coverage_cells"):
        setattr(metrics, name, {k: v for k, v in state[name]})
    return metrics


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def _offer_state(offer: SlotOffer | None) -> list | None:
    if offer is None:
        return None
    return [offer.worker_id, offer.cost, offer.reliability]


def _session_state(session: TaskSession, registry: WorkerRegistry) -> dict:
    """Capture one live session.

    The execution history pairs each record's slot with the assigned
    worker's (static) reliability — exactly the arguments the original
    ``ev.execute`` calls received, in order.
    """
    return {
        "task": session.task.to_dict(),
        "arrival_time": session.arrival_time,
        "budget_limit": session.budget.limit,
        "budget_spent": session.budget.spent,
        "history": [
            [r.slot, registry.worker(r.worker_id).reliability]
            for r in session.records
        ],
        "records": [r.to_dict() for r in session.records],
        "first_assign_time": session.first_assign_time,
        "mask_hi": session.costs.mask_hi,
        "cache": [
            [slot, _offer_state(offer)]
            for slot, offer in sorted(session.provider._cache.items())
        ],
        "dirty": sorted(session._dirty),
        "index": None if session._index is None else session._index.to_state(),
    }


def _restore_session(state: dict, registry: WorkerRegistry, server) -> TaskSession:
    scratch = OpCounters()
    session = TaskSession(
        Task.from_dict(state["task"]),
        registry,
        k=server.k,
        ts=server.ts,
        budget=state["budget_limit"],
        arrival_time=state["arrival_time"],
        index_mode=server.index_mode,
        backend=server.backend,
        counters=scratch,
    )
    for slot, reliability in state["history"]:
        session.ev.execute(slot, reliability)
        session.voronoi.insert_site(slot)
    session.budget._spent = state["budget_spent"]
    session.records = [AssignmentRecord.from_dict(r) for r in state["records"]]
    session.first_assign_time = state["first_assign_time"]
    session.costs.mask_hi = state["mask_hi"]
    session.provider._cache = {
        slot: None if offer is None else SlotOffer(offer[0], offer[1], offer[2])
        for slot, offer in state["cache"]
    }
    session._dirty = set(state["dirty"])
    if state["index"] is not None:
        session._index = TreeIndex.from_state(
            session.ev, session.costs, state["index"], counters=scratch
        )
    # Restoration work stays on the scratch counter; future work must
    # land on the server's shared record.
    session.counters = server.counters
    session.ev.counters = server.counters
    session.provider.counters = server.counters
    if session._index is not None:
        session._index.counters = server.counters
    return session


class _FinishedSession:
    """Skeleton of a retired session — recovery only ever reads its
    task and committed records (for ``assignment()`` / realization)."""

    __slots__ = ("task", "records")

    def __init__(self, task: Task, records: list[AssignmentRecord]):
        self.task = task
        self.records = records


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
def server_state(server) -> dict:
    """Capture a :class:`StreamingTCSCServer` between epochs."""
    registry = server.registry
    return {
        "clock": server.clock.now,
        "pool": None
        if server.pool is None
        else {"remaining": server.pool.remaining, "refreshed": server.pool.refreshed},
        "workers": [w.to_dict() for w in server._workers_seen.values()],
        "departed": sorted(registry._departed),
        "consumed": [
            [gslot, sorted(ids)]
            for gslot, ids in sorted(registry._consumed.items())
            if ids
        ],
        "pending": [encode_event(e) for e in server._pending],
        "active": [_session_state(s, registry) for s in server._active],
        "finished": [
            {"task": s.task.to_dict(), "records": [r.to_dict() for r in s.records]}
            for s in server._finished
        ],
        "counters": _counters_state(server.counters),
        "metrics": _metrics_state(server._metrics)
        if server._metrics is not None
        else None,
    }


def restore_server_state(server, state: dict) -> None:
    """Rehydrate a freshly constructed server to the captured instant.

    The server must have been built with the same configuration the
    snapshot's run used; afterwards ``server.run(...)`` continues the
    interrupted trace exactly.
    """
    server.clock = VirtualClock(state["clock"])
    if state["pool"] is not None:
        server.pool._remaining = state["pool"]["remaining"]
        server.pool.refreshed = state["pool"]["refreshed"]

    workers = [Worker.from_dict(w) for w in state["workers"]]
    registry = WorkerRegistry(WorkerPool([]), server.bbox)
    for worker in workers:
        registry.add_worker(worker)
    registry._departed = set(state["departed"])
    for gslot, ids in state["consumed"]:
        # Lazy index construction only filters departed workers, so
        # consumed ones must be re-removed from a materialized index.
        index = registry._index_for(gslot)
        for worker_id in ids:
            if worker_id in index:
                index.remove(worker_id)
        registry._consumed[gslot] = set(ids)
    server.registry = registry
    server._workers_seen = {w.worker_id: w for w in workers}

    server._pending = [decode_event(e) for e in state["pending"]]
    server._active = [_restore_session(s, registry, server) for s in state["active"]]
    server._finished = [
        _FinishedSession(
            Task.from_dict(f["task"]),
            [AssignmentRecord.from_dict(r) for r in f["records"]],
        )
        for f in state["finished"]
    ]
    _restore_counters(server.counters, state["counters"])
    if state["metrics"] is not None:
        server._metrics = _restore_metrics(server.counters, state["metrics"])
    server._ran = False
