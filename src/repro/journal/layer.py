"""Durability as a composable layer: log-before-apply at the seam.

PR 4 implemented journaling as a :class:`StreamingTCSCServer`
*subclass*; this module re-expresses it as a
:class:`~repro.runtime.layers.ServingLayer` so durability composes
with any other capability through
:func:`repro.runtime.build_runtime` instead of requiring one class
per pairing.  The semantics are unchanged — every record type, the
log-before-apply ordering, replay verification, snapshot cadence, and
fault injection are byte-for-byte the PR-4 behaviour (the equivalence
matrix and the journal suite hard-assert it) — only the attachment
mechanism moved from inheritance to composition.

Construction helpers:

* :func:`journaled_server` — a fresh streaming core with a bound
  :class:`JournalLayer` (writes the journal's ``open`` header).
* :func:`recover_server` — rebuild core + layer from a journal
  directory (latest snapshot + armed replay cursor).
* :func:`journal_layer` — fetch the journal layer off a layered
  server (the sharded deployment and the CLI use it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    ConfigurationError,
    JournalCorruptionError,
    JournalReplayError,
    TCSCError,
)
from repro.geo.bbox import BoundingBox
from repro.journal.snapshot import restore_server_state, server_state
from repro.journal.wal import Journal, decode_event, encode_event
from repro.runtime.layers import ServingLayer
from repro.stream.events import Event, EventQueue
from repro.stream.metrics import StreamMetrics
from repro.stream.online_server import StreamingTCSCServer

__all__ = [
    "CrashBudget",
    "InjectedCrash",
    "JournalLayer",
    "RecoveryInfo",
    "journal_layer",
    "journaled_server",
    "recover_server",
    "stream_server_config",
]


class InjectedCrash(TCSCError):
    """The fault-injection harness killed the run (not a real failure)."""


class CrashBudget:
    """Countdown of event boundaries until an injected crash.

    ``phase="apply"`` crashes after ``after`` events are logged *and*
    applied; ``"append"`` crashes right after the ``after``-th event's
    record hits the log, before it is applied.  One budget may be
    shared by several servers (the sharded harness), in which case the
    boundaries are counted across all of them in their serial run
    order.
    """

    __slots__ = ("after", "phase", "seen")

    def __init__(self, after: int, phase: str = "apply"):
        if after < 0:
            raise ConfigurationError(f"crash budget must be >= 0, got {after}")
        if phase not in ("apply", "append"):
            raise ConfigurationError(f"unknown crash phase {phase!r}")
        self.after = after
        self.phase = phase
        self.seen = 0

    @classmethod
    def coerce(
        cls, value: "int | CrashBudget | None", phase: str
    ) -> "CrashBudget | None":
        """Normalize the ``crash_after_events`` constructor argument."""
        if value is None or isinstance(value, CrashBudget):
            return value
        return cls(value, phase)


@dataclass(frozen=True, slots=True)
class RecoveryInfo:
    """What one recovery (:func:`recover_server`) did."""

    snapshot_loaded: bool
    #: Input events subsumed by the snapshot (not replayed).
    events_restored: int
    #: Input events re-consumed from the log suffix.
    events_replayed: int
    #: Total log records scanned (checksummed) during recovery.
    records_scanned: int
    #: Whether a torn tail was chopped off the log.
    wal_truncated: bool


def stream_server_config(
    bbox: BoundingBox, snapshot_every: int, server_kwargs: dict
) -> dict:
    """The journal ``open``-header config: everything recovery needs
    to rebuild the core server.  New base-server knobs need no
    bookkeeping here — unspecified kwargs default identically on the
    original and the recovered run."""
    return {
        "bbox": [bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y],
        "snapshot_every": snapshot_every,
        "server_kwargs": dict(server_kwargs),
    }


#: The ``state`` fields :meth:`JournalLayer._write_snapshot` writes.
_SNAPSHOT_STATE_KEYS = frozenset({
    "clock", "pool", "workers", "departed", "consumed", "pending", "active",
    "finished", "counters", "metrics", "events_consumed", "final",
})


def _is_int(value) -> bool:
    return type(value) is int  # not bool, not float


def _is_id_list(value) -> bool:
    return type(value) is list and all(map(_is_int, value))


def _is_consumed(value) -> bool:
    """``[[global_slot, [worker_id, ...]], ...]``, as ``server_state`` writes."""
    return type(value) is list and all(
        type(pair) is list and len(pair) == 2
        and _is_int(pair[0]) and _is_id_list(pair[1])
        for pair in value
    )


class JournalLayer(ServingLayer):
    """Write-ahead journaling attached at the serving seam.

    Every state transition of the bound core is wrapped in a typed
    record — input events before they are applied, slot commits before
    the worker is consumed, pool charges, finalizations, and epoch
    markers — and a full :mod:`~repro.journal.snapshot` is persisted
    every ``snapshot_every`` epochs (``0`` disables periodic
    snapshots; a final one is still written when the run completes).

    Recovery is *redo-based*: load the newest intact snapshot, then
    re-consume the log's event suffix through the ordinary run loop.
    While the replay cursor is non-empty the layer does not re-append
    records; each record it *would* write is verified against the
    journaled one, so any divergence (edited log, changed code or
    configuration) surfaces as a
    :class:`~repro.errors.JournalReplayError` instead of silently
    forking history.  Once the cursor drains, appending resumes
    seamlessly and the run continues into un-journaled territory.

    Fault injection: ``crash_after_events=K`` raises
    :class:`InjectedCrash` at the K-th event boundary —
    ``crash_phase="apply"`` crashes with K events fully applied,
    ``"append"`` with the K-th event journaled but never applied (the
    torn write recovery must tolerate).  A shared :class:`CrashBudget`
    lets the sharded deployment count boundaries across shards.
    """

    def __init__(
        self,
        journal: str | Path | Journal,
        *,
        snapshot_every: int = 4,
        sync: bool = False,
        crash_after_events: int | CrashBudget | None = None,
        crash_phase: str = "apply",
    ):
        if snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.journal = (
            journal if isinstance(journal, Journal) else Journal(journal, sync=sync)
        )
        self.snapshot_every = snapshot_every
        self._crash = CrashBudget.coerce(crash_after_events, crash_phase)
        self._server: StreamingTCSCServer | None = None
        self._events_consumed = 0
        self._replay: deque[dict] = deque()
        self._replay_events: list[Event] = []
        self._wal_events: list[Event] = []
        self._pending_recovery: tuple[list[dict], bool] | None = None
        self.recovery: RecoveryInfo | None = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def bind(self, server) -> None:
        self._server = server

    def open(self, config: dict) -> None:
        """Write the journal's ``open`` header (fresh runs only)."""
        self.journal.create(config)

    # ------------------------------------------------------------------
    # Record emission: append, or verify while replaying
    # ------------------------------------------------------------------
    def _emit(self, record_type: str, **payload) -> None:
        if self._replay:
            expected = self._replay.popleft()
            actual = self.journal.make_record(record_type, **payload)
            if actual != expected:
                raise JournalReplayError(
                    f"replay diverged from the journal at seq "
                    f"{expected.get('seq')}: regenerated {actual!r} but the "
                    f"log holds {expected!r}"
                )
            return
        self.journal.append(record_type, **payload)

    # ------------------------------------------------------------------
    # Journaled transitions (the seam hooks)
    # ------------------------------------------------------------------
    def before_event(self, event: Event, metrics: StreamMetrics) -> None:
        crash = self._crash
        if crash is not None and crash.phase == "apply" and crash.seen >= crash.after:
            raise InjectedCrash(
                f"injected crash: {crash.seen} events applied (boundary "
                f"{crash.after})"
            )
        self._emit("event", event=encode_event(event))
        if crash is not None:
            crash.seen += 1
            if crash.phase == "append" and crash.seen >= crash.after:
                raise InjectedCrash(
                    f"injected crash: event {crash.seen} journaled but not applied"
                )

    def after_event(self, event: Event, metrics: StreamMetrics) -> None:
        self._events_consumed += 1

    def before_commit(self, session, worker_id, gslot, slot, cost) -> None:
        self._emit(
            "commit",
            task_id=session.task.task_id,
            slot=slot,
            worker_id=worker_id,
            gslot=gslot,
            cost=cost,
        )
        pool = self._server.pool
        if pool is not None:
            # The session already drew the charge; this is the audit
            # record replay cross-checks.
            self._emit("charge", amount=cost, remaining=pool.remaining)

    def before_finalize(self, session, metrics: StreamMetrics) -> None:
        self._emit(
            "finalize",
            task_id=session.task.task_id,
            quality=session.quality,
            spent=session.budget.spent,
        )

    def on_epoch_end(self, metrics: StreamMetrics, now: float) -> None:
        self._emit("epoch", epoch=metrics.epochs, now=now)
        if self._replay:
            # Pre-crash epochs: their snapshots are already on disk.
            return
        if self.snapshot_every and metrics.epochs % self.snapshot_every == 0:
            self._write_snapshot(final=False)

    def on_run_complete(self, metrics: StreamMetrics) -> None:
        if self._replay:
            raise JournalReplayError(
                f"replay finished with {len(self._replay)} journaled records "
                "never regenerated — the resumed run ended early"
            )
        self._write_snapshot(final=True)

    def _write_snapshot(self, *, final: bool) -> None:
        state = server_state(self._server)
        state["events_consumed"] = self._events_consumed
        state["final"] = final
        self.journal.write_snapshot(state)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def begin_recovery(
        cls,
        journal: str | Path | Journal,
        *,
        sync: bool = False,
        snapshot_every: int | None = None,
        crash_after_events: int | CrashBudget | None = None,
        crash_phase: str = "apply",
    ) -> tuple["JournalLayer", dict]:
        """Scan a journal and build the layer (config from the header).

        Returns ``(layer, config)``; the caller constructs the core
        server from ``config`` with the layer attached, then calls
        :meth:`finish_recovery`.  ``snapshot_every=None`` keeps the
        interrupted run's cadence.
        """
        journal = (
            journal if isinstance(journal, Journal) else Journal(journal, sync=sync)
        )
        records, truncated = journal.open_for_resume()
        config = records[0]["config"]
        layer = cls(
            journal,
            snapshot_every=config["snapshot_every"]
            if snapshot_every is None
            else snapshot_every,
            sync=sync,
            crash_after_events=crash_after_events,
            crash_phase=crash_phase,
        )
        layer._pending_recovery = (records, truncated)
        return layer, config

    def finish_recovery(self) -> RecoveryInfo:
        """Restore the bound server's snapshot and arm the replay cursor."""
        records, truncated = self._pending_recovery
        self._pending_recovery = None
        journal = self.journal
        snapshot = journal.latest_snapshot()
        if snapshot is not None:
            self._restore_snapshot(snapshot)
            cursor = [r for r in records[1:] if r["seq"] > snapshot["wal_seq"]]
        else:
            cursor = records[1:]
        # Regenerated records must reproduce the journaled sequence
        # numbers during replay verification.  With an empty cursor the
        # log's own tail may sit *below* the snapshot's wal_seq (a
        # compacted log holds just the open header): new appends must
        # still advance past everything the snapshot covers, or a later
        # recovery would filter them out of its replay cursor.
        if cursor:
            journal.next_seq = cursor[0]["seq"]
        else:
            covered = -1 if snapshot is None else snapshot["wal_seq"]
            journal.next_seq = max(records[-1]["seq"], covered) + 1
        self._replay = deque(cursor)
        self._replay_events = [
            decode_event(r["event"]) for r in cursor if r["type"] == "event"
        ]
        # Every event still in the log (a superset of the cursor's when
        # a snapshot exists but the log was not compacted): the trace
        # cross-check in resume_with_trace validates against these.
        self._wal_events = [
            decode_event(r["event"]) for r in records[1:] if r["type"] == "event"
        ]
        self.recovery = RecoveryInfo(
            snapshot_loaded=snapshot is not None,
            events_restored=self._events_consumed,
            events_replayed=len(self._replay_events),
            records_scanned=len(records),
            wal_truncated=truncated,
        )
        return self.recovery

    def _restore_snapshot(self, snapshot: dict) -> None:
        """Restore the bound server from a snapshot payload.

        A valid CRC only proves the bytes are the ones written, not
        that they hold a snapshot: a malformed payload is
        :class:`~repro.errors.JournalCorruptionError`, never a raw
        ``KeyError`` from deep inside the codec.
        """
        where = f"{self.journal.root}: snapshot"
        state = snapshot["state"]
        if type(state) is not dict:
            raise JournalCorruptionError(
                f"{where} state is a {type(state).__name__}, not an object"
            )
        if state.keys() != _SNAPSHOT_STATE_KEYS:
            raise JournalCorruptionError(
                f"{where} state: missing "
                f"{sorted(_SNAPSHOT_STATE_KEYS - state.keys())}, unexpected "
                f"{sorted(state.keys() - _SNAPSHOT_STATE_KEYS)}"
            )
        for name, value, valid in (
            ("wal_seq", snapshot["wal_seq"], _is_int),
            ("events_consumed", state["events_consumed"], _is_int),
            ("departed", state["departed"], _is_id_list),
            ("consumed", state["consumed"], _is_consumed),
        ):
            if not valid(value):
                raise JournalCorruptionError(f"{where}: {name}={value!r:.80}")
        try:
            restore_server_state(self._server, state)
        except (
            AttributeError, KeyError, TypeError, ValueError, ConfigurationError
        ) as exc:
            raise JournalCorruptionError(
                f"{where} does not restore: {type(exc).__name__}: {exc}"
            ) from exc
        self._events_consumed = state["events_consumed"]

    @property
    def replayed_event_count(self) -> int:
        """Input events the journal accounts for (snapshot + suffix):
        exactly how many pops of the original trace to skip on resume."""
        return self._events_consumed + len(self._replay_events)

    def resume(self, remaining_events) -> StreamMetrics:
        """Continue the recovered run on the bound core.

        ``remaining_events`` are the trace events *beyond*
        :attr:`replayed_event_count`; the journaled suffix is replayed
        first, then the run proceeds live.
        """
        return self._server.run(list(self._replay_events) + list(remaining_events))

    def resume_with_trace(self, events) -> StreamMetrics:
        """:meth:`resume`, deriving the remainder from the full trace.

        The first :attr:`replayed_event_count` queue pops of ``events``
        are already covered by the journal (the queue's deterministic
        total order makes "first N pops" well-defined); everything
        after them is the live remainder.  The skipped pops are
        cross-checked against the events the log still holds, so a
        trace regenerated from *different* workload parameters raises
        :class:`~repro.errors.JournalReplayError` instead of silently
        splicing two histories together.
        """
        queue = events if isinstance(events, EventQueue) else EventQueue(events)
        skipped: list[Event] = []
        for _ in range(self.replayed_event_count):
            event = queue.pop()
            if event is None:
                raise JournalReplayError(
                    f"the supplied trace holds fewer events than the journal "
                    f"accounts for ({self.replayed_event_count}) — resumed "
                    "with different workload parameters?"
                )
            skipped.append(event)
        # Compaction may have dropped the oldest events; verify the
        # overlap that survives (everything, in the common case).
        logged = self._wal_events
        overlap = min(len(skipped), len(logged))
        for trace_event, logged_event in zip(skipped[-overlap:], logged[-overlap:]):
            if encode_event(trace_event) != encode_event(logged_event):
                raise JournalReplayError(
                    f"the supplied trace diverges from the journaled events "
                    f"(first mismatch at t={trace_event.time:g}) — resumed "
                    "with different workload parameters?"
                )
        remaining = []
        while True:
            event = queue.pop()
            if event is None:
                break
            remaining.append(event)
        return self.resume(remaining)


# ----------------------------------------------------------------------
# Construction helpers (what the factory builds on)
# ----------------------------------------------------------------------
def journal_layer(server) -> JournalLayer:
    """The journal layer attached to ``server`` (typed lookup).

    Sees through one wrapper level (``.inner``): telemetry dresses the
    journal layer in a :class:`~repro.obs.profile.ProfiledLayer` to
    attribute its hook cost, and the layer keeps working by name.
    """
    for layer in getattr(server, "layers", ()):
        inner = getattr(layer, "inner", layer)
        if isinstance(inner, JournalLayer):
            return inner
    raise ConfigurationError(
        f"{type(server).__name__} has no JournalLayer attached"
    )


def journaled_server(
    bbox: BoundingBox,
    *,
    journal: str | Path | Journal,
    snapshot_every: int = 4,
    sync: bool = False,
    crash_after_events: int | CrashBudget | None = None,
    crash_phase: str = "apply",
    server_cls=StreamingTCSCServer,
    wrap_layer=None,
    extra_layers=(),
    **server_kwargs,
) -> StreamingTCSCServer:
    """A fresh streaming core with a bound journal layer.

    ``wrap_layer`` dresses the journal layer before attachment (the
    telemetry runtime wraps it in a profiling layer); ``extra_layers``
    attach *after* it, preserving log-before-apply ordering.  Neither
    is persisted: the journal header records only ``server_kwargs``, so
    a recovered run composes its own observability.
    """
    layer = JournalLayer(
        journal,
        snapshot_every=snapshot_every,
        sync=sync,
        crash_after_events=crash_after_events,
        crash_phase=crash_phase,
    )
    attached = layer if wrap_layer is None else wrap_layer(layer)
    server = server_cls(bbox, layers=(attached, *extra_layers), **server_kwargs)
    layer.open(stream_server_config(bbox, snapshot_every, server_kwargs))
    return server


def recover_server(
    journal: str | Path | Journal,
    *,
    sync: bool = False,
    snapshot_every: int | None = None,
    crash_after_events: int | CrashBudget | None = None,
    crash_phase: str = "apply",
    server_cls=StreamingTCSCServer,
) -> StreamingTCSCServer:
    """Rebuild a journaled streaming core from its journal directory.

    The journal's ``open`` header supplies the configuration, so
    recovery needs nothing but the directory.  The returned server has
    its :class:`JournalLayer` armed; drive it with
    ``journal_layer(server).resume_with_trace(events)``.
    """
    layer, config = JournalLayer.begin_recovery(
        journal,
        sync=sync,
        snapshot_every=snapshot_every,
        crash_after_events=crash_after_events,
        crash_phase=crash_phase,
    )
    server = server_cls(
        BoundingBox(*config["bbox"]), layers=(layer,), **config["server_kwargs"]
    )
    layer.finish_recovery()
    return server
