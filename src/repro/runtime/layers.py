"""The layer seam: how capabilities compose onto a serving core.

PR 4 taught :class:`~repro.stream.online_server.StreamingTCSCServer`
five hook points — event consumption, slot commits, session
finalization, epoch boundaries, and run completion.  This module
turns those hooks into a *seam*: a serving core owns an ordered tuple
of :class:`ServingLayer` objects and dispatches every hook through
them, so a capability (durability today; replication, admission
shaping, tracing tomorrow) is an object you *attach* rather than a
subclass you *write*.  The capability lattice that took one class per
pairing (journal x sharded needed its own class in PR 4) collapses to
spec fields resolved by :func:`repro.runtime.build_runtime`.

Hook contract (all optional; the base class is a no-op):

* ``bind(server)`` — called once when the core adopts the layer.
* ``before_event(event, metrics)`` — before an event is applied.  A
  layer may raise here (journal fault injection does) and the event is
  then neither applied nor counted.
* ``after_event(event, metrics)`` — after the event was applied.
* ``before_commit(session, worker_id, gslot, slot, cost)`` — before a
  committed subtask consumes its worker (log-before-apply seam).
* ``before_finalize(session, metrics)`` — before a session retires.
* ``on_epoch_end(metrics, now)`` — after an epoch's assignment rounds.
* ``on_run_complete(metrics)`` — once the trace is drained and
  realized.

Determinism: layers must not perturb solver state or op counters —
the equivalence matrix (``python -m repro matrix``) hard-asserts that
a layered run's ``plan_signature()``, ``StreamMetrics``, and
``OpCounters`` are byte-identical to the bare core's.
"""

from __future__ import annotations

__all__ = ["ServingLayer"]


class ServingLayer:
    """Base class for composable serving capabilities (all no-ops)."""

    def bind(self, server) -> None:
        """Adopt the core server this layer is attached to."""

    def before_event(self, event, metrics) -> None:
        """Called before one drained event is applied."""

    def after_event(self, event, metrics) -> None:
        """Called after one drained event was applied."""

    def before_commit(self, session, worker_id, gslot, slot, cost) -> None:
        """Called before a committed subtask consumes its worker."""

    def before_finalize(self, session, metrics) -> None:
        """Called before a finished session retires."""

    def on_epoch_end(self, metrics, now) -> None:
        """Called after each epoch's assignment rounds."""

    def on_run_complete(self, metrics) -> None:
        """Called once the trace is drained and realized."""

