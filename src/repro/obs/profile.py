"""Phase profiling: wall time and OpCounters deltas per named phase.

The streaming loop's interesting cost structure is invisible in an
aggregate counter: how much of an epoch went to repairing session
tree indexes versus running the greedy solve, how expensive the
sharded round's reconciliation pass was, what the journal layer's
hooks cost.  :class:`PhaseProfiler` answers that with *named phases*
(``index-repair`` / ``solve`` / ``reconcile`` / ``journal``): each
phase span measures wall time and snapshots/diffs the relevant
:class:`~repro.core.instrumentation.OpCounters`, so every phase gets
both a human timing and a deterministic op-cost attribution.

Zero-overhead contract: a span only *reads* counters (snapshot +
diff); it never increments them, so a profiled run's op counts equal
the bare run's exactly.  Wall time is recorded but, per the repo's
determinism policy, never gated.

:class:`ProfiledLayer` wraps any other serving layer and attributes
its hook time to one phase — the factory wraps the journal layer so
durability's cost shows up as the ``journal`` phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.instrumentation import OpCounters
from repro.runtime.layers import ServingLayer

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "ProfiledLayer",
]


@dataclass(slots=True)
class PhaseStat:
    """Accumulated cost of one named phase."""

    calls: int = 0
    wall_s: float = 0.0
    ops: OpCounters = field(default_factory=OpCounters)


class PhaseProfiler:
    """Attribute wall time and op-count deltas to named phases.

    ``recorder``/``registry`` are optional sinks: with a recorder,
    emitting spans become typed trace records (record type = phase
    name, wall clock isolated under ``timing``); with a registry,
    every span feeds a deterministic ``phase_ops/<name>`` histogram
    and a timing-flagged ``phase_wall_ms/<name>`` one.  ``scope``
    prefixes metric names and stamps records (per-shard attribution).
    """

    __slots__ = ("recorder", "registry", "scope", "stats", "_counters")

    def __init__(self, *, recorder=None, registry=None, scope: str | None = None):
        self.recorder = recorder
        self.registry = registry
        self.scope = scope
        self.stats: dict[str, PhaseStat] = {}
        self._counters: OpCounters | None = None

    def bind_counters(self, counters: OpCounters) -> None:
        """Default counters for spans that do not pass their own
        (the telemetry layer binds the server's at attach time)."""
        self._counters = counters

    def _metric(self, name: str) -> str:
        return name if self.scope is None else f"{self.scope}/{name}"

    @contextmanager
    def phase(self, name: str, *, counters: OpCounters | None = None,
              emit: bool = True, **fields_):
        """One phase span; yields a dict for fields known only at exit.

        ``counters`` overrides the bound default (the sharded plain
        round keeps separate solve/reconcile counters); ``emit=False``
        accumulates stats and metrics without a per-span trace record
        (index repair runs once per session per epoch — recording each
        would dwarf the trace).  Keyword ``fields_`` and anything the
        caller puts into the yielded dict land in the emitted record.
        """
        counters = self._counters if counters is None else counters
        before = None if counters is None else counters.snapshot()
        span: dict = {}
        start = time.perf_counter()
        try:
            yield span
        finally:
            wall = time.perf_counter() - start
            ops = OpCounters() if before is None else counters.diff(before)
            stat = self.stats.setdefault(name, PhaseStat())
            stat.calls += 1
            stat.wall_s += wall
            stat.ops.merge(ops)
            if self.registry is not None:
                self.registry.histogram(
                    self._metric(f"phase_ops/{name}")
                ).observe(ops.virtual_cost())
                self.registry.histogram(
                    self._metric(f"phase_wall_ms/{name}"), timing=True
                ).observe(wall * 1000.0)
            if emit and self.recorder is not None:
                payload = dict(fields_)
                payload.update(span)
                if self.scope is not None:
                    payload["scope"] = self.scope
                # Causal attribution: a span working one task belongs
                # to that task's span; anything else (reconcile rounds,
                # repairs) is run-level work within its scope.
                payload.setdefault(
                    "causal",
                    f"task/{payload['task_id']}" if "task_id" in payload
                    else "run",
                )
                self.recorder.record(
                    name,
                    ops=ops.to_dict(nonzero_only=True),
                    op_cost=ops.virtual_cost(),
                    timing={"wall_s": wall},
                    **payload,
                )

    def summary(self) -> tuple[dict, dict]:
        """``(phases, timing)``: the deterministic per-phase totals and
        the wall-clock totals, separated so the ``phases`` trace record
        can keep wall time under ``timing``."""
        phases = {
            name: {
                "calls": stat.calls,
                "op_cost": stat.ops.virtual_cost(),
                "ops": stat.ops.to_dict(nonzero_only=True),
            }
            for name, stat in sorted(self.stats.items())
        }
        timing = {name: self.stats[name].wall_s for name in sorted(self.stats)}
        return phases, timing

    def report_lines(self) -> list[str]:
        """Human-readable per-phase table rows."""
        return [
            f"{name:<13} calls={stat.calls:<5} "
            f"wall={stat.wall_s * 1000.0:8.2f}ms "
            f"op_cost={stat.ops.virtual_cost():.0f}"
            for name, stat in sorted(self.stats.items())
        ]


class ProfiledLayer(ServingLayer):
    """Attribute another layer's hook time to one named phase.

    The wrapped layer stays reachable as ``.inner`` (the journal-layer
    lookup unwraps it), and every hook runs inside a non-emitting span
    so the phase totals pick up its cost without flooding the trace.
    """

    __slots__ = ("inner", "profiler", "phase_name")

    def __init__(self, inner: ServingLayer, profiler: PhaseProfiler,
                 phase: str = "journal"):
        self.inner = inner
        self.profiler = profiler
        self.phase_name = phase

    def bind(self, server) -> None:
        self.inner.bind(server)

    def before_event(self, event, metrics) -> None:
        with self.profiler.phase(self.phase_name, emit=False):
            self.inner.before_event(event, metrics)

    def after_event(self, event, metrics) -> None:
        with self.profiler.phase(self.phase_name, emit=False):
            self.inner.after_event(event, metrics)

    def before_commit(self, session, worker_id, gslot, slot, cost) -> None:
        with self.profiler.phase(self.phase_name, emit=False):
            self.inner.before_commit(session, worker_id, gslot, slot, cost)

    def before_finalize(self, session, metrics) -> None:
        with self.profiler.phase(self.phase_name, emit=False):
            self.inner.before_finalize(session, metrics)

    def on_epoch_end(self, metrics, now) -> None:
        with self.profiler.phase(self.phase_name, emit=False):
            self.inner.on_epoch_end(metrics, now)

    def on_run_complete(self, metrics) -> None:
        with self.profiler.phase(self.phase_name, emit=False):
            self.inner.on_run_complete(metrics)

