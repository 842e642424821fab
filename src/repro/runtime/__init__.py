"""Composable serving runtime: spec-driven layer composition.

Four PRs grew the repo a serving *lattice* — plain, batch, streaming,
sharded, journaled, and their pairings — enumerated as eight server
classes wired by inheritance and hand-threaded kwargs.  This package
collapses the lattice into three orthogonal pieces:

* :class:`RunSpec` (:mod:`repro.runtime.spec`) — one declarative,
  JSON-round-trippable description of a run: workload, solver variant
  (``backend`` / ``search`` / ``use_index``), serving mode
  (``plain | batch | stream``), sharding (``shards`` / ``halo``), and
  durability (``journal`` / ``snapshot_every`` / crash injection).
  Uncomposable pairings fail validation with a typed
  :class:`~repro.errors.SpecError`.
* :class:`~repro.runtime.layers.ServingLayer`
  (:mod:`repro.runtime.layers`) — the seam: capabilities attach to
  the streaming core as ordered layer objects dispatched at the PR-4
  hook points (event consumption, commits, finalization, epoch end,
  run completion) instead of subclassing it.
* :func:`build_runtime` (:mod:`repro.runtime.factory`) — resolves a
  validated spec into the composed stack and returns a handle whose
  ``run()`` yields the three byte-identity artifacts
  (``plan_signature`` / ``metrics`` / ``counters``) the equivalence
  matrix (``python -m repro matrix``) gates on.

Quickstart::

    from repro.runtime import RunSpec, WorkloadSpec, build_runtime

    spec = RunSpec(mode="stream", shards=2,
                   workload=WorkloadSpec(horizon=40, seed=7))
    outcome = build_runtime(spec).run()
    print(outcome.report_text)

Per-shard work runs where ``RunSpec.executor`` says: ``serial``
(inline, the byte-identical reference) or ``process`` (a process pool
fed exact JSON work units; see :mod:`repro.par`).
"""

from repro.runtime.factory import (
    BatchRuntime,
    PlainRuntime,
    RecoveredRuntime,
    RunOutcome,
    Runtime,
    StreamRuntime,
    build_runtime,
    build_serving_solver,
    build_single_task_solver,
    recover_runtime,
)
from repro.runtime.layers import ServingLayer
from repro.runtime.spec import (
    SEARCH_MODES,
    SERVING_MODES,
    RunSpec,
    SolverVariant,
    WorkloadSpec,
)

__all__ = [
    "BatchRuntime",
    "PlainRuntime",
    "RecoveredRuntime",
    "RunOutcome",
    "RunSpec",
    "Runtime",
    "SEARCH_MODES",
    "SERVING_MODES",
    "ServingLayer",
    "SolverVariant",
    "StreamRuntime",
    "WorkloadSpec",
    "build_runtime",
    "build_serving_solver",
    "build_single_task_solver",
    "recover_runtime",
]
