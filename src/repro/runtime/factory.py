"""`build_runtime`: from one :class:`RunSpec` to a composed stack.

The factory resolves a validated spec into the serving stack the
eight-class lattice used to enumerate by hand:

* ``mode="plain"`` — one canonical-order serving round:
  :class:`~repro.shard.server.SequentialServingSolver` (one shard) or
  the halo-partitioned
  :class:`~repro.shard.server.ShardedTCSCServer` (``shards > 1``),
  plan-identical by the PR-3 reconciliation proof.
* ``mode="batch"`` — multi-round arrival processing over one
  persistent registry (:class:`~repro.engine.batches.BatchTCSCServer`).
* ``mode="stream"`` — the event-driven online core
  (:class:`~repro.stream.online_server.StreamingTCSCServer`), wrapped
  by the sharded router for ``shards > 1`` and extended with a
  per-core :class:`~repro.journal.layer.JournalLayer` when a
  ``journal`` path is named — capability pairings are spec fields
  resolved here, not subclasses.

Every runtime handle exposes ``run() -> RunOutcome`` with the three
identity artifacts the equivalence matrix gates on:
``plan_signature``, ``metrics`` (stream modes), and ``counters``.
:func:`recover_runtime` is the durability entry point: it rebuilds a
crashed stack from its journal directory alone.

:func:`build_single_task_solver` is the shared solver-variant
constructor (backend x search x index) that the serving solvers and
the perf suite both build on — the PR-2 kwargs are threaded in
exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.greedy import IndexedSingleTaskGreedy, SingleTaskGreedy
from repro.core.instrumentation import OpCounters
from repro.errors import SpecError
from repro.par.executor import executor_from_spec
from repro.runtime.spec import RunSpec, SolverVariant
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.workloads.spatial import Distribution
from repro.workloads.streaming import StreamScenarioConfig, build_stream_events

__all__ = [
    "RunOutcome",
    "Runtime",
    "PlainRuntime",
    "BatchRuntime",
    "StreamRuntime",
    "RecoveredRuntime",
    "build_runtime",
    "build_serving_solver",
    "build_single_task_solver",
    "recover_runtime",
]


# ----------------------------------------------------------------------
# The shared solver-variant constructor (PR-2 kwargs, one copy)
# ----------------------------------------------------------------------
def build_single_task_solver(
    variant: SolverVariant,
    task,
    costs,
    *,
    budget: float,
    k: int = 3,
    ts: int = 4,
    counters: OpCounters | None = None,
):
    """One single-task solver from a :class:`SolverVariant`.

    ``use_index`` selects the tree-indexed ``Approx*`` solver
    (``search`` does not apply there — validation rejects the combo);
    otherwise the local-strategy greedy with the chosen candidate
    search.  Exact variants are plan-identical by construction; the
    degradation knobs (``top_c`` / ``floor``) trade quality for work
    and carry a certified quality ratio instead.
    """
    if variant.use_index:
        if variant.top_c is not None or variant.floor is not None:
            raise SpecError(
                "the tree-indexed solver has no bounded-candidate or "
                "floor knob; approx x use_index is not a supported "
                "pairing yet"
            )
        return IndexedSingleTaskGreedy(
            task, costs, k=k, budget=budget, ts=ts,
            backend=variant.backend, counters=counters,
        )
    return SingleTaskGreedy(
        task, costs, k=k, budget=budget, strategy="local",
        search=variant.search, backend=variant.backend, counters=counters,
        top_c=variant.top_c, gain_floor=variant.floor,
    )


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RunOutcome:
    """What one spec-driven run produced.

    ``plan_signature`` / ``metrics`` / ``counters`` are the byte-
    identity artifacts the equivalence matrix gates on; ``counters``
    is one :class:`~repro.core.instrumentation.OpCounters` for
    single-core stacks and a tuple (one per shard) for sharded stream
    runs.  ``report_text`` is the operator-facing summary the CLI
    prints.
    """

    spec: RunSpec
    plan_signature: tuple
    counters: object
    metrics: object | None
    qualities: dict | None
    report_text: str
    server: object
    #: The run's :class:`~repro.obs.layer.Telemetry` bundle (``None``
    #: unless ``spec.telemetry``); its trace/metrics/phase state is
    #: finished and ready to report.
    telemetry: object | None = None
    #: task_id -> certified quality ratio (``None`` unless the spec
    #: named an approximate mode; exact runs carry no certificates so
    #: the outcome stays structurally identical with ``approx="off"``).
    certificates: dict | None = None


# ----------------------------------------------------------------------
# Runtime handles
# ----------------------------------------------------------------------
class Runtime:
    """Base handle: a validated spec plus a lazily built workload."""

    def __init__(self, spec: RunSpec):
        self.spec = spec.validate()

    def run(self) -> RunOutcome:
        raise NotImplementedError


def build_serving_solver(spec: RunSpec, pool, bbox, *, force_sharded=False):
    """The plain-mode serving solver a spec resolves to.

    ``shards == 1`` builds the sequential reference; more shards build
    the halo-partitioned coordinator.  ``force_sharded=True`` builds
    the coordinator even at one shard — the shard suite's degenerate-
    sharding row measures exactly that case.  Exposed so suites that
    sweep shard counts over one pre-built scenario share this
    resolution instead of re-threading the solver kwargs.

    A non-serial :class:`~repro.par.executor.Executor` (from
    ``spec.executor``) always builds the coordinator: per-shard work
    units are the parallel unit, and the one-shard coordinator is
    plan-identical to the sequential reference by the PR-3
    reconciliation proof.
    """
    # Imported here: repro.shard imports the runtime's shared solver
    # builder at module level.
    from repro.shard.server import SequentialServingSolver, ShardedTCSCServer

    executor = executor_from_spec(spec)
    variant = spec.solver_variant
    common = dict(
        k=spec.k, ts=spec.ts,
        engine="indexed" if spec.use_index else "greedy",
        search=spec.search, backend=spec.backend,
        top_c=variant.top_c, floor=variant.floor,
    )
    if spec.shards == 1 and not force_sharded and executor is None:
        return SequentialServingSolver(pool, bbox, **common)
    # The coordinator has no degradation knobs; validate() already
    # rejects approx x shards, so both are None here — drop them
    # rather than threading dead kwargs through the shard stack.
    common.pop("top_c")
    common.pop("floor")
    return ShardedTCSCServer(
        pool, bbox, num_shards=spec.shards, halo=spec.halo,
        cells_per_side=spec.cells_per_side, executor=executor, **common,
    )


class PlainRuntime(Runtime):
    """One canonical-order serving round (sequential or sharded)."""

    def _build_solver(self, scenario):
        return build_serving_solver(self.spec, scenario.pool, scenario.bbox)

    def run(self) -> RunOutcome:
        spec = self.spec
        w = spec.workload
        scenario = build_scenario(
            ScenarioConfig(
                num_tasks=w.tasks, num_slots=w.slots, num_workers=w.workers,
                distribution=Distribution(w.distribution), seed=w.seed,
                k=spec.k, budget_fraction=spec.budget_fraction,
            )
        )
        solver = self._build_solver(scenario)
        telemetry = None
        if spec.telemetry:
            from repro.obs.layer import Telemetry

            telemetry = Telemetry(trace_path=spec.trace_out, spec=spec.to_dict())
        try:
            report = solver.assign(
                scenario.tasks,
                budget_fraction=spec.budget_fraction,
                profiler=None if telemetry is None else telemetry.profiler(),
            )
        except BaseException:
            if telemetry is not None:
                telemetry.abort()
            raise
        if telemetry is not None:
            telemetry.finish()
        lines = [
            "serving report",
            "--------------",
            f"mode=plain shards={spec.shards} backend={spec.backend} "
            f"search={spec.search} use_index={spec.use_index}",
            f"tasks     {w.tasks} assigned={len(report.assignment)} subtasks "
            f"cost={report.total_cost:.3f}",
            f"quality   qsum={sum(report.qualities.values()):.4f}",
            f"op-cost   serial={report.serial_cost:.0f}",
        ]
        if spec.shards > 1:
            lines.append(
                f"scaling   makespan={report.makespan:.0f} "
                f"speedup={report.speedup:.2f}x conflicts={report.conflicts} "
                f"reconciled={len(report.reconciled_task_ids)}"
            )
        certificates = None
        if spec.approx != "off":
            certificates = dict(report.certificates)
            if certificates:
                values = certificates.values()
                lines.append(
                    f"certify   n={len(certificates)} "
                    f"min={min(values):.3f} "
                    f"mean={sum(values) / len(values):.3f}"
                )
        return RunOutcome(
            spec=spec,
            plan_signature=report.plan_signature(),
            counters=report.counters,
            metrics=None,
            qualities=dict(report.qualities),
            report_text="\n".join(lines),
            server=solver,
            telemetry=telemetry,
            certificates=certificates,
        )


class BatchRuntime(Runtime):
    """Arrival rounds over one persistent registry."""

    def run(self) -> RunOutcome:
        from repro.engine.batches import BatchTCSCServer
        from repro.model.assignment import Assignment
        from repro.model.task import TaskSet

        spec = self.spec
        w = spec.workload
        scenario = build_scenario(
            ScenarioConfig(
                num_tasks=w.tasks, num_slots=w.slots, num_workers=w.workers,
                distribution=Distribution(w.distribution), seed=w.seed,
                k=spec.k, budget_fraction=spec.budget_fraction,
            )
        )
        server = BatchTCSCServer(
            scenario.pool, scenario.bbox,
            k=spec.k, ts=spec.ts, backend=spec.backend,
        )
        ordered = sorted(scenario.tasks, key=lambda t: t.task_id)
        per_round = -(-len(ordered) // w.rounds)  # ceil
        combined = Assignment()
        counters = OpCounters()
        qualities: dict[int, float] = {}
        for start in range(0, len(ordered), per_round):
            batch = ordered[start:start + per_round]
            report = server.process_batch(
                TaskSet(batch), scenario.budget * len(batch)
            )
            qualities.update(report.result.qualities)
            counters.merge(report.result.counters)
            for record in report.result.assignment:
                combined.add(record)
        lines = [
            "batch report",
            "------------",
            f"mode=batch rounds={server.rounds} backend={spec.backend}",
            f"tasks     {w.tasks} assigned={len(combined)} subtasks "
            f"spent={server.total_spent:.3f}",
            f"quality   qsum={sum(qualities.values()):.4f}",
        ]
        return RunOutcome(
            spec=spec,
            plan_signature=combined.plan_signature(),
            counters=counters,
            metrics=None,
            qualities=qualities,
            report_text="\n".join(lines),
            server=server,
        )


class StreamRuntime(Runtime):
    """The event-driven online stack, composed per the spec.

    ``force_sharded=True`` builds the sharded router even at one
    shard (the degenerate-sharding rows of the bench suites measure
    exactly that coordinator); :func:`build_runtime` never forces it.
    ``scenario`` seeds a pre-built trace so a suite sweeping many
    runtimes over one workload skips the per-runtime regeneration —
    it must have been built from the spec's workload fields.
    ``chaos`` is the run's fault-injection plan (a sequence of
    :class:`~repro.degrade.chaos.InjectionSpec`): trace-level
    injections must already be applied to ``scenario`` by the caller
    (:func:`~repro.degrade.chaos.apply_injections`); ``slowdown``
    injections are resolved here into per-core
    :class:`~repro.degrade.chaos.ChaosLayer` op budgets.
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        force_sharded: bool = False,
        scenario=None,
        chaos=(),
    ):
        super().__init__(spec)
        self._scenario = scenario
        self._server = None
        self._telemetry = None
        # A non-serial executor always drains through the sharded
        # router (its per-shard work units are the parallel unit);
        # the one-shard router replays the trace unchanged, so the
        # forced composition stays byte-identical to the plain core.
        self._sharded = (
            force_sharded or spec.shards > 1 or spec.executor != "serial"
        )
        self._chaos = tuple(chaos)

    def scenario(self):
        """The built (seed-pinned, cached) event trace."""
        if self._scenario is None:
            w = self.spec.workload
            self._scenario = build_stream_events(
                StreamScenarioConfig(
                    horizon=w.horizon,
                    task_rate=w.task_rate,
                    burstiness=w.burstiness,
                    task_slots=w.task_slots,
                    initial_workers=w.initial_workers,
                    worker_join_rate=w.join_rate,
                    mean_worker_lifetime=w.mean_lifetime,
                    early_leave_prob=w.early_leave_prob,
                    distribution=Distribution(w.distribution),
                    hotspot_drift=w.hotspot_drift,
                    seed=w.seed,
                )
            )
        return self._scenario

    def _core_kwargs(self) -> dict:
        spec = self.spec
        return dict(
            k=spec.k,
            ts=spec.ts,
            epoch_length=spec.epoch_length,
            index_mode=spec.index_mode,
            budget_fraction=spec.budget_fraction,
            max_active_tasks=spec.max_active_tasks,
            max_queue_depth=spec.max_queue_depth,
            pool_budget=spec.pool_budget,
            realization_seed=spec.workload.seed,
            backend=spec.backend,
        )

    @property
    def server(self):
        """The composed serving stack (built once, lazily)."""
        if self._server is None:
            self._server = self._build_server()
        return self._server

    def _chaos_layers(self, shard: int) -> tuple:
        """Op-budget throttle layers targeting ``shard``.

        An injection with ``shard=None`` lands on shard 0 (the only
        core of an unsharded stack).
        """
        from repro.degrade.chaos import ChaosLayer

        return tuple(
            ChaosLayer(injection.op_budget)
            for injection in self._chaos
            if injection.kind == "slowdown"
            and (injection.shard if injection.shard is not None else 0) == shard
        )

    def _degrade_layers(self, telemetry) -> tuple:
        """The degradation controller layer the spec asks for.

        Static modes (``top_c`` / ``floor``) pin the ladder at a fixed
        directive; ``auto`` runs the hysteresis controller against the
        telemetry registry's latency histogram (validation guarantees
        telemetry is on for ``auto``).
        """
        from repro.degrade.policy import DegradationController, DegradationLayer

        spec = self.spec
        if spec.approx == "auto":
            controller = DegradationController(
                top_c=spec.approx_top_c,
                floor=spec.approx_floor,
                queue_high=spec.degrade_queue_high,
                queue_low=spec.degrade_queue_low,
                slo_p99=spec.slo_p99,
            )
        else:
            controller = DegradationController.fixed(
                top_c=spec.approx_top_c if spec.approx == "top_c" else None,
                floor=spec.approx_floor if spec.approx == "floor" else None,
            )
        return (
            DegradationLayer(
                controller,
                recorder=None if telemetry is None else telemetry.recorder,
                registry=None if telemetry is None else telemetry.registry,
            ),
        )

    def _build_server(self):
        from repro.shard.streaming import ShardedStreamingServer
        from repro.stream.online_server import StreamingTCSCServer

        spec = self.spec
        bbox = self.scenario().bbox
        kwargs = self._core_kwargs()
        has_slowdown = any(i.kind == "slowdown" for i in self._chaos)
        telemetry = None
        if spec.telemetry:
            from repro.obs.layer import Telemetry

            if spec.elastic != "off":
                from repro.elastic import DEFAULT_PARTITIONS

                # Elastic stacks run one core per *logical* shard;
                # telemetry scopes follow the cores, not the executors.
                scope_count = spec.shards * DEFAULT_PARTITIONS
            else:
                scope_count = spec.shards if self._sharded else 1
            telemetry = Telemetry(
                trace_path=spec.trace_out,
                shards=scope_count,
                spec=spec.to_dict(),
            )
            self._telemetry = telemetry
        # ``None`` keeps the legacy serial drain byte-for-byte.
        executor = executor_from_spec(spec)
        if executor is not None:
            # Validation already rejected journal/approx/elastic x
            # executor; chaos plans are build-time arguments, so the
            # remaining uncomposable pairing is rejected here.
            if has_slowdown:
                raise SpecError(
                    "slowdown injection x executor is not a supported "
                    "pairing yet (per-core op budgets live in layers, "
                    "which work units do not carry)"
                )
            return ShardedStreamingServer(
                bbox,
                num_shards=spec.shards,
                cells_per_side=spec.cells_per_side,
                halo_margin=spec.halo,
                executor=executor,
                telemetry=telemetry,
                **kwargs,
            )
        if spec.journal is not None:
            from repro.journal.layer import journaled_server
            from repro.journal.sharded import sharded_journaled_server

            if has_slowdown:
                raise SpecError(
                    "slowdown injection x journal is not a supported "
                    "pairing yet (op-budget throttling would desync the "
                    "replayed plan from the journaled one)"
                )
            durability = dict(
                snapshot_every=spec.snapshot_every,
                sync=spec.sync,
                crash_after_events=spec.crash_after_events,
                crash_phase=spec.crash_phase,
            )
            if not self._sharded:
                return journaled_server(
                    bbox,
                    journal=spec.journal,
                    wrap_layer=(
                        None if telemetry is None else telemetry.journal_wrap(0)
                    ),
                    extra_layers=(
                        () if telemetry is None else telemetry.layers(0)
                    ),
                    **durability,
                    **kwargs,
                )
            return sharded_journaled_server(
                bbox,
                journal_root=spec.journal,
                num_shards=spec.shards,
                cells_per_side=spec.cells_per_side,
                halo_margin=spec.halo,
                telemetry=telemetry,
                **durability,
                **kwargs,
            )
        if not self._sharded:
            layers = () if telemetry is None else telemetry.layers(0)
            if spec.approx != "off":
                kwargs["certify"] = True
                layers = layers + self._degrade_layers(telemetry)
            return StreamingTCSCServer(
                bbox,
                layers=layers + self._chaos_layers(0),
                **kwargs,
            )
        if spec.approx != "off":
            raise SpecError(
                "approx x sharded streaming is not a supported pairing "
                "yet (the degradation ladder assumes one admission queue)"
            )
        if spec.elastic != "off":
            from repro.elastic import ElasticController, ElasticStreamingServer

            if has_slowdown:
                raise SpecError(
                    "slowdown injection x elastic is not a supported "
                    "pairing yet (an op-budget throttle pinned to one "
                    "core would break migration's state-identity gate)"
                )
            if spec.elastic == "fixed":
                # ``--migrate-at K`` scripts one migration at the K-th
                # epoch boundary; shard/dest resolve to hottest/coldest
                # at fire time.
                controller = ElasticController.fixed(
                    [(spec.migrate_at * spec.epoch_length, None, None)]
                )
            else:
                controller = ElasticController(
                    queue_high=spec.migrate_queue_high,
                    queue_low=spec.migrate_queue_low,
                )
            layer_factory = None
            if telemetry is not None:
                layer_factory = lambda shard: telemetry.layers(shard)
            return ElasticStreamingServer(
                bbox,
                num_executors=spec.shards,
                cells_per_side=spec.cells_per_side,
                halo_margin=spec.halo,
                controller=controller,
                layer_factory=layer_factory,
                recorder=None if telemetry is None else telemetry.recorder,
                **kwargs,
            )
        if telemetry is None and not has_slowdown:
            return ShardedStreamingServer(
                bbox,
                num_shards=spec.shards,
                cells_per_side=spec.cells_per_side,
                halo_margin=spec.halo,
                **kwargs,
            )

        def shard_server(shard, shard_bbox, shard_kwargs):
            layers = () if telemetry is None else telemetry.layers(shard)
            return StreamingTCSCServer(
                shard_bbox,
                layers=layers + self._chaos_layers(shard),
                **shard_kwargs,
            )

        return ShardedStreamingServer(
            bbox,
            num_shards=spec.shards,
            cells_per_side=spec.cells_per_side,
            halo_margin=spec.halo,
            server_factory=shard_server,
            **kwargs,
        )

    def _outcome(self, metrics) -> RunOutcome:
        server = self.server
        if self._sharded:
            counters = tuple(shard.counters for shard in server.servers)
        else:
            counters = server.counters
        return RunOutcome(
            spec=self.spec,
            plan_signature=server.assignment().plan_signature(),
            counters=counters,
            metrics=metrics,
            qualities=dict(metrics.promised_quality),
            report_text=metrics.report(),
            server=server,
            telemetry=self._telemetry,
            certificates=(
                dict(metrics.quality_certificates)
                if self.spec.approx != "off"
                else None
            ),
        )

    def run(self) -> RunOutcome:
        """Drain the trace; crash injection propagates
        :class:`~repro.journal.layer.InjectedCrash` (the write-through
        trace file keeps its flushed prefix and is closed by
        ``abort()`` — ``finish()`` only runs on completed drains)."""
        try:
            metrics = self.server.run(list(self.scenario().events))
        except BaseException:
            if self._telemetry is not None:
                self._telemetry.abort()
            raise
        if self._telemetry is not None:
            if hasattr(metrics, "shard_stats"):
                # Publish the partition shape (ownership counts, halo
                # replication factor) as shard/<i>/* gauges before the
                # trace closes.
                self._telemetry.record_shard_stats(metrics.shard_stats())
            self._telemetry.finish()
        return self._outcome(metrics)


_MODES = {
    "plain": PlainRuntime,
    "batch": BatchRuntime,
    "stream": StreamRuntime,
}


def build_runtime(spec: RunSpec) -> Runtime:
    """Validate ``spec`` and return its composed runtime handle."""
    if not isinstance(spec, RunSpec):
        raise SpecError(
            f"build_runtime expects a RunSpec, got {type(spec).__name__}"
        )
    spec.validate()
    return _MODES[spec.mode](spec)


# ----------------------------------------------------------------------
# Durability re-entry
# ----------------------------------------------------------------------
class RecoveredRuntime:
    """Handle over a journal-recovered serving stack.

    ``kind`` is ``"plain"`` or ``"sharded"``, read off the journal
    directory itself, so recovery never depends on the caller
    repeating the original sharding flags.
    """

    def __init__(self, server, kind: str):
        self.server = server
        self.kind = kind

    @property
    def recovery(self):
        """Per-core :class:`~repro.journal.layer.RecoveryInfo`
        (a list with one entry per shard for sharded deployments)."""
        from repro.journal.layer import journal_layer

        if self.kind == "sharded":
            return [journal_layer(s).recovery for s in self.server.servers]
        return journal_layer(self.server).recovery

    def resume(self, events):
        """Finish the interrupted run against the full original trace;
        returns the stream metrics (byte-identical to an uninterrupted
        run)."""
        from repro.journal.layer import journal_layer
        from repro.journal.sharded import resume_sharded

        if self.kind == "sharded":
            return resume_sharded(self.server, events)
        return journal_layer(self.server).resume_with_trace(events)

    def assignment(self):
        """The recovered deployment's merged plan."""
        return self.server.assignment()


def recover_runtime(
    journal: str | Path,
    *,
    sync: bool = False,
    snapshot_every: int | None = None,
    crash_after_events: int | None = None,
    crash_phase: str = "apply",
) -> RecoveredRuntime:
    """Rebuild a crashed stack from its journal directory alone.

    Whether the journal is sharded is read off the directory
    (``meta.json`` marks a sharded deployment).  Raises
    :class:`~repro.errors.SpecError` when no journal exists there.
    """
    from repro.journal.layer import recover_server
    from repro.journal.sharded import recover_sharded_server
    from repro.journal.wal import journal_kind

    kind = journal_kind(journal)
    if kind is None:
        raise SpecError(
            f"no journal found at {journal} (expected wal.log or a "
            "sharded meta.json)"
        )
    if kind == "sharded":
        server = recover_sharded_server(
            journal,
            sync=sync,
            snapshot_every=snapshot_every,
            crash_after_events=crash_after_events,
            crash_phase=crash_phase,
        )
        return RecoveredRuntime(server, "sharded")
    server = recover_server(
        journal,
        sync=sync,
        snapshot_every=snapshot_every,
        crash_after_events=crash_after_events,
        crash_phase=crash_phase,
    )
    return RecoveredRuntime(server, "plain")
