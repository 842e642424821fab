"""`RunSpec`: one declarative description of a full serving run.

A :class:`RunSpec` names everything the serving lattice used to
hand-thread through eight constructors: the workload shape
(:class:`WorkloadSpec`), the solver variant (``backend`` / ``search``
/ ``use_index``), the serving mode (``plain | batch | stream``),
sharding (``shards`` / ``halo``), and durability (``journal`` /
``snapshot_every`` / crash injection).  Specs are plain data:
``to_dict``/``from_dict`` round-trip exactly (a seeded property
test), JSON files load via :meth:`RunSpec.from_json`, and invalid
capability combinations fail *at validation time* with a typed
:class:`~repro.errors.SpecError` instead of deep inside a
constructor.

The companion factory, :func:`repro.runtime.build_runtime`, turns a
validated spec into a composed serving stack.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.errors import SpecError
from repro.par.executor import EXECUTOR_KINDS

__all__ = [
    "SERVING_MODES",
    "SEARCH_MODES",
    "APPROX_MODES",
    "ELASTIC_MODES",
    "EXECUTOR_KINDS",
    "SolverVariant",
    "WorkloadSpec",
    "RunSpec",
]

SERVING_MODES = ("plain", "batch", "stream")
ELASTIC_MODES = ("off", "auto", "fixed")
SEARCH_MODES = ("enumerate", "lazy")
APPROX_MODES = ("off", "top_c", "floor", "auto")
_BACKENDS = ("python", "numpy")
_INDEX_MODES = ("incremental", "rebuild")
_CRASH_PHASES = ("apply", "append")
_DISTRIBUTIONS = ("uniform", "gaussian", "zipfian")


def _check_dict_keys(cls, data: dict) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"{cls.__name__} does not accept field(s) {unknown}; "
            f"known fields: {sorted(known)}"
        )


@dataclass(frozen=True, slots=True)
class SolverVariant:
    """The PR-2 solver-variant triple, as one value.

    Every place that used to hand-thread ``backend`` / ``search`` /
    ``use_index`` (serving solvers, the perf suite's variant table,
    the CLI) now passes one of these to
    :func:`repro.runtime.factory.build_single_task_solver`.
    """

    backend: str = "python"
    search: str = "enumerate"
    use_index: bool = False
    #: Bounded-candidate search: consider only the top-``top_c`` offers
    #: per task, ranked by the cached single-slot quality table
    #: (``None`` = exact).  The solver reports a certified quality
    #: ratio derived from the final gain envelope (``repro.degrade``).
    top_c: int | None = None
    #: Quality-floor early termination: stop the greedy loop once the
    #: marginal gain drops below ``floor`` times the first committed
    #: gain (``None`` = run to budget exhaustion).
    floor: float | None = None


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """The scenario generator's knobs, one namespace for every mode.

    ``plain``/``batch`` runs read the one-shot fields (``tasks`` /
    ``slots`` / ``workers``); ``stream`` runs read the trace fields
    (``horizon`` onward).  ``seed`` and ``distribution`` apply to
    both.  Defaults mirror the paper-pinned defaults of
    :class:`~repro.workloads.scenario.ScenarioConfig` and
    :class:`~repro.workloads.streaming.StreamScenarioConfig`.
    """

    seed: int = 7
    distribution: str = "uniform"
    # One-shot scenarios (plain / batch).
    tasks: int = 1
    slots: int = 100
    workers: int = 500
    #: Arrival rounds for ``batch`` mode (tasks split canonically).
    rounds: int = 1
    # Event traces (stream).
    horizon: int = 100
    task_rate: float = 0.15
    burstiness: float = 0.0
    task_slots: int = 24
    initial_workers: int = 40
    join_rate: float = 1.0
    mean_lifetime: float = 25.0
    early_leave_prob: float = 0.3
    #: Hotspot-drift arrival preset (stream mode): arrivals relocate
    #: onto one POI hotspot with probability growing linearly to this
    #: value over the horizon — the deterministic skew input the
    #: elastic suite rebalances against.  0 disables the preset.
    hotspot_drift: float = 0.0

    def validate(self) -> None:
        if self.distribution not in _DISTRIBUTIONS:
            raise SpecError(
                f"unknown distribution {self.distribution!r}; "
                f"choose one of {_DISTRIBUTIONS}"
            )
        for name, minimum in (
            ("tasks", 1), ("slots", 3), ("workers", 1), ("rounds", 1),
            ("horizon", 1), ("task_slots", 3), ("initial_workers", 0),
        ):
            if getattr(self, name) < minimum:
                raise SpecError(f"workload.{name} must be >= {minimum}, "
                                f"got {getattr(self, name)}")
        if self.rounds > self.tasks:
            raise SpecError(
                f"workload.rounds ({self.rounds}) exceeds workload.tasks "
                f"({self.tasks}); every batch round needs at least one task"
            )
        if not 0.0 <= self.hotspot_drift <= 1.0:
            raise SpecError(
                f"workload.hotspot_drift must be in [0, 1], "
                f"got {self.hotspot_drift}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        _check_dict_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One declarative serving run; see the module docstring."""

    mode: str = "plain"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    # Solver variant (the PR-2 knobs).
    backend: str = "python"
    search: str = "lazy"
    use_index: bool = False
    k: int = 3
    ts: int = 4
    budget_fraction: float = 0.25
    # Sharding (the PR-3 knobs).
    shards: int = 1
    halo: str | float = "auto"
    cells_per_side: int | None = None
    # Stream serving (the PR-1 knobs; stream mode only).
    epoch_length: float = 5.0
    index_mode: str = "incremental"
    max_active_tasks: int = 8
    max_queue_depth: int = 16
    pool_budget: float | None = None
    # Durability (the PR-4 knobs; require a journal, which requires
    # stream mode).
    journal: str | None = None
    snapshot_every: int = 4
    sync: bool = False
    crash_after_events: int | None = None
    crash_phase: str = "apply"
    # Observability (the PR-6 knobs): span tracing, metrics, and phase
    # profiling composed as layers (``repro.obs``).
    telemetry: bool = False
    trace_out: str | None = None
    # Graceful degradation (the PR-7 knobs; ``repro.degrade``):
    # ``approx`` selects the degradation mode — ``"off"`` (exact,
    # byte-identical to the seed solvers), ``"top_c"`` (bounded-
    # candidate search over the ``approx_top_c`` best-ranked slots),
    # ``"floor"`` (quality-floor early termination at ``approx_floor``
    # of the first committed gain), or ``"auto"`` (SLO-aware mode
    # ladder exact -> top-c -> floor -> shed driven by queue depth /
    # p99 latency with deterministic hysteresis; stream + telemetry
    # only).  Every approximate plan carries a certified quality ratio.
    approx: str = "off"
    approx_top_c: int | None = None
    approx_floor: float | None = None
    #: Hysteresis thresholds for ``approx="auto"``: escalate one level
    #: when the pending queue reaches ``degrade_queue_high`` (or p99
    #: assignment latency exceeds ``slo_p99`` virtual slots, when set);
    #: de-escalate once it falls back to ``degrade_queue_low``.
    degrade_queue_high: int = 6
    degrade_queue_low: int = 2
    slo_p99: float | None = None
    # Elastic sharding (the PR-8 knobs; ``repro.elastic``): live shard
    # migration over the snapshot codec.  ``elastic`` selects the
    # placement policy — ``"off"`` (static placement, byte-identical
    # to the plain sharded server), ``"auto"`` (hysteresis controller
    # over deterministic queue-depth and op-cost signals), or
    # ``"fixed"`` (one scripted migration at epoch boundary
    # ``migrate_at`` — the exactness-sweep and ``--migrate-at``
    # spelling).  Requires stream mode with shards >= 2.
    elastic: str = "off"
    migrate_at: int | None = None
    #: Hysteresis thresholds for ``elastic="auto"``: shed a shard off
    #: an executor whose settled queue reaches ``migrate_queue_high``
    #: onto one at or below ``migrate_queue_low``.
    migrate_queue_high: int = 8
    migrate_queue_low: int = 2
    # Real parallelism (the PR-10 knobs; ``repro.par``): where per-shard
    # work runs.  ``executor`` selects the kind — ``"serial"`` (inline,
    # the byte-identical reference) or ``"process"`` (a process pool;
    # work units cross the boundary via the exact JSON snapshot codec).
    # ``max_workers`` caps the pool width (default: the host CPU
    # count, never more than one worker per shard).
    executor: str = "serial"
    max_workers: int | None = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "RunSpec":
        """Raise :class:`~repro.errors.SpecError` on any bad field or
        uncomposable capability pairing; returns ``self`` for chaining."""
        if self.mode not in SERVING_MODES:
            raise SpecError(
                f"unknown mode {self.mode!r}; choose one of {SERVING_MODES}"
            )
        if self.backend not in _BACKENDS:
            raise SpecError(
                f"unknown backend {self.backend!r}; choose one of {_BACKENDS}"
            )
        if self.search not in SEARCH_MODES:
            raise SpecError(
                f"unknown search {self.search!r}; choose one of {SEARCH_MODES}"
            )
        if self.index_mode not in _INDEX_MODES:
            raise SpecError(
                f"unknown index_mode {self.index_mode!r}; "
                f"choose one of {_INDEX_MODES}"
            )
        if self.crash_phase not in _CRASH_PHASES:
            raise SpecError(
                f"unknown crash_phase {self.crash_phase!r}; "
                f"choose one of {_CRASH_PHASES}"
            )
        if self.use_index and self.search != "enumerate":
            raise SpecError(
                "use_index=True selects the tree-indexed solver, which has "
                f"no candidate-search knob; leave search='enumerate' "
                f"(got search={self.search!r})"
            )
        if self.k < 1:
            raise SpecError(f"k must be >= 1, got {self.k}")
        if self.ts < 2:
            raise SpecError(f"ts must be >= 2, got {self.ts}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise SpecError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if self.shards < 1:
            raise SpecError(f"shards must be >= 1, got {self.shards}")
        if isinstance(self.halo, str):
            if self.halo != "auto":
                raise SpecError(
                    f"halo must be 'auto' or a radius >= 0, got {self.halo!r}"
                )
        elif self.halo < 0:
            raise SpecError(f"halo radius must be >= 0, got {self.halo}")
        if self.epoch_length <= 0:
            raise SpecError(f"epoch_length must be > 0, got {self.epoch_length}")
        if self.max_active_tasks < 1:
            raise SpecError(
                f"max_active_tasks must be >= 1, got {self.max_active_tasks}"
            )
        if self.max_queue_depth < 0:
            raise SpecError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.snapshot_every < 0:
            raise SpecError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        # Capability pairings the runtime cannot compose (yet): these
        # are *spec* errors so the matrix runner and the --spec CLI can
        # report them as typed rejections rather than crashes.
        if self.mode == "batch" and self.shards > 1:
            raise SpecError(
                "sharding composes with plain and stream serving only; "
                "batch x shard is not a supported pairing yet (got "
                f"mode='batch', shards={self.shards})"
            )
        if self.journal is not None and self.mode != "stream":
            raise SpecError(
                "journal durability wraps the streaming core; it requires "
                f"mode='stream' (got mode={self.mode!r})"
            )
        if self.journal is None:
            if self.crash_after_events is not None:
                raise SpecError(
                    "crash_after_events injects faults into the journal "
                    "layer; it requires a journal path"
                )
            if self.sync:
                raise SpecError(
                    "sync fsyncs the write-ahead log; it requires a "
                    "journal path"
                )
        if self.crash_after_events is not None and self.crash_after_events < 0:
            raise SpecError(
                f"crash_after_events must be >= 0, got {self.crash_after_events}"
            )
        if self.trace_out is not None and not self.telemetry:
            raise SpecError(
                "trace_out names the telemetry trace file; it requires "
                "telemetry=True"
            )
        if self.telemetry and self.mode == "batch":
            raise SpecError(
                "telemetry observes the plain serving round or the "
                "streaming layer seam; batch x telemetry is not a "
                "supported pairing yet (got mode='batch')"
            )
        # Degradation (the PR-7 knobs).
        if self.approx not in APPROX_MODES:
            raise SpecError(
                f"unknown approx {self.approx!r}; choose one of {APPROX_MODES}"
            )
        if self.approx != "off":
            if self.mode == "batch":
                raise SpecError(
                    "approximate modes degrade the single-task greedy "
                    "solvers; approx x batch is not a supported pairing "
                    f"yet (got mode='batch', approx={self.approx!r})"
                )
            if self.shards > 1:
                raise SpecError(
                    "per-request certificates are tracked by the "
                    "single-shard runtime; approx x shard is not a "
                    f"supported pairing yet (got shards={self.shards}, "
                    f"approx={self.approx!r})"
                )
            if self.journal is not None:
                raise SpecError(
                    "journal replay verifies exact plans; approx x journal "
                    f"is not a supported pairing yet (got approx="
                    f"{self.approx!r})"
                )
            if self.use_index:
                raise SpecError(
                    "the tree-indexed solver has no bounded-candidate or "
                    "floor knob; approx x use_index is not a supported "
                    f"pairing yet (got approx={self.approx!r})"
                )
        if self.approx in ("top_c", "auto") and self.approx_top_c is None:
            raise SpecError(
                f"approx={self.approx!r} needs approx_top_c (the number of "
                "top-ranked candidate slots to keep)"
            )
        if self.approx in ("floor", "auto") and self.approx_floor is None:
            raise SpecError(
                f"approx={self.approx!r} needs approx_floor (the marginal-"
                "gain floor as a fraction of the first committed gain)"
            )
        if self.approx_top_c is not None:
            if self.approx not in ("top_c", "auto"):
                raise SpecError(
                    "approx_top_c configures the bounded-candidate search; "
                    f"it requires approx='top_c' or 'auto' (got approx="
                    f"{self.approx!r})"
                )
            if self.approx_top_c < 1:
                raise SpecError(
                    f"approx_top_c must be >= 1, got {self.approx_top_c}"
                )
        if self.approx_floor is not None:
            if self.approx not in ("floor", "auto"):
                raise SpecError(
                    "approx_floor configures quality-floor early "
                    "termination; it requires approx='floor' or 'auto' "
                    f"(got approx={self.approx!r})"
                )
            if not 0.0 < self.approx_floor <= 1.0:
                raise SpecError(
                    f"approx_floor must be in (0, 1], got {self.approx_floor}"
                )
        if self.approx == "auto":
            if self.mode != "stream":
                raise SpecError(
                    "approx='auto' switches modes from streaming load "
                    f"signals; it requires mode='stream' (got mode="
                    f"{self.mode!r})"
                )
            if not self.telemetry:
                raise SpecError(
                    "approx='auto' reads queue depth and p99 latency from "
                    "the telemetry MetricsRegistry; it requires "
                    "telemetry=True"
                )
        if self.degrade_queue_high < 1:
            raise SpecError(
                f"degrade_queue_high must be >= 1, got {self.degrade_queue_high}"
            )
        if self.degrade_queue_low < 0:
            raise SpecError(
                f"degrade_queue_low must be >= 0, got {self.degrade_queue_low}"
            )
        if self.degrade_queue_low >= self.degrade_queue_high:
            raise SpecError(
                "hysteresis needs degrade_queue_low < degrade_queue_high, "
                f"got low={self.degrade_queue_low} high="
                f"{self.degrade_queue_high}"
            )
        if self.slo_p99 is not None:
            if self.approx != "auto":
                raise SpecError(
                    "slo_p99 drives the SLO-aware mode ladder; it requires "
                    f"approx='auto' (got approx={self.approx!r})"
                )
            if self.slo_p99 <= 0:
                raise SpecError(f"slo_p99 must be > 0, got {self.slo_p99}")
        # Elastic sharding (the PR-8 knobs).
        if self.elastic not in ELASTIC_MODES:
            raise SpecError(
                f"unknown elastic {self.elastic!r}; "
                f"choose one of {ELASTIC_MODES}"
            )
        if self.elastic != "off":
            if self.mode != "stream":
                raise SpecError(
                    "elastic sharding rebalances the streaming router; "
                    "elastic x plain/batch is not a supported pairing yet "
                    f"(got mode={self.mode!r}, elastic={self.elastic!r})"
                )
            if self.shards < 2:
                raise SpecError(
                    "elastic sharding migrates shards between executors; "
                    f"it requires shards >= 2 (got shards={self.shards}, "
                    f"elastic={self.elastic!r})"
                )
            if self.journal is not None:
                raise SpecError(
                    "the migration log and the write-ahead journal both "
                    "claim the layer seam's record stream; elastic x "
                    f"journal is not a supported pairing yet (got elastic="
                    f"{self.elastic!r})"
                )
        if self.elastic == "fixed" and self.migrate_at is None:
            raise SpecError(
                "elastic='fixed' needs migrate_at (the epoch boundary of "
                "the scripted migration)"
            )
        if self.migrate_at is not None:
            if self.elastic != "fixed":
                raise SpecError(
                    "migrate_at schedules the scripted migration; it "
                    f"requires elastic='fixed' (got elastic={self.elastic!r})"
                )
            if self.migrate_at < 0:
                raise SpecError(
                    f"migrate_at must be >= 0, got {self.migrate_at}"
                )
        if self.migrate_queue_high < 1:
            raise SpecError(
                f"migrate_queue_high must be >= 1, got {self.migrate_queue_high}"
            )
        if self.migrate_queue_low < 0:
            raise SpecError(
                f"migrate_queue_low must be >= 0, got {self.migrate_queue_low}"
            )
        if self.migrate_queue_low >= self.migrate_queue_high:
            raise SpecError(
                "hysteresis needs migrate_queue_low < migrate_queue_high, "
                f"got low={self.migrate_queue_low} high="
                f"{self.migrate_queue_high}"
            )
        # Real parallelism (the PR-10 knobs).
        if self.executor not in EXECUTOR_KINDS:
            raise SpecError(
                f"unknown executor {self.executor!r}; "
                f"choose one of {EXECUTOR_KINDS}"
            )
        if self.max_workers is not None:
            if self.max_workers < 1:
                raise SpecError(
                    f"max_workers must be >= 1, got {self.max_workers}"
                )
            if self.executor == "serial":
                raise SpecError(
                    "max_workers sizes the executor's worker pool; it "
                    "requires executor='process' (got executor='serial')"
                )
        if self.executor != "serial":
            if self.mode == "batch":
                raise SpecError(
                    "executors run per-shard work; batch x executor is "
                    "not a supported pairing yet (got mode='batch', "
                    f"executor={self.executor!r})"
                )
            if self.journal is not None:
                raise SpecError(
                    "the write-ahead journal holds the parent's file "
                    "handle, which cannot cross an executor boundary; "
                    "executor x journal is not a supported pairing yet "
                    f"(got executor={self.executor!r})"
                )
            if self.approx != "off":
                raise SpecError(
                    "per-request certificates are tracked by the serial "
                    "runtime; executor x approx is not a supported "
                    f"pairing yet (got executor={self.executor!r}, "
                    f"approx={self.approx!r})"
                )
            if self.elastic != "off":
                raise SpecError(
                    "elastic migration rebalances mid-run, which the "
                    "shard-per-unit executor drain does not replay; "
                    "executor x elastic is not a supported pairing yet "
                    f"(got executor={self.executor!r}, "
                    f"elastic={self.elastic!r})"
                )
            if self.telemetry and self.mode != "stream":
                raise SpecError(
                    "executor x telemetry trace interleaving is defined "
                    "for the sharded streaming drain only (per-shard "
                    "scopes merged in shard-id order); plain x telemetry "
                    "x executor is rejected rather than left undefined "
                    f"(got mode={self.mode!r}, executor={self.executor!r})"
                )
        self.workload.validate()
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON dict (``workload`` nested); exactly inverted by
        :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build and validate a spec from :meth:`to_dict` output.

        Unknown fields raise :class:`~repro.errors.SpecError` — a
        typo'd spec file must not silently run with defaults.
        """
        if not isinstance(data, dict):
            raise SpecError(f"a RunSpec must be a JSON object, got {type(data).__name__}")
        _check_dict_keys(cls, data)
        data = dict(data)
        workload = data.pop("workload", None)
        if workload is not None:
            if isinstance(workload, dict):
                workload = WorkloadSpec.from_dict(workload)
            elif not isinstance(workload, WorkloadSpec):
                raise SpecError(
                    f"workload must be an object, got {type(workload).__name__}"
                )
            data["workload"] = workload
        spec = cls(**data)
        return spec.validate()

    @classmethod
    def from_json(cls, path: str | Path) -> "RunSpec":
        """Load and validate a spec from a JSON file (``--spec``)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self, path: str | Path) -> None:
        """Persist the spec as pretty-printed JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def replace(self, **changes) -> "RunSpec":
        """A copy with ``changes`` applied (sweep/grid convenience)."""
        return replace(self, **changes)

    @property
    def solver_variant(self) -> SolverVariant:
        """The spec's solver-variant triple.

        Static degradation modes project into the variant; ``auto``
        starts exact and switches at runtime, so it projects as exact.
        """
        return SolverVariant(
            backend=self.backend,
            search=self.search,
            use_index=self.use_index,
            top_c=self.approx_top_c if self.approx == "top_c" else None,
            floor=self.approx_floor if self.approx == "floor" else None,
        )
