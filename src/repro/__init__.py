"""repro — Time-Continuous Spatial Crowdsourcing (TCSC).

A from-scratch reproduction of "On Efficient and Scalable
Time-Continuous Spatial Crowdsourcing" (ICDE 2021): the entropy-based
quality metric, budgeted single-task assignment (``Approx`` and the
tree-indexed ``Approx*``), multi-task summation-/minimum-quality
assignment with worker-conflict-aware parallelization, and the
spatiotemporal (STCC) extension — plus the *streaming* subsystem
(:mod:`repro.stream`): an event-driven online server with worker
churn, admission control, and incrementally-maintained indexes — the
*sharded serving layer* (:mod:`repro.shard`): halo-partitioned
multi-shard assignment whose merged plans are byte-identical to the
single-node solve — and the *durability layer* (:mod:`repro.journal`):
a checksummed write-ahead journal with snapshots whose crash recovery
is provably exact (byte-identical plans, metrics, and op counters).
The *composable runtime* (:mod:`repro.runtime`) ties them together:
one declarative :class:`RunSpec` names the workload, solver variant,
serving mode, sharding, and durability, and
:func:`~repro.runtime.build_runtime` assembles the stack as layers —
capability pairings are spec fields, not subclasses, and
``python -m repro bench matrix`` checks every composition against its
expected server class and its journal-off and python-backend cells,
while ``bench-regress`` pins the base compositions against a committed
ledger.  The *observability subsystem*
(:mod:`repro.obs`) rides the same layer seam: structured
deterministic trace records, a metrics registry with exact log2
percentiles, and phase-attributed profiling — provably free (every
``bench matrix`` cell also gates telemetry-off byte-identity and
zero op-count overhead).  The *degradation subsystem*
(:mod:`repro.degrade`) makes overload a first-class mode: certified
bounded-candidate and quality-floor approximation, an SLO-aware
exact → top-c → floor → shed ladder with deterministic hysteresis,
and a fault-injection harness (flash crowds, region outages,
op-budget slowdowns) — ``python -m repro bench degrade`` gates
per-task certificate soundness and degrading-beats-shedding useful
work (approx-off byte-identity is a ``bench matrix`` gate).

Quickstart::

    from repro import ScenarioConfig, build_scenario, TCSCServer

    scenario = build_scenario(ScenarioConfig(num_slots=300, num_workers=1000))
    server = TCSCServer(scenario.pool, scenario.bbox)
    report = server.assign_single(scenario.single_task, budget=scenario.budget)
    print(report.qualities)

Streaming quickstart::

    from repro import StreamScenarioConfig, StreamingTCSCServer, build_stream_events

    scenario = build_stream_events(StreamScenarioConfig(seed=7))
    server = StreamingTCSCServer(scenario.bbox, index_mode="incremental")
    print(server.run(scenario.events).report())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from repro.core.baselines import OptimalSolver, RandomAssignmentSolver, RandomSummary
from repro.core.cover import CoverResult, MinCostCoverSolver
from repro.core.evaluator import SlotChange, TemporalQualityEvaluator
from repro.core.greedy import (
    GreedyStep,
    IndexedSingleTaskGreedy,
    SingleTaskGreedy,
    SolverResult,
)
from repro.core.instrumentation import OpCounters
from repro.core.quality import (
    entropy_term,
    error_ratio,
    finishing_probability,
    max_quality,
    task_quality,
)
from repro.core.spatiotemporal import (
    LazySpatioTemporalGreedy,
    SpatioTemporalEvaluator,
    SpatioTemporalGreedy,
    score_assignment,
    spatiotemporal_opt,
)
from repro.core.tree_index import BestCandidate, TreeIndex
from repro.core.voronoi import OrderKVoronoi, VoronoiCell
from repro.engine.batches import BatchReport, BatchTCSCServer
from repro.engine.costs import DynamicCostProvider, SingleTaskCostTable, SlotOffer
from repro.engine.field import SpatioTemporalField
from repro.engine.interpolation import idw_series, reconstruction_rmse
from repro.engine.realization import (
    RealizationOutcome,
    expected_realized_quality,
    simulate_execution,
)
from repro.engine.registry import WorkerRegistry
from repro.engine.server import ServerReport, TCSCServer
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    InfeasibleAssignmentError,
    JournalCorruptionError,
    JournalError,
    JournalReplayError,
    SchedulingError,
    SpecError,
    TCSCError,
    WorkerUnavailableError,
)
from repro.journal.layer import (
    CrashBudget,
    InjectedCrash,
    JournalLayer,
    RecoveryInfo,
)
from repro.runtime import (
    RunOutcome,
    RunSpec,
    ServingLayer,
    SolverVariant,
    WorkloadSpec,
    build_runtime,
    recover_runtime,
)
from repro.journal.wal import Journal, WriteAheadLog
from repro.obs import (
    LogHistogram,
    MetricsRegistry,
    PhaseProfiler,
    Telemetry,
    TelemetryLayer,
    TraceRecorder,
)
from repro.degrade import (
    ChaosLayer,
    DegradationController,
    DegradationLayer,
    DegradeDirective,
    InjectionSpec,
    apply_injections,
    gain_envelope_bound,
    load_injections,
)
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.model.assignment import Assignment, AssignmentRecord, Budget
from repro.model.task import Task, TaskSet
from repro.model.worker import Worker, WorkerPool
from repro.stream.clock import VirtualClock
from repro.stream.events import (
    BudgetRefresh,
    EventQueue,
    TaskArrival,
    WorkerJoin,
    WorkerLeave,
)
from repro.stream.metrics import StreamMetrics
from repro.stream.online_server import BudgetPool, StreamingTCSCServer
from repro.stream.session import TaskSession
from repro.multi.conflicts import ConflictRecord, detect_conflicts, independent_groups
from repro.multi.grouping import GroupLevelParallelSolver
from repro.multi.mmqm import MinQualityGreedy
from repro.multi.msqm import SumQualityGreedy
from repro.multi.result import MultiSolverResult, MultiStep
from repro.multi.scheduler import TaskLevelParallelSolver
from repro.shard.partitioner import SpatialPartitioner
from repro.shard.server import (
    SequentialServingSolver,
    ShardedReport,
    ShardedTCSCServer,
)
from repro.shard.streaming import ShardedStreamingServer
from repro.workloads.scenario import Scenario, ScenarioConfig, build_scenario
from repro.workloads.spatial import Distribution, generate_points
from repro.workloads.streaming import (
    StreamScenario,
    StreamScenarioConfig,
    build_stream_events,
)

__version__ = "1.9.0"

__all__ = [
    "Assignment",
    "AssignmentRecord",
    "BatchReport",
    "BatchTCSCServer",
    "BestCandidate",
    "BoundingBox",
    "Budget",
    "BudgetExhaustedError",
    "BudgetPool",
    "BudgetRefresh",
    "EventQueue",
    "ChaosLayer",
    "ConfigurationError",
    "ConflictRecord",
    "CoverResult",
    "CrashBudget",
    "DegradationController",
    "DegradationLayer",
    "DegradeDirective",
    "Distribution",
    "DynamicCostProvider",
    "GreedyStep",
    "GroupLevelParallelSolver",
    "IndexedSingleTaskGreedy",
    "InfeasibleAssignmentError",
    "InjectedCrash",
    "InjectionSpec",
    "Journal",
    "JournalCorruptionError",
    "JournalError",
    "JournalLayer",
    "JournalReplayError",
    "LazySpatioTemporalGreedy",
    "LogHistogram",
    "MetricsRegistry",
    "MinCostCoverSolver",
    "MinQualityGreedy",
    "MultiSolverResult",
    "MultiStep",
    "OpCounters",
    "PhaseProfiler",
    "OptimalSolver",
    "OrderKVoronoi",
    "Point",
    "RandomAssignmentSolver",
    "RealizationOutcome",
    "RandomSummary",
    "RecoveryInfo",
    "RunOutcome",
    "RunSpec",
    "Scenario",
    "ScenarioConfig",
    "SchedulingError",
    "SequentialServingSolver",
    "ServerReport",
    "ServingLayer",
    "SolverVariant",
    "ShardedReport",
    "ShardedStreamingServer",
    "ShardedTCSCServer",
    "SingleTaskCostTable",
    "SingleTaskGreedy",
    "SlotChange",
    "SlotOffer",
    "SolverResult",
    "SpatialPartitioner",
    "SpatioTemporalEvaluator",
    "SpatioTemporalField",
    "SpatioTemporalGreedy",
    "StreamMetrics",
    "StreamScenario",
    "StreamScenarioConfig",
    "StreamingTCSCServer",
    "SumQualityGreedy",
    "TCSCError",
    "TCSCServer",
    "Task",
    "TaskArrival",
    "TaskLevelParallelSolver",
    "TaskSession",
    "TaskSet",
    "Telemetry",
    "TelemetryLayer",
    "TemporalQualityEvaluator",
    "TraceRecorder",
    "TreeIndex",
    "VirtualClock",
    "VoronoiCell",
    "SpecError",
    "Worker",
    "WorkerJoin",
    "WorkloadSpec",
    "WriteAheadLog",
    "WorkerLeave",
    "WorkerPool",
    "WorkerRegistry",
    "WorkerUnavailableError",
    "apply_injections",
    "build_runtime",
    "build_scenario",
    "build_stream_events",
    "recover_runtime",
    "detect_conflicts",
    "entropy_term",
    "error_ratio",
    "expected_realized_quality",
    "finishing_probability",
    "gain_envelope_bound",
    "generate_points",
    "load_injections",
    "idw_series",
    "independent_groups",
    "max_quality",
    "reconstruction_rmse",
    "score_assignment",
    "simulate_execution",
    "spatiotemporal_opt",
    "task_quality",
]
