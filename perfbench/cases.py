"""The benchmark's workloads: inputs from a seed, one drain, its checks.

Every workload is a trace (or task set) generated here from the seed
and replayed as fast as possible through the public runtime API.
Arrivals are fixed in *virtual* time, so a slow server gets no less
work: this is a replay, not an open-loop server.  Every workload runs
the numpy backend with exact search (``approx="off"``).

Why each workload exists, what it stresses and what it bypasses is in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.instrumentation import OpCounters
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import TraceRecorder
from repro.runtime import RunSpec, WorkloadSpec
from repro.runtime.factory import StreamRuntime, build_serving_solver
from repro.stream.events import TaskArrival, WorkerJoin
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.workloads.streaming import StreamScenarioConfig, build_stream_events

#: Inputs of one run are SUB_INPUTS[workload] traces (or task sets),
#: each from its own seed; sub-input 0 uses the run's seed itself.
SEED_STRIDE = 1_000_003

# Sizes: the shape of the ROADMAP's pinned scenarios, scaled so one
# pass over a run's inputs fits well inside the run length.  Arrivals
# run at 1.0 per core (2x the pinned rate; the sharded trace, with two
# cores, at 2.0), so admission saturates on every core: completed work
# is then capacity-bound and nearly the same for every seed, instead of
# following the Poisson arrival count.
STREAM_SHAPE = dict(
    horizon=120, task_rate=1.0, initial_workers=400, join_rate=4.0, task_slots=80
)
SHARDED_SHAPE = dict(STREAM_SHAPE, task_rate=2.0)
PLAIN_SHAPE = dict(tasks=30, slots=300, workers=500)

SUB_INPUTS = {"stream-churn": 6, "plain-batch": 2, "stream-sharded-process": 3}

def process_workers() -> int:
    """Process-pool width: two, never more than the CPUs we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def sub_seeds(workload: str, seed: int) -> list[int]:
    return [seed + SEED_STRIDE * i for i in range(SUB_INPUTS[workload])]


def plan_hash(signature) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:16]


@dataclass
class Drain:
    """What one set-up plus one run of one input produced."""

    seed: int
    setup_s: float
    run_s: float
    events: int
    tasks_completed: int
    quality_sum: float
    plan_hash: str
    latencies_ms: list[float]
    counters: OpCounters
    problems: list[str] = field(default_factory=list)
    modeled_speedup: float = 0.0
    tasks_routed: list[int] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------
def stream_spec(seed: int, shape: dict, **extra) -> RunSpec:
    return RunSpec(
        mode="stream", backend="numpy", workload=WorkloadSpec(seed=seed, **shape), **extra
    )


def stream_config(seed: int, shape: dict) -> StreamScenarioConfig:
    return StreamScenarioConfig(
        seed=seed,
        horizon=shape["horizon"],
        task_rate=shape["task_rate"],
        initial_workers=shape["initial_workers"],
        worker_join_rate=shape["join_rate"],
        task_slots=shape["task_slots"],
    )


def plain_spec(seed: int, shape: dict) -> RunSpec:
    return RunSpec(
        mode="plain", backend="numpy", search="lazy", use_index=False,
        workload=WorkloadSpec(seed=seed, **shape),
    )


def setup(workload: str, seed: int, shape: dict | None = None, tracer=None):
    """Generate one input and build the stack that serves it.

    Returns ``(handle, setup_s)``; the timed part is exactly workload
    generation plus runtime and server construction.
    """
    span = tracer.span if tracer is not None else (lambda layer: nullcontext())
    if workload == "plain-batch":
        shape = shape or PLAIN_SHAPE
        spec = plain_spec(seed, shape)
        start = time.perf_counter()
        scenario = build_scenario(
            ScenarioConfig(
                num_tasks=shape["tasks"], num_slots=shape["slots"],
                num_workers=shape["workers"], seed=seed, k=spec.k,
                budget_fraction=spec.budget_fraction,
            )
        )
        with span("runtime.build"):
            solver = build_serving_solver(spec, scenario.pool, scenario.bbox)
        elapsed = time.perf_counter() - start
        return (spec, scenario, solver), elapsed
    extra = {}
    if workload == "stream-sharded-process":
        shape = shape or SHARDED_SHAPE
        extra = dict(shards=2, executor="process", max_workers=process_workers())
    shape = shape or STREAM_SHAPE
    spec = stream_spec(seed, shape, **extra)
    start = time.perf_counter()
    scenario = build_stream_events(stream_config(seed, shape))
    with span("runtime.build"):
        runtime = StreamRuntime(spec, scenario=scenario)
        runtime.server
    elapsed = time.perf_counter() - start
    return (spec, scenario, runtime), elapsed


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(workload: str, handle, seed: int, setup_s: float, tracer=None) -> Drain:
    """Run one set-up input to completion; time it; check the plan.

    With a ``tracer``, everything after the timed region runs with the
    wrappers removed, so spans cover exactly the timed wall clock.
    """
    drive = {
        "plain-batch": _run_plain,
        "stream-churn": _run_stream,
        "stream-sharded-process": _run_sharded,
    }[workload]
    return drive(handle, seed, setup_s, tracer.untraced if tracer is not None else nullcontext)


def _run_stream(handle, seed, setup_s, untraced) -> Drain:
    spec, scenario, runtime = handle
    server = runtime.server
    events = list(scenario.events)
    latencies = []
    clock = time.perf_counter
    start = clock()
    server.begin(events)
    while server.pending_work():
        began = clock()
        server.step_epoch()
        latencies.append((clock() - began) * 1000.0)
    metrics = server.finish()
    run_s = clock() - start
    with untraced():
        return _stream_drain(spec, scenario, server, metrics, seed, setup_s, run_s, latencies)


def _stream_drain(spec, scenario, server, metrics, seed, setup_s, run_s, latencies):
    plan = server.assignment()
    drain = Drain(
        seed=seed, setup_s=setup_s, run_s=run_s, events=metrics.total_events,
        tasks_completed=metrics.tasks_completed,
        quality_sum=sum(metrics.promised_quality.values()),
        plan_hash=plan_hash(plan.plan_signature()), latencies_ms=latencies,
        counters=server.counters.snapshot(),
    )
    drain.problems = check_stream_plan(scenario, [plan], metrics.promised_quality, spec.k)
    return drain


def _run_sharded(handle, seed, setup_s, untraced) -> Drain:
    spec, scenario, runtime = handle
    start = time.perf_counter()
    outcome = runtime.run()
    run_s = time.perf_counter() - start
    with untraced():
        return _sharded_drain(spec, scenario, runtime, outcome, seed, setup_s, run_s)


def _sharded_drain(spec, scenario, runtime, outcome, seed, setup_s, run_s):
    metrics = outcome.metrics
    counters = OpCounters()
    for shard_counters in outcome.counters:
        counters.merge(shard_counters)
    drain = Drain(
        seed=seed, setup_s=setup_s, run_s=run_s,
        events=len(scenario.events), tasks_completed=metrics.tasks_completed,
        quality_sum=sum(outcome.qualities.values()),
        plan_hash=plan_hash(outcome.plan_signature),
        latencies_ms=[run_s * 1000.0], counters=counters,
        modeled_speedup=metrics.speedup, tasks_routed=list(metrics.tasks_routed),
    )
    # Halo replicas may serve two shards at once by design, so a
    # (worker, slot) pair is unique within a shard, not across shards.
    plans = [core.assignment() for core in runtime.server.servers]
    drain.problems = check_stream_plan(scenario, plans, outcome.qualities, spec.k)
    return drain


def _run_plain(handle, seed, setup_s, untraced) -> Drain:
    spec, scenario, solver = handle
    # The plain round's own profiler times each task's solve: that is
    # its per-request decision latency.  Spans only read counters.
    recorder = TraceRecorder(None)
    profiler = PhaseProfiler(recorder=recorder)
    start = time.perf_counter()
    report = solver.assign(
        scenario.tasks, budget_fraction=spec.budget_fraction, profiler=profiler
    )
    run_s = time.perf_counter() - start
    with untraced():
        return _plain_drain(spec, scenario, report, recorder, seed, setup_s, run_s)


def _plain_drain(spec, scenario, report, recorder, seed, setup_s, run_s):
    latencies = [
        record["timing"]["wall_s"] * 1000.0
        for record in recorder.records if record["type"] == "solve"
    ]
    served = {record.task_id for record in report.assignment}
    drain = Drain(
        seed=seed, setup_s=setup_s, run_s=run_s, events=len(scenario.tasks),
        tasks_completed=len(served), quality_sum=sum(report.qualities.values()),
        plan_hash=plan_hash(report.plan_signature()), latencies_ms=latencies,
        counters=report.counters.snapshot(),
    )
    drain.problems = check_plain_plan(scenario, report, spec.k)
    return drain


# ----------------------------------------------------------------------
# Plan checks (independent of the pinned hashes, so they bind on every seed)
# ----------------------------------------------------------------------
def _recomputed_quality(task, records, workers, k) -> float:
    """The plan's quality from the scalar reference evaluator."""
    ev = TemporalQualityEvaluator(task.num_slots, k, backend="python")
    for record in sorted(records, key=lambda r: r.slot):
        ev.execute(record.slot, workers[record.worker_id].reliability)
    return ev.quality


def _check_records(tasks, workers, plans, qualities, k) -> list[str]:
    problems = []
    by_task: dict[int, list] = {}
    for plan in plans:
        used = set()
        for record in plan:
            task = tasks[record.task_id]
            gslot = task.global_slot(record.slot)
            worker = workers.get(record.worker_id)
            if worker is None or gslot not in worker.availability:
                problems.append(f"worker {record.worker_id} not available at slot {gslot}")
            if (record.worker_id, gslot) in used:
                problems.append(f"worker {record.worker_id} assigned twice at slot {gslot}")
            used.add((record.worker_id, gslot))
            by_task.setdefault(record.task_id, []).append(record)
    for task_id, quality in qualities.items():
        expected = _recomputed_quality(tasks[task_id], by_task.get(task_id, []), workers, k)
        if abs(expected - quality) > 1e-9 * max(1.0, abs(expected)):
            problems.append(f"task {task_id}: quality {quality!r} != recomputed {expected!r}")
    return problems


def check_stream_plan(scenario, plans, qualities, k) -> list[str]:
    tasks = {e.task.task_id: e.task for e in scenario.events if isinstance(e, TaskArrival)}
    workers = {e.worker.worker_id: e.worker for e in scenario.events if isinstance(e, WorkerJoin)}
    return _check_records(tasks, workers, plans, qualities, k)


def check_plain_plan(scenario, report, k) -> list[str]:
    tasks = {task.task_id: task for task in scenario.tasks}
    workers = {worker.worker_id: worker for worker in scenario.pool}
    problems = _check_records(tasks, workers, [report.assignment], report.qualities, k)
    for task_id, budget in report.budgets.items():
        spent = sum(r.cost for r in report.assignment if r.task_id == task_id)
        if spent > budget + 1e-9:
            problems.append(f"task {task_id}: spent {spent!r} over budget {budget!r}")
    return problems
