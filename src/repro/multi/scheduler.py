"""Task-level parallelization (Section IV-A.2, Figure 5).

Every task runs as a *worker thread* computing its own next-best
candidate; the *master thread* maintains the Heartbeat, Conflicting,
and Logging tables and grants executions.  The grant rule is the
paper's: the master keeps the heartbeat table sorted descendingly and
lets a ready thread execute only when no other live thread's last
reported heuristic exceeds it.

Because per-task heuristic values are **non-increasing over time**
(candidate gains are submodular in the task's own executed set, are
untouched by other tasks' executions, and worker costs only grow as
workers are consumed), a stale heartbeat is always an upper bound on
the thread's next value.  Granting against stale heartbeats is
therefore *exactly* the serial greedy order: the parallel plan
provably coincides with :class:`~repro.multi.msqm.SumQualityGreedy`'s
plan — the determinism the paper claims.  (With heterogeneous worker
reliabilities a conflict can swap in a more reliable worker and raise
a heuristic; the plan may then deviate slightly, as the paper's
"hard to strictly control" caveat admits.)

Timing runs on a deterministic discrete-event simulation: candidate
computations are quanta whose durations come from the per-task
operation counters, quanta are multiplexed onto ``cores`` simulated
cores, and every master interaction (heartbeat report, grant,
conflict notification) charges a serial message cost.  The ``priority``
flag reproduces Fig. 9(f): when cores are contended, pending quanta
are scheduled by last-known heuristic value (descending, with fresh
threads at infinity "to avoid thread starvation") instead of FIFO, so
the thread whose recompute blocks the next grant runs first.

There is no real-``threading`` variant: CPython's GIL serializes the
pure-Python candidate computations, so real threads would show no
speedup, and the virtual-time simulation above is what reproduces the
paper's time-vs-cores claim (Fig. 9).
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.instrumentation import OpCounters
from repro.engine.registry import WorkerRegistry
from repro.errors import SchedulingError
from repro.model.assignment import Assignment, AssignmentRecord, Budget
from repro.model.task import TaskSet
from repro.multi.result import MultiSolverResult, MultiStep
from repro.multi.tables import ConflictingTable, HeartbeatTable, LoggingTable
from repro.multi.task_state import Candidate, TaskState

__all__ = ["TaskLevelParallelSolver"]

_INF = float("inf")

# Thread lifecycle states.
_PENDING = "pending"      # needs a core to (re)compute its candidate
_COMPUTING = "computing"  # quantum in flight on a core
_READY = "ready"          # candidate reported, waiting for a grant
_DONE = "done"            # no executable candidate remains


class _Thread:
    """Simulation-side view of one task's worker thread."""

    __slots__ = ("state", "status", "candidate", "dirty", "pending_since")

    def __init__(self, state: TaskState):
        self.state = state
        self.status = _PENDING
        self.candidate: Candidate | None = None
        self.dirty = False          # invalidated while computing
        self.pending_since = 0.0


class TaskLevelParallelSolver:
    """Figure 5's framework on the virtual-clock simulator."""

    def __init__(
        self,
        tasks: TaskSet,
        registry: WorkerRegistry,
        *,
        k: int = 3,
        budget: float,
        ts: int = 4,
        cores: int = 10,
        priority: bool = True,
        grant_mode: str = "pipelined",
        use_index: bool = True,
        per_message_cost: float = 1.0,
        quantum_overhead: float = 1.0,
        scheduling_slice: float = 25.0,
    ):
        """``grant_mode`` selects the master's admission policy:

        * ``"serial-equivalent"`` — a ready thread executes only when
          no live thread's last heartbeat exceeds its heuristic.  The
          plan provably equals the serial greedy's, at the price of a
          per-iteration synchronization (speedup comes from the initial
          fan-out and from conflicted recomputes overlapping).
        * ``"pipelined"`` (default) — ready threads execute as soon as
          the master clears their worker; the global greedy order is
          approximated by the priority scheduling of recompute quanta
          (the paper's admission: "it is unavoidable that threads with
          lower heuristic values are executed earlier than those with
          higher values ... mostly alleviated with our priority
          settings").  Near-linear scaling with cores, quality within a
          hair of serial.
        """
        self.tasks = tasks
        self.registry = registry
        self.budget_limit = float(budget)
        self.cores = cores
        self.priority = priority
        self.per_message_cost = per_message_cost
        self.quantum_overhead = quantum_overhead
        #: Models the OS dispatch latency a woken thread pays before it
        #: reaches a core.  With dynamic priorities (the paper's step 4)
        #: a thread only waits behind *higher-priority* live threads;
        #: without them it waits a full round-robin cycle over all live
        #: threads — the mechanism behind Fig. 9(f)'s gap.
        self.scheduling_slice = scheduling_slice
        if grant_mode not in ("pipelined", "serial-equivalent"):
            raise SchedulingError(f"unknown grant_mode {grant_mode!r}")
        self.grant_mode = grant_mode
        if cores < 1:
            raise SchedulingError(f"cores must be >= 1, got {cores}")
        self.states = [
            TaskState(task, registry, k=k, ts=ts, use_index=use_index, counters=OpCounters())
            for task in tasks
        ]
        self.heartbeats = HeartbeatTable()
        self.log = LoggingTable()
        self.conflicting = ConflictingTable()

    # ------------------------------------------------------------------
    # Simulation driver
    # ------------------------------------------------------------------
    def solve(self) -> MultiSolverResult:
        """Run the simulated parallel assignment.

        In serial-equivalent mode all threads draw from the shared
        budget and the plan equals the serial greedy's.  In pipelined
        mode the budget is pre-split equally across tasks (the only
        way a concurrent system can enforce Problem 2's knapsack
        constraint without serializing every grant), so each thread's
        plan is its own deterministic greedy and quality is
        essentially core-count independent.
        """
        budget = Budget(self.budget_limit)
        per_task_budgets: dict[int, Budget] | None = None
        if self.grant_mode == "pipelined":
            share = self.budget_limit / max(len(self.states), 1)
            per_task_budgets = {
                state.task.task_id: Budget(share) for state in self.states
            }

        def remaining_for(task_id: int) -> float:
            if per_task_budgets is not None:
                return per_task_budgets[task_id].remaining
            return budget.remaining

        def charge(task_id: int, cost: float) -> None:
            budget.charge(cost)
            if per_task_budgets is not None:
                per_task_budgets[task_id].charge(cost)

        assignment = Assignment()
        steps: list[MultiStep] = []
        conflicts = 0
        messages = 0

        threads = {state.task.task_id: _Thread(state) for state in self.states}
        core_free = [0.0] * self.cores
        heapq.heapify(core_free)
        events: list[tuple[float, int, int]] = []  # (time, seq, task_id)
        seq = itertools.count()
        now = 0.0

        def schedule_pending(current: float) -> None:
            """Place all PENDING threads onto cores (priority order)."""
            pending = [t for t in threads.values() if t.status == _PENDING]
            if self.priority:
                # Last-known heuristic descending; never-reported = inf.
                def key(thread: _Thread):
                    beat = self.heartbeats.value(thread.state.task.task_id)
                    return (-(beat if beat is not None else _INF), thread.state.task.task_id)
            else:
                def key(thread: _Thread):
                    return (thread.pending_since, thread.state.task.task_id)
            live = sum(1 for t in threads.values() if t.status != _DONE)
            for thread in sorted(pending, key=key):
                task_id = thread.state.task.task_id
                before = thread.state.counters.snapshot()
                thread.candidate = thread.state.best_candidate(remaining_for(task_id))
                work = thread.state.counters.delta_since(before).virtual_cost()
                duration = work + self.quantum_overhead
                # OS dispatch latency: with priorities, wait only behind
                # strictly higher-priority live threads; without them,
                # wait a round-robin cycle over every live thread.
                if self.priority:
                    my_beat = self.heartbeats.value(task_id)
                    mine = _INF if my_beat is None else my_beat
                    ahead = 0
                    for t in threads.values():
                        if t.status == _DONE or t.state.task.task_id == task_id:
                            continue
                        beat = self.heartbeats.value(t.state.task.task_id)
                        if (_INF if beat is None else beat) > mine:
                            ahead += 1
                else:
                    ahead = live
                dispatch_delay = self.scheduling_slice * ahead / self.cores
                free = heapq.heappop(core_free)
                start = max(free, max(current, thread.pending_since) + dispatch_delay)
                end = start + duration
                heapq.heappush(core_free, end)
                heapq.heappush(events, (end, next(seq), task_id))
                thread.status = _COMPUTING
                thread.dirty = False

        def blockers_above(value: float) -> bool:
            """Any live non-ready thread whose last heartbeat (or inf if
            never reported) exceeds `value`?  Only consulted in
            serial-equivalent mode; the pipelined master admits ready
            threads straight away."""
            if self.grant_mode == "pipelined":
                return False
            for thread in threads.values():
                if thread.status in (_PENDING, _COMPUTING):
                    beat = self.heartbeats.value(thread.state.task.task_id)
                    if beat is None or beat > value:
                        return True
            return False

        def try_grants(current: float) -> None:
            nonlocal conflicts, messages
            while True:
                ready = [t for t in threads.values() if t.status == _READY]
                if not ready:
                    return
                best = min(
                    ready,
                    key=lambda t: (-t.candidate.heuristic, t.state.task.task_id),
                )
                if blockers_above(best.candidate.heuristic):
                    return
                candidate = best.candidate
                state = best.state
                task_id = state.task.task_id
                if candidate.cost > remaining_for(task_id) + 1e-12:
                    # Budget shrank since the candidate was computed:
                    # recompute under the current remaining budget.  The
                    # stale heartbeat stays as an upper bound, blocking
                    # other grants exactly as the serial order requires.
                    best.status = _PENDING
                    best.pending_since = current
                    best.candidate = None
                    schedule_pending(current)
                    return
                offer = state.execute(candidate.slot)
                charge(task_id, candidate.cost)
                global_slot = state.task.global_slot(candidate.slot)
                self.registry.consume(offer.worker_id, global_slot)
                messages += 1  # the grant
                assignment.add(
                    AssignmentRecord(task_id, candidate.slot, offer.worker_id, candidate.cost)
                )
                steps.append(
                    MultiStep(
                        task_id,
                        candidate.slot,
                        candidate.gain,
                        candidate.cost,
                        candidate.heuristic,
                        offer.worker_id,
                    )
                )
                # Conflict propagation.
                contenders = [task_id]
                for other in threads.values():
                    other_state = other.state
                    if other_state.task.task_id == task_id:
                        continue
                    lost = other_state.on_worker_consumed(offer.worker_id, global_slot)
                    if not lost:
                        continue
                    conflicts += 1
                    messages += 1  # conflict report to the master
                    contenders.append(other_state.task.task_id)
                    if other.status == _READY and other.candidate.slot in lost:
                        # Recompute with the next-nearest worker.  The
                        # stale heartbeat is kept: heuristics only ever
                        # decrease, so it remains a sound upper bound.
                        other.status = _PENDING
                        other.pending_since = current
                        other.candidate = None
                    elif other.status == _COMPUTING:
                        other.dirty = True
                if len(contenders) > 1:
                    self.conflicting.record(
                        tuple(sorted(contenders)),
                        global_slot,
                        offer.worker_id,
                        self.conflicting.bump_rank(global_slot) + 1,
                        current,
                    )
                # The executor computes its next candidate; its stale
                # heartbeat (the just-consumed maximum) keeps blocking
                # grants until the new value arrives — which is exactly
                # the serial greedy's information flow.
                best.status = _PENDING
                best.pending_since = current
                best.candidate = None
                schedule_pending(current)

        schedule_pending(now)
        while events:
            now, _, task_id = heapq.heappop(events)
            thread = threads[task_id]
            if thread.status != _COMPUTING:
                raise SchedulingError(
                    f"completion event for thread in state {thread.status}"
                )
            if thread.dirty:
                thread.status = _PENDING
                thread.pending_since = now
                thread.candidate = None
                schedule_pending(now)
                continue
            if thread.candidate is None:
                thread.status = _DONE
                self.heartbeats.remove(task_id)
            else:
                thread.status = _READY
                messages += 1  # heartbeat report
                self.heartbeats.report(task_id, thread.candidate.heuristic, now)
                self.log.log(now, task_id, thread.candidate.heuristic)
            try_grants(now)

        if any(t.status not in (_DONE,) for t in threads.values()):
            raise SchedulingError("simulation ended with live threads")

        counters = OpCounters()
        for state in self.states:
            counters.merge(state.counters)
        counters.iterations = len(steps)
        counters.conflicts_detected = conflicts
        virtual_time = now + messages * self.per_message_cost
        return MultiSolverResult(
            assignment=assignment,
            qualities={state.task.task_id: state.quality for state in self.states},
            spent=budget.spent,
            counters=counters,
            steps=steps,
            virtual_time=virtual_time,
            conflict_count=conflicts,
        )

