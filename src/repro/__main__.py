"""Command-line interface: ``python -m repro <command>``.

Nine subcommands cover the common workflows:

* ``run`` — execute one declarative :class:`~repro.runtime.RunSpec`
  (``--spec file.json``), the spec-driven face of the composable
  runtime: serving mode, solver variant, sharding, and durability are
  spec fields resolved by :func:`repro.runtime.build_runtime`.
* ``solve-single`` — build a synthetic scenario and assign one task
  (policies: approx, approx_star, random).
* ``solve-multi`` — multi-task assignment under a shared budget
  (objectives: sum, min; optional virtual-clock cores).
* ``cover`` — the dual problem: minimum cost to reach a target
  fraction of the maximum quality.
* ``simulate`` — event-driven streaming mode: tasks and workers
  arrive/depart over a virtual clock (``--task-rate``,
  ``--burstiness``, ``--join-rate``, ``--mean-lifetime`` shape the
  arrival processes; ``--index-mode`` picks incremental vs
  rebuild-every-epoch index maintenance).  Internally one
  ``RunSpec`` built from the flags.
* ``bench SUITE`` — one system suite, each a set of seed-pinned
  identity and op-count gates persisted as
  ``benchmarks/BENCH_<SUITE>.json`` (``--smoke`` for the CI-sized
  run): ``perf`` (kernel backends x candidate search), ``shard``
  (plan identity at shard counts 1/2/4/8), ``journal``
  (crash/recover at every event boundary),
  ``matrix`` (every composition builds its expected server class
  and equals its journal-off, python-backend and telemetry-off
  runs), ``degrade`` (certificate
  soundness, overload useful work) and ``elastic`` (migration
  exactness, skew gain).
* ``bench-regress`` — the continuous op-count regression ledger:
  fingerprint pinned smoke cells (op counters, trace record
  tallies, virtual-cost critical path) against the committed
  ``benchmarks/baselines/``; ``--check`` gates CI, ``--update``
  regenerates the ledger.
* ``trace-report`` / ``trace-diff`` — the trace analytics pair:
  summarize one telemetry trace (``--json`` for tooling), or compare
  two traces under the timing mask and localize the first divergent
  record and its causal span.

Every command prints a compact report; ``--seed`` makes runs
reproducible.  The solve and simulate commands accept
``--backend {python,numpy}`` (identical plans, different speed),
attached through one shared helper so every subcommand spells it
identically; ``run`` and ``simulate`` take ``--telemetry`` /
``--trace-out`` for phase-attributed timings (read them back with
``trace-report``).  ``simulate --shards N`` routes the trace
over a sharded streaming deployment (``--halo`` sizes the worker
replication margin).  ``simulate --journal PATH`` write-ahead-logs
the run (``--snapshot-every`` paces snapshots); ``--crash-at K``
injects a kill after K events, and ``--resume`` recovers from the
journal and finishes the run — byte-identically to an uninterrupted
one.  ``simulate --approx {top_c,floor,auto}`` trades plan quality
for work under a certified quality ratio (``--top-c`` / ``--floor``
size the degradation; ``auto`` switches modes at runtime from queue
depth and the telemetry p99).  ``simulate --inject PLAN.json``
replays a fault-injection plan (worker-region outages, flash crowds,
op-budget slowdowns) against the trace.  A typed library error
(any :class:`~repro.errors.TCSCError`, e.g. an out-of-range
``--slots``) exits 2 with its one-line message, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.bench.report import SUITES
from repro.core.cover import MinCostCoverSolver
from repro.core.evaluator import EVALUATOR_BACKENDS
from repro.core.quality import max_quality
from repro.engine.costs import SingleTaskCostTable
from repro.engine.server import TCSCServer
from repro.errors import ConfigurationError, SpecError, TCSCError
from repro.runtime import RunSpec, WorkloadSpec, build_runtime, recover_runtime
from repro.stream.session import INDEX_MODES
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.workloads.spatial import Distribution

__all__ = ["main", "build_parser"]


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    """Attach the shared ``--backend`` flag."""
    p.add_argument(
        "--backend",
        choices=list(EVALUATOR_BACKENDS),
        default="python",
        help="quality-kernel backend (identical plans, different speed)",
    )


def _positive_int(value: str) -> int:
    """Parse a strictly-positive integer argument."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {count}")
    return count


def _max_workers_arg(value: str) -> int:
    """Parse ``--max-workers`` through the shared executor validation
    so the CLI and the spec reject the same values with the same text."""
    from repro.par.executor import validate_max_workers

    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    try:
        validate_max_workers(count)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return count


def _halo_spec(value: str):
    """Parse ``--halo``: the literal ``auto`` or a non-negative radius."""
    if value == "auto":
        return value
    try:
        radius = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"halo must be 'auto' or a radius, got {value!r}"
        ) from None
    if radius < 0:
        raise argparse.ArgumentTypeError(f"halo radius must be >= 0, got {radius}")
    return radius


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time-continuous spatial crowdsourcing (TCSC) assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--slots", type=int, default=100, help="subtasks per task (m)")
        p.add_argument("--workers", type=int, default=500, help="worker pool size")
        p.add_argument(
            "--distribution",
            choices=[d.value for d in Distribution],
            default="uniform",
            help="task-location distribution",
        )
        p.add_argument("--seed", type=int, default=7, help="scenario seed")
        p.add_argument("--k", type=int, default=3, help="interpolation neighbours")
        p.add_argument(
            "--budget-fraction",
            type=float,
            default=0.25,
            help="budget as a fraction of the average full-task cost",
        )
        _add_backend_flag(p)

    run = sub.add_parser(
        "run",
        help="execute one declarative RunSpec (the composable runtime)",
    )
    run.add_argument("--spec", default=None, metavar="PATH",
                     help="RunSpec JSON file (defaults apply for every "
                          "omitted field; omit the flag for the default spec)")
    run.add_argument("--mode", choices=["plain", "batch", "stream"],
                     default=None, help="override the spec's serving mode")
    run.add_argument("--shards", type=_positive_int, default=None,
                     help="override the spec's shard count")
    run.add_argument("--journal", default=None, metavar="PATH",
                     help="override the spec's journal directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's workload seed")
    run.add_argument("--print-spec", action="store_true",
                     help="print the effective spec as JSON and exit")
    run.add_argument("--backend", choices=list(EVALUATOR_BACKENDS),
                     default=None,
                     help="override the spec's quality-kernel backend")
    run.add_argument("--telemetry", action="store_true",
                     help="attach the observability layer (span tracing, "
                          "metrics, phase profiling) and print its report")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the structured JSONL trace here "
                          "(implies --telemetry; inspect with trace-report)")

    single = sub.add_parser("solve-single", help="assign one TCSC task")
    common(single)
    single.add_argument(
        "--policy",
        choices=["approx", "approx_star", "random"],
        default="approx_star",
    )

    multi = sub.add_parser("solve-multi", help="assign a task set")
    common(multi)
    multi.add_argument("--tasks", type=int, default=10, help="number of tasks")
    multi.add_argument("--objective", choices=["sum", "min"], default="sum")
    multi.add_argument(
        "--cores",
        type=int,
        default=None,
        help="run the task-level parallel framework on this many simulated cores",
    )

    cover = sub.add_parser("cover", help="minimum cost for a quality target")
    common(cover)
    cover.add_argument(
        "--target",
        type=float,
        default=0.8,
        help="target quality as a fraction of log2(m)",
    )

    sim = sub.add_parser(
        "simulate", help="event-driven streaming assignment over a virtual clock"
    )
    sim.add_argument("--seed", type=int, default=7, help="scenario seed")
    sim.add_argument("--horizon", type=int, default=100,
                     help="arrival window in global slots")
    sim.add_argument("--task-rate", type=float, default=0.15,
                     help="mean task arrivals per slot (Poisson)")
    sim.add_argument("--burstiness", type=float, default=0.0,
                     help="0 = Poisson arrivals; (0, 1] = on/off bursts")
    sim.add_argument("--task-slots", type=int, default=24,
                     help="subtasks per arriving task (m)")
    sim.add_argument("--initial-workers", type=int, default=40,
                     help="workers present at t=0")
    sim.add_argument("--join-rate", type=float, default=1.0,
                     help="worker joins per slot (Poisson)")
    sim.add_argument("--mean-lifetime", type=float, default=25.0,
                     help="mean worker lifetime in slots (exponential)")
    sim.add_argument("--early-leave-prob", type=float, default=0.3,
                     help="chance a worker churns out before its advertised end")
    sim.add_argument(
        "--distribution",
        choices=[d.value for d in Distribution],
        default="uniform",
        help="task-location distribution",
    )
    sim.add_argument("--epoch", type=float, default=5.0,
                     help="assignment-round period in virtual slots")
    sim.add_argument("--index-mode", choices=list(INDEX_MODES),
                     default="incremental",
                     help="tree-index maintenance under churn")
    sim.add_argument("--max-active", type=int, default=8,
                     help="admission-window size (concurrent live tasks)")
    sim.add_argument("--queue-depth", type=int, default=16,
                     help="pending tasks beyond this are rejected")
    sim.add_argument("--budget-fraction", type=float, default=0.25,
                     help="per-task budget as a fraction of its full cost")
    sim.add_argument("--k", type=int, default=3, help="interpolation neighbours")
    sim.add_argument("--shards", type=_positive_int, default=1,
                     help="route the trace over this many spatial shards "
                          "(1 = the plain streaming server)")
    sim.add_argument("--halo", type=_halo_spec, default="auto",
                     help="worker-replication margin for sharded mode: "
                          "'auto' or a radius in domain units")
    sim.add_argument("--elastic", action="store_true",
                     help="elastic sharding: load-triggered shard "
                          "split/merge/migration between executors, "
                          "plan-identical to the static placement "
                          "(requires --shards >= 2)")
    sim.add_argument("--migrate-at", dest="migrate_at", type=int,
                     default=None, metavar="EPOCH",
                     help="script one shard migration at the EPOCH-th "
                          "epoch boundary (hottest shard -> coldest "
                          "other executor; implies elastic mode)")
    sim.add_argument("--hotspot-drift", dest="hotspot_drift", type=float,
                     default=0.0, metavar="D",
                     help="arrival preset: late arrivals relocate onto one "
                          "spatial hotspot with probability D * t/horizon "
                          "(the elastic skew input; 0 disables)")
    sim.add_argument("--journal", default=None, metavar="PATH",
                     help="journal directory: write-ahead-log every event "
                          "and snapshot server state (one journal per shard "
                          "in sharded mode)")
    sim.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                     help="epochs between journal snapshots (default 4; "
                          "0 = final only; on --resume, default keeps the "
                          "interrupted run's cadence)")
    sim.add_argument("--crash-at", type=int, default=None, metavar="K",
                     help="fault injection: kill the run after K events "
                          "(requires --journal; recover with --resume)")
    sim.add_argument("--resume", action="store_true",
                     help="recover from --journal (latest snapshot + log "
                          "replay) and finish the interrupted run; the "
                          "journal itself supplies the server configuration "
                          "and shard layout")
    sim.add_argument("--sync", action="store_true",
                     help="fsync the write-ahead log on every append "
                          "(durability against machine crashes, not just "
                          "process kills; slower)")
    sim.add_argument("--approx", choices=["off", "top_c", "floor", "auto"],
                     default="off",
                     help="certified-approximation mode: top_c bounds the "
                          "candidate search, floor terminates low-gain "
                          "greedy steps early, auto switches exact -> "
                          "top_c -> floor -> shed at runtime from load "
                          "(requires --telemetry); every degraded plan "
                          "carries a certified quality ratio")
    sim.add_argument("--top-c", dest="top_c", type=_positive_int,
                     default=None, metavar="C",
                     help="candidate-search width for --approx top_c/auto")
    sim.add_argument("--floor", type=float, default=None, metavar="F",
                     help="quality floor in (0, 1] for --approx floor/auto: "
                          "stop a plan when marginal gain drops below F x "
                          "the first committed gain")
    sim.add_argument("--slo-p99", dest="slo_p99", type=float, default=None,
                     help="latency SLO (virtual slots) for --approx auto: "
                          "escalate degradation when the p99 assignment "
                          "latency exceeds this")
    sim.add_argument("--inject", default=None, metavar="PATH",
                     help="fault-injection plan (JSON): worker-region "
                          "outages, flash crowds, per-shard op-budget "
                          "slowdowns, applied deterministically to the "
                          "trace (incompatible with --resume)")
    sim.add_argument("--telemetry", action="store_true",
                     help="attach the observability layer (span tracing, "
                          "metrics, phase profiling) and print its report")
    sim.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the structured JSONL trace here "
                          "(implies --telemetry; inspect with trace-report)")
    sim.add_argument("--executor", default="serial", metavar="KIND",
                     help="where per-shard solves run: serial (in-process, "
                          "the default) or process (real cores; work units "
                          "cross the boundary as exact JSON snapshots, so "
                          "plans stay byte-identical)")
    sim.add_argument("--max-workers", dest="max_workers",
                     type=_max_workers_arg, default=None, metavar="N",
                     help="cap the executor's worker pool (requires "
                          "--executor process; default: one per shard, "
                          "bounded by the host's cores)")
    _add_backend_flag(sim)

    bench = sub.add_parser(
        "bench",
        help="run one system suite (identity and op-count gates; wall "
             "clock reported, never gated) -> benchmarks/BENCH_<SUITE>.json",
    )
    bench.add_argument("suite", choices=SUITES, metavar="SUITE",
                       help="one of: " + ", ".join(SUITES))
    bench.add_argument("--smoke", action="store_true",
                       help="smallest scenarios only (CI smoke mode)")
    bench.add_argument("--results-dir", default=None,
                       help="override benchmarks/results output directory")

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize a telemetry trace (phase timings, latency "
             "histograms, degradation transitions, shard stats) from "
             "its JSONL file alone",
    )
    trace_report.add_argument("trace", metavar="PATH",
                              help="trace file written by --trace-out")
    trace_report.add_argument("--json", action="store_true",
                              help="machine-readable JSON summary instead "
                                   "of the text report")

    trace_diff = sub.add_parser(
        "trace-diff",
        help="compare two telemetry traces under the timing mask and "
             "localize the first divergent record and its causal span "
             "(exit 0 identical, 1 divergent, 2 error)",
    )
    trace_diff.add_argument("trace_a", metavar="PATH_A",
                            help="first trace file (written by --trace-out)")
    trace_diff.add_argument("trace_b", metavar="PATH_B",
                            help="second trace file")
    trace_diff.add_argument("--json", action="store_true",
                            help="machine-readable JSON divergence report")

    regress = sub.add_parser(
        "bench-regress",
        help="continuous op-count regression ledger: fingerprint every "
             "suite's smoke cells (op counters + trace tallies + "
             "critical path) against benchmarks/baselines/ -> "
             "benchmarks/BENCH_regress.json",
    )
    regress.add_argument("--check", action="store_true",
                         help="CI mode: exit 1 on any drift from the "
                              "committed baselines (or a missing baseline)")
    regress.add_argument("--update", action="store_true",
                         help="regenerate the committed baselines from the "
                              "current code (review the diff before "
                              "committing)")
    regress.add_argument("--results-dir", default=None,
                         help="override benchmarks/results output directory")
    regress.add_argument("--baselines-dir", default=None,
                         help="override the benchmarks/baselines ledger "
                              "directory")
    return parser


def _scenario(args, num_tasks: int = 1):
    return build_scenario(
        ScenarioConfig(
            num_tasks=num_tasks,
            num_slots=args.slots,
            num_workers=args.workers,
            distribution=Distribution(args.distribution),
            seed=args.seed,
            k=args.k,
            budget_fraction=args.budget_fraction,
        )
    )


def _cmd_solve_single(args) -> int:
    scenario = _scenario(args)
    server = TCSCServer(scenario.pool, scenario.bbox, k=args.k, backend=args.backend)
    report = server.assign_single(
        scenario.single_task, scenario.budget, policy=args.policy, seed=args.seed
    )
    task = scenario.single_task
    print(f"policy={args.policy} m={task.num_slots} workers={args.workers}")
    print(f"assigned {len(report.assignment)} subtasks, "
          f"spent {report.total_cost:.3f} / {scenario.budget:.3f}")
    print(f"quality {report.qualities[task.task_id]:.4f} "
          f"(max {max_quality(task.num_slots):.4f})")
    return 0


def _cmd_solve_multi(args) -> int:
    scenario = _scenario(args, num_tasks=args.tasks)
    budget = scenario.budget * args.tasks
    server = TCSCServer(scenario.pool, scenario.bbox, k=args.k, backend=args.backend)
    report = server.assign_multi(
        scenario.tasks, budget, objective=args.objective, cores=args.cores
    )
    print(f"objective={args.objective} tasks={args.tasks} "
          f"cores={'serial' if args.cores is None else args.cores}")
    print(f"assigned {len(report.assignment)} subtasks, "
          f"spent {report.total_cost:.3f} / {budget:.3f}")
    print(f"qsum {report.sum_quality:.4f}  qmin {report.min_quality:.4f}")
    return 0


def _cmd_cover(args) -> int:
    scenario = _scenario(args)
    task = scenario.single_task
    costs = SingleTaskCostTable(task, scenario.fresh_registry())
    target = args.target * max_quality(task.num_slots)
    result = MinCostCoverSolver(
        task, costs, k=args.k, target_quality=target, backend=args.backend
    ).solve()
    print(f"target quality {target:.4f} ({args.target:.0%} of log2(m))")
    print(f"reached {result.quality:.4f} with {len(result.assignment)} subtasks "
          f"at cost {result.cost:.3f}")
    return 0


def _stream_spec(args) -> RunSpec:
    """One ``RunSpec`` from the ``simulate`` flag set — the single
    place the streaming CLI's knobs meet the runtime's fields."""
    return RunSpec(
        mode="stream",
        workload=WorkloadSpec(
            seed=args.seed,
            distribution=args.distribution,
            horizon=args.horizon,
            task_rate=args.task_rate,
            burstiness=args.burstiness,
            task_slots=args.task_slots,
            initial_workers=args.initial_workers,
            join_rate=args.join_rate,
            mean_lifetime=args.mean_lifetime,
            early_leave_prob=args.early_leave_prob,
            hotspot_drift=args.hotspot_drift,
        ),
        backend=args.backend,
        k=args.k,
        epoch_length=args.epoch,
        index_mode=args.index_mode,
        budget_fraction=args.budget_fraction,
        max_active_tasks=args.max_active,
        max_queue_depth=args.queue_depth,
        shards=args.shards,
        halo=args.halo,
        elastic=(
            "fixed" if args.migrate_at is not None
            else ("auto" if args.elastic else "off")
        ),
        migrate_at=args.migrate_at,
        journal=args.journal,
        snapshot_every=4 if args.snapshot_every is None else args.snapshot_every,
        sync=args.sync and args.journal is not None,
        crash_after_events=None if args.resume else args.crash_at,
        telemetry=args.telemetry or args.trace_out is not None,
        trace_out=args.trace_out,
        approx=args.approx,
        approx_top_c=args.top_c,
        approx_floor=args.floor,
        slo_p99=args.slo_p99,
        executor=args.executor,
        max_workers=args.max_workers,
    ).validate()


def _cmd_simulate(args) -> int:
    if args.journal is None and (args.crash_at is not None or args.resume):
        print("--crash-at/--resume require --journal PATH", file=sys.stderr)
        return 2
    if args.journal is not None and not args.resume:
        from repro.journal.wal import journal_kind

        if journal_kind(args.journal) is not None:
            # Starting fresh would truncate the log and delete every
            # snapshot — the only copy of an interrupted run.
            print(
                f"journal at {args.journal} already exists; pass --resume to "
                "recover it, or point --journal at a fresh directory",
                file=sys.stderr,
            )
            return 2
    if args.inject is not None and args.resume:
        # A resumed run replays the journaled trace; re-injecting
        # faults would desync it from the interrupted run.
        print("--inject is incompatible with --resume", file=sys.stderr)
        return 2
    injections = ()
    if args.inject is not None:
        from repro.degrade.chaos import load_injections

        try:
            injections = load_injections(args.inject)
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    spec = _stream_spec(args)
    runtime = build_runtime(spec)
    scenario = runtime.scenario()  # built lazily; never touches the journal
    if injections:
        from repro.degrade.chaos import apply_injections
        from repro.runtime.factory import StreamRuntime

        scenario = apply_injections(scenario, injections)
        runtime = StreamRuntime(spec, scenario=scenario, chaos=injections)
        runtime.server  # resolve pairing errors before printing
        kinds = ",".join(i.kind for i in injections)
        print(f"inject: {len(injections)} injections ({kinds})")
    print(f"index_mode={args.index_mode} epoch={args.epoch:g} seed={args.seed}")
    print(f"trace: {scenario.task_count} tasks, {scenario.worker_count} workers "
          f"over {args.horizon} slots")
    if (
        args.crash_at is not None
        and not args.resume
        and args.crash_at >= len(scenario.events)
    ):
        _warn_past_trace_end(
            "--crash-at", args.crash_at, len(scenario.events), "event",
            "the run will complete without crashing",
        )
    if args.migrate_at is not None and scenario.events:
        trace_epochs = math.ceil(scenario.events[-1].time / args.epoch)
        if args.migrate_at >= trace_epochs:
            _warn_past_trace_end(
                "--migrate-at", args.migrate_at, trace_epochs, "epoch",
                "the migration may never fire",
            )
    if args.resume:
        if spec.telemetry:
            print("note: telemetry is not composed onto recovered runs; "
                  "the resumed drain runs bare", file=sys.stderr)
        # The trace is regenerated from the workload flags (same seed
        # => same events); the *server* configuration comes from the
        # journal itself, so recovery cannot mis-configure the run.
        return _simulate_resume(args, scenario)
    if args.shards > 1:
        print(f"shards={args.shards} halo={args.halo}")
    if spec.executor != "serial":
        line = f"executor={spec.executor}"
        if spec.max_workers is not None:
            line += f" max_workers={spec.max_workers}"
        print(line)
    if spec.elastic != "off":
        line = f"elastic={spec.elastic}"
        if spec.migrate_at is not None:
            line += f" migrate_at={spec.migrate_at}"
        print(line)

    def drive():
        outcome = runtime.run()
        if spec.elastic == "fixed" and outcome.server.controller.unfired():
            # The settle loop ended before the scripted boundary —
            # the sibling condition to a past-end --crash-at.
            print(
                f"warning: --migrate-at {spec.migrate_at} never fired "
                "(the trace settled before that epoch boundary)",
                file=sys.stderr,
            )
        if outcome.telemetry is None:
            return outcome.report_text
        return f"{outcome.report_text}\n{outcome.telemetry.report()}"

    return _simulate_report(
        drive,
        journal=spec.journal,
        recover_hint="rerun the same command with --resume to recover",
    )


def _warn_past_trace_end(flag, value, boundary_count, unit, consequence) -> None:
    """Warn that a scheduled-boundary flag points past the trace end.

    Shared by ``--crash-at`` (event boundaries) and ``--migrate-at``
    (epoch boundaries): past the end nothing is left to interrupt or
    migrate, so the run proceeds normally — warn instead of silently
    completing a run whose trigger can never fire.
    """
    print(
        f"warning: {flag} {value} is at or beyond the trace's last "
        f"{unit} boundary ({boundary_count} {unit}s); {consequence}",
        file=sys.stderr,
    )


def _simulate_report(drive, *, journal, recover_hint) -> int:
    """Print ``drive()``'s report, translating an injected crash into
    operator guidance instead of a traceback."""
    from repro.journal.layer import InjectedCrash

    try:
        print(drive())
    except InjectedCrash as exc:
        print(f"crash injected: {exc}")
        print(f"journal preserved at {journal}; {recover_hint}")
    return 0


def _simulate_resume(args, scenario) -> int:
    """Recover from the journal and finish the interrupted run.

    Whether the journal is sharded is read off the journal root itself
    (``meta.json`` marks a sharded deployment), so resuming never
    depends on repeating ``--shards``.  ``--crash-at`` stays armed
    during the resumed run (double-fault testing: crash, recover,
    crash again); ``--snapshot-every`` overrides the interrupted run's
    cadence when given.
    """
    recovered = recover_runtime(
        args.journal,
        sync=args.sync,
        snapshot_every=args.snapshot_every,
        crash_after_events=args.crash_at,
    )
    if recovered.kind == "sharded":
        for shard, info in enumerate(recovered.recovery):
            print(f"recovery shard {shard}: snapshot={info.snapshot_loaded} "
                  f"restored={info.events_restored} replayed={info.events_replayed}")
    else:
        info = recovered.recovery
        print(f"recovery: snapshot={info.snapshot_loaded} "
              f"restored={info.events_restored} replayed={info.events_replayed} "
              f"records_scanned={info.records_scanned}")
    return _simulate_report(
        lambda: recovered.resume(scenario.events).report(),
        journal=args.journal,
        recover_hint="rerun the same command to recover again",
    )


def _cmd_run(args) -> int:
    """Execute one declarative RunSpec (``--spec file.json``)."""
    from repro.bench.report import signature_hash

    try:
        spec = RunSpec() if args.spec is None else RunSpec.from_json(args.spec)
        overrides = {
            name: getattr(args, name)
            for name in ("mode", "backend", "shards", "journal")
            if getattr(args, name) is not None
        }
        if args.telemetry or args.trace_out is not None:
            overrides["telemetry"] = True
        if args.trace_out is not None:
            overrides["trace_out"] = args.trace_out
        if args.seed is not None:
            overrides["workload"] = WorkloadSpec.from_dict(
                {**spec.workload.to_dict(), "seed": args.seed}
            )
        if overrides:
            spec = spec.replace(**overrides)
        spec.validate()
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    if args.print_spec:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    if spec.journal is not None:
        from repro.journal.wal import journal_kind

        if journal_kind(spec.journal) is not None:
            # Same guard as simulate: starting fresh would wipe the
            # only copy of an interrupted run.
            print(
                f"journal at {spec.journal} already exists; recover it with "
                "`simulate --resume`, or point the spec at a fresh directory",
                file=sys.stderr,
            )
            return 2
    runtime = build_runtime(spec)
    if spec.mode == "stream":
        scenario = runtime.scenario()
        print(f"trace: {scenario.task_count} tasks, {scenario.worker_count} "
              f"workers over {spec.workload.horizon} slots")

    def drive():
        outcome = runtime.run()
        text = (
            f"{outcome.report_text}\n"
            f"plan      {signature_hash(outcome.plan_signature)} "
            f"({len(outcome.plan_signature)} records)"
        )
        if outcome.telemetry is not None:
            text += f"\n{outcome.telemetry.report()}"
        return text

    return _simulate_report(
        drive,
        journal=spec.journal,
        recover_hint="recover it with `simulate --journal PATH --resume` "
                     "using the spec's workload parameters",
    )


def _cmd_bench(args) -> int:
    from repro.bench.report import run_and_write

    return run_and_write(args.suite, smoke=args.smoke, results_dir=args.results_dir)


def _cmd_trace_report(args) -> int:
    from repro.obs.report import render_trace_report, trace_report_json

    try:
        if args.json:
            print(json.dumps(trace_report_json(args.trace),
                             indent=2, sort_keys=True))
        else:
            print(render_trace_report(args.trace))
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.obs.query import diff_traces

    try:
        divergence = diff_traces(args.trace_a, args.trace_b)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if divergence is None:
        if args.json:
            print(json.dumps({"identical": True}))
        else:
            print("traces are identical under the timing mask")
        return 0
    if args.json:
        print(json.dumps({"identical": False, **divergence.to_dict()},
                         indent=2, sort_keys=True))
    else:
        print(divergence.describe())
    return 1


def _cmd_bench_regress(args) -> int:
    from repro.bench.regresssuite import run_and_write

    return run_and_write(
        check=args.check,
        update=args.update,
        results_dir=args.results_dir,
        baselines_dir=args.baselines_dir,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "solve-single": _cmd_solve_single,
        "solve-multi": _cmd_solve_multi,
        "cover": _cmd_cover,
        "simulate": _cmd_simulate,
        "bench": _cmd_bench,
        "bench-regress": _cmd_bench_regress,
        "trace-report": _cmd_trace_report,
        "trace-diff": _cmd_trace_diff,
    }
    try:
        return handlers[args.command](args)
    except TCSCError as exc:
        # The one typed-error boundary: invalid domain values end as a
        # one-line message and exit 2, never a traceback.
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
