"""Runtime identity matrix: every composition equals the seed stack.

``python -m repro bench matrix`` sweeps the capability grid

    {plain, stream} x shards {1, 2, 4} x journal {off, on}
                    x backend {python, numpy}

and, for every *composable* cell, runs the same seed-pinned workload
four ways: through the pre-refactor legacy classes built by hand
(``SequentialServingSolver`` / ``ShardedTCSCServer`` /
``StreamingTCSCServer`` / ``ShardedStreamingServer``; a journal-on
cell's legacy run is the unjournaled class, which the journal on ==
off gate below makes sound), through the spec-driven factory
(:func:`repro.runtime.build_runtime`) bare, and twice through the
factory with telemetry on (separate trace files and journal
directories).  Every arm runs on every cell.  The per-cell gates:

* **composed == legacy** — ``plan_signature()``, ``OpCounters``,
  ``StreamMetrics`` and per-task qualities byte-identical; the
  composed server is exactly the legacy class (so ``elastic="off"``
  composes the plain ``ShardedStreamingServer``), and the outcome
  carries no certificates (``approx="off"`` is free).
* **telemetry-off identity** — the telemetered run's plan, counters
  and metrics equal the bare run's: spans snapshot/diff counters,
  they never increment them.
* **trace determinism** — the two telemetered traces are
  byte-identical after :func:`~repro.obs.trace.mask_timing`, their
  record tallies match, and the on-disk JSONL round-trips back to the
  in-memory records exactly.
* **trace completeness** — every record type the cell's composition
  implies is present, and every record carries a ``causal`` span id.
* **causal analytics** — the span graph's critical path (total
  virtual cost and step list) is bit-identical across the two
  telemetered runs.

Two cross-cell gates ride along: **journal on == off** (plan, op
counters and stream metrics within one (mode, shards, backend)
group) and **backend identity** (every cell's plan matches the
``backend="python"`` cell of its group).  Cells the spec layer
rejects (journal without stream mode) are recorded as typed
rejections, and the sweep asserts the rejection actually fires.

One predicate, :func:`_cell_failures`, decides every cell: the gate
check, the report's status column and the summary count all read it.
Per the repo's determinism policy every gate is equality based, and
the payload carries no wall clock: perfbench measures the system's time
from outside.  The merged artifact is ``benchmarks/BENCH_matrix.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.errors import SpecError
from repro.obs.causal import SpanGraph
from repro.obs.trace import masked_trace_bytes, read_trace
from repro.runtime import RunSpec, WorkloadSpec, build_runtime

__all__ = [
    "MATRIX_MODES",
    "SHARD_COUNTS",
    "BACKENDS",
    "CELL_GATES",
    "FULL_BASES",
    "SMOKE_BASES",
    "run_suite",
    "summary",
    "write_report_block",
    "check_payload",
]


#: The acceptance grid (smoke mode trims shards and backends).
MATRIX_MODES = ("plain", "stream")
SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("python", "numpy")

SMOKE_SHARD_COUNTS = (1, 2)
SMOKE_BACKENDS = ("python",)

#: Base specs per mode; the sweep rewrites mode/shards/journal/backend.
FULL_BASES = {
    "plain": RunSpec(
        mode="plain",
        workload=WorkloadSpec(tasks=12, slots=16, workers=240, seed=13),
    ),
    "stream": RunSpec(
        mode="stream",
        workload=WorkloadSpec(
            horizon=16, task_rate=0.3, task_slots=8, initial_workers=14,
            join_rate=0.8, mean_lifetime=12.0, seed=9,
        ),
        k=2, epoch_length=3.0, budget_fraction=0.6,
        max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
    ),
}

SMOKE_BASES = {
    "plain": FULL_BASES["plain"].replace(
        workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13)
    ),
    "stream": FULL_BASES["stream"].replace(
        workload=WorkloadSpec(
            horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
            join_rate=0.8, mean_lifetime=12.0, seed=9,
        )
    ),
}

#: Per-cell gates: boolean payload fields where ``False`` fails the
#: cell (``None`` means not applicable — plain cells have no stream
#: metrics).
CELL_GATES = (
    # Composed == legacy.
    "plan_identical",
    "counters_identical",
    "metrics_identical",
    "qualities_identical",
    "server_class_identical",
    "no_certificates",
    # Telemetry watches, never touches.
    "telemetry_identical",
    "masked_trace_identical",
    "record_counts_identical",
    "trace_roundtrip_ok",
    "record_types_complete",
    "causal_complete",
    "critical_path_identical",
)


# ----------------------------------------------------------------------
# Legacy-class counterparts (the pre-refactor construction paths)
# ----------------------------------------------------------------------
def _legacy_plain(spec: RunSpec):
    """The PR-3 classes, constructed by hand as PR-3 code did."""
    from repro.shard.server import SequentialServingSolver, ShardedTCSCServer
    from repro.workloads.scenario import ScenarioConfig, build_scenario
    from repro.workloads.spatial import Distribution

    w = spec.workload
    built = build_scenario(
        ScenarioConfig(
            num_tasks=w.tasks, num_slots=w.slots, num_workers=w.workers,
            distribution=Distribution(w.distribution), seed=w.seed,
            k=spec.k, budget_fraction=spec.budget_fraction,
        )
    )
    common = dict(
        k=spec.k, ts=spec.ts,
        engine="indexed" if spec.use_index else "greedy",
        search=spec.search, backend=spec.backend,
    )
    if spec.shards == 1:
        solver = SequentialServingSolver(built.pool, built.bbox, **common)
    else:
        solver = ShardedTCSCServer(
            built.pool, built.bbox, num_shards=spec.shards,
            halo=spec.halo, cells_per_side=spec.cells_per_side, **common,
        )
    report = solver.assign(built.tasks, budget_fraction=spec.budget_fraction)
    return {
        "plan": report.plan_signature(),
        "counters": report.counters,
        "metrics": None,
        "qualities": dict(report.qualities),
        "server": solver,
    }


def _legacy_stream(spec: RunSpec):
    """The streaming and sharded-streaming classes, built by hand.

    A journal-on spec gets the plain (unjournaled) legacy class: the
    journal on == off gate already requires journal-on == journal-off
    within one (mode, shards, backend) group, so the unjournaled run
    is the reference for both.
    """
    from repro.shard.streaming import ShardedStreamingServer
    from repro.stream.online_server import StreamingTCSCServer
    from repro.workloads.spatial import Distribution
    from repro.workloads.streaming import StreamScenarioConfig, build_stream_events

    w = spec.workload
    built = build_stream_events(
        StreamScenarioConfig(
            horizon=w.horizon, task_rate=w.task_rate, burstiness=w.burstiness,
            task_slots=w.task_slots, initial_workers=w.initial_workers,
            worker_join_rate=w.join_rate, mean_worker_lifetime=w.mean_lifetime,
            early_leave_prob=w.early_leave_prob,
            distribution=Distribution(w.distribution), seed=w.seed,
        )
    )
    kwargs = dict(
        k=spec.k, ts=spec.ts, epoch_length=spec.epoch_length,
        index_mode=spec.index_mode, budget_fraction=spec.budget_fraction,
        max_active_tasks=spec.max_active_tasks,
        max_queue_depth=spec.max_queue_depth, pool_budget=spec.pool_budget,
        realization_seed=w.seed, backend=spec.backend,
    )
    if spec.shards == 1:
        server = StreamingTCSCServer(built.bbox, **kwargs)
    else:
        server = ShardedStreamingServer(
            built.bbox, num_shards=spec.shards,
            cells_per_side=spec.cells_per_side, halo_margin=spec.halo,
            **kwargs,
        )
    metrics = server.run(list(built.events))
    counters = (
        tuple(s.counters for s in server.servers)
        if spec.shards > 1
        else server.counters
    )
    return {
        "plan": server.assignment().plan_signature(),
        "counters": counters,
        "metrics": metrics,
        "qualities": dict(metrics.promised_quality),
        "server": server,
    }


_LEGACY = {"plain": _legacy_plain, "stream": _legacy_stream}


def _composed(spec: RunSpec):
    return build_runtime(spec).run()


def _counter_list(counters):
    """Per-shard counter tuples compare as lists (JSON-shaped)."""
    return list(counters) if isinstance(counters, tuple) else counters


def _expected_types(mode: str, journaled: bool) -> list[str]:
    expected = ["open", "solve", "phases", "trace-summary"]
    if mode == "stream":
        expected += ["event", "epoch", "finalize", "run-complete"]
        if journaled:
            expected.append("snapshot")
    return sorted(expected)


def _run_cell(base: RunSpec, mode, shards, journaled, backend, workdir: Path) -> dict:
    cell = {
        "mode": mode,
        "shards": shards,
        "journal": journaled,
        "backend": backend,
    }
    tag = f"{mode}-s{shards}-{backend}-{'j' if journaled else 'p'}"
    try:
        spec = base.replace(
            mode=mode, shards=shards, backend=backend,
            journal=str(workdir / f"{tag}-bare") if journaled else None,
        ).validate()
    except SpecError as exc:
        # The typed rejection is itself part of the acceptance matrix:
        # the spec layer must refuse what the runtime cannot compose.
        cell.update(valid=False, error=type(exc).__name__, reason=str(exc))
        return cell

    legacy = _LEGACY[mode](spec)
    bare = _composed(spec)
    on, on2 = [
        _composed(spec.replace(
            telemetry=True,
            trace_out=str(workdir / f"{tag}-{arm}.jsonl"),
            journal=str(workdir / f"{tag}-{arm}") if journaled else None,
        ))
        for arm in ("on", "on2")
    ]

    traces = [run.telemetry.recorder.records for run in (on, on2)]
    masked = [masked_trace_bytes(records) for records in traces]
    present = sorted(on.telemetry.recorder.counts())
    missing = sorted(set(_expected_types(mode, journaled)) - set(present))
    critical = [SpanGraph(records).critical_path() for records in traces]
    counters = _counter_list(bare.counters)
    cell.update(
        valid=True,
        # Composed == legacy.
        plan_identical=bare.plan_signature == legacy["plan"],
        counters_identical=counters == _counter_list(legacy["counters"]),
        metrics_identical=(
            None if mode == "plain" else bare.metrics == legacy["metrics"]
        ),
        qualities_identical=bare.qualities == legacy["qualities"],
        server_class=type(bare.server).__name__,
        server_class_identical=type(bare.server) is type(legacy["server"]),
        no_certificates=bare.certificates is None,
        # Telemetry-off identity (the zero-overhead contract).
        telemetry_identical=(
            (on.plan_signature, repr(on.counters), on.metrics)
            == (bare.plan_signature, repr(bare.counters), bare.metrics)
        ),
        # Trace determinism, completeness and causal analytics.
        masked_trace_identical=masked[0] == masked[1],
        record_counts_identical=(
            on.telemetry.recorder.counts() == on2.telemetry.recorder.counts()
        ),
        trace_roundtrip_ok=all(
            read_trace(run.spec.trace_out) == records
            for run, records in zip((on, on2), traces)
        ),
        record_types=present,
        record_types_complete=not missing,
        missing_record_types=missing,
        causal_complete=all("causal" in record for record in traces[0]),
        critical_path_identical=(
            (critical[0].total, critical[0].steps)
            == (critical[1].total, critical[1].steps)
        ),
        critical_path_total=critical[0].total,
        records=len(traces[0]),
        masked_trace_digest=_signature_hash(masked[0]),
        plan_length=len(bare.plan_signature),
        signature=_signature_hash(bare.plan_signature),
        # Fingerprints for the cross-cell gates (journal on == off):
        # the full observable state, not just the plan.
        counters_digest=_signature_hash(counters),
        metrics_digest=None if mode == "plain" else _signature_hash(bare.metrics),
    )
    return cell


def run_suite(*, smoke: bool = False) -> dict:
    """Run the grid and return the machine-readable payload."""
    bases = SMOKE_BASES if smoke else FULL_BASES
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    backends = SMOKE_BACKENDS if smoke else BACKENDS
    with tempfile.TemporaryDirectory(prefix="matrixsuite-") as tmp:
        cells = [
            _run_cell(bases[mode], mode, shards, journaled, backend, Path(tmp))
            for mode in MATRIX_MODES
            for shards in shard_counts
            for backend in backends
            for journaled in (False, True)
        ]
    return {
        "suite": "matrixsuite",
        "mode": "smoke" if smoke else "full",
        "grid": {
            "modes": list(MATRIX_MODES),
            "shards": list(shard_counts),
            "journal": [False, True],
            "backends": list(backends),
        },
        "cells": cells,
    }


# ----------------------------------------------------------------------
# The one gate predicate
# ----------------------------------------------------------------------
def _key(cell: dict, **changes) -> tuple:
    cell = {**cell, **changes}
    return (cell["mode"], cell["shards"], cell["journal"], cell["backend"])


def _cell_failures(cell: dict, by_key: dict) -> list[str]:
    """Every gate ``cell`` fails; empty means the cell is clean.

    ``by_key`` indexes the payload's cells by :func:`_key`, for the
    cross-cell gates.
    """
    name = (f"{cell['mode']}/shards={cell['shards']}/"
            f"journal={'on' if cell['journal'] else 'off'}/{cell['backend']}")
    must_reject = cell["mode"] == "plain" and cell["journal"]
    if not cell["valid"]:
        if not must_reject:
            return [f"{name}: unexpected rejection ({cell.get('reason')})"]
        if cell["error"] != "SpecError":
            return [f"{name}: rejected with {cell['error']}, expected the "
                    "typed SpecError"]
        return []
    if must_reject:
        return [f"{name}: journal x plain must be rejected by validation, "
                "but the cell ran"]
    failures = [f"{name}: {gate} is False" for gate in CELL_GATES
                if cell[gate] is False]
    if cell["journal"]:
        off = by_key.get(_key(cell, journal=False))
        if off and off["valid"]:
            failures += [
                f"{name}: journaled {field} diverged from the unjournaled run"
                for field in ("signature", "counters_digest", "metrics_digest")
                if cell[field] != off[field]
            ]
    if cell["backend"] != "python":
        ref = by_key.get(_key(cell, backend="python"))
        if ref and ref["valid"] and cell["signature"] != ref["signature"]:
            failures.append(
                f"{name}: {cell['backend']} plan diverged from the python plan"
            )
    return failures


def _judged(payload: dict) -> list[tuple[dict, list[str]]]:
    """Each cell with its failures."""
    by_key = {_key(cell): cell for cell in payload["cells"]}
    return [(cell, _cell_failures(cell, by_key)) for cell in payload["cells"]]


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    Every valid cell must pass :data:`CELL_GATES`, journal on == off
    and backend identity; every invalid cell must be a journal x plain
    pairing rejected with ``SpecError`` (nothing else may be skipped —
    silent truncation would read as full coverage).  Wall-clock is
    deliberately unchecked (determinism policy).
    """
    return [failure for _, failures in _judged(payload) for failure in failures]


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable matrix block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "matrix1",
        "Runtime matrix: composed (spec-driven) vs legacy-class serving, "
        "with and without telemetry",
        results_dir=results_dir,
    )
    reporter.note(
        "every composable cell byte-identical to its legacy counterpart "
        "(plan, metrics, op counters, qualities, server class) and to its "
        "telemetered runs; masked traces identical across repeat runs; "
        "journal x plain rejected by typed SpecError"
    )
    reporter.header(
        "mode", "shards", "journal", "backend", "status", "plan", "records",
        "trace_digest", "signature",
    )
    for cell, failures in _judged(payload):
        if failures:
            status = "DIVERGED"
        elif not cell["valid"]:
            status = f"rejected:{cell['error']}"
        else:
            status = "identical"
        reporter.row(
            cell["mode"], cell["shards"],
            "on" if cell["journal"] else "off", cell["backend"], status,
            *(
                (cell["plan_length"], cell["records"],
                 cell["masked_trace_digest"], cell["signature"])
                if cell["valid"] else ("-",) * 4
            ),
        )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """Clean composable cells and typed rejections, in one line."""
    judged = _judged(payload)
    valid = [failures for cell, failures in judged if cell["valid"]]
    rejected = [failures for cell, failures in judged if not cell["valid"]]
    return [
        f"matrix: {valid.count([])}/{len(valid)} composable cells "
        "byte-identical to the legacy path, telemetry-off identical and "
        f"trace-deterministic, {rejected.count([])}/{len(rejected)} "
        "uncomposable cells rejected with typed SpecError"
    ]
