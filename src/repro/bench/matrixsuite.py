"""Runtime identity matrix: every composition is the server it names.

``python -m repro bench matrix`` sweeps the capability grid

    {plain, stream} x shards {1, 2, 4} x journal {off, on}
                    x backend {python, numpy}

and, for every *composable* cell, runs the same seed-pinned workload
three times through the spec-driven factory
(:func:`repro.runtime.build_runtime`): bare, and twice with telemetry
on (separate trace files and journal directories).  The per-cell
gates:

* **server class** — the composed server is exactly the class
  :data:`SERVER_CLASSES` names for its (mode, sharded) pair (so
  ``elastic="off"`` composes the plain ``ShardedStreamingServer``),
  and the outcome carries no certificates (``approx="off"`` is free).
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

One cross-cell rule rides along: a journal-on cell must equal its
journal-off cell, and a numpy cell its ``backend="python"`` cell, in
plan, op counters and stream metrics (:data:`CROSS_CELL_FIELDS`).
The absolute reference is the regression ledger
(:mod:`repro.bench.regresssuite`), which pins the plain and stream
smoke bases at every shard count of the grid; through the cross-cell
rule every valid smoke cell traces back to a pinned fingerprint.
Cells the spec layer rejects (journal without stream mode) are
recorded as typed rejections, and the sweep asserts the rejection
actually fires.

One predicate, :func:`_cell_failures`, decides every cell: the gate
check, the report's status column and the summary count all read it.
Per the repo's determinism policy every gate is equality based, and
the payload carries no wall clock: perfbench measures the system's time
from outside.  The artifact is ``benchmarks/BENCH_matrix.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.errors import SpecError
from repro.obs.causal import SpanGraph
from repro.obs.trace import masked_trace_bytes, read_trace
from repro.runtime import RunSpec, WorkloadSpec, build_runtime
from repro.shard.server import SequentialServingSolver, ShardedTCSCServer
from repro.shard.streaming import ShardedStreamingServer
from repro.stream.online_server import StreamingTCSCServer

__all__ = [
    "MATRIX_MODES",
    "SHARD_COUNTS",
    "BACKENDS",
    "CELL_GATES",
    "CROSS_CELL_FIELDS",
    "FULL_BASES",
    "SERVER_CLASSES",
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

#: The server class the factory must build for each (mode, sharded)
#: composition: ``elastic="off"`` composes the plain sharded stack and
#: the journal rides as a layer, never as a subclass.
SERVER_CLASSES = {
    ("plain", False): SequentialServingSolver,
    ("plain", True): ShardedTCSCServer,
    ("stream", False): StreamingTCSCServer,
    ("stream", True): ShardedStreamingServer,
}

#: Per-cell gates: boolean payload fields where ``False`` fails the
#: cell.
CELL_GATES = (
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

#: The fingerprint a cell must share with its reference cells (the
#: cross-cell rule): plan, op counters and stream metrics.
CROSS_CELL_FIELDS = ("signature", "counters_digest", "metrics_digest")


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
        server_class=type(bare.server).__name__,
        server_class_identical=(
            type(bare.server) is SERVER_CLASSES[mode, shards > 1]
        ),
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
        # Fingerprints for the cross-cell rule: the full observable
        # state, not just the plan.
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
    cross-cell rule.
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
    expected = SERVER_CLASSES[cell["mode"], cell["shards"] > 1].__name__
    if cell["server_class"] != expected:
        failures.append(
            f"{name}: built {cell['server_class']}, expected {expected}"
        )
    # The cross-cell rule (a reference cell is trivially its own).
    for label, change in (("journal-off", {"journal": False}),
                          ("python", {"backend": "python"})):
        ref = by_key.get(_key(cell, **change))
        if ref and ref["valid"]:
            failures += [
                f"{name}: {field} diverged from the {label} cell"
                for field in CROSS_CELL_FIELDS
                if cell[field] != ref[field]
            ]
    return failures


def _judged(payload: dict) -> list[tuple[dict, list[str]]]:
    """Each cell with its failures."""
    by_key = {_key(cell): cell for cell in payload["cells"]}
    return [(cell, _cell_failures(cell, by_key)) for cell in payload["cells"]]


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    Every valid cell must pass :data:`CELL_GATES`, build its
    :data:`SERVER_CLASSES` class and equal its journal-off and python
    cells in :data:`CROSS_CELL_FIELDS`; every invalid cell must be a journal x plain
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
        "Runtime matrix: spec-driven compositions, with and without "
        "telemetry",
        results_dir=results_dir,
    )
    reporter.note(
        "every composable cell builds its expected server class, equals "
        "its telemetered runs and its journal-off and python cells (plan, "
        "op counters, metrics); masked traces identical across repeat "
        "runs; journal x plain rejected by typed SpecError"
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
        f"matrix: {valid.count([])}/{len(valid)} composable cells clean "
        "(expected server class, telemetry-off identical, "
        "trace-deterministic, equal to their journal-off and python "
        f"cells), {rejected.count([])}/{len(rejected)} "
        "uncomposable cells rejected with typed SpecError"
    ]
