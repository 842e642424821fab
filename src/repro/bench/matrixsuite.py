"""Runtime equivalence matrix: composed vs legacy, byte-identical.

``python -m repro bench matrix`` sweeps the capability grid

    {plain, stream} x shards {1, 2, 4} x journal {off, on}
                    x backend {python, numpy}

and, for every *composable* cell, runs the same seed-pinned workload
twice: once through the spec-driven factory
(:func:`repro.runtime.build_runtime`) and once through the
pre-refactor legacy-class path (``SequentialServingSolver`` /
``ShardedTCSCServer`` / ``StreamingTCSCServer`` /
``ShardedStreamingServer``; a journal-on cell's legacy run is the
unjournaled class, which the zero-overhead gate below makes sound).
The two runs must agree **byte-for-byte** on ``plan_signature()``,
``StreamMetrics``, and ``OpCounters`` — the refactor's acceptance
invariant.  Cells the spec layer rejects (journal without stream
mode) are recorded as typed rejections and the sweep asserts the
rejection actually fires.

Two bonus gates ride along:

* **zero-overhead journaling** — within one (mode, shards, backend)
  group, the journal-on cell must equal the journal-off cell exactly
  (the PR-4 invariant, now re-proven through the layer seam);
* **backend identity** — every cell's plan must match the
  ``backend="python"`` cell of its (mode, shards, journal) group (the
  PR-2 invariant, re-proven through the factory).

Per the repo's determinism policy every gate is equality/op-count
based; wall-clock is recorded for humans only.  The merged artifact
is ``benchmarks/BENCH_matrix.json``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.report import signature_hash as _signature_hash
from repro.errors import SpecError
from repro.runtime import RunSpec, WorkloadSpec, build_runtime

__all__ = [
    "MATRIX_MODES",
    "SHARD_COUNTS",
    "BACKENDS",
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
_FULL_BASES = {
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

_SMOKE_BASES = {
    "plain": _FULL_BASES["plain"].replace(
        workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13)
    ),
    "stream": _FULL_BASES["stream"].replace(
        workload=WorkloadSpec(
            horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
            join_rate=0.8, mean_lifetime=12.0, seed=9,
        )
    ),
}


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
    }


def _legacy_stream(spec: RunSpec):
    """The streaming and sharded-streaming classes, built by hand.

    A journal-on spec gets the plain (unjournaled) legacy class: the
    zero-overhead gate already requires journal-on == journal-off
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
    }


def _cell_spec(base: RunSpec, mode, shards, journaled, backend, workdir: Path):
    """The composed-arm spec of one grid cell (may be invalid)."""
    journal = (
        str(workdir / f"composed-{mode}-s{shards}-{backend}")
        if journaled
        else None
    )
    return base.replace(
        mode=mode, shards=shards, backend=backend, journal=journal
    )


def _run_cell(base: RunSpec, mode, shards, journaled, backend, workdir) -> dict:
    cell = {
        "mode": mode,
        "shards": shards,
        "journal": journaled,
        "backend": backend,
    }
    try:
        spec = _cell_spec(base, mode, shards, journaled, backend, workdir)
        spec.validate()
    except SpecError as exc:
        # The typed rejection is itself part of the acceptance matrix:
        # the spec layer must refuse what the runtime cannot compose.
        cell.update(valid=False, error=type(exc).__name__, reason=str(exc))
        return cell
    start = time.perf_counter()
    outcome = build_runtime(spec).run()
    wall_composed = time.perf_counter() - start

    start = time.perf_counter()
    if mode == "plain":
        legacy = _legacy_plain(spec)
    else:
        legacy = _legacy_stream(spec)
    wall_legacy = time.perf_counter() - start

    composed_counters = (
        list(outcome.counters)
        if isinstance(outcome.counters, tuple)
        else outcome.counters
    )
    legacy_counters = (
        list(legacy["counters"])
        if isinstance(legacy["counters"], tuple)
        else legacy["counters"]
    )
    cell.update(
        valid=True,
        plan_identical=outcome.plan_signature == legacy["plan"],
        counters_identical=composed_counters == legacy_counters,
        metrics_identical=(
            None if mode == "plain" else outcome.metrics == legacy["metrics"]
        ),
        qualities_identical=outcome.qualities == legacy["qualities"],
        plan_length=len(outcome.plan_signature),
        signature=_signature_hash(outcome.plan_signature),
        # Fingerprints for the cross-cell gates (journal on == off):
        # the full observable state, not just the plan.
        counters_digest=_signature_hash(composed_counters),
        metrics_digest=None if mode == "plain" else _signature_hash(outcome.metrics),
        wall_composed_s=wall_composed,
        wall_legacy_s=wall_legacy,
    )
    return cell


def run_suite(*, smoke: bool = False) -> dict:
    """Run the grid and return the machine-readable payload."""
    bases = _SMOKE_BASES if smoke else _FULL_BASES
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    backends = SMOKE_BACKENDS if smoke else BACKENDS
    cells: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="matrixsuite-") as tmp:
        workdir = Path(tmp)
        for mode in MATRIX_MODES:
            for shards in shard_counts:
                for backend in backends:
                    for journaled in (False, True):
                        cells.append(
                            _run_cell(
                                bases[mode], mode, shards, journaled,
                                backend,
                                workdir / f"{mode}-s{shards}-{backend}-"
                                          f"{'j' if journaled else 'p'}",
                            )
                        )
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


def _group_key(cell: dict) -> tuple:
    return (cell["mode"], cell["shards"], cell["backend"])


def check_payload(payload: dict) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    * **Composed == legacy** — every valid cell byte-identical in
      plan signature, op counters, stream metrics, and qualities.
    * **Typed rejection** — every invalid cell is a journal-without-
      stream pairing rejected with ``SpecError``; nothing else may be
      skipped (silent truncation would read as full coverage).
    * **Zero-overhead journaling** — journal-on equals journal-off
      within each (mode, shards, backend) group.
    * **Backend identity** — every cell's plan matches its group's
      ``python`` cell.

    Wall-clock is deliberately unchecked (determinism policy).
    """
    failures = []
    by_cell = {}
    for cell in payload["cells"]:
        name = (f"{cell['mode']}/shards={cell['shards']}/"
                f"journal={'on' if cell['journal'] else 'off'}/"
                f"{cell['backend']}")
        by_cell[(cell["mode"], cell["shards"], cell["journal"],
                 cell["backend"])] = cell
        if not cell["valid"]:
            if cell["mode"] == "stream" or not cell["journal"]:
                failures.append(
                    f"{name}: unexpected rejection ({cell.get('reason')})"
                )
            elif cell["error"] != "SpecError":
                failures.append(
                    f"{name}: rejected with {cell['error']}, expected the "
                    "typed SpecError"
                )
            continue
        if cell["mode"] == "plain" and cell["journal"]:
            failures.append(
                f"{name}: journal x plain must be rejected by validation, "
                "but the cell ran"
            )
        for gate in ("plan_identical", "counters_identical",
                     "qualities_identical"):
            if not cell[gate]:
                failures.append(f"{name}: composed vs legacy {gate} is False")
        if cell["metrics_identical"] is False:
            failures.append(f"{name}: composed vs legacy metrics diverged")
    # Zero-overhead journaling: journal-on == journal-off per group —
    # plan, op counters, and stream metrics (the full PR-4 invariant,
    # not just the plan hash).
    for (mode, shards, journaled, backend), cell in by_cell.items():
        if not journaled or not cell["valid"]:
            continue
        off = by_cell.get((mode, shards, False, backend))
        if not off or not off["valid"]:
            continue
        for field in ("signature", "counters_digest", "metrics_digest"):
            if cell[field] != off[field]:
                failures.append(
                    f"{mode}/shards={shards}/{backend}: journaled {field} "
                    "diverged from the unjournaled run"
                )
    # Backend identity: every backend's plan matches the python cell.
    for (mode, shards, journaled, backend), cell in by_cell.items():
        if backend == "python" or not cell["valid"]:
            continue
        ref = by_cell.get((mode, shards, journaled, "python"))
        if ref and ref["valid"] and cell["signature"] != ref["signature"]:
            failures.append(
                f"{mode}/shards={shards}/journal={journaled}: "
                f"{backend} plan diverged from the python plan"
            )
    return failures


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable matrix block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "matrix1",
        "Runtime matrix: composed (spec-driven) vs legacy-class serving",
        results_dir=results_dir,
    )
    reporter.note(
        "every composable cell byte-identical to its legacy counterpart "
        "(plan, metrics, op counters); journal x plain rejected by typed "
        "SpecError; wall-clock recorded, never gated"
    )
    reporter.header(
        "mode", "shards", "journal", "backend", "status", "plan", "signature"
    )
    for cell in payload["cells"]:
        if not cell["valid"]:
            reporter.row(
                cell["mode"], cell["shards"],
                "on" if cell["journal"] else "off", cell["backend"],
                f"rejected:{cell['error']}", "-", "-",
            )
            continue
        identical = (
            cell["plan_identical"]
            and cell["counters_identical"]
            and cell["metrics_identical"] in (None, True)
        )
        reporter.row(
            cell["mode"], cell["shards"],
            "on" if cell["journal"] else "off", cell["backend"],
            "identical" if identical else "DIVERGED",
            cell["plan_length"], cell["signature"],
        )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """Identical composable cells and typed rejections, in one line."""
    valid = [c for c in payload["cells"] if c["valid"]]
    rejected = [c for c in payload["cells"] if not c["valid"]]
    identical = sum(
        1 for c in valid
        if c["plan_identical"] and c["counters_identical"]
        and c["metrics_identical"] in (None, True)
    )
    return [
        f"matrix: {identical}/{len(valid)} composable cells byte-identical "
        f"to the legacy path, {len(rejected)} uncomposable cells rejected "
        "with typed SpecError"
    ]
