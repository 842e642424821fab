"""Continuous op-count regression ledger: ``python -m repro bench-regress``.

Every other suite gates *relative* invariants (composed == legacy,
telemetered == bare, recovered == uninterrupted); none pins the
**absolute** cost of a run, so a PR that inflates every arm equally
sails through.  This suite fingerprints a pinned set of smoke cells —
plan hash, full per-shard OpCounters, trace record tallies, and the
causal critical path in virtual-cost units
(:func:`repro.obs.regress.fingerprint_outcome`) — and compares them
against the committed ledger under ``benchmarks/baselines/``:

* default — report each cell's status against the ledger;
* ``--check`` — CI mode: exit non-zero on any drift *or missing
  baseline*, so cost changes land only together with a reviewed
  ledger update;
* ``--update`` — regenerate the baseline files from the current code
  (the PR diff then shows the cost change, cell by cell).

Before trusting any fingerprint, every cell runs **twice** and the two
fingerprints must match exactly — including the critical-path total,
bit for bit — otherwise the cell is non-deterministic and comparing it
to a ledger would be noise.  The suite also carries the trace-diff
acceptance gates: two runs of one spec must show **zero divergence**
under :func:`repro.obs.query.diff_traces`, and a pair differing only
by an injected op-budget fault must localize to an exact, stable first
divergent ``seq`` and its causal span.

All comparisons are op-count/equality based; wall-clock never appears
in a fingerprint.  The artifact is ``benchmarks/BENCH_regress.json``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.bench.report import DEFAULT_RESULTS, publish
from repro.degrade.chaos import InjectionSpec
from repro.obs.query import diff_traces
from repro.obs.regress import (
    compare_fingerprints,
    default_baselines_dir,
    fingerprint_outcome,
    load_baseline,
    write_baseline,
)
from repro.runtime import RunSpec, WorkloadSpec, build_runtime
from repro.runtime.factory import StreamRuntime

__all__ = [
    "REGRESS_CELLS",
    "run_suite",
    "run_and_write",
    "summary",
    "write_report_block",
    "check_payload",
]


#: Workloads mirror the obs suite's smoke cells, so the ledger pins
#: the same runs CI already exercises — small enough for every PR,
#: rich enough to cover plain/sharded/journaled/degraded/elastic arms.
_PLAIN = RunSpec(
    mode="plain",
    telemetry=True,
    workload=WorkloadSpec(tasks=6, slots=12, workers=150, seed=13),
)
_STREAM = RunSpec(
    mode="stream",
    telemetry=True,
    workload=WorkloadSpec(
        horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
)

#: The ledger cells: name -> spec template.  ``journal=True`` entries
#: get a fresh journal directory per run (filesystem paths are
#: environment, never fingerprint content).
REGRESS_CELLS: dict[str, dict] = {
    "plain-s1": {"spec": _PLAIN},
    "plain-s2": {"spec": _PLAIN.replace(shards=2)},
    "stream-s1": {"spec": _STREAM},
    "stream-s2": {"spec": _STREAM.replace(shards=2)},
    # The process-executor smoke cell: same workload as stream-s2 but
    # with phase solves in worker processes.  Its baseline must stay
    # byte-identical to stream-s2's (executor invariance is also
    # asserted directly by check_payload, independent of the ledger).
    "stream-s2-process": {
        "spec": _STREAM.replace(shards=2, executor="process", max_workers=2)
    },
    "stream-journal": {"spec": _STREAM, "journal": True},
    "stream-approx": {
        "spec": _STREAM.replace(approx="top_c", approx_top_c=2)
    },
    "stream-elastic": {
        "spec": _STREAM.replace(shards=2, elastic="fixed", migrate_at=1)
    },
}

#: The injected fault for the divergence-localization gate: an
#: op-budget slowdown (virtual-cost units, never wall-clock) on the
#: ``stream-s1`` workload.
_FAULT = InjectionSpec(kind="slowdown", at=3.0, op_budget=60.0)


def _run_cell_once(entry: dict, workdir: Path, arm: str):
    spec = entry["spec"]
    if entry.get("journal"):
        spec = spec.replace(journal=str(workdir / f"journal-{arm}"))
    return build_runtime(spec.validate()).run()


def _ledger_status(
    cell: str, fingerprint: dict, baselines_dir: Path, *, update: bool
) -> dict:
    """Compare (or rewrite) one cell's committed baseline."""
    if update:
        write_baseline(baselines_dir, cell, fingerprint)
        return {"baseline": "updated", "drifts": []}
    document = load_baseline(baselines_dir, cell)
    if document is None:
        return {"baseline": "missing", "drifts": []}
    drifts = compare_fingerprints(document["fingerprint"], fingerprint)
    return {
        "baseline": "drift" if drifts else "ok",
        "drifts": drifts,
        "baseline_commit": document.get("meta", {}).get("commit"),
        "baseline_version": document.get("meta", {}).get("version"),
    }


def _diff_gates() -> dict:
    """The trace-diff acceptance gates on the ``stream-s1`` workload.

    Same spec twice -> zero divergence; the same spec with an injected
    op-budget fault -> a localized first divergence whose ``seq`` and
    causal span are themselves deterministic (two injected runs
    diverge from the clean run at the same record).
    """
    spec = _STREAM.validate()
    clean_a = build_runtime(spec).run().telemetry.recorder.records
    clean_b = build_runtime(spec).run().telemetry.recorder.records
    same = diff_traces(clean_a, clean_b)

    faulted = [
        StreamRuntime(spec, chaos=(_FAULT,)).run().telemetry.recorder.records
        for _ in range(2)
    ]
    divergences = [diff_traces(clean_a, records) for records in faulted]
    localized = all(d is not None for d in divergences)
    return {
        "same_spec_identical": same is None,
        "fault_localized": localized,
        "fault_seq": divergences[0].seq if localized else None,
        "fault_span": divergences[0].span if localized else None,
        "fault_stable": (
            localized
            and divergences[0].seq == divergences[1].seq
            and divergences[0].span == divergences[1].span
        ),
    }


def run_suite(
    *, baselines_dir: str | Path | None = None, update: bool = False
) -> dict:
    """Fingerprint every cell, compare against the ledger, and run the
    divergence-localization gates; returns the payload."""
    baselines_dir = (
        default_baselines_dir() if baselines_dir is None else Path(baselines_dir)
    )
    # Committed artifacts must not leak machine-local absolute paths.
    try:
        shown_dir = str(baselines_dir.relative_to(DEFAULT_RESULTS.parents[1]))
    except ValueError:
        shown_dir = str(baselines_dir)
    cells: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="regresssuite-") as tmp:
        workdir = Path(tmp)
        for cell, entry in REGRESS_CELLS.items():
            first = fingerprint_outcome(_run_cell_once(entry, workdir, f"{cell}-a"))
            second = fingerprint_outcome(_run_cell_once(entry, workdir, f"{cell}-b"))
            row = {
                "cell": cell,
                "reproducible": first == second,
                "fingerprint": first,
                "critical_path_total": first["critical_path"]["total"],
            }
            row.update(
                _ledger_status(cell, first, baselines_dir, update=update)
            )
            cells.append(row)
    return {
        "suite": "regresssuite",
        "mode": "update" if update else "check",
        "baselines_dir": shown_dir,
        "cells": cells,
        "diff_gates": _diff_gates(),
    }


def check_payload(payload: dict, *, check: bool = True) -> list[str]:
    """Deterministic gates; returns a list of failure strings.

    ``check=False`` (report/update modes) keeps the determinism and
    divergence gates but tolerates missing baselines and drift — those
    become failures only in CI ``--check`` mode.
    """
    failures: list[str] = []
    for cell in payload["cells"]:
        name = cell["cell"]
        if not cell["reproducible"]:
            failures.append(
                f"{name}: fingerprint not reproducible across two runs "
                "(non-deterministic cell — the ledger cannot pin it)"
            )
        if not check:
            continue
        if cell["baseline"] == "missing":
            failures.append(
                f"{name}: no committed baseline — run "
                "`python -m repro bench-regress --update` and commit "
                "benchmarks/baselines/"
            )
        elif cell["baseline"] == "drift":
            for drift in cell["drifts"]:
                failures.append(f"{name}: drift {drift}")
    by_cell = {cell["cell"]: cell for cell in payload["cells"]}
    serial = by_cell.get("stream-s2")
    process = by_cell.get("stream-s2-process")
    if (
        serial is not None
        and process is not None
        and serial["fingerprint"] != process["fingerprint"]
    ):
        failures.append(
            "stream-s2-process: fingerprint differs from stream-s2 — the "
            "executor changed the run's cost or plan (it may only change "
            "where the work runs)"
        )
    gates = payload["diff_gates"]
    if not gates["same_spec_identical"]:
        failures.append(
            "diff gate: two runs of the same spec produced divergent "
            "masked traces"
        )
    if not gates["fault_localized"]:
        failures.append(
            "diff gate: the injected op-budget fault produced no "
            "divergence (the fault is not observable in the trace)"
        )
    elif not gates["fault_stable"]:
        failures.append(
            "diff gate: the injected fault's first divergent seq/span "
            "is not deterministic across runs"
        )
    return failures


def write_report_block(payload: dict, results_dir: Path) -> None:
    """Persist the human-readable ledger block for REPORT.md."""
    from repro.bench import Reporter

    reporter = Reporter(
        "regress1",
        "Regression ledger: op-count fingerprints vs committed baselines",
        results_dir=results_dir,
    )
    gates = payload["diff_gates"]
    reporter.note(
        "fingerprints = plan hash + per-shard OpCounters + trace tallies "
        "+ virtual-cost critical path; compared exactly against "
        "benchmarks/baselines/ (wall-clock never fingerprinted); "
        f"divergence gates: same-spec identical={gates['same_spec_identical']}, "
        f"fault localized at seq={gates['fault_seq']} "
        f"span={gates['fault_span']} stable={gates['fault_stable']}"
    )
    reporter.header(
        "cell", "status", "reproducible", "critical_path", "plan", "baseline@",
    )
    for cell in payload["cells"]:
        reporter.row(
            cell["cell"],
            cell["baseline"],
            "yes" if cell["reproducible"] else "NO",
            f"{cell['critical_path_total']:g}",
            cell["fingerprint"]["plan"],
            cell.get("baseline_commit") or "-",
        )
    reporter.close()


def summary(payload: dict) -> list[str]:
    """The ledger status line, then one line per cell that is not clean."""
    update = payload["mode"] == "update"
    statuses = {cell["cell"]: cell["baseline"] for cell in payload["cells"]}
    ok = sum(1 for status in statuses.values() if status in ("ok", "updated"))
    lines = [
        f"regress: {ok}/{len(statuses)} cells "
        f"{'updated' if update else 'clean against the ledger'} "
        f"({payload['baselines_dir']})"
    ]
    for cell, status in statuses.items():
        if status not in ("ok", "updated"):
            lines.append(f"  {cell}: {status}")
    return lines


def run_and_write(
    *,
    check: bool = False,
    update: bool = False,
    results_dir: str | Path | None = None,
    baselines_dir: str | Path | None = None,
) -> int:
    """Run the ledger suite and publish it; returns the exit code.

    Behind ``python -m repro bench-regress``: non-zero when a gate
    fails — in ``--check`` mode that includes any drift or missing
    baseline.
    """
    if check and update:
        print("--check and --update are mutually exclusive", file=sys.stderr)
        return 2
    return publish(
        "regress",
        run_suite(baselines_dir=baselines_dir, update=update),
        results_dir,
        write_block=write_report_block,
        summary=summary,
        check=lambda payload: check_payload(payload, check=check),
    )
